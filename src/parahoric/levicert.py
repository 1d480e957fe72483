"""Levi-decomposition certificates for graded unipotent radicals.

Input is a splitting sequence: the reductive quotient's root datum together
with the characters of the radical's vector-group layers.  The engine
evaluates sufficient-condition rules and records, for each, the exact
numeric evidence it checked:

  (T)  the quotient has no roots.  Higher cohomology of a diagonalizable
       group vanishes, so both existence and conjugacy are automatic.  This
       is standard torus cohomology, independent of the dimension-based
       criteria below, and each trace says so.
  (C1) every layer has dimension < p (or < r*p when the derived group of the
       quotient is quasi-simple of semisimple rank r and the refinement flag
       is set): layers are completely reducible with vanishing H^1, so Levi
       factors are conjugate by a rational point of the radical once one
       exists.
  (E1) the total radical dimension is <= p (or <= r*p) and the aggregate
       layer character is a nonnegative sum of chi-basis characters: H^2
       vanishes layerwise and a Levi factor exists.
  (E2) each single layer has dimension <= p and chi-nonnegative character:
       per-layer H^2 vanishing, same conclusion.

Only sufficient conditions are certified; a verdict of "inconclusive" never
asserts non-existence or non-conjugacy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine import ParahoricModel
from .charring import (
    Character,
    character_to_json,
    chi_char,
    chi_expand,
    chi_expand_map,
    dim,
    exterior_square,
)
from .jantzen import NotPrime, is_prime
from .rootdata import InvariantViolation, RootDatum, Weight, build_root_datum

__all__ = [
    "SplittingSequence",
    "LeviCertificate",
    "CERTIFIED",
    "CONDITIONAL",
    "INCONCLUSIVE",
    "from_parahoric",
    "certify",
    "unitary_report",
]

CERTIFIED = "certified"
CONDITIONAL = "conditional_on_existence"
INCONCLUSIVE = "inconclusive"

TORUS_RULE_NOTE = (
    "rule T uses the standard vanishing of higher cohomology for a "
    "diagonalizable group; it is independent of the dimension-based rules"
)


@dataclass(frozen=True)
class SplittingSequence:
    """Radical layer characters V_0, ..., V_{n-1} over the reductive quotient."""

    quotient_datum: RootDatum
    layers: tuple[Character, ...]

    def __post_init__(self):
        if not all(ch.datum.same_datum(self.quotient_datum) for ch in self.layers):
            raise InvariantViolation("a layer character lives over another root datum")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim(ch) for ch in self.layers)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def from_parahoric(model: ParahoricModel) -> SplittingSequence:
    """Layer weights of a parahoric model as characters of the quotient.

    Layer at grading value j becomes V_{j-1} (each weight with multiplicity
    one), matching the radical filtration from the top: V_0 is R_0/R_1.
    """
    datum = model.quotient_datum
    layers = []
    for weights in model.layers:
        mult: dict[Weight, int] = {}
        for w in weights:
            key = datum.dominant_conjugate(w)
            mult[key] = mult.get(key, 0) + 1
        compressed = {}
        for w, m in mult.items():
            compressed[w], rest = divmod(m, datum.orbit_size(w))
            if rest:
                raise InvariantViolation(f"{m} layer weights conjugate to {w} are not whole orbits")
        layers.append(Character(datum, compressed))
    return SplittingSequence(datum, tuple(layers))


@dataclass
class LeviCertificate:
    existence: str
    conjugacy: str
    rules: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def rule(self, rule_id: str) -> dict:
        return next(r for r in self.rules if r["id"] == rule_id)

    def to_json_dict(self) -> dict:
        return {
            "existence": self.existence,
            "conjugacy": self.conjugacy,
            "rules": self.rules,
            "notes": self.notes,
        }


def certify(seq: SplittingSequence, p: int, use_rank_refinement: bool = False) -> LeviCertificate:
    """Evaluate all certificate rules and combine their verdicts.

    The refinement flag raises the (C1)/(E1) dimension bounds from p to r*p,
    but only when the quotient's derived group is a single quasi-simple
    component; otherwise it is ignored with a note.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    datum = seq.quotient_datum
    notes: list[str] = []
    r = datum.semisimple_rank
    refinable = use_rank_refinement and datum.num_components == 1
    if use_rank_refinement and not refinable:
        notes.append(
            "rank refinement ignored: quotient derived group is not a single "
            "quasi-simple component"
        )
    bound = r * p if refinable else p
    dims = seq.dims
    total_dim = sum(dims)
    rules: list[dict] = []

    torus_ok = len(datum.roots) == 0
    rules.append(
        {
            "id": "T",
            "hypothesis": "reductive quotient has no roots",
            "values": {"quotient_root_count": len(datum.roots), "note": TORUS_RULE_NOTE},
            "satisfied": torus_ok,
        }
    )

    c1_ok = all(d < bound for d in dims)
    rules.append(
        {
            "id": "C1",
            "hypothesis": "every layer dimension is below the bound",
            "values": {
                "dims": list(dims),
                "bound": bound,
                "rank_refined": refinable,
            },
            "satisfied": c1_ok,
        }
    )

    aggregate: dict[Weight, int] = {}
    for ch in seq.layers:
        for w, m in ch.mult.items():
            aggregate[w] = aggregate.get(w, 0) + m
    aggregate_expansion = chi_expand_map(datum, aggregate)
    e1_ok = total_dim <= bound and aggregate_expansion.is_nonnegative()
    rules.append(
        {
            "id": "E1",
            "hypothesis": (
                "total radical dimension is within the bound and the aggregate "
                "character is a nonnegative chi-combination"
            ),
            "values": {
                "total_dim": total_dim,
                "bound": bound,
                "expansion": character_to_json(aggregate_expansion.coeffs),
                "nonnegative": aggregate_expansion.is_nonnegative(),
            },
            "satisfied": e1_ok,
        }
    )

    layer_values = []
    e2_ok = True
    for ch, d in zip(seq.layers, dims):
        expansion = chi_expand(ch)
        good = d <= p and expansion.is_nonnegative()
        layer_values.append(
            {
                "dim": d,
                "expansion": character_to_json(expansion.coeffs),
                "nonnegative": expansion.is_nonnegative(),
            }
        )
        e2_ok = e2_ok and good
    rules.append(
        {
            "id": "E2",
            "hypothesis": (
                "each layer has dimension at most p and a nonnegative "
                "chi-combination character"
            ),
            "values": {"p": p, "layers": layer_values},
            "satisfied": e2_ok,
        }
    )

    existence = CERTIFIED if (torus_ok or e1_ok or e2_ok) else INCONCLUSIVE
    if torus_ok:
        conjugacy = CERTIFIED
    elif c1_ok:
        conjugacy = CERTIFIED if existence == CERTIFIED else CONDITIONAL
    else:
        conjugacy = INCONCLUSIVE
    if existence == INCONCLUSIVE:
        first = next(rule for rule in rules if rule["id"] in ("T", "E1", "E2"))
        notes.append(f"existence blocked first at rule {first['id']}: {first['hypothesis']}")
    if conjugacy == INCONCLUSIVE:
        notes.append("conjugacy blocked at rule C1: some layer dimension reaches the bound")
    return LeviCertificate(existence, conjugacy, rules, notes)


def unitary_report(n: int, p: int) -> dict:
    """Levi data for the symplectic special fiber in the even unitary family.

    The radical is a single vector layer isomorphic to the traceless part of
    the exterior square of the 2n-dimensional natural module of Sp(2n).  The
    exterior square itself expands as chi(w2) + chi(0); a Levi factor always
    exists, and Levi factors are conjugate by a rational point of the group
    iff p does not divide n.  The H^1 dichotomy behind the conjugacy verdict
    (H^1(Sp(2n), V(w2)) = k exactly when p | n) is recorded as a cited fact,
    triggered by the trivial summand inside the traceless part (trace of the
    identity being 2n); no cohomology is computed from cochains.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not is_prime(p) or p == 2:
        raise NotPrime(f"p must be an odd prime, got {p}")
    datum = build_root_datum(f"C{n}")
    natural = chi_char(datum, _fundamental(datum, 0))
    lam2 = exterior_square(natural)
    expansion = chi_expand(lam2)
    w2 = _fundamental(datum, 1)
    dim_w0 = datum.weyl_dim(w2)
    return {
        "n": n,
        "p": p,
        "type": f"C{n}",
        "dim_natural": dim(natural),
        "dim_lambda2": dim(lam2),
        "expansion": character_to_json(expansion.coeffs),
        "dim_w0": dim_w0,
        "existence": True,
        "conjugacy_by_group_points": n % p != 0,
        "h1_nonzero_reported": n % p == 0,
        "trigger_trivial_in_w0": (2 * n) % p == 0,
        "notes": [
            "existence and the conjugacy dichotomy are cited verdicts for this "
            "family; the computed trigger is the trivial summand in the "
            "traceless exterior square (identity has trace 2n)"
        ],
    }


def _fundamental(datum: RootDatum, index: int) -> Weight:
    return tuple(1 if i == index else 0 for i in range(datum.n))
