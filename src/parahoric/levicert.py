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

The layers of a parahoric model are unions of whole Weyl orbits of the
quotient, each weight once (see :func:`from_parahoric`), so their characters
and dimensions are read off the weights.  Rule E2 reads every layer's
expansion in the chi basis off :attr:`SplittingSequence.expansions`.  For a
layer of a model it is found without Freudenthal's recursion, in the loop
that checks each weight's W-stability, by the Brauer-Klimyk rule (Klimyk
1968; Humphreys, *Introduction to Lie Algebras and Representation Theory*,
section 24, exercise 9): a W-invariant character is chi(0) times itself, so
it equals sum_nu m(nu) chi(nu) over all of its weights nu, with chi(nu)
normalized by the dot action (see :func:`parahoric.charring.chi_normalize`).
The chi(lam) are linearly independent, so an expansion is unique and
additive: rule E1's expansion of the aggregate character is the sum of the
layer expansions, with zero coefficients dropped, summed in the pass that
reads them for rule E2 and not expanded again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import obs
from .charring import (
    Character,
    VirtualChiSum,
    character_to_json,
    chi_char,
    chi_expand,
    dim,
    exterior_square,
)
from .rootdata import InvariantViolation, NotPrime, ReadOnly, RootDatum, Weight, build_root_datum, check_prime, is_prime

if TYPE_CHECKING:
    from .affine import ParahoricModel

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


class SplittingSequence(ReadOnly):
    """Radical layer characters V_0, ..., V_{n-1} over the reductive quotient.

    ``dims`` holds the layer dimensions and ``expansions`` their expansions
    in the chi basis.  Neither is a constructor argument: construction sums
    the dims from the characters and expands each layer by
    :func:`parahoric.charring.chi_expand` once, so both always agree with
    ``layers``.  Only :func:`from_parahoric` fills them otherwise, from the
    weights of layers it has checked to be whole orbits: the weight counts
    and the Brauer-Klimyk sums.
    """

    __slots__ = ("quotient_datum", "layers", "dims", "expansions")

    def __init__(self, quotient_datum: RootDatum, layers: tuple[Character, ...]):
        if not all(ch.datum.same_datum(quotient_datum) for ch in layers):
            raise InvariantViolation("a layer character lives over another root datum")
        object.__setattr__(self, "quotient_datum", quotient_datum)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "dims", tuple(dim(ch) for ch in layers))
        object.__setattr__(self, "expansions", tuple(chi_expand(ch) for ch in layers))


def from_parahoric(model: ParahoricModel) -> SplittingSequence:
    """Layer weights of a parahoric model as characters of the quotient.

    Layer at grading value j becomes V_{j-1}, matching the radical filtration
    from the top: V_0 is R_0/R_1.  A layer is a set of distinct ambient
    roots that the quotient's Weyl group W keeps stable, since a reflection
    in a quotient root keeps the grading value.  So it is a union of whole
    W-orbits, each weight of multiplicity one: its compressed character is 1
    on each dominant member and its dimension is its number of weights.
    W-stability is checked, not assumed: the layers' ambient root indices
    must lie in ``range(len(model.datum.roots))``, be distinct and be closed
    under the quotient's simple reflections, which generate W.

    Both tests are lookups by ambient root index: each quotient simple root
    a reads its row of :meth:`RootDatum.reflection_row` on the ambient datum.
    Height is additive and a is a positive ambient root, so s_a(w) = w -
    <w, a^vee> a gives q = <w, a^vee> = (ht w - ht s_a w) / ht a, and w is
    dominant when no s_a raises its ambient height.  Each key is then known
    to be dominant, of multiplicity 1 and of the lattice's length, so the
    layer characters are built without the constructor's checks.

    The same loop, one per layer weight, expands each layer in the chi basis
    by the Brauer-Klimyk rule: the expansion is the sum of chi(w) over the
    layer's weights w, each normalized by the dot action
    s_a . w = w - (q + 1) a.  A dominant w adds +1 at w.  A w with some
    q = -1 adds nothing: w + rho is then singular.  Otherwise some q <= -2,
    and the loop steps w to s_a . w = w + (-q - 1) a, found by -q - 1 <= 2
    lookups in the ambient :meth:`RootDatum.sum_row` of a, which
    :func:`parahoric.rootdata.sub_root_datum` has built, and classifies it
    again with the sign flipped.  That is a root of the same layer: the
    a-string through w runs from w to s_a(w) = w + (-q) a, and a has grading
    value 0.  A dominant or singular weight is reached within as many steps
    as the quotient has positive roots.  In a simply-laced type no weight
    steps, since two non-proportional roots pair in {-1, 0, 1}.  So no
    quotient table is built, and a step that finds no root, leaves the layer
    or overruns that bound raises :class:`InvariantViolation`.
    """
    datum, ambient = model.quotient_datum, model.datum
    roots, size = ambient.roots, len(ambient.roots)
    simples = [ambient.root_index[coords] for coords in datum.simple_coords]
    gens = [(ambient.reflection_row(a), ambient.sum_row(a), roots[a].height) for a in simples]
    bound = len(datum.positive_roots)
    layers, expansions, walks = [], [], 0
    for layer in model.layers:
        for j in layer:
            if not 0 <= j < size:
                raise InvariantViolation(f"layer weight {j} is not an ambient root")
        members = set(layer)
        if len(members) != len(layer):
            raise InvariantViolation(f"layer weights are not distinct: {len(members)} of {len(layer)}")
        dominant, walked = {}, {}
        for j in layer:
            steps = 0
            while True:
                w, height, singular, step = roots[j].coords, roots[j].height, False, None
                for gen in gens:
                    k = gen[0][j]
                    if k != j:  # <w, a^vee> != 0
                        if k not in members:
                            raise InvariantViolation(f"layer is not stable under the quotient's Weyl group at {w}")
                        rise = roots[k].height - height  # -q ht a
                        if rise == gen[2]:
                            singular = True
                        elif rise > gen[2]:
                            step = gen
                if singular or step is None:
                    break
                if not steps:
                    walks += 1
                row, sums, h = step
                for _ in range((roots[row[j]].height - height) // h - 1):  # -q - 1
                    k = sums[j]
                    if k is None:
                        raise InvariantViolation(f"dot walk finds no root above {roots[j].coords}")
                    j = k
                if j not in members:
                    raise InvariantViolation(f"dot walk leaves its layer at {roots[j].coords}")
                steps += 1
                if steps > bound:
                    raise InvariantViolation(f"dot walk takes more than {bound} steps")
            if singular:
                continue
            if steps:
                walked[w] = walked.get(w, 0) + (-1 if steps & 1 else 1)
            else:
                dominant[w] = 1
        coeffs = dict(dominant)
        for w, c in walked.items():
            coeffs[w] = coeffs.get(w, 0) + c
        layers.append(Character._trusted(datum, dominant))
        expansions.append(VirtualChiSum._trusted({w: c for w, c in coeffs.items() if c}))
    if walks:
        obs.count("levicert.from_parahoric.walks", walks)
    # __init__ would sum the dims again from orbit sizes, a fifth of this
    # function's time from B3 to E6, and expand the layers by Freudenthal
    return SplittingSequence._trusted(datum, tuple(layers), tuple(map(len, model.layers)), tuple(expansions))


class LeviCertificate:
    __slots__ = ("existence", "conjugacy", "rules", "notes")

    def __init__(
        self, existence: str, conjugacy: str, rules: list[dict] | None = None, notes: list[str] | None = None
    ):
        self.existence = existence
        self.conjugacy = conjugacy
        self.rules = [] if rules is None else rules
        self.notes = [] if notes is None else notes

    def rule(self, rule_id: str) -> dict:
        for r in self.rules:
            if r["id"] == rule_id:
                return r
        raise KeyError(f"no rule {rule_id!r} in this certificate")

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
    component; otherwise it is ignored with a note.  The layer expansions
    are read off ``seq.expansions``, not computed here, so certifying one
    sequence at several primes and flags expands its layers once: for a
    sequence of :func:`from_parahoric`, as sums of chi over the layer's
    roots, each moved to the dominant chamber along root strings that stay
    in the layer.
    """
    check_prime(p)
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

    # E1 by linearity: the aggregate's expansion is the sum of E2's
    aggregate: dict[Weight, int] = {}
    layer_values = []
    e2_ok = True
    for expansion, d in zip(seq.expansions, dims):
        for w, c in expansion.coeffs.items():
            aggregate[w] = aggregate.get(w, 0) + c
        nonnegative = expansion.is_nonnegative()
        layer_values.append(
            {
                "dim": d,
                "expansion": character_to_json(expansion.coeffs),
                "nonnegative": nonnegative,
            }
        )
        e2_ok = e2_ok and d <= p and nonnegative
    aggregate_expansion = VirtualChiSum._trusted({w: c for w, c in aggregate.items() if c})
    nonnegative = aggregate_expansion.is_nonnegative()
    e1_ok = total_dim <= bound and nonnegative
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
                "nonnegative": nonnegative,
            },
            "satisfied": e1_ok,
        }
    )
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
    if existence == INCONCLUSIVE:  # T, E1 and E2 all failed, and T comes first
        notes.append(f"existence blocked first at rule T: {rules[0]['hypothesis']}")
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
