"""The p-modular ledger: Jantzen sums, alcove tests, derived simple characters.

For a prime p, the Jantzen sum formula expresses the character sum of the
filtration layers below a Weyl module V(lam):

    J(lam) = sum over positive roots a and 0 < m*p < <lam+rho, a^vee>
             of nu_p(m*p) * chi(s_{a, m*p} . lam)

with ``.`` the dot action ``s_{a,n} . lam = lam - (<lam+rho, a^vee> - n) a``
and chi normalized by the alternating rule (zero on singular weights).  The
ledger derives simple characters in exactly two shallow ways: a weight in the
closure of the lowest alcove has simple Weyl module, and when J(lam) equals a
single known simple character ch L(mu) the radical of V(lam) is L(mu).
Anything deeper is reported as undetermined rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from .charring import (
    Character,
    DatumMismatch,
    VirtualChiSum,
    _chi_mult,
    _chi_normalize,
    character_to_json,
    dim,
)
from .rootdata import InvariantViolation, NotPrime, Root, RootDatum, Weight, check_prime, dot, weight_key, wsub

__all__ = [
    "NotPrime",
    "HypothesisUnmet",
    "LOWEST_ALCOVE",
    "JANTZEN_RESOLVED",
    "LedgerEntry",
    "SimpleLedger",
    "JantzenReport",
    "dot_reflect",
    "jantzen_sum",
    "lowest_alcove_test",
    "resolve_simple",
    "ext1_dim",
    "ext2_chain",
    "jantzen_report",
]


class HypothesisUnmet(ValueError):
    """Raised when a derivation's hypotheses are not certified."""


LOWEST_ALCOVE = "lowest_alcove"
JANTZEN_RESOLVED = "jantzen_resolved"


def _nu_p(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def dot_reflect(rd: RootDatum, alpha: Root, n: int, lam: Weight) -> Weight:
    """Affine dot reflection s_{alpha, n} . lam = lam - (<lam+rho,a^vee> - n) a."""
    c = dot(lam, alpha.coroot) + alpha.coroot_height - n
    return wsub(lam, tuple(c * x for x in alpha.coords))


def jantzen_sum(rd: RootDatum, p: int, lam: Weight) -> VirtualChiSum:
    """The Jantzen sum J(lam) as an integer chi-combination."""
    check_prime(p)
    rd.check_dominant(lam)
    return _jantzen_sum(rd, p, lam)


def _jantzen_sum(rd: RootDatum, p: int, lam: Weight) -> VirtualChiSum:
    """:func:`jantzen_sum` on checked arguments; it drops each coefficient that cancels."""
    coeffs: dict[Weight, int] = {}
    for alpha in rd.positive_roots:
        pairing = dot(lam, alpha.coroot) + alpha.coroot_height
        mp = p
        while mp < pairing:
            normalized = _chi_normalize(rd, dot_reflect(rd, alpha, mp, lam))
            if normalized is not None:
                sign, w = normalized
                c = coeffs.get(w, 0) + sign * _nu_p(p, mp)
                if c:
                    coeffs[w] = c
                else:
                    coeffs.pop(w, None)
            mp += p
    return VirtualChiSum._trusted(coeffs)


def lowest_alcove_test(rd: RootDatum, p: int, lam: Weight) -> bool:
    """True iff lam lies in the closure of the lowest p-alcove:
    <lam+rho, a^vee> <= p for every positive coroot.  lam + rho is
    dominant, so it is tested on the highest coroot of each component
    alone (:meth:`RootDatum.highest_coroots`), which pairs with it at least
    as much as any other positive coroot."""
    check_prime(p)
    rd.check_dominant(lam)
    return _in_lowest_alcove(rd, p, lam)


def _in_lowest_alcove(rd: RootDatum, p: int, lam: Weight) -> bool:
    """:func:`lowest_alcove_test` on checked arguments."""
    return all(dot(lam, theta.coroot) + theta.coroot_height <= p for theta in rd.highest_coroots())


class LedgerEntry(NamedTuple):
    char: Character
    provenance: str
    radical: dict[Weight, int]  # simple factors of rad V, completely reducible


class SimpleLedger:
    """Known simple characters at a fixed prime, with their provenance.

    :func:`resolve_simple` memoizes both outcomes in it: derived simples go
    to ``entries``, weights the shallow rules cannot resolve go to
    ``undetermined``.  That verdict depends only on (datum, p, lam), so it
    never goes stale.
    """

    __slots__ = ("datum", "p", "entries", "undetermined")

    def __init__(
        self,
        datum: RootDatum,
        p: int,
        entries: dict[Weight, LedgerEntry] | None = None,
        undetermined: set[Weight] | None = None,
    ):
        check_prime(p)
        self.datum = datum
        self.p = p
        self.entries = {} if entries is None else entries
        self.undetermined = set() if undetermined is None else undetermined

    def get(self, lam: Weight) -> LedgerEntry | None:
        return self.entries.get(lam)


def _check_ledger(ledger: SimpleLedger, rd: RootDatum, p: int, *weights: Weight):
    """The checks of the ledger's entry points: p prime, weights dominant, the ledger over rd at p."""
    check_prime(p)
    for lam in weights:
        rd.check_dominant(lam)
    if not ledger.datum.same_datum(rd):
        raise DatumMismatch("the ledger is over a different root datum")
    if ledger.p != p:
        raise ValueError(f"the ledger is at p = {ledger.p}, not {p}")


def resolve_simple(rd: RootDatum, p: int, lam: Weight, ledger: SimpleLedger) -> Character | None:
    """Derive ch L(lam) if the shallow rules apply, else ``None``.

    Lowest-alcove weights give ch L = chi directly (the Weyl module is
    simple).  Otherwise, if J(lam) equals the character of a ledger entry mu,
    then rad V(lam) = L(mu) and ch L(lam) = chi(lam) - ch L(mu).  The match
    is made in the chi basis: the chi-coefficients of J(lam) are compared
    with those of ch L(mu), read off mu's radical chain, so J(lam) is never
    evaluated to a weight multiset.
    The chi-support of J(lam) consists of weights strictly below lam, so
    those are resolved first; recursion is well-founded on dominance.
    """
    _check_ledger(ledger, rd, p, lam)
    return _resolve(rd, p, lam, ledger, None)


def _resolve(rd: RootDatum, p: int, lam: Weight, ledger: SimpleLedger, j_sum) -> Character | None:
    """:func:`resolve_simple` on checked arguments; ``j_sum`` is J(lam) when
    the caller has it already, else ``None``.  It builds ch L unchecked,
    after its own positivity check."""
    known = ledger.entries.get(lam)
    if known is not None:
        return known.char
    if lam in ledger.undetermined:
        return None
    if _in_lowest_alcove(rd, p, lam):
        ch = Character._trusted(rd, dict(_chi_mult(rd, lam)))
        ledger.entries[lam] = LedgerEntry(ch, LOWEST_ALCOVE, {})
        return ch
    if j_sum is None:
        j_sum = _jantzen_sum(rd, p, lam)
    for w in sorted(j_sum.coeffs):
        _resolve(rd, p, w, ledger, None)
    # the chi(nu) are linearly independent, so J(lam) = ch L(mu) exactly when
    # their chi-coefficients agree; then mu is the top weight of J(lam), which
    # is in its chi-support and so was resolved just above
    mu = rd.top_weight(j_sum.coeffs) if j_sum.coeffs else None
    entry = ledger.entries.get(mu)
    if entry is None or j_sum.coeffs != _chi_coefficients(ledger, mu):
        ledger.undetermined.add(lam)
        return None
    mult = dict(_chi_mult(rd, lam))
    for w, m in entry.char.mult.items():
        mult[w] = mult.get(w, 0) - m
        if not mult[w]:
            del mult[w]
    if not all(m > 0 for m in mult.values()):
        raise InvariantViolation(f"chi({lam}) - ch L({mu}) is not a character: {mult}")
    ch = Character._trusted(rd, mult)
    ledger.entries[lam] = LedgerEntry(ch, JANTZEN_RESOLVED, {mu: 1})
    return ch


def _chi_coefficients(ledger: SimpleLedger, mu: Weight) -> dict[Weight, int]:
    """ch L(mu) in the chi basis for a ledger entry mu, read off its radical
    chain mu = mu_0 -> mu_1 -> ...: ch L(mu_0) = chi(mu_0) - ch L(mu_1), so
    the coefficients alternate +1, -1, ... along the chain.  Every radical is
    empty or a single simple, and the weights strictly decrease along the
    chain, so no two terms collide."""
    coeffs = {}
    sign = 1
    while True:
        coeffs[mu] = sign
        radical = ledger.entries[mu].radical
        if not radical:
            return coeffs
        (mu,) = radical
        sign = -sign


def ext1_dim(rd: RootDatum, p: int, tau: Weight, gamma: Weight, ledger: SimpleLedger) -> int:
    """dim Ext^1(L(tau), L(gamma)) via Hom(rad V(tau), L(gamma)).

    Valid only when gamma is not strictly above tau in dominance and the
    ledger certifies rad V(tau) as an explicit completely reducible multiset
    of simples (empty, or a single simple).
    """
    _check_ledger(ledger, rd, p, tau, gamma)
    return _ext1_dim(rd, p, tau, gamma, ledger)


def _ext1_dim(rd: RootDatum, p: int, tau: Weight, gamma: Weight, ledger: SimpleLedger) -> int:
    """:func:`ext1_dim` on checked arguments."""
    above = rd.root_lattice_coords(wsub(gamma, tau))  # gamma - tau over the simple roots
    if tau != gamma and above is not None and all(c >= 0 for c in above):
        raise HypothesisUnmet(f"{gamma} > {tau}: identification not applicable")
    _resolve(rd, p, tau, ledger, None)
    entry = ledger.entries.get(tau)
    if entry is None:
        raise HypothesisUnmet(f"radical of V({tau}) is not certified by the ledger")
    return entry.radical.get(gamma, 0)


def ext2_chain(rd: RootDatum, p: int, lam: Weight, mu: Weight, gamma: Weight, ledger: SimpleLedger) -> int:
    """dim Ext^2(L(lam), L(gamma)) via the connecting isomorphism with
    Ext^1(L(mu), L(gamma)), valid when rad V(lam) = L(mu) and L(gamma) is a
    simple standard module (lowest alcove)."""
    _check_ledger(ledger, rd, p, lam, mu, gamma)
    for w in (gamma, mu, lam):
        _resolve(rd, p, w, ledger, None)
    lam_entry = ledger.entries.get(lam)
    gamma_entry = ledger.entries.get(gamma)
    if lam_entry is None or lam_entry.radical != {mu: 1}:
        raise HypothesisUnmet(f"rad V({lam}) = L({mu}) is not certified")
    if gamma_entry is None or gamma_entry.provenance != LOWEST_ALCOVE:
        raise HypothesisUnmet(f"L({gamma}) is not certified simple standard")
    return _ext1_dim(rd, p, mu, gamma, ledger)


class JantzenReport(NamedTuple):
    lam: Weight
    p: int
    J: VirtualChiSum
    radical_id: Weight | None
    chL: Character | None  # None means undetermined
    provenance: str | None

    def to_json_dict(self) -> dict:
        return {
            "lambda": weight_key(self.lam),
            "p": self.p,
            "J": character_to_json(self.J.coeffs),
            "radical": weight_key(self.radical_id) if self.radical_id else None,
            "chL_dim": dim(self.chL) if self.chL is not None else None,
            "provenance": self.provenance,
        }


def jantzen_report(rd: RootDatum, p: int, lam: Weight, ledger: SimpleLedger | None = None) -> JantzenReport:
    ledger = ledger if ledger is not None else SimpleLedger(rd, p)
    _check_ledger(ledger, rd, p, lam)
    j = _jantzen_sum(rd, p, lam)
    ch = _resolve(rd, p, lam, ledger, j)
    entry = ledger.entries.get(lam)
    radical_id = None
    provenance = None
    if entry is not None:
        provenance = entry.provenance
        if entry.radical:
            (radical_id,) = entry.radical
    return JantzenReport(lam, p, j, radical_id, ch, provenance)
