"""The Weyl-invariant character ring, with exact integer arithmetic.

A :class:`Character` stores a W-invariant multiplicity function in
orbit-compressed form: a finite map from dominant weights to positive
integers, the full support being the union of their Weyl orbits.  The basis
characters ``chi(lam)`` (characters of the standard/Weyl modules) are
computed by Freudenthal's multiplicity recursion on the dominant cone, with
the sum over positive roots taken over orbits of the stabilizer of each
weight (Moody and Patera, "Fast recursion formula for weight
multiplicities", Bull. AMS 1982; Stembridge, "Computational aspects of root
systems, Coxeter groups, and Weyl characters", MSJ Memoirs 11, 2001); every
division in that recursion is checked exact, so the results are certified
integers.  The Weyl degree formula lives in :mod:`parahoric.rootdata` and is
kept independent as a cross-check.

A :class:`VirtualChiSum` is an integer combination of the ``chi(lam)``; the
transition matrix between orbit sums and the chi-basis is unitriangular for
the dominance order, which makes the greedy expansion of
:func:`chi_expand` exact and order-independent.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field

from . import __version__
from .rootdata import (
    InvariantViolation,
    NotDominant,
    RootDatum,
    Weight,
    dot,
    parse_weight_key,
    wadd,
    weight_key,
    wneg,
    wsub,
)

__all__ = [
    "Character",
    "VirtualChiSum",
    "DatumMismatch",
    "chi_char",
    "dim",
    "add",
    "scale",
    "tensor",
    "dual",
    "exterior_square",
    "chi_normalize",
    "chi_expand",
    "chi_expand_map",
    "evaluate_chi_sum",
    "character_to_json",
    "character_from_json",
    "DiskCharacters",
]


class DatumMismatch(ValueError):
    """Raised when combining characters over different root data."""


@dataclass(frozen=True)
class Character:
    """Orbit-compressed W-invariant character: dominant weight -> mult > 0."""

    datum: RootDatum
    mult: dict[Weight, int] = field(default_factory=dict)

    def __post_init__(self):
        if not all(m > 0 for m in self.mult.values()):
            raise InvariantViolation(f"character multiplicities must be positive: {self.mult}")
        if not all(self.datum.is_dominant(w) for w in self.mult):
            raise InvariantViolation(f"character keys must be dominant: {list(self.mult)}")

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.datum.same_datum(other.datum)
            and self.mult == other.mult
        )

    def __repr__(self):
        body = " + ".join(
            f"{m}*[{weight_key(w)}]" for w, m in sorted(self.mult.items())
        )
        return f"Character({body or '0'})"


@dataclass(frozen=True)
class VirtualChiSum:
    """Finitely supported integer combination of chi-basis elements."""

    coeffs: dict[Weight, int] = field(default_factory=dict)

    def __post_init__(self):
        if not all(c != 0 for c in self.coeffs.values()):
            raise InvariantViolation(f"chi-sum coefficients must be nonzero: {self.coeffs}")

    def __eq__(self, other):
        return isinstance(other, VirtualChiSum) and self.coeffs == other.coeffs

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def __repr__(self):
        body = " + ".join(
            f"{c}*chi({weight_key(w)})" for w, c in sorted(self.coeffs.items())
        )
        return f"VirtualChiSum({body or '0'})"


def _check_same(ch1: Character, ch2: Character):
    if not ch1.datum.same_datum(ch2.datum):
        raise DatumMismatch("characters live over different root data")


# ---------------------------------------------------------------------------
# Freudenthal recursion


def _dominant_below(rd: RootDatum, lam: Weight) -> dict[Weight, int]:
    """All dominant mu <= lam, each with the height of lam - mu.

    Closure from lam: subtract positive roots and keep the dominant results.
    This reaches every dominant mu <= lam because covers in the dominance
    order on dominant weights differ by a positive root (Stembridge, "The
    partial order of dominant weights", Adv. Math. 1998).  Only roots beta
    with ``<mu, beta^vee> >= 2`` are tried: for the others mu - beta is not
    dominant.
    """
    heights = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta in rd.positive_roots:
                # mu - beta dominant gives <mu - beta, beta^vee> >= 0, that is
                # <mu, beta^vee> >= 2
                if dot(mu, beta.coroot) < 2:
                    continue
                nu = wsub(mu, beta.coords)
                if nu not in heights and rd.is_dominant(nu):
                    heights[nu] = heights[mu] + beta.height
                    nxt.append(nu)
        frontier = nxt
    return heights


def _plausible_character(rd: RootDatum, lam: Weight, mult) -> bool:
    """Whether a stored entry can be chi(lam): lam has multiplicity 1, every
    key is a dominant weight below lam with a positive integer multiplicity,
    and the orbit-weighted sum is the Weyl dimension."""
    if mult.get(lam) != 1:
        return False
    for w, m in mult.items():
        if not (
            type(m) is int
            and m > 0
            and len(w) == rd.n
            and rd.is_dominant(w)
            and rd.dominance_leq(w, lam)
        ):
            return False
    return sum(m * rd.orbit_size(w) for w, m in mult.items()) == rd.weyl_dim(lam)


def chi_char(rd: RootDatum, lam: Weight) -> Character:
    """Character of the standard module with highest weight ``lam``.

    Multiplicities come from Freudenthal's recursion run over the dominant
    cone only; a non-dominant weight contributes through its dominant
    conjugate.  The divisor ``(lam+mu+2rho, lam-mu)`` is assembled from the
    per-root form functionals, so the whole computation is integer-exact.
    Results are memoized in ``rd.chi_cache``.

    The string sum ``T(alpha) = sum_{k>=1} m(mu+k alpha) (mu+k alpha, alpha)``
    is constant on the orbits of W_J, the stabilizer of mu, where J is the
    set of simple roots orthogonal to mu: m is W-invariant and W_J fixes mu.
    So one string is walked per W_J-orbit of the roots, weighted by the
    orbit's number of positive roots (all of an orbit outside Phi_J, half of
    one inside it), from :meth:`RootDatum.stabilizer_orbits` (Moody and
    Patera 1982; Stembridge 2001).  The sum, and so every check on it, is the
    same as over all positive roots.
    """
    if not rd.is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    cached = rd.chi_cache.get(lam)
    if cached is not None:
        return Character(rd, dict(cached))
    # by height; ties in lexicographic order of the coordinates of lam - mu,
    # which fixes the insertion order of mult
    candidates = sorted(
        (height, rd.root_lattice_coords(wsub(lam, mu)), mu)
        for mu, height in _dominant_below(rd, lam).items()
    )
    mult: dict[Weight, int] = {}
    simple_coroots = [a.coroot for a in rd.simple_roots]
    conjugates: dict[Weight, Weight] = {}
    for height, coeffs, mu in candidates:
        if height == 0:
            mult[mu] = 1
            continue
        # one alpha-string per W_J-orbit, weighted by its count of positive
        # roots; the pairing (nu, alpha) grows by (alpha, alpha) per step
        zeros = tuple(j for j, f in enumerate(simple_coroots) if not dot(mu, f))
        total = 0
        for form, coords, norm, count in rd.stabilizer_orbits(zeros):
            nu = mu
            f = dot(form, mu)
            string = 0
            while True:
                nu = wadd(nu, coords)
                f += norm
                dom = conjugates.get(nu)
                if dom is None:
                    dom = conjugates[nu] = rd.dominant_conjugate(nu)
                m = mult.get(dom)
                if m is None:
                    break
                string += m * f
            total += count * string
        lam_mu = wadd(lam, mu)
        denom = sum(
            c * (dot(simple.form, lam_mu) + two_rho)
            for c, simple, two_rho in zip(coeffs, rd.simple_roots, rd._two_rho_form)
        )
        if denom <= 0 or (2 * total) % denom:
            raise InvariantViolation(f"Freudenthal step at {mu}: {2 * total} / {denom}")
        m_mu = (2 * total) // denom
        if m_mu <= 0:
            raise InvariantViolation(f"multiplicity {m_mu} of {mu} in chi({lam}) is not positive")
        mult[mu] = m_mu
    rd.chi_cache[lam] = dict(mult)
    return Character(rd, mult)


# ---------------------------------------------------------------------------
# Ring operations


def dim(ch: Character) -> int:
    """Total dimension: multiplicity times orbit size, summed."""
    return sum(m * ch.datum.orbit_size(w) for w, m in ch.mult.items())


def expand_full(ch: Character) -> dict[Weight, int]:
    """Full weight multiplicity function (orbit-expanded)."""
    full: dict[Weight, int] = {}
    for w, m in ch.mult.items():
        for v in ch.datum.weyl_orbit(w):
            full[v] = full.get(v, 0) + m
    return full


def _compress(rd: RootDatum, full: dict[Weight, int]) -> Character:
    mult = {w: m for w, m in full.items() if m and rd.is_dominant(w)}
    return Character(rd, mult)


def add(ch1: Character, ch2: Character) -> Character:
    _check_same(ch1, ch2)
    out = dict(ch1.mult)
    for w, m in ch2.mult.items():
        out[w] = out.get(w, 0) + m
    return Character(ch1.datum, out)


def scale(ch: Character, k: int) -> Character:
    if k < 0:
        raise ValueError("scale factor must be nonnegative")
    if k == 0:
        return Character(ch.datum, {})
    return Character(ch.datum, {w: k * m for w, m in ch.mult.items()})


def tensor(ch1: Character, ch2: Character) -> Character:
    """Tensor product: full-orbit convolution, then orbit re-compression."""
    _check_same(ch1, ch2)
    full1 = expand_full(ch1)
    full2 = expand_full(ch2)
    out: dict[Weight, int] = {}
    for w1, m1 in full1.items():
        for w2, m2 in full2.items():
            key = wadd(w1, w2)
            out[key] = out.get(key, 0) + m1 * m2
    return _compress(ch1.datum, out)


def dual(ch: Character) -> Character:
    """Contragredient character: negate every weight, re-compress."""
    out: dict[Weight, int] = {}
    for w, m in ch.mult.items():
        key = ch.datum.dominant_conjugate(wneg(w))
        out[key] = out.get(key, 0) + m
    return Character(ch.datum, out)


def exterior_square(ch: Character) -> Character:
    """Lambda^2 of the underlying weight multiset; dim d -> d(d-1)/2."""
    full = sorted(expand_full(ch).items())
    out: dict[Weight, int] = {}
    for i, (w1, m1) in enumerate(full):
        pairs_same = m1 * (m1 - 1) // 2
        if pairs_same:
            key = wadd(w1, w1)
            out[key] = out.get(key, 0) + pairs_same
        for w2, m2 in full[i + 1 :]:
            key = wadd(w1, w2)
            out[key] = out.get(key, 0) + m1 * m2
    return _compress(ch.datum, out)


# ---------------------------------------------------------------------------
# The chi basis


def chi_normalize(rd: RootDatum, mu: Weight):
    """Normalize chi at an arbitrary weight via the dot action.

    Returns ``None`` when mu + rho is singular (chi vanishes), else the pair
    ``(sign, dominant weight)`` with ``chi(mu) = sign * chi(dominant)``.
    Pairings with rho enter only through coroot heights, so this works over
    quotient data where rho itself is not a lattice point.
    """
    w = mu
    sign = 1
    while True:
        progressed = False
        for a in rd.simple_roots:
            shifted = dot(w, a.coroot) + 1  # <mu + rho, a^vee>
            if shifted == 0:
                return None
            if shifted < 0:
                w = wsub(w, tuple(shifted * c for c in a.coords))
                sign = -sign
                progressed = True
                break
        if not progressed:
            return sign, w


def chi_expand_map(rd: RootDatum, mult: dict[Weight, int]) -> VirtualChiSum:
    """Expand a compressed W-invariant integer function in the chi basis.

    Greedy: repeatedly take the supported weight with the largest pairing
    with 2*rho^vee, which grows strictly along the dominance order (ties:
    lexicographically largest), record its coefficient, and subtract that
    multiple of its chi character.  Unitriangularity makes this exact.
    """
    work = {w: m for w, m in mult.items() if m != 0}
    if not all(rd.is_dominant(w) for w in work):
        raise InvariantViolation(f"chi-expansion of non-dominant keys: {list(work)}")
    out: dict[Weight, int] = {}
    while work:
        top = rd.top_weight(work)
        c = work[top]
        out[top] = c
        for w, m in chi_char(rd, top).mult.items():
            new = work.get(w, 0) - c * m
            if new:
                work[w] = new
            else:
                work.pop(w, None)
    return VirtualChiSum(out)


def chi_expand(ch: Character) -> VirtualChiSum:
    return chi_expand_map(ch.datum, ch.mult)


def evaluate_chi_sum(rd: RootDatum, vcs: VirtualChiSum) -> dict[Weight, int]:
    """Evaluate an integer chi-combination to a compressed weight function
    (entries may be negative; an actual module character is nonnegative)."""
    out: dict[Weight, int] = {}
    for w, c in vcs.coeffs.items():
        for v, m in chi_char(rd, w).mult.items():
            new = out.get(v, 0) + c * m
            if new:
                out[v] = new
            else:
                out.pop(v, None)
    return out


# ---------------------------------------------------------------------------
# JSON forms


def character_to_json(mult: dict[Weight, int]) -> dict[str, int]:
    """The JSON form of a weight -> integer map, a character's multiplicities
    or a chi-sum's coefficients: weight keys in sorted weight order."""
    return {weight_key(w): m for w, m in sorted(mult.items())}


def character_from_json(data: dict[str, int]) -> dict[Weight, int]:
    return {parse_weight_key(k): v for k, v in data.items()}


# ---------------------------------------------------------------------------
# Characters on disk


class DiskCharacters:
    """A ``chi_cache`` store for a datum built from a Dynkin specification:
    one file ``<root>/<version>/<type>-<fingerprint>/<weight>.json`` per
    highest weight, in the :func:`character_to_json` format.  The version is
    the package's, and the fingerprint is the CRC-32 of ``repr((n, cartan))``
    in 8 hex digits, so an entry written by another release or for another
    lattice or Cartan convention is never read.

    A missing, unreadable or implausible file (see
    :func:`_plausible_character`) is a miss, which the recomputed character
    then overwrites.  Files are written atomically, each writer through a
    temporary file of its own; an entry read or written once is served from
    memory after that.
    """

    def __init__(self, rd: RootDatum, root: str):
        self.rd = rd
        # CRC-32, not SHA-256: importing hashlib adds about 5 ms to every CLI
        # process, and the fingerprint only tells data apart, it guards nothing
        fingerprint = f"{zlib.crc32(repr((rd.n, rd.cartan)).encode()):08x}"
        self.dir = os.path.join(root, __version__, f"{rd.spec_string}-{fingerprint}")
        self.memo: dict[Weight, dict[Weight, int]] = {}

    def _path(self, lam: Weight) -> str:
        return os.path.join(self.dir, weight_key(lam) + ".json")

    def get(self, lam: Weight) -> dict[Weight, int] | None:
        mult = self.memo.get(lam)
        if mult is None:
            try:
                with open(self._path(lam), "r", encoding="utf-8") as fh:
                    mult = character_from_json(json.load(fh))
            except (OSError, ValueError, AttributeError):
                return None
            if not _plausible_character(self.rd, lam, mult):
                return None
            self.memo[lam] = mult
        return mult

    def __setitem__(self, lam: Weight, mult: dict[Weight, int]) -> None:
        path = self._path(lam)
        os.makedirs(self.dir, exist_ok=True)
        # a temporary file per writer: two writers of one entry must not
        # write through, or rename away, each other's file
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump(character_to_json(mult), fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.memo[lam] = mult
