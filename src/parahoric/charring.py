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
integers.  As in those papers, the recursion runs on Dynkin labels, the
pairings ``<mu, alpha_i^vee>`` with the simple coroots: dominance is a sign
test, subtracting or adding a root adds a fixed vector, and the chamber walk
reads and writes the labels themselves.  The Weyl degree formula lives in
:mod:`parahoric.rootdata` and is kept independent as a cross-check.  The
Weyl-group walks come from there too: the dominant weights below lam are a
breadth-first closure, and :func:`chi_normalize` is the chamber walk run on
the pairings with alpha_i^vee shifted by rho.

A :class:`VirtualChiSum` is an integer combination of the ``chi(lam)``; the
transition matrix between orbit sums and the chi-basis is unitriangular for
the dominance order, which makes the greedy expansion of
:func:`chi_expand` exact and order-independent.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
import zlib

from . import __version__, obs
from .rootdata import (
    InvariantViolation,
    NotDominant,
    ReadOnly,
    RootDatum,
    Weight,
    chamber_walk,
    closure,
    combine,
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
    "tensor",
    "dual",
    "exterior_square",
    "chi_normalize",
    "chi_expand",
    "character_to_json",
    "character_from_json",
    "DiskCharacters",
]


class DatumMismatch(ValueError):
    """Raised when combining characters over different root data."""


class Character(ReadOnly):
    """Orbit-compressed W-invariant character: dominant weight -> mult > 0."""

    __slots__ = ("datum", "mult")

    def __init__(self, datum: RootDatum, mult: dict[Weight, int] | None = None):
        mult = {} if mult is None else mult
        datum.check_weights(*mult)
        if not all(type(m) is int for m in mult.values()):
            raise ValueError(f"character multiplicities must be integers: {mult}")
        if not all(m > 0 for m in mult.values()):
            raise InvariantViolation(f"character multiplicities must be positive: {mult}")
        if not all(datum.is_dominant(w) for w in mult):
            raise InvariantViolation(f"character keys must be dominant: {list(mult)}")
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "mult", mult)

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


class VirtualChiSum(ReadOnly):
    """Finitely supported integer combination of chi-basis elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Weight, int] | None = None):
        coeffs = {} if coeffs is None else coeffs
        if not all(type(c) is int for c in coeffs.values()):
            raise ValueError(f"chi-sum coefficients must be integers: {coeffs}")
        if not all(c != 0 for c in coeffs.values()):
            raise InvariantViolation(f"chi-sum coefficients must be nonzero: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

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


def _dominant_below(rd: RootDatum, start: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """All dominant mu <= lam, given the Dynkin labels ``start`` of a dominant
    lam, each as its labels (its pairings with the simple coroots) mapped to
    the coefficients of lam - mu over the simple roots, in the order reached
    by :func:`closure` from lam, which subtracts positive roots and keeps the
    dominant results.  This reaches every dominant mu <= lam because covers
    in the dominance order on dominant weights differ by a positive root
    (Stembridge, "The partial order of dominant weights", Adv. Math. 1998).

    The closure runs on labels alone (Moody and Patera 1982): mu - beta has
    the labels of mu minus those of beta, and it is dominant when none of
    them is negative.  From a mu whose labels vanish on J, only the rows of
    :meth:`RootDatum.closure_rows` for J are tried, the roots beta with
    labels at most 0 on J: any other beta leaves mu - beta a negative label
    there.  No other test is needed first: if mu - beta is dominant, each
    label L_i of mu is at least that of beta, so ``<mu, beta^vee> = sum L_i
    c_i`` over the coroot coefficients c_i >= 0 of beta is at least
    ``<beta, beta^vee> = 2``.
    """
    reached = {start: (0,) * len(start)}

    def step(labels, coeffs):
        for beta_labels, beta_coeffs in rd.closure_rows(tuple(j for j, x in enumerate(labels) if not x)):
            nu = tuple(map(operator.sub, labels, beta_labels))
            if min(nu) >= 0 and nu not in reached:
                yield nu, wadd(coeffs, beta_coeffs)
    return closure(reached, step)


def _plausible_character(rd: RootDatum, lam: Weight, mult) -> bool:
    """Whether a stored entry can be chi(lam): lam has multiplicity 1, every
    key is a dominant weight below lam with a positive integer multiplicity,
    the orbit-weighted sum is the Weyl dimension, and each simple component c
    satisfies Dynkin's second-moment identity (Dynkin, "Semisimple
    subalgebras of semisimple Lie algebras", 1952): dim g_c sum_nu (nu,
    nu)_c = rank_c dim V (lam, lam + 2 rho)_c, the sum over the weights nu
    of V with multiplicity, where ( , )_c is the form on component c.  An
    entry of the right dimension whose weights sit in orbits of other
    norms fails it.

    Both sides are read off Dynkin labels L: with h_j = (alpha_j, alpha_j) /
    2 and adj * cartan = det * I, det (omega_i, omega_j) = adj_ji h_j, so
    det (x, y)_c = sum_{j in c} h_j L_j(y) (adj L(x))_j, and lam + 2 rho
    has the labels L(lam) + 2.  Orbit sizes come from the zero sets of the
    labels, as in :func:`dim`."""
    if mult.get(lam) != 1:
        return False
    for w, m in mult.items():
        if not (
            type(m) is int
            and m > 0
            and len(w) == rd.n
            and rd.is_dominant(w)
            and (below := rd.root_lattice_coords(wsub(lam, w))) is not None  # lam - w over the simple roots
            and all(c >= 0 for c in below)
        ):
            return False
    adj, half = rd.linear_tables().adj, _half_norms(rd)
    component = [c for c, simples in enumerate(rd.simple_indices) for _ in simples]  # of each simple root

    def forms(x, shift):
        """The labels of x and det (x, x + 2 shift rho)_c per component c."""
        labels = [dot(x, f) for f in rd.simple_coroots]
        out = [0] * rd.num_components
        for j, (h, row, label) in enumerate(zip(half, adj, labels)):
            out[component[j]] += h * dot(row, labels) * (label + 2 * shift)
        return labels, out

    total, moments = 0, [0] * rd.num_components
    for w, m in mult.items():
        labels, norms = forms(w, 0)
        weight = m * rd._orbit_size(tuple(j for j, x in enumerate(labels) if not x))
        total += weight
        moments = [s + weight * x for s, x in zip(moments, norms)]
    if total != rd.weyl_dim(lam):
        return False
    for c, (moment, top) in enumerate(zip(moments, forms(lam, 1)[1])):
        rank = len(rd.simple_indices[c])
        dim_g = rank + 2 * sum(1 for b in rd.positive_roots if b.component == c)
        if dim_g * moment != rank * total * top:
            return False
    return True


def _half_norms(rd: RootDatum) -> tuple[int, ...]:
    """(alpha_i, alpha_i) / 2 per simple root, from each root's own ``form``
    and ``coords``, checked even: every root of a datum, a quotient's
    included, is a root of a spec, whose form gives its simple roots the
    norms 2 d_i, d the symmetrizer, and is W-invariant."""
    norms = [dot(a.form, a.coords) for a in rd.simple_roots]
    if any(x % 2 for x in norms):
        raise InvariantViolation(f"simple roots of odd norm: {norms}")
    return tuple(x // 2 for x in norms)


def chi_char(rd: RootDatum, lam: Weight) -> Character:
    """Character of the standard module with highest weight ``lam``.

    Multiplicities come from Freudenthal's recursion run over the dominant
    cone only; a non-dominant weight contributes through its dominant
    conjugate.  The divisor ``(lam+mu+2rho, lam-mu)`` is assembled from the
    simple roots' half-norms and the 2 rho functional, so the whole
    computation is integer-exact.  Results are memoized in ``rd.chi_cache``.
    The Dynkin labels of ``lam`` are computed once, here: they give the
    dominance test, and on a miss the start of the dominance closure and the
    norm differences below.

    The string sum ``T(alpha) = sum_{k>=1} m(mu+k alpha) (mu+k alpha, alpha)``
    is constant on the orbits of W_J, the stabilizer of mu, where J is the
    set of simple roots orthogonal to mu: m is W-invariant and W_J fixes mu.
    So one string is walked per W_J-orbit of the roots, weighted by the
    orbit's number of positive roots (all of an orbit outside Phi_J, half of
    one inside it), from :meth:`RootDatum.stabilizer_orbits` (Moody and
    Patera 1982; Stembridge 2001).  The sum, and so every check on it, is the
    same as over all positive roots.  Each string starts from the orbit's
    highest positive root alpha, which pairs nonnegatively with the simple
    coroots of J, so mu + k alpha does too and its chamber walk is short.

    Every weight nu of V(lam) has (nu, nu) <= (lam, lam), with equality
    exactly on the orbit W lam, so a string stops at its first weight longer
    than lam without looking that weight up.  For mu = lam - sum c_i alpha_i,
    (lam, lam) - (mu, mu) = (lam - mu, lam + mu) = sum c_i (alpha_i, lam +
    mu), and since (alpha_i, x) = h_i L_i(x), with h_i = (alpha_i, alpha_i)
    / 2 and L_i(x) = <x, alpha_i^vee> the i-th label, that is ``sum c_i h_i
    (L_i(lam) + L_i(mu))``, read off the labels of lam and mu.  The divisor
    adds sum c_i (2 rho, alpha_i) to it.  Along a string, (mu + k alpha, mu +
    k alpha) grows by 2 (mu + k alpha, alpha) - (alpha, alpha) from k - 1 to
    k.

    A minuscule or zero lam, one that pairs at most 1 with every positive
    coroot, has no other dominant weight below it, and chi(lam) is its orbit
    sum; it is stored as such, without the recursion.  It is tested on the
    highest coroot of each component alone (:meth:`RootDatum.highest_coroots`),
    which pairs with lam at least as much as any other positive coroot.

    The result skips the :class:`Character` checks: its keys are the dominant
    weights below the checked ``lam``, with multiplicities checked positive as
    found or read from a disk entry that passed :func:`_plausible_character`.
    """
    rd.check_weights(lam)
    labels = tuple(dot(lam, f) for f in rd.simple_coroots)
    if labels and min(labels) < 0:
        raise NotDominant(f"{lam} is not dominant")
    return Character._trusted(rd, dict(_chi_mult(rd, lam, labels)))


def _chi_mult(rd: RootDatum, lam: Weight, lam_labels: tuple[int, ...] | None = None) -> dict[Weight, int]:
    """The multiplicities of ``chi(lam)`` for a dominant ``lam``, as the map
    that ``rd.chi_cache`` holds: computed and stored on a miss, returned as
    stored on a hit.  Readers must not change it: :func:`chi_char`, which
    passes the labels of ``lam`` it has, and the ledger of
    :mod:`parahoric.jantzen` copy it, and :func:`chi_expand`, whose tops are
    dominant by construction, reads it as it is.

    The recursion runs on Dynkin labels, and the multiplicities found so
    far are keyed by the labels of their weights.  An alpha-string mu + k
    alpha carries the labels of d_k, the dominant conjugate w_k(mu + k
    alpha), and of w_k(alpha), starting from mu and the labels of alpha in
    its row of :meth:`RootDatum.stabilizer_orbits`.  A step adds them, which
    gives w_k(mu + (k + 1) alpha), and :func:`chamber_walk` walks that sum,
    carrying w_k(alpha) along, only when it is not a key found and has a
    negative label: no walk is repeated and no conjugate is kept.
    w_k(alpha) is a root, so a string that walked and ends carrying the
    labels of no root raises.  A weight is rebuilt only for the map stored
    and the forms in the Freudenthal step.  Per dominant mu, ``pair_sum`` =
    (lam, lam) - (mu, mu) = sum c_i h_i (L_i(lam) + L_i(mu)) (see
    :func:`chi_char`), with the half-norms h_i read once per run by
    :func:`_half_norms`; the divisor adds the 2 rho functional of
    :meth:`RootDatum.linear_tables` to it.  Along a string, ``f`` is (nu,
    alpha) and ``g`` is (nu, nu) - (lam, lam), which starts at ``-pair_sum``;
    the string ends when g > 0, before the weight is built, looked up or
    walked.  A weight with g = 0 lies in W lam and is looked up.
    """
    cached = rd.chi_cache.get(lam)
    if cached is not None:
        return cached
    if all(dot(lam, theta.coroot) <= 1 for theta in rd.highest_coroots()):
        # minuscule or zero: lam is the only dominant weight below it
        mult = rd.chi_cache[lam] = {lam: 1}
        obs.count("charring.freudenthal.runs")
        obs.count("charring.freudenthal.dominant_weights")
        return mult
    if lam_labels is None:
        lam_labels = tuple(dot(lam, f) for f in rd.simple_coroots)
    # by height; ties in lexicographic order of the coordinates of lam - mu,
    # which fixes the insertion order of mult
    candidates = sorted(
        (sum(coeffs), coeffs, combine(map(operator.neg, coeffs), rd.simple_coords, lam), labels)
        for labels, coeffs in _dominant_below(rd, lam_labels).items()
    )
    mult: dict[Weight, int] = {}
    found: dict[tuple[int, ...], int] = {}  # mult by the labels of its weight
    linear = rd.linear_tables()
    columns, two_rho_form, bound = linear.cartan_columns, linear.two_rho_form, len(rd.positive_roots)
    half = _half_norms(rd)
    lam_half = tuple(map(operator.mul, half, lam_labels))  # (alpha_i, lam)
    roots = None  # the labels of every root, collected at the first string that walks
    steps = walks = walk_steps = cuts = 0
    for height, coeffs, mu, labels in candidates:
        if height == 0:
            mult[mu] = found[labels] = 1
            continue
        # (lam, lam) - (mu, mu) = sum c_i (alpha_i, lam + mu), on labels
        pair_sum = sum(map(operator.mul, coeffs, map(operator.add, lam_half, map(operator.mul, half, labels))))
        # one alpha-string per W_J-orbit, from its highest positive root and
        # weighted by its count of positive roots; the pairing (nu, alpha)
        # grows by (alpha, alpha) per step
        zeros = tuple(j for j, x in enumerate(labels) if not x)
        total = 0
        for form, shift, norm, count in rd.stabilizer_orbits(zeros):
            dom, root = labels, shift  # w(mu + k alpha) and w(alpha) for the walk w so far
            f = dot(form, mu)
            g = -pair_sum
            string = 0
            while True:
                f += norm
                g += 2 * f - norm
                if g > 0:  # longer than lam, so not a weight of V(lam)
                    cuts += 1
                    break
                dom = tuple(map(operator.add, dom, root))
                steps += 1
                m = found.get(dom)  # a key is dominant, so a hit needs no walk
                if m is None and min(dom) < 0:
                    pairs, carried = list(dom), list(root)
                    walk_steps += chamber_walk(pairs, columns, bound, carried)[1]
                    walks += 1
                    dom, root = tuple(pairs), tuple(carried)
                    m = found.get(dom)
                if m is None:
                    break
                string += m * f
            if root is not shift:  # an unwalked string carries its row's checked labels
                if roots is None:
                    roots = {row[0] for row in rd.closure_rows(())}
                    roots.update([tuple(map(operator.neg, x)) for x in roots])
                if root not in roots:
                    raise InvariantViolation(
                        f"the alpha-string at {mu} from {shift} carries {root}, not a root's labels"
                    )
            total += count * string
        denom = pair_sum + sum(map(operator.mul, coeffs, two_rho_form))
        if denom <= 0 or (2 * total) % denom:
            raise InvariantViolation(f"Freudenthal step at {mu}: {2 * total} / {denom}")
        m_mu = (2 * total) // denom
        if m_mu <= 0:
            raise InvariantViolation(f"multiplicity {m_mu} of {mu} in chi({lam}) is not positive")
        mult[mu] = found[labels] = m_mu
    rd.chi_cache[lam] = mult
    obs.count("charring.freudenthal.runs")
    obs.count("charring.freudenthal.dominant_weights", len(candidates))
    obs.count("charring.freudenthal.string_steps", steps)
    obs.count("charring.freudenthal.chamber_walks", walks)
    obs.count("charring.freudenthal.walk_steps", walk_steps)
    obs.count("charring.freudenthal.norm_cuts", cuts)
    return mult


# ---------------------------------------------------------------------------
# Ring operations


def dim(ch: Character) -> int:
    """Total dimension: multiplicity times orbit size, summed.  The keys are
    dominant, an invariant of :class:`Character`, so the orbit of a key is
    |W/W_J| for the zero set J of its Dynkin labels, looked up by J
    (:meth:`RootDatum._orbit_size`) with no chamber walk."""
    rd = ch.datum
    coroots, size = rd.simple_coroots, rd._orbit_size
    total = 0
    for w, m in ch.mult.items():
        total += m * size(tuple([j for j, f in enumerate(coroots) if not sum(map(operator.mul, w, f))]))  # dot inlined
    return total


def expand_full(ch: Character) -> dict[Weight, int]:
    """Full weight multiplicity function (orbit-expanded)."""
    full: dict[Weight, int] = {}
    for w, m in ch.mult.items():
        for v in ch.datum.weyl_orbit(w):
            full[v] = full.get(v, 0) + m
    return full


def _compress(rd: RootDatum, full: dict[Weight, int]) -> Character:
    """The dominant part of a full weight multiplicity function whose entries
    are sums of products of positive multiplicities, over weights of the
    lattice rank, so each kept entry is positive."""
    mult = {w: m for w, m in full.items() if m and rd.is_dominant(w)}
    return Character._trusted(rd, mult)


def add(ch1: Character, ch2: Character) -> Character:
    _check_same(ch1, ch2)
    out = dict(ch1.mult)
    for w, m in ch2.mult.items():
        out[w] = out.get(w, 0) + m
    return Character._trusted(ch1.datum, out)


def tensor(ch1: Character, ch2: Character) -> Character:
    """Tensor product: full-orbit convolution, then orbit re-compression."""
    _check_same(ch1, ch2)
    full1 = expand_full(ch1)
    full2 = full1 if ch2 is ch1 else expand_full(ch2)  # a square, as in exterior_square, expands once
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
        key = ch.datum._dominant_conjugate(wneg(w))
        out[key] = out.get(key, 0) + m
    return Character._trusted(ch.datum, out)


def exterior_square(ch: Character) -> Character:
    """Lambda^2 of the underlying weight multiset; dim d -> d(d-1)/2.

    Lambda^2 V = (V (x) V - psi^2 V) / 2, where the Adams operation psi^2
    doubles every weight: on dominant keys psi^2 V is m(w) at 2w for each
    key w of V.  A difference that is odd or negative raises
    :class:`InvariantViolation`."""
    out = dict(tensor(ch, ch).mult)
    for w, m in ch.mult.items():
        key = wadd(w, w)
        out[key] = out.get(key, 0) - m
    for w, m in out.items():
        if m < 0 or m % 2:
            raise InvariantViolation(f"V (x) V - psi^2 V is {m} at {w}, not twice a multiplicity")
        out[w] = m // 2
    return _compress(ch.datum, out)


# ---------------------------------------------------------------------------
# The chi basis


def chi_normalize(rd: RootDatum, mu: Weight):
    """Normalize chi at an arbitrary weight via the dot action.

    Returns ``None`` when mu + rho is singular (chi vanishes), else the pair
    ``(sign, dominant weight)`` with ``chi(mu) = sign * chi(dominant)``.
    :func:`chamber_walk` runs on ``<mu + rho, alpha_i^vee> = <mu,
    alpha_i^vee> + 1``, which also serves quotient data, where rho is no
    lattice point: mu + rho is singular exactly when a final pairing is 0,
    and otherwise each step shortens w by one, so the sign is (-1)^steps."""
    rd.check_weights(mu)
    return _chi_normalize(rd, mu)


def _chi_normalize(rd: RootDatum, mu: Weight):
    """:func:`chi_normalize` without the length check, for weights checked
    already."""
    pairs = [sum(map(operator.mul, mu, f)) + 1 for f in rd.simple_coroots]  # <mu + rho, a_i^vee>, dot inlined
    if pairs and min(pairs) > 0:  # regular dominant already, the common case
        return 1, mu
    added, steps = chamber_walk(pairs, rd.linear_tables().cartan_columns, len(rd.positive_roots))
    return None if 0 in pairs else ((-1) ** steps, combine(added, rd.simple_coords, mu))


def chi_expand(ch: Character) -> VirtualChiSum:
    """Expand a character in the chi basis.

    Greedy: repeatedly take the supported weight with the largest pairing
    with 2*rho^vee, which grows strictly along the dominance order (ties:
    lexicographically largest), record its coefficient, and subtract that
    multiple of its chi character.  Unitriangularity makes this exact.  The
    keys are not tested for dominance again: a character's keys were
    checked by its constructor or built dominant by a trusted producer."""
    return _chi_expand(ch.datum, dict(ch.mult))


def _chi_expand(rd: RootDatum, work: dict[Weight, int]) -> VirtualChiSum:
    """The expansion of :func:`chi_expand` on a map of dominant weights to
    nonzero integers; it empties ``work``."""
    out: dict[Weight, int] = {}
    while work:
        top = rd.top_weight(work)
        c = work[top]
        out[top] = c
        for w, m in _chi_mult(rd, top).items():
            new = work.get(w, 0) - c * m
            if new:
                work[w] = new
            else:
                work.pop(w, None)
    return VirtualChiSum._trusted(out)


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
    temporary file of its own; a write that fails with an ``OSError`` (say,
    the root is a regular file) leaves no file and is a miss too.  An entry
    read or written once, or not written, is served from memory after that.
    """

    def __init__(self, rd: RootDatum, root: str):
        self.rd = rd
        # CRC-32, not SHA-256: importing hashlib adds about 5 ms to every CLI
        # process, and the fingerprint only tells data apart, it guards nothing
        fingerprint = f"{zlib.crc32(repr((rd.n, rd.linear_tables().cartan)).encode()):08x}"
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
            except (OSError, ValueError, AttributeError, RecursionError):
                return None
            if not _plausible_character(self.rd, lam, mult):
                return None
            self.memo[lam] = mult
        return mult

    def __setitem__(self, lam: Weight, mult: dict[Weight, int]) -> None:
        path = self._path(lam)
        tmp = None
        try:
            os.makedirs(self.dir, exist_ok=True)
            # a temporary file per writer: two writers of one entry must not
            # write through, or rename away, each other's file
            fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump(character_to_json(mult), fh)
            os.replace(tmp, path)
            tmp = None
        except OSError:
            pass  # an unwritable cache is a miss; the character stays in memory
        finally:
            if tmp is not None:
                os.unlink(tmp)
        self.memo[lam] = mult
