"""Exact root-datum combinatorics for split reductive groups.

Weights live in Z^n, written in fundamental-weight coordinates on the
semisimple directions followed by free coordinates for any central torus.
Every root carries its coroot as an integer functional on that lattice, so
pairings, reflections and dominance tests are exact integer arithmetic
throughout; no floats appear anywhere.

A :class:`RootDatum` is either built from a :class:`DynkinSpec` (the ambient
group) or carved out of an ambient datum with :func:`sub_root_datum` (the
reductive quotient attached to a parahoric facet).  Both kinds share one code
path for orbits, dominance and the Weyl degree formula.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

__all__ = [
    "Weight",
    "DynkinSpec",
    "Root",
    "RootDatum",
    "IllegalRank",
    "NotDominant",
    "InvariantViolation",
    "parse_dynkin_spec",
    "build_root_datum",
    "sub_root_datum",
    "classify_nodes",
    "classify_root_datum",
    "weight_key",
    "parse_weight_key",
]

#: A lattice point in fundamental-weight-plus-torus coordinates.
Weight = tuple[int, ...]


class IllegalRank(ValueError):
    """Raised for a rank outside its Dynkin family."""


class NotDominant(ValueError):
    """Raised when an operation requires a dominant weight."""


class InvariantViolation(ArithmeticError):
    """Raised when a mathematical invariant the library relies on fails.

    These checks are explicit raises, not ``assert``, so they also run under
    ``python -O``.
    """


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(map(operator.add, a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(map(operator.sub, a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(k: int, a: Weight) -> Weight:
    return tuple(k * x for x in a)


def dot(a: Weight, b: Weight) -> int:
    return sum(map(operator.mul, a, b))


def weight_key(w: Weight) -> str:
    """Render a weight as the comma-separated key used in all JSON reports."""
    return ",".join(str(c) for c in w)


def parse_weight_key(text: str) -> Weight:
    return tuple(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# Dynkin specifications


_LEGAL_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 1,
    "C": lambda r: r >= 1,
    "D": lambda r: r >= 2,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class DynkinSpec:
    """A product of irreducible Dynkin types plus an optional central torus."""

    components: tuple[tuple[str, int], ...]
    extra_torus_rank: int = 0

    def __post_init__(self):
        for family, rank in self.components:
            if family not in _LEGAL_RANKS:
                raise IllegalRank(f"unknown family {family!r}")
            if not _LEGAL_RANKS[family](rank):
                raise IllegalRank(f"illegal rank {rank} for family {family}")
        if self.extra_torus_rank < 0:
            raise IllegalRank("torus rank must be nonnegative")

    @property
    def semisimple_rank(self) -> int:
        return sum(rank for _, rank in self.components)

    @property
    def rank(self) -> int:
        return self.semisimple_rank + self.extra_torus_rank

    def __str__(self) -> str:
        body = "x".join(f"{fam}{rank}" for fam, rank in self.components)
        if self.extra_torus_rank and body:
            return f"{body}+T{self.extra_torus_rank}"
        if self.extra_torus_rank:
            return f"T{self.extra_torus_rank}"
        return body or "T0"


def parse_dynkin_spec(text: str) -> DynkinSpec:
    """Parse strings like ``"A2"``, ``"C3"``, ``"A1xA1+T1"`` (case-insensitive).

    ``x`` separates semisimple components and a trailing ``+Tk`` appends a
    central torus of rank ``k``.  A bare ``Tk`` is a pure torus.
    """
    body = text.strip().upper().replace(" ", "")
    if not body:
        raise IllegalRank("empty type specification")
    torus = 0
    if "+" in body:
        body, _, tail = body.partition("+")
        if not tail.startswith("T") or not tail[1:].isdigit():
            raise IllegalRank(f"bad torus suffix in {text!r}")
        torus = int(tail[1:])
    components: list[tuple[str, int]] = []
    if body.startswith("T") and body[1:].isdigit():
        torus += int(body[1:])
    else:
        for chunk in body.split("X"):
            if len(chunk) < 2 or chunk[0] not in _LEGAL_RANKS or not chunk[1:].isdigit():
                raise IllegalRank(f"bad component {chunk!r} in {text!r}")
            components.append((chunk[0], int(chunk[1:])))
    return DynkinSpec(tuple(components), torus)


# ---------------------------------------------------------------------------
# Cartan matrices
#
# Convention: cartan[i][j] = <alpha_j, alpha_i^vee>, so column j holds the
# fundamental-weight coordinates of the simple root alpha_j.  The symmetrizer
# d satisfies d[i]*cartan[i][j] == d[j]*cartan[j][i] and (alpha_i, alpha_i)
# is proportional to 2*d[i], which fixes all root lengths exactly.


def _cartan_and_symmetrizer(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    d = [1] * rank
    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family == "B":
        # alpha_rank is the short simple root
        for i in range(rank - 1):
            edge(i, i + 1)
        if rank >= 2:
            c[rank - 1][rank - 2] = -2
            d = [2] * (rank - 1) + [1]
    elif family == "C":
        # alpha_rank is the long simple root
        for i in range(rank - 1):
            edge(i, i + 1)
        if rank >= 2:
            c[rank - 2][rank - 1] = -2
            d = [1] * (rank - 1) + [2]
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        if rank >= 3:
            edge(rank - 3, rank - 1)
    elif family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in chain:
            if j < rank:
                edge(i, j)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, cij=-1, cji=-2)
        edge(2, 3)
        d = [2, 2, 1, 1]
    elif family == "G":
        edge(0, 1, cij=-3, cji=-1)
        d = [1, 3]
    for i in range(rank):
        for j in range(rank):
            if d[i] * c[i][j] != d[j] * c[j][i]:
                raise InvariantViolation(f"{family}{rank}: symmetrizer fails at ({i}, {j})")
    return c, d


# ---------------------------------------------------------------------------
# Roots and data


@dataclass(frozen=True)
class Root:
    """A root of a datum, with all derived integer data precomputed.

    ``coords`` are ambient fundamental-weight coordinates.  ``simple_coeffs``
    expresses the root over the simple roots of its own component (all
    entries share one sign).  ``coroot`` is the pairing functional of the
    coroot: ``<lam, alpha^vee> = dot(lam, coroot)``.  ``coroot_coeffs`` gives
    the coroot over the component's simple coroots, so its entry sum equals
    ``<rho, alpha^vee>``.  ``form`` is the functional of a Weyl-invariant
    bilinear form paired against this root: ``(lam, alpha) = dot(lam, form)``.
    ``height`` and ``coroot_height``, the entry sums of ``simple_coeffs`` and
    ``coroot_coeffs``, are stored at construction.
    """

    coords: Weight
    simple_coeffs: tuple[int, ...]
    component: int
    coroot: Weight
    coroot_coeffs: tuple[int, ...]
    form: Weight
    height: int = field(init=False, compare=False)
    coroot_height: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "height", sum(self.simple_coeffs))
        object.__setattr__(self, "coroot_height", sum(self.coroot_coeffs))

    def __repr__(self) -> str:
        return f"Root({weight_key(self.coords)})"


def _cartan_matrix(nodes) -> tuple[tuple[int, ...], ...]:
    """``[<alpha_j, alpha_i^vee>]_ij`` over a list of roots."""
    return tuple(tuple(dot(b.coords, a.coroot) for b in nodes) for a in nodes)


def _integer_inverse(matrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(det, adj)`` with ``adj * matrix == det * I``.

    Fraction-free (Bareiss) Gauss-Jordan elimination of ``[matrix | I]``:
    every division is exact and the k-th pivot is the k-th leading principal
    minor.  No rows are exchanged, because every principal minor of a
    finite-type Cartan matrix is positive; a pivot that is not raises, which
    is how :func:`classify_cartan` rejects every other diagram.
    """
    k = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    det = 1
    for p in range(k):
        pivot = rows[p][p]
        if pivot <= 0:
            raise InvariantViolation(f"leading minor {p + 1} of {matrix} is not positive")
        for i in range(k):
            if i != p:
                f = rows[i][p]
                rows[i] = [(pivot * x - f * y) // det for x, y in zip(rows[i], rows[p])]
        det = pivot
    adj = tuple(tuple(row[k:]) for row in rows)
    for i in range(k):
        for j in range(k):
            if sum(adj[i][t] * matrix[t][j] for t in range(k)) != det * (i == j):
                raise InvariantViolation(f"adj * C != det * I for C = {matrix}")
    return det, adj


def _cartan_solve(det, adj, basis, duals, v: Weight) -> tuple[int, ...] | None:
    """The integer c with ``sum c_j basis[j] == v``, or None.

    ``adj / det`` must invert ``[<basis_j, duals_i>]_ij``, so pairing ``v``
    with the duals and applying it gives the only candidate.  It is kept when
    it is integral and rebuilds ``v`` exactly; the rebuild rejects ``v``
    outside the span of the basis (for instance with a torus component).
    """
    pairings = [dot(v, f) for f in duals]
    coeffs = []
    for row in adj:
        num = dot(row, pairings)
        if num % det:
            return None
        coeffs.append(num // det)
    rebuilt = [0] * len(v)
    for c, b in zip(coeffs, basis):
        if c:
            for i, x in enumerate(b):
                rebuilt[i] += c * x
    return tuple(coeffs) if rebuilt == list(v) else None


def _coroot_coeffs(coeffs, simple_norms, normsq: int) -> tuple[int, ...]:
    """The coroot of ``alpha = sum c_i alpha_i`` over the simple coroots, from
    ``alpha^vee = 2 alpha / (alpha, alpha)``: ``c_i (alpha_i, alpha_i) /
    (alpha, alpha)``, each division checked exact."""
    scaled = [c * norm for c, norm in zip(coeffs, simple_norms)]
    if any(x % normsq for x in scaled):
        raise InvariantViolation(f"coroot of {tuple(coeffs)} (norm {normsq}) is not integral")
    return tuple(x // normsq for x in scaled)


def _dynkin_components(nodes) -> list[list[int]]:
    """Connected components of the Dynkin graph on ``nodes`` (two roots are
    joined when they pair nonzero), as ascending index lists ordered by their
    first index."""
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(nodes)), 2):
        if dot(nodes[i].coords, nodes[j].coroot) != 0:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(nodes)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _parabolic_orbits(datum: "RootDatum", zeros: tuple[int, ...]) -> list[list[Root]]:
    """The orbits on the roots of the group generated by the simple
    reflections ``zeros`` that contain a positive root, in root order of
    their first positive root, each listed from that root."""
    gens = [datum.simple_roots[j] for j in zeros]
    seen: set[Weight] = set()
    orbits = []
    for alpha in datum.positive_roots:
        if alpha.coords in seen:
            continue
        seen.add(alpha.coords)
        orbit = [alpha]
        for beta in orbit:  # the orbit grows while it is walked
            for s in gens:
                img = datum.reflect(s, beta.coords)
                if img not in seen:
                    seen.add(img)
                    orbit.append(datum.root_with_coords(img))
        orbits.append(orbit)
    return orbits


class RootDatum:
    """A root datum inside the ambient lattice Z^n.

    Construct with :func:`build_root_datum` or :func:`sub_root_datum`.  The
    structure is fixed once built, apart from the root-orbit tables of
    :meth:`stabilizer_orbits`, which are filled in on first use, and every
    datum that :func:`build_root_datum` returns for one spec shares it,
    tables included.  The one attribute that holds characters,
    ``chi_cache``, belongs to each datum alone: it memoizes
    ``chi(lam)`` multiplicities by highest weight for
    :func:`parahoric.charring.chi_char`, starts as a new empty dict, and may be
    replaced by another store with ``get`` and item assignment, such as the
    CLI's :class:`parahoric.charring.DiskCharacters`.
    """

    def __init__(self, *, spec, n, roots, simple_indices, rho):
        self.spec: DynkinSpec | None = spec
        self.n: int = n
        self.roots: tuple[Root, ...] = tuple(roots)
        self.positive_roots: tuple[Root, ...] = tuple(r for r in self.roots if r.height > 0)
        self.simple_indices: tuple[tuple[int, ...], ...] = tuple(
            tuple(ix) for ix in simple_indices
        )
        self.rho: Weight | None = rho
        self._coords_index = {r.coords: i for i, r in enumerate(self.roots)}
        flat = [self.roots[i] for comp in self.simple_indices for i in comp]
        self._simple_roots = tuple(flat)
        self.cartan: tuple[tuple[int, ...], ...] = _cartan_matrix(flat)
        # det * C^-1 = adj, the one exact inverse behind every lattice solve
        self._det, self._adj = _integer_inverse(self.cartan)
        self._simple_coords = tuple(a.coords for a in flat)
        self._simple_coroots = tuple(a.coroot for a in flat)
        self._cartan_columns = tuple(zip(*self.cartan))
        self.chi_cache: dict[Weight, dict[Weight, int]] = {}
        # stabilizer_orbits tables by J, filled on first use and shared by
        # every build of the spec; they hold root data only
        self._orbit_tables: dict[tuple[int, ...], tuple[tuple[Weight, Weight, int, int], ...]] = {}
        # (2*rho, alpha_i) per simple root, for the Freudenthal denominator
        self._two_rho_form = tuple(
            sum(dot(beta.form, alpha.coords) for beta in self.positive_roots)
            for alpha in flat
        )
        # 2*rho^vee, the sum of the positive coroots: 2 on every simple root
        self._two_rho_coroot = tuple(map(sum, zip((0,) * n, *(b.coroot for b in self.positive_roots))))

    # -- basic structure ---------------------------------------------------

    @property
    def spec_string(self) -> str | None:
        return str(self.spec) if self.spec is not None else None

    @property
    def num_components(self) -> int:
        return len(self.simple_indices)

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        return self._simple_roots

    @property
    def semisimple_rank(self) -> int:
        return len(self._simple_roots)

    def component_simple_roots(self, component: int) -> tuple[Root, ...]:
        return tuple(self.roots[i] for i in self.simple_indices[component])

    def root_with_coords(self, coords: Weight) -> Root:
        return self.roots[self._coords_index[coords]]

    def same_datum(self, other: "RootDatum") -> bool:
        return self is other or self.roots is other.roots or (
            self.n == other.n
            and self.simple_indices == other.simple_indices
            and tuple(r.coords for r in self.roots) == tuple(r.coords for r in other.roots)
        )

    # -- pairing, reflection, orbits ---------------------------------------

    @staticmethod
    def pair(lam: Weight, coroot: Weight) -> int:
        """Exact pairing <lam, alpha^vee>."""
        return dot(lam, coroot)

    def reflect(self, root: Root, lam: Weight) -> Weight:
        """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
        return wsub(lam, wscale(dot(lam, root.coroot), root.coords))

    def is_dominant(self, lam: Weight) -> bool:
        return all(dot(lam, a.coroot) >= 0 for a in self._simple_roots)

    def weyl_orbit(self, lam: Weight) -> tuple[Weight, ...]:
        """The Weyl-group orbit of ``lam``, in a deterministic (sorted) order."""
        seen = {lam}
        frontier = [lam]
        while frontier:
            nxt = []
            for w in frontier:
                for a in self._simple_roots:
                    img = self.reflect(a, w)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return tuple(sorted(seen))

    def dominant_conjugate(self, lam: Weight) -> Weight:
        """The unique dominant member of the Weyl orbit of ``lam``.

        Reflects in the simple pairings ``p_i = <w, alpha_i^vee>``: s_i sends
        ``p_j`` to ``p_j - p_i <alpha_i, alpha_j^vee>`` (column i of the Cartan
        matrix) and subtracts ``p_i alpha_i`` from w, so w is rebuilt once from
        the accumulated simple-root coefficients.
        """
        pairs = [dot(lam, f) for f in self._simple_coroots]
        if min(pairs, default=0) >= 0:
            return lam
        subtracted = [0] * len(pairs)
        while True:
            for i, p_i in enumerate(pairs):
                if p_i < 0:
                    break
            else:
                break
            subtracted[i] += p_i
            for j, c in enumerate(self._cartan_columns[i]):
                if c:
                    pairs[j] -= p_i * c
        w = list(lam)
        for c, alpha in zip(subtracted, self._simple_coords):
            if c:
                for k, x in enumerate(alpha):
                    w[k] -= c * x
        return tuple(w)

    def orbit_size(self, lam: Weight) -> int:
        """|W|/|W_lam| as the product of (ht b + 1)/ht b over the positive roots
        b that pair nonzero with the dominant conjugate: |W| and its parabolic
        stabilizer each are such a product over their positive roots (the
        Poincare series at q = 1; Macdonald, Math. Ann. 1972)."""
        dom = self.dominant_conjugate(lam)
        num = den = 1
        for beta in self.positive_roots:
            if dot(dom, beta.coroot):
                num, den = num * (beta.height + 1), den * beta.height
        if num % den:
            raise InvariantViolation(f"height product {num}/{den} for {lam} is not an integer")
        return num // den

    def stabilizer_orbits(self, zeros: tuple[int, ...]) -> tuple[tuple[Weight, Weight, int, int], ...]:
        """The orbits of W_J on the roots that meet the positive roots, where
        W_J is generated by the simple reflections ``zeros`` (indices into
        :attr:`simple_roots`): the stabilizer of a dominant weight that pairs
        to zero with exactly those simple coroots.

        One ``(form, coords, (alpha, alpha), count)`` per orbit, in root order
        of its first positive root alpha; ``count`` is the orbit's number of
        positive roots.  W_J permutes the positive roots outside Phi_J, so
        such an orbit counts in full; an orbit inside Phi_J is closed under
        negation and counts half.  The counts must add up to the number of
        positive roots.  Built on first use and shared by every build of the
        spec.
        """
        table = self._orbit_tables.get(zeros)
        if table is not None:
            return table
        rows = []
        for orbit in _parabolic_orbits(self, zeros):
            count = len(orbit)
            if any(b.height < 0 for b in orbit):
                if count % 2:
                    raise InvariantViolation(
                        f"W_J-orbit {orbit} (J = {zeros}) meets the negative roots and has odd size"
                    )
                count //= 2
            alpha = orbit[0]
            rows.append((alpha.form, alpha.coords, dot(alpha.form, alpha.coords), count))
        counted = sum(row[3] for row in rows)
        if counted != len(self.positive_roots):
            raise InvariantViolation(
                f"W_J-orbits (J = {zeros}) count {counted} positive roots, not {len(self.positive_roots)}"
            )
        table = self._orbit_tables[zeros] = tuple(rows)
        return table

    # -- dominance order ----------------------------------------------------

    def root_lattice_coords(self, v: Weight) -> tuple[int, ...] | None:
        """Integer coordinates of ``v`` over the simple roots, or None."""
        return _cartan_solve(self._det, self._adj, self._simple_coords, self._simple_coroots, v)

    def dominance_leq(self, a: Weight, b: Weight) -> bool:
        """True iff b - a is a nonnegative integer sum of simple roots."""
        coeffs = self.root_lattice_coords(wsub(b, a))
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def top_weight(self, weights) -> Weight:
        """The weight of ``weights`` with the largest pairing with 2*rho^vee,
        ties broken lexicographically.  That pairing grows strictly along
        the dominance order, so no other weight given lies above it."""
        return max(weights, key=lambda w: (dot(w, self._two_rho_coroot), w))

    def fundamental_coweight(self, i: int) -> tuple[Weight, int]:
        """The coweight dual to simple root ``i`` as ``(x, d)``: the point
        ``x / d`` in the coordinates dual to the weight coordinates, on which
        simple root ``j`` takes the value ``[i == j]``.  It is row ``i`` of the
        inverse Cartan matrix over the simple coroots."""
        x = [0] * self.n
        for c, coroot in zip(self._adj[i], self._simple_coroots):
            for j, y in enumerate(coroot):
                x[j] += c * y
        return tuple(x), self._det

    # -- classical data ------------------------------------------------------

    def highest_root(self, component: int) -> Root:
        """The dominance-maximal positive root of one component."""
        if not 0 <= component < self.num_components:
            raise ValueError(f"no component {component}")
        candidates = [r for r in self.roots if r.component == component and r.height > 0]
        best = max(candidates, key=lambda r: r.height)
        if sum(1 for r in candidates if r.height == best.height) != 1:
            raise InvariantViolation(f"component {component} has no unique highest root")
        return best

    def weyl_dim(self, lam: Weight) -> int:
        """Weyl degree formula: prod <lam+rho, a^vee> / <rho, a^vee>, exactly."""
        if not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant")
        num = 1
        den = 1
        for a in self.positive_roots:
            h = a.coroot_height
            num *= dot(lam, a.coroot) + h
            den *= h
        if num % den:
            raise InvariantViolation(f"Weyl dimension {num}/{den} for {lam} is not an integer")
        return num // den


# ---------------------------------------------------------------------------
# Construction from a Dynkin specification


def _component_roots(cartan) -> dict[tuple[int, ...], tuple[int, ...]]:
    """All roots of one irreducible component: simple-coefficient vector ->
    local fundamental-weight coordinates (the Cartan matrix times it).

    Closure of the simple roots under all simple reflections; finite root
    systems are exactly the Weyl orbits of their simple roots.  The local
    coordinates are the simple pairings, so s_i subtracts ``local[i]`` from
    coefficient i and ``local[i]`` times column i of the Cartan matrix from
    the local coordinates.
    """
    rank = len(cartan)
    columns = tuple(zip(*cartan))
    roots = {tuple(int(j == i) for j in range(rank)): columns[i] for i in range(rank)}
    frontier = list(roots.items())
    while frontier:
        nxt = []
        for coeffs, local in frontier:
            for i, pairing in enumerate(local):
                if not pairing:
                    continue
                img = coeffs[:i] + (coeffs[i] - pairing,) + coeffs[i + 1 :]
                if img not in roots:
                    img_local = tuple(x - pairing * c for x, c in zip(local, columns[i]))
                    roots[img] = img_local
                    nxt.append((img, img_local))
        frontier = nxt
    return roots


def build_root_datum(spec: DynkinSpec | str) -> RootDatum:
    """Build the simply-connected root datum of a Dynkin specification.

    Positive roots are generated from the simple roots by reflection closure
    and listed in a deterministic order: by component, then height, then
    lexicographic simple coefficients.

    The structure (roots, simple indices, Cartan matrix and its integer
    inverse, the 2*rho functionals, the W_J-orbit tables of
    :meth:`RootDatum.stabilizer_orbits`) is built and checked once per spec, keyed
    on the canonical ``str(spec)``, so ``"a1xa1+t1"`` and ``"A1xA1+T1"`` share
    it.  Every call returns a new datum that shares that structure and has its
    own empty ``chi_cache``.
    """
    if isinstance(spec, str):
        spec = parse_dynkin_spec(spec)
    # attribute by attribute rather than copy.copy: a copied __dict__ loses
    # CPython's shared-key instance layout, which makes every later attribute
    # read on the datum slower (about 3x, measured on Python 3.11)
    datum = object.__new__(RootDatum)
    for name, value in vars(_datum_structure(str(spec))).items():
        setattr(datum, name, value)
    datum.chi_cache = {}
    return datum


@functools.lru_cache(maxsize=64)
def _datum_structure(spec_string: str) -> RootDatum:
    """The datum of one canonical spec string, built from scratch.  Only
    copies of it leave :func:`build_root_datum`, so its ``chi_cache`` is
    never used.  The memo is bounded so that a sweep over many types does not
    keep every datum alive."""
    spec = parse_dynkin_spec(spec_string)
    n = spec.rank
    all_roots: list[Root] = []
    off = 0  # where the component's coordinates start
    for comp, (family, rank) in enumerate(spec.components):
        cartan, d = _cartan_and_symmetrizer(family, rank)
        roots = _component_roots(cartan)
        simple_norms = [2 * dj for dj in d]  # (alpha_j, alpha_j)
        before, after = (0,) * off, (0,) * (n - off - rank)
        for coeffs in sorted(roots, key=lambda c: (sum(c), c)):
            local_coords = roots[coeffs]
            form_local = tuple(c * dj for c, dj in zip(coeffs, d))
            normsq = dot(form_local, local_coords)
            if normsq <= 0:
                raise InvariantViolation(f"root {coeffs} of {family}{rank} has norm {normsq}")
            coroot_local = _coroot_coeffs(coeffs, simple_norms, normsq)
            all_roots.append(
                Root(
                    coords=before + local_coords + after,
                    simple_coeffs=coeffs,
                    component=comp,
                    coroot=before + coroot_local + after,
                    coroot_coeffs=coroot_local,
                    form=before + form_local + after,
                )
            )
        off += rank
    all_roots.sort(key=lambda r: (r.component, r.height, r.simple_coeffs))
    index_of = {(r.component, r.simple_coeffs): i for i, r in enumerate(all_roots)}
    simple_indices = [
        tuple(index_of[comp, tuple(int(k == j) for k in range(rank))] for j in range(rank))
        for comp, (_, rank) in enumerate(spec.components)
    ]
    rho = tuple([1] * spec.semisimple_rank + [0] * spec.extra_torus_rank)
    return RootDatum(
        spec=spec,
        n=n,
        roots=all_roots,
        simple_indices=simple_indices,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# Sub-data (reductive quotients inside the ambient lattice)


def sub_root_datum(ambient: RootDatum, coords_subset) -> RootDatum:
    """The root datum spanned by a closed symmetric subset of ambient roots.

    The positive system is inherited from the ambient one; the simple roots
    are its indecomposable elements.  Coroots and the invariant form are
    inherited verbatim, so characters over the sub-datum live in the same
    lattice as characters over the ambient datum.
    """
    subset = {tuple(c) for c in coords_subset}
    members = [r for r in ambient.roots if r.coords in subset]
    if len(members) != len(subset):
        raise InvariantViolation("subset contains non-roots")
    positives = [r for r in members if r.height > 0]
    pos_coords = {r.coords for r in positives}
    simples = [
        r
        for r in positives
        if not any(wsub(r.coords, s.coords) in pos_coords for s in positives)
    ]
    if any(dot(a.coords, b.coroot) > 0 for a, b in itertools.combinations(simples, 2)):
        raise InvariantViolation("indecomposables do not form a base")
    groups = _dynkin_components(simples)
    simples = [simples[i] for g in groups for i in g]
    bounds = list(itertools.pairwise(itertools.accumulate((len(g) for g in groups), initial=0)))
    det, adj = _integer_inverse(_cartan_matrix(simples))
    root_basis = [s.coords for s in simples]
    coroot_basis = [s.coroot for s in simples]
    norms = [dot(s.form, s.coords) for s in simples]
    new_roots: list[Root] = []
    for r in members:
        coeffs = _cartan_solve(det, adj, root_basis, coroot_basis, r.coords)
        if coeffs is None:
            raise InvariantViolation(f"{r} is not an integer sum of the simple roots")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            raise InvariantViolation(f"{r} has coefficients of both signs")
        comp = next(k for k, (lo, hi) in enumerate(bounds) if any(coeffs[lo:hi]))
        lo, hi = bounds[comp]
        if any(coeffs[:lo]) or any(coeffs[hi:]):
            raise InvariantViolation(f"{r} meets two components of the Dynkin graph")
        new_roots.append(
            Root(
                coords=r.coords,
                simple_coeffs=coeffs[lo:hi],
                component=comp,
                coroot=r.coroot,
                coroot_coeffs=_coroot_coeffs(coeffs[lo:hi], norms[lo:hi], dot(r.form, r.coords)),
                form=r.form,
            )
        )
    new_roots.sort(key=lambda r: (r.component, r.height, r.simple_coeffs))
    index_of = {r.coords: i for i, r in enumerate(new_roots)}
    simple_indices = [tuple(index_of[s.coords] for s in simples[lo:hi]) for lo, hi in bounds]
    return RootDatum(
        spec=None,
        n=ambient.n,
        roots=new_roots,
        simple_indices=simple_indices,
        rho=None,
    )


# ---------------------------------------------------------------------------
# Classification of an abstract datum back into a Dynkin specification


def classify_cartan(cartan) -> tuple[str, int]:
    """Name one connected Cartan matrix of finite type.

    The Dynkin graph must be a tree and every leading principal minor
    positive, which is finite type (Sylvester's criterion; the Bareiss
    inverse raises otherwise).  The largest bond, the rank k and the
    determinant then name the type (Bourbaki, *Lie Groups and Lie Algebras*,
    ch. VI, Plates I-IX): det A_k = k + 1, B_k = C_k = 2, D_k = 4, E6 = 3,
    E7 = 2, E8 = F4 = G2 = 1.  B_k is the k > 2 case whose short end of the
    double bond, the row holding -2, is a leaf; so B2 reads as C2, D3 as A3.
    """
    k = len(cartan)
    bonds = [cartan[i][j] * cartan[j][i] for i, j in itertools.combinations(range(k), 2) if cartan[i][j]]
    if len(bonds) != k - 1:
        raise InvariantViolation(f"Dynkin graph of {cartan} is not a tree")
    det, _ = _integer_inverse(cartan)
    bond = max(bonds, default=1)
    if bond == 3:
        return ("G", 2)
    if bond == 2:
        if det == 1:
            return ("F", 4)
        short = next(row for row in cartan if -2 in row)  # a leaf has k - 2 zeros
        return ("B", k) if k > 2 and short.count(0) == k - 2 else ("C", k)
    if det == k + 1:
        return ("A", k)
    return ("D", k) if det == 4 else ("E", k)


def classify_nodes(nodes, n: int) -> DynkinSpec:
    """The Dynkin type of a set of simple roots in Z^n: each connected
    component of their Dynkin graph is classified, and the remaining rank is
    a central torus."""
    components = sorted(
        classify_cartan(_cartan_matrix([nodes[i] for i in group]))
        for group in _dynkin_components(nodes)
    )
    return DynkinSpec(tuple(components), n - sum(rank for _, rank in components))


def classify_root_datum(datum: RootDatum) -> DynkinSpec:
    """The Dynkin type of a datum, torus rank inferred from the ambient rank."""
    return classify_nodes(datum.simple_roots, datum.n)
