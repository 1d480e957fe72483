"""Exact root-datum combinatorics for split reductive groups.

Weights live in Z^n, written in fundamental-weight coordinates on the
semisimple directions followed by free coordinates for any central torus.
Every root carries its coroot as an integer functional on that lattice, so
pairings, reflections and dominance tests are exact integer arithmetic
throughout; no floats appear anywhere.

A :class:`RootDatum` is either built from a :class:`DynkinSpec` (the
ambient group) or carved out of an ambient datum with
:func:`sub_root_datum` (the reductive quotient attached to a parahoric
facet).  Both read each component from one table per Cartan matrix, which
holds its exact inverse, its roots' coefficients, closed under reflection
once, and the recipe of that closure, which reaches each root by one
simple reflection from a root reached before it.  A spec build reads the
roots' coordinates off that table; a quotient replays the recipe on the
ambient datum's reflection rows, one lookup a root, shares the ambient
roots' tuples and is checked against the roots it was carved from.  A
datum's type is read off its stored component matrices.  Naming a matrix
alone, as :func:`classify_cartan` does for a deleted diagram, reads its
checked determinant from the same table, which builds the matrix's roots
too.  The tables a datum fills in on first use, its assembled Cartan
matrix and inverse among them, live in one :class:`DatumTables`, which
every build of a spec shares.

Every walk of the Weyl group runs on two helpers.  :func:`closure` is a
breadth-first closure of labelled points.  It gives the roots of a
component with their recipe, the Weyl orbits of weights, the W_J-orbits on
the roots, and, in :mod:`parahoric.charring`, the dominant weights below a
weight.  Once a component's roots are found, every walk on roots runs on
root indices: a quotient replays the recipe and a W_J-orbit is a closure
through the :meth:`RootDatum.reflection_row` of each simple root in J.
Coordinates are reflected only to build those rows and the Weyl orbits of
weights.  :func:`chamber_walk` walks simple pairings into the dominant
chamber.  It gives the dominant conjugate of a weight, walks each
alpha-string of Freudenthal's recursion in :mod:`parahoric.charring` on
from its last dominant conjugate, and, shifted by rho, the dot-action
normalization :func:`parahoric.charring.chi_normalize`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from . import obs

if TYPE_CHECKING:
    from .affine import AffineBasis

__all__ = [
    "Weight",
    "DynkinSpec",
    "Root",
    "RootDatum",
    "DatumTables",
    "LinearTables",
    "IllegalRank",
    "NotDominant",
    "InvariantViolation",
    "NotPrime",
    "parse_dynkin_spec",
    "build_root_datum",
    "sub_root_datum",
    "classify_cartan",
    "classify_diagram",
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


class NotPrime(ValueError):
    """Raised when a characteristic argument is not a prime."""


def is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases 2 ... 41, deterministic below the
    bound of Sorenson and Webster (2017); a p at or above it raises
    ValueError.  Anything but an ``int`` is not prime."""
    bound = 3317044064679887385961981
    if type(p) is not int or p < 2:
        return False
    if p >= bound:
        raise ValueError(f"primality is decided only below {bound}, got {p}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise :class:`NotPrime` unless :func:`is_prime` holds for ``p``."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


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
    "D": lambda r: r >= 3,  # D2 would be A1xA1, not one component
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class ReadOnly:
    """Base of the records whose fields are set once, by ``object.__setattr__``
    in ``__init__``, :meth:`_trusted` or ``__setstate__`` (for ``copy`` and
    ``pickle``); assigning or deleting a field later raises ``AttributeError``."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, *values):
        """A record of ``values`` in slot order, skipping the ``__init__`` checks the library built them to pass."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class DynkinSpec(ReadOnly):
    """A product of irreducible Dynkin types plus an optional central torus."""

    __slots__ = ("components", "extra_torus_rank")

    def __init__(self, components: tuple[tuple[str, int], ...], extra_torus_rank: int = 0):
        for family, rank in components:
            if family not in _LEGAL_RANKS:
                raise IllegalRank(f"unknown family {family!r}")
            if not _LEGAL_RANKS[family](rank):
                raise IllegalRank(f"illegal rank {rank} for family {family}")
        if extra_torus_rank < 0:
            raise IllegalRank("torus rank must be nonnegative")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "extra_torus_rank", extra_torus_rank)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components and self.extra_torus_rank == other.extra_torus_rank

    def __hash__(self):
        return hash((self.components, self.extra_torus_rank))

    def __repr__(self) -> str:
        return f"DynkinSpec(components={self.components!r}, extra_torus_rank={self.extra_torus_rank!r})"

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


class Root(ReadOnly):
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

    __slots__ = ("coords", "simple_coeffs", "component", "coroot", "coroot_coeffs", "form", "height", "coroot_height")

    def __init__(
        self, coords: Weight, simple_coeffs: tuple[int, ...], component: int, coroot: Weight,
        coroot_coeffs: tuple[int, ...], form: Weight,
    ):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "simple_coeffs", simple_coeffs)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "coroot", coroot)
        object.__setattr__(self, "coroot_coeffs", coroot_coeffs)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "height", sum(simple_coeffs))
        object.__setattr__(self, "coroot_height", sum(coroot_coeffs))

    def _compared(self) -> tuple:
        """The fields that equality and the hash read: all but the heights,
        which follow from the coefficients."""
        return self.coords, self.simple_coeffs, self.component, self.coroot, self.coroot_coeffs, self.form

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        return f"Root({weight_key(self.coords)})"


def _block_diagonal(blocks) -> tuple[tuple[int, ...], ...]:
    """The block-diagonal matrix with the given square blocks."""
    size, rows = sum(map(len, blocks)), []
    for block in blocks:
        rows += [(0,) * len(rows) + tuple(row) + (0,) * (size - len(rows) - len(block)) for row in block]
    return tuple(rows)


def combine(coeffs, vectors, start: Weight) -> Weight:
    """``start + sum c_j vectors[j]``, skipping zero coefficients."""
    out = list(start)
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


def _integer_inverse(matrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(det, adj)`` with ``adj * matrix == det * I``.

    Fraction-free (Bareiss) Gauss-Jordan elimination of ``[matrix | I]``:
    every division is exact and the k-th pivot is the k-th leading principal
    minor.  No rows are exchanged, because every principal minor of a
    finite-type Cartan matrix is positive; a pivot that is not raises, which
    is how :func:`_cartan_table` rejects every other symmetrizable diagram.
    Messages show the matrix as a list of lists, whichever sequences it is
    given as.
    """
    k = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    det = 1
    for p in range(k):
        pivot = rows[p][p]
        if pivot <= 0:
            raise InvariantViolation(f"leading minor {p + 1} of {[list(row) for row in matrix]} is not positive")
        for i in range(k):
            if i != p:
                f = rows[i][p]
                rows[i] = [(pivot * x - f * y) // det for x, y in zip(rows[i], rows[p])]
        det = pivot
    adj = tuple(tuple(row[k:]) for row in rows)
    for i in range(k):
        for j in range(k):
            if sum(adj[i][t] * matrix[t][j] for t in range(k)) != det * (i == j):
                raise InvariantViolation(f"adj * C != det * I for C = {[list(row) for row in matrix]}")
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
    return tuple(coeffs) if combine(coeffs, basis, (0,) * len(v)) == tuple(v) else None


def _dynkin_components(cartan) -> list[list[int]]:
    """Connected components of the Dynkin graph of a Cartan matrix (two
    nodes are joined when either pairs nonzero with the other), as ascending
    index lists ordered by their first index."""
    parent = list(range(len(cartan)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(cartan)), 2):
        if cartan[i][j] or cartan[j][i]:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(cartan)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def closure(reached: dict, step) -> dict:
    """Breadth-first closure in place: ``reached`` maps the start points to
    labels, and each ``(neighbour, label)`` that ``step(point, label)``
    yields for a point not yet in it is added, in the order reached.  A step
    may read ``reached`` to skip points already in."""
    queue = list(reached.items())
    for point, label in queue:  # the queue grows while it is walked
        for img, img_label in step(point, label):
            if img not in reached:
                reached[img] = img_label
                queue.append((img, img_label))
    return reached


def chamber_walk(pairs: list[int], columns, bound: int, *carried: list[int]) -> tuple[list[int], int]:
    """Walk a point's simple pairings ``pairs`` into the dominant chamber in
    place: s_i for the first p_i < 0 adds ``-p_i`` alpha_i to the point and
    ``-p_i`` times Cartan column i (its nonzero ``(j, c)`` in ``columns[i]``)
    to the pairings, and s_i to each pairing list in ``carried``, which so
    ends as w(x) for the walk w.  Returns the simple-root coefficients added
    and the number of steps: l(w) if the point is off the walls and w moves
    it in.  Each step lowers by one the number of positive roots that pair
    negatively, so a walk of more than ``bound`` steps (callers pass the
    number of positive roots) raises instead of running on."""
    added, steps = [0] * len(pairs), 0
    while True:
        for i, p_i in enumerate(pairs):
            if p_i < 0:
                break
        else:
            return added, steps
        if steps == bound:
            raise InvariantViolation(f"chamber walk takes more than {bound} steps")
        added[i] -= p_i
        steps += 1
        for j, c in columns[i]:
            pairs[j] -= p_i * c
        for x in carried:
            x_i = x[i]
            for j, c in columns[i]:
                x[j] -= x_i * c


class LinearTables(NamedTuple):
    """The linear algebra of a datum, assembled from its component blocks:
    the block-diagonal Cartan matrix; ``det`` and ``adj`` with ``adj *
    cartan == det * I``, the one exact inverse behind every lattice solve;
    the nonzero entries ``(j, c)`` of each Cartan column, for
    :func:`chamber_walk`; ``two_rho_form``, (2 rho, alpha_i) per simple
    root, for the Freudenthal denominator, which is <2 rho, alpha_i^vee>
    (alpha_i, alpha_i) / 2 = (alpha_i, alpha_i); and ``two_rho_coroot``,
    2 rho^vee, the sum of the positive coroots, which is 2 on every simple
    root."""

    cartan: tuple[tuple[int, ...], ...]
    det: int
    adj: tuple[tuple[int, ...], ...]
    cartan_columns: tuple[tuple[tuple[int, int], ...], ...]
    two_rho_form: tuple[int, ...]
    two_rho_coroot: Weight


class DatumTables:
    """The tables of a datum filled in on first use, each by one accessor:
    by J, the W_J-orbit tables of :meth:`RootDatum.stabilizer_orbits`,
    found on the reflection rows of the simple roots in J, the orbit sizes
    |W/W_J| that :meth:`RootDatum.orbit_size` and
    :func:`parahoric.charring.dim` read and the dominance-closure rows of
    :meth:`RootDatum.closure_rows`, the Dynkin labels and simple
    coefficients of the positive roots beta with <beta, alpha_j^vee> <= 0
    for j in J, the only ones whose subtraction can keep a dominant weight
    with zero set J dominant, all of them at J = (); by root index, the
    rows of :meth:`RootDatum.reflection_row` and of
    :meth:`RootDatum.sum_row`; the :class:`LinearTables` of
    :meth:`RootDatum.linear_tables`; per component, the root of
    :meth:`RootDatum.highest_coroots` whose coroot is highest, which pairs
    with a dominant weight at least as much as any positive coroot, since
    its coroot minus any positive coroot is a nonnegative sum of simple
    coroots; and the extended affine basis of
    :func:`parahoric.affine.extended_basis`, which also holds the extended
    Cartan matrices, the coefficient columns and the alcove vertices of a
    spec's facet sweeps.  They hold root data only, so every datum that
    :func:`build_root_datum` returns for one spec shares one such object,
    and each :func:`sub_root_datum` gets a new one, whose tables a facet
    sweep that only models and classifies never builds."""

    __slots__ = (
        "orbits", "orbit_sizes", "closure_rows", "reflection_rows", "sum_rows", "linear", "highest_coroots",
        "extended_basis",
    )

    def __init__(self, linear: LinearTables | None = None):
        self.orbits: dict[tuple[int, ...], tuple[tuple[Weight, tuple[int, ...], int, int], ...]] = {}
        self.orbit_sizes: dict[tuple[int, ...], int] = {}
        self.closure_rows: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {}
        self.reflection_rows: dict[int, tuple[int, ...]] = {}
        self.sum_rows: dict[int, tuple[int | None, ...]] = {}
        self.linear = linear
        self.highest_coroots: tuple[Root, ...] | None = None
        self.extended_basis: AffineBasis | None = None


class RootDatum:
    """A root datum inside the ambient lattice Z^n.

    Construct with :func:`build_root_datum` or :func:`sub_root_datum`.
    Roots are listed by component, then height, then simple coefficients,
    so a reflection that lowers a root's height lowers its index.
    ``blocks`` holds each component's Cartan matrix, determinant and
    adjugate, taken from the memo of :func:`_cartan_table` that both
    constructors share per Cartan matrix.  The datum's Cartan matrix, exact
    inverse and 2 rho functionals are assembled from them only when first
    read, by :meth:`linear_tables`: a facet quotient that is only modelled
    and classified never builds them.  A quotient's roots share their
    ``coords``, ``coroot`` and ``form`` tuples with the ambient datum's.  The
    roots, simple roots and blocks are fixed once built; everything derived
    from them later lives in ``tables``, the :class:`DatumTables` filled in
    on first use.  The one attribute that holds characters, ``chi_cache``,
    belongs to each datum alone: it memoizes ``chi(lam)`` multiplicities by
    highest weight for :func:`parahoric.charring.chi_char`, starts as a new
    empty dict, and may be replaced by another store with ``get`` and item
    assignment, such as the CLI's
    :class:`parahoric.charring.DiskCharacters`.
    """

    def __init__(self, *, spec, n, roots, simple_indices, rho, blocks):
        self.spec: DynkinSpec | None = spec
        self.n: int = n
        self.roots: tuple[Root, ...] = tuple(roots)
        self.positive_roots: tuple[Root, ...] = tuple(r for r in self.roots if r.height > 0)
        self.simple_indices: tuple[tuple[int, ...], ...] = tuple(simple_indices)
        self.rho: Weight | None = rho
        self.root_index: dict[Weight, int] = {r.coords: i for i, r in enumerate(self.roots)}
        self.simple_roots: tuple[Root, ...] = tuple(self.roots[i] for comp in self.simple_indices for i in comp)
        # per component: (Cartan matrix, det, adj) with adj * C == det * I
        self._blocks = tuple(blocks)
        self.simple_coords: tuple[Weight, ...] = tuple(a.coords for a in self.simple_roots)
        self.simple_coroots: tuple[Weight, ...] = tuple(a.coroot for a in self.simple_roots)
        self.chi_cache: dict[Weight, dict[Weight, int]] = {}
        self.tables = DatumTables()

    # -- basic structure ---------------------------------------------------

    @property
    def spec_string(self) -> str | None:
        return str(self.spec) if self.spec is not None else None

    @property
    def num_components(self) -> int:
        return len(self.simple_indices)

    @property
    def semisimple_rank(self) -> int:
        return sum(map(len, self.simple_indices))

    def component_simple_roots(self, component: int) -> tuple[Root, ...]:
        return tuple(self.roots[i] for i in self.simple_indices[component])

    def root_with_coords(self, coords: Weight) -> Root:
        return self.roots[self.root_index[coords]]

    def same_datum(self, other: "RootDatum") -> bool:
        return self is other or self.roots is other.roots or (
            self.n == other.n
            and self.simple_indices == other.simple_indices
            and tuple(r.coords for r in self.roots) == tuple(r.coords for r in other.roots)
        )

    # -- pairing, reflection, orbits ---------------------------------------

    def reflect(self, root: Root, lam: Weight) -> Weight:
        """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
        return wsub(lam, wscale(dot(lam, root.coroot), root.coords))

    def reflection_row(self, i: int) -> tuple[int, ...]:
        """Entry j is the index of s_alpha(beta_j), where alpha is
        ``roots[i]`` and beta_j is ``roots[j]``, kept in :attr:`tables`."""
        rows = self.tables.reflection_rows
        row = rows.get(i)
        if row is None:
            alpha, index = self.roots[i], self.root_index
            row = rows[i] = tuple(index[self.reflect(alpha, b.coords)] for b in self.roots)
            obs.count("rootdata.reflection_rows.built")
        return row

    def sum_row(self, i: int) -> tuple[int | None, ...]:
        """Entry j is the index of alpha + beta_j, or None when it is not a
        root, where alpha is ``roots[i]`` and beta_j is ``roots[j]``, kept
        in :attr:`tables`."""
        rows = self.tables.sum_rows
        row = rows.get(i)
        if row is None:
            alpha, index = self.roots[i].coords, self.root_index
            row = rows[i] = tuple(index.get(wadd(alpha, b.coords)) for b in self.roots)
            obs.count("rootdata.sum_rows.built")
        return row

    def linear_tables(self) -> LinearTables:
        """The :class:`LinearTables` of the datum, assembled from its
        blocks, not inverted again, and kept in :attr:`tables`.  A hot
        reader calls this once per call, not once per loop step."""
        linear = self.tables.linear
        if linear is None:
            cartan = _block_diagonal([c for c, _, _ in self._blocks])
            det = math.prod(d for _, d, _ in self._blocks)
            adj = _block_diagonal([[[det // d * x for x in row] for row in a] for _, d, a in self._blocks])
            linear = self.tables.linear = LinearTables(
                cartan,
                det,
                adj,
                tuple(tuple((j, c) for j, c in enumerate(col) if c) for col in zip(*cartan)),
                tuple(dot(a.form, a.coords) for a in self.simple_roots),
                tuple(map(sum, zip((0,) * self.n, *(b.coroot for b in self.positive_roots)))),
            )
            if self.spec is None:  # a spec's are built once per process
                obs.count("rootdata.quotient_linear_tables.built")
        return linear

    def check_weights(self, *weights: Weight) -> None:
        """Raise ``ValueError`` unless each weight is a ``tuple`` of one ``int``
        per lattice dimension: a list is no character key, :func:`dot` stops
        at the shorter argument, and a float would be computed on.  Each entry
        point that takes weights calls it once; private bodies do not."""
        for lam in weights:
            if type(lam) is not tuple:
                raise ValueError(f"weight {lam!r} is not a tuple")
            if len(lam) != self.n:
                raise ValueError(f"weight {lam} has length {len(lam)}, not the lattice rank {self.n}")
            if not all(type(x) is int for x in lam):
                raise ValueError(f"weight {lam} has a coordinate that is not an int")

    def check_dominant(self, lam: Weight) -> None:
        """:meth:`check_weights` on ``lam``, then :class:`NotDominant` unless
        it is dominant."""
        self.check_weights(lam)
        if not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant")

    def is_dominant(self, lam: Weight) -> bool:
        return all(dot(lam, f) >= 0 for f in self.simple_coroots)

    def weyl_orbit(self, lam: Weight) -> tuple[Weight, ...]:
        """The Weyl-group orbit of ``lam``, in a deterministic (sorted) order."""
        self.check_weights(lam)
        orbit = closure({lam: None}, lambda w, _: ((self.reflect(a, w), None) for a in self.simple_roots))
        return tuple(sorted(orbit))

    def _dominant_conjugate(self, lam: Weight) -> Weight:
        """The unique dominant member of the Weyl orbit of ``lam``, a weight
        checked already: :func:`chamber_walk` on the pairings ``<lam,
        alpha_i^vee>``, and ``lam`` rebuilt once from the simple-root
        coefficients it adds."""
        pairs = [dot(lam, f) for f in self.simple_coroots]
        added, steps = chamber_walk(pairs, self.linear_tables().cartan_columns, len(self.positive_roots))
        return combine(added, self.simple_coords, lam) if steps else lam

    def orbit_size(self, lam: Weight) -> int:
        """|W|/|W_lam| = |W/W_J|, where J is the set of simple roots that pair
        to zero with the dominant conjugate of ``lam``: the size is looked up
        by J (:meth:`_orbit_size`).  The labels of a dominant ``lam``, its
        pairings with the simple coroots, are those of the conjugate, so it
        needs neither :func:`chamber_walk` nor :meth:`linear_tables`; any
        other ``lam`` is walked into the chamber on its labels first."""
        self.check_weights(lam)
        pairs = [dot(lam, f) for f in self.simple_coroots]
        if pairs and min(pairs) < 0:
            chamber_walk(pairs, self.linear_tables().cartan_columns, len(self.positive_roots))
        return self._orbit_size(tuple(j for j, p in enumerate(pairs) if not p))

    def _orbit_size(self, zeros: tuple[int, ...]) -> int:
        """|W/W_J| for the simple roots J = ``zeros`` (indices into
        :attr:`simple_roots`), the size of the orbit of every dominant weight
        whose labels vanish exactly on J; :func:`parahoric.charring.dim`
        reads it for the keys of a character, which are dominant.  On the
        first lookup of a J it is the product of (ht b + 1)/ht b over the
        positive roots b outside Phi_J, those with a nonzero simple
        coefficient off J: |W| and W_J each are such a product over their
        positive roots (the Poincare series at q = 1; Macdonald, Math. Ann.
        1972).  The sizes are kept in :attr:`tables`."""
        size = self.tables.orbit_sizes.get(zeros)
        if size is None:
            offsets = tuple(itertools.accumulate(map(len, self.simple_indices), initial=0))
            # per component, the positions of its simple roots off J
            outside = [[i for i in range(b - a) if a + i not in zeros] for a, b in itertools.pairwise(offsets)]
            num = den = 1
            for beta in self.positive_roots:
                if any(beta.simple_coeffs[i] for i in outside[beta.component]):
                    num, den = num * (beta.height + 1), den * beta.height
            if num % den:
                raise InvariantViolation(f"height product {num}/{den} for J = {zeros} is not an integer")
            size = self.tables.orbit_sizes[zeros] = num // den
        return size

    def stabilizer_orbits(self, zeros: tuple[int, ...]) -> tuple[tuple[Weight, tuple[int, ...], int, int], ...]:
        """The orbits of W_J on the roots that meet the positive roots, where
        W_J is generated by the simple reflections ``zeros`` (indices into
        :attr:`simple_roots`): the stabilizer of a dominant weight that pairs
        to zero with exactly those simple coroots.  Each orbit is a
        :func:`closure` of root indices through the :meth:`reflection_row`
        of each simple root in J.

        One ``(form, labels, (alpha, alpha), count)`` per orbit, in root
        order of its first positive root; alpha is the orbit's highest
        positive root, the last in root order, ``labels`` are its Dynkin
        labels, its pairings with the simple coroots, and ``count`` is the
        orbit's number of positive roots.  Every other root of the orbit
        pairs negatively with some alpha_j^vee, j in J, and s_j raises it, so
        alpha pairs nonnegatively with each of them; a top that does not
        raises, as on a closure that missed a generator.  W_J permutes the
        positive roots outside Phi_J, so such an orbit counts in full; an
        orbit inside Phi_J is closed under negation and counts half.  The
        counts must add up to the number of positive roots, which every
        table of a smaller J satisfies too.  Kept in :attr:`tables`.
        """
        table = self.tables.orbits.get(zeros)
        if table is not None:
            return table
        simple = tuple(itertools.chain.from_iterable(self.simple_indices))
        gens = [self.reflection_row(simple[j]) for j in zeros]
        rows, seen = [], set()
        for k, alpha in enumerate(self.roots):
            if alpha.height > 0 and k not in seen:
                orbit = closure({k: None}, lambda b, _: ((row[b], None) for row in gens))
                seen.update(orbit)
                count = len(orbit)
                if any(self.roots[b].height < 0 for b in orbit):
                    if count % 2:
                        raise InvariantViolation(
                            f"W_J-orbit {[self.roots[b] for b in orbit]} (J = {zeros}) meets the negative roots "
                            "and has odd size"
                        )
                    count //= 2
                top = self.roots[max(orbit)]
                labels = tuple(dot(top.coords, f) for f in self.simple_coroots)
                if any(labels[j] < 0 for j in zeros):
                    raise InvariantViolation(
                        f"the top {top} of a W_J-orbit (J = {zeros}) pairs negatively with a simple coroot of J"
                    )
                rows.append((top.form, labels, dot(top.form, top.coords), count))
        counted = sum(row[3] for row in rows)
        if counted != len(self.positive_roots):
            raise InvariantViolation(
                f"W_J-orbits (J = {zeros}) count {counted} positive roots, not {len(self.positive_roots)}"
            )
        table = self.tables.orbits[zeros] = tuple(rows)
        return table

    def closure_rows(self, zeros: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per positive root beta, in root order, its Dynkin labels, its
        pairings with the simple coroots, and its simple coefficients over
        the whole list :attr:`simple_roots`, kept when its labels are at
        most 0 at every index in ``zeros``: ``closure_rows(())`` holds every
        positive root, and any other J filters it.  A dominant weight mu
        whose labels vanish exactly at ``zeros`` minus a positive root beta
        has the labels ``-<beta, alpha_j^vee>`` at j in ``zeros``, so mu -
        beta is dominant only for these beta.  Freudenthal's recursion in
        :mod:`parahoric.charring` runs on them.  Kept in :attr:`tables`."""
        rows = self.tables.closure_rows.get(zeros)
        if rows is None:
            if zeros:
                rows = tuple(row for row in self.closure_rows(()) if all(row[0][j] <= 0 for j in zeros))
            else:
                offsets = tuple(itertools.accumulate(map(len, self.simple_indices), initial=0))
                rows = tuple(
                    (
                        tuple(dot(b.coords, f) for f in self.simple_coroots),
                        # coefficients over b's component, padded to the simple list
                        (0,) * offsets[b.component] + b.simple_coeffs + (0,) * (offsets[-1] - offsets[b.component + 1]),
                    )
                    for b in self.positive_roots
                )
            self.tables.closure_rows[zeros] = rows
        return rows

    def highest_coroots(self) -> tuple[Root, ...]:
        """Per component, the positive root whose coroot is the highest root
        of the dual root system: the largest ``coroot_height``, the highest
        short root outside the simply-laced types, not the highest root.
        Its coroot minus any positive coroot of the component is a
        nonnegative sum of simple coroots, checked here, so it pairs with a
        dominant weight at least as much as any of them: a dominant lam is
        minuscule or zero exactly when it pairs at most 1 with each.  Kept
        in :attr:`tables`."""
        top = self.tables.highest_coroots
        if top is None:
            top = []
            for c in range(self.num_components):
                roots = [b for b in self.positive_roots if b.component == c]
                theta = max(roots, key=lambda b: b.coroot_height)
                if any(x < y for b in roots for x, y in zip(theta.coroot_coeffs, b.coroot_coeffs)):
                    raise InvariantViolation(f"component {c} has no coroot above every positive coroot")
                top.append(theta)
            top = self.tables.highest_coroots = tuple(top)
        return top

    # -- dominance order ----------------------------------------------------

    def root_lattice_coords(self, v: Weight) -> tuple[int, ...] | None:
        """Integer coordinates of ``v`` over the simple roots, or None."""
        linear = self.linear_tables()
        return _cartan_solve(linear.det, linear.adj, self.simple_coords, self.simple_coroots, v)

    def dominance_leq(self, a: Weight, b: Weight) -> bool:
        """True iff b - a is a nonnegative integer sum of simple roots."""
        self.check_weights(a, b)
        coeffs = self.root_lattice_coords(wsub(b, a))
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def top_weight(self, weights) -> Weight:
        """The weight of ``weights`` with the largest pairing with 2*rho^vee,
        ties broken lexicographically.  That pairing grows strictly along
        the dominance order, so no other weight given lies above it."""
        two_rho_coroot = self.linear_tables().two_rho_coroot
        return max(weights, key=lambda w: (dot(w, two_rho_coroot), w))

    def fundamental_coweight(self, i: int) -> tuple[Weight, int]:
        """The coweight dual to simple root ``i`` as ``(x, d)``: the point
        ``x / d`` in the coordinates dual to the weight coordinates, on which
        simple root ``j`` takes the value ``[i == j]``.  It is row ``i`` of the
        inverse Cartan matrix over the simple coroots."""
        linear = self.linear_tables()
        return combine(linear.adj[i], self.simple_coroots, (0,) * self.n), linear.det

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
        self.check_dominant(lam)
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


def _component_roots(cartan) -> dict[tuple[int, ...], tuple]:
    """All roots of one irreducible component: simple-coefficient vector ->
    ``(local, co, colocal, made)``: its local fundamental-weight coordinates
    (the Cartan matrix times it), its coroot's coefficients over the simple
    coroots, the pairings of the simple roots with that coroot, and how the
    closure reached it, ``(parent, t, q)`` with the root = s_t(parent) and
    q = <parent, alpha_t^vee>, or None for a simple root.

    Closure of the simple roots under all simple reflections, in the order
    reached, starting from the simple roots in order, so a root's parent
    comes before it; finite root systems are exactly the Weyl orbits of
    their simple roots.  The local coordinates are the simple pairings, so
    s_i subtracts ``local[i]`` from coefficient i and ``local[i]`` times
    column i of the Cartan matrix from the local coordinates.  It maps the
    coroot b^vee to s_i(b^vee) = b^vee - <alpha_i, b^vee> alpha_i^vee, so it
    subtracts ``colocal[i]`` from coroot coefficient i and ``colocal[i]``
    times row i from ``colocal``: the coroots come out of the same walk,
    with no norm and no division.
    """
    rank = len(cartan)
    columns = tuple(zip(*cartan))
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    roots = {units[i]: (columns[i], units[i], tuple(cartan[i]), None) for i in range(rank)}

    def step(coeffs, label):
        local, co, colocal, _ = label
        for i, pairing in enumerate(local):
            if pairing:
                img = coeffs[:i] + (coeffs[i] - pairing,) + coeffs[i + 1 :]
                if img not in roots:
                    c = colocal[i]
                    yield img, (
                        tuple(x - pairing * y for x, y in zip(local, columns[i])),
                        co[:i] + (co[i] - c,) + co[i + 1 :],
                        tuple(x - c * y for x, y in zip(colocal, cartan[i])),
                        (coeffs, i, pairing),
                    )
    return closure(roots, step)


@functools.lru_cache(maxsize=256)
def _cartan_table(cartan: tuple[tuple[int, ...], ...]):
    """``(det, adj, roots, simples, recipe)`` of one connected Cartan matrix
    of finite type, checked to be one, shared by every component with that
    matrix in Dynkin specs and facet quotients and by :func:`classify_cartan`.

    The checks run before the closure, which would not end without them.
    The matrix must be square, with 2 on the diagonal, entries <= 0 off it
    and a_ij = 0 exactly when a_ji = 0, and its Dynkin graph must be a tree;
    such a matrix is symmetrizable.  Then its positive leading minors, which
    :func:`_integer_inverse` checks as it finds ``(det, adj)`` with ``adj *
    cartan == det * I``, certify finite type (Sylvester's criterion on the
    symmetrized matrix).  Each check raises :class:`InvariantViolation`, and
    a matrix that fails one is not kept.  Then come each root's ``(coeffs,
    co)`` from :func:`_component_roots`, by height, then coefficients, each
    checked to have coefficients of one sign; the position in ``roots`` of
    each simple root; and a reflection recipe for the other roots.

    The recipe is the discovery tree of the closure in
    :func:`_component_roots`: it lists each root that is not simple once,
    in the order the closure reached it, as ``(child, parent, t, q)``,
    positions in ``roots`` with child = s_t(parent) and q = <parent,
    alpha_t^vee>.  The parent was reached first, so it is simple or listed
    before, and, replayed from the unit vectors, the child's coefficients
    are the parent's less q at t.  The memo is bounded; 61 matrices occur
    over the specs and every facet of B3, C3, D4, G2, F4 and E6 to E8, from
    the quotients and the deleted diagrams together.
    """
    k, shown = len(cartan), [list(row) for row in cartan]
    if any(len(row) != k or row[i] != 2 for i, row in enumerate(cartan)) or any(
        cartan[i][j] > 0 or (cartan[i][j] == 0) != (cartan[j][i] == 0) for i, j in itertools.permutations(range(k), 2)
    ):
        raise InvariantViolation(
            f"not a Cartan matrix: {shown} needs to be square, with 2 on the diagonal, entries <= 0 off it "
            "and a_ij = 0 exactly when a_ji = 0"
        )
    edges = sum(1 for i, j in itertools.combinations(range(k), 2) if cartan[i][j])
    if edges != k - 1 or len(_dynkin_components(cartan)) != 1:
        raise InvariantViolation(f"Dynkin graph of {shown} is not a tree")
    det, adj = _integer_inverse(cartan)
    closed = _component_roots(cartan)
    roots = sorted(((coeffs, co) for coeffs, (_, co, _, _) in closed.items()), key=lambda root: (sum(root[0]), root[0]))
    for coeffs, _ in roots:
        if min(coeffs) < 0 < max(coeffs):
            raise InvariantViolation(f"root {coeffs} has coefficients of both signs")
    position = {coeffs: k for k, (coeffs, _) in enumerate(roots)}
    simples, recipe = [], []
    for coeffs, (_, _, _, made) in closed.items():
        if made is None:  # the simple roots, reached first and in order
            simples.append(position[coeffs])
        else:
            parent, t, q = made
            recipe.append((position[coeffs], position[parent], t, q))
    return det, adj, tuple(roots), tuple(simples), tuple(recipe)


def build_root_datum(spec: DynkinSpec | str) -> RootDatum:
    """Build the simply-connected root datum of a Dynkin specification.

    Positive roots are generated from the simple roots by reflection closure
    and listed in a deterministic order: by component, then height, then
    lexicographic simple coefficients.

    The structure (roots, simple indices, Cartan blocks and the
    :class:`DatumTables`, which gets the Cartan matrix, its inverse and the
    2*rho functionals when first read) is built and checked once per spec,
    keyed on the canonical ``str(spec)``, so ``"a1xa1+t1"`` and
    ``"A1xA1+T1"`` share it.  A string is mapped to that canonical string
    through the bounded memo :func:`_canonical_spec`, so it is parsed once;
    a bad one is not kept and raises on every call.  Every call returns a
    new datum that shares that structure and has its own empty
    ``chi_cache``.
    """
    spec_string = _canonical_spec(spec) if isinstance(spec, str) else str(spec)
    hits = _datum_structure.cache_info().hits if obs.enabled() else 0
    # attribute by attribute rather than copy.copy: a copied __dict__ loses
    # CPython's shared-key instance layout, which makes every later attribute
    # read on the datum slower (about 3x, measured on Python 3.11)
    datum = object.__new__(RootDatum)
    for name, value in vars(_datum_structure(spec_string)).items():
        setattr(datum, name, value)
    datum.chi_cache = {}
    if obs.enabled():
        hits = _datum_structure.cache_info().hits - hits
        if hits:  # a miss records nothing, not a zero
            obs.count("rootdata.build_root_datum.hits", hits)
    return datum


@functools.lru_cache(maxsize=256)
def _canonical_spec(text: str) -> str:
    """``str(parse_dynkin_spec(text))``; the memo keeps only texts that
    parse, as an exception is never stored."""
    return str(parse_dynkin_spec(text))


@functools.lru_cache(maxsize=64)
def _datum_structure(spec_string: str) -> RootDatum:
    """The datum of one canonical spec string, built from scratch.  Only
    copies of it leave :func:`build_root_datum`, so its ``chi_cache`` is
    never used.  The memo is bounded so that a sweep over many types does not
    keep every datum alive.

    A component's simple roots are the columns of its Cartan matrix in its
    own coordinates, with the unit vectors there as coroots and the
    symmetrizer times those as forms.  So a root of :func:`_cartan_table`
    has the Cartan matrix times its coefficients as coordinates, its coroot
    coefficients as coroot and its coefficients times the symmetrizer as
    form, each padded with zeros.
    """
    spec = parse_dynkin_spec(spec_string)
    n = spec.rank
    roots, simple_indices, blocks = [], [], []
    off = 0  # where the component's coordinates start
    for comp, (family, rank) in enumerate(spec.components):
        cartan, d = _cartan_and_symmetrizer(family, rank)
        cartan = tuple(map(tuple, cartan))
        det, adj, table, simples, _ = _cartan_table(cartan)
        blocks.append((cartan, det, adj))
        simple_indices.append(tuple(len(roots) + k for k in simples))
        before, after = (0,) * off, (0,) * (n - off - rank)
        for coeffs, co in table:
            coords = before + tuple(dot(row, coeffs) for row in cartan) + after
            form = before + tuple(map(operator.mul, coeffs, d)) + after
            roots.append(Root(coords, coeffs, comp, before + co + after, co, form))
        off += rank
    rho = tuple([1] * spec.semisimple_rank + [0] * spec.extra_torus_rank)
    return RootDatum(spec=spec, n=n, roots=roots, simple_indices=simple_indices, rho=rho, blocks=blocks)


# ---------------------------------------------------------------------------
# Sub-data (reductive quotients inside the ambient lattice)


def sub_root_datum(ambient: RootDatum, subset) -> RootDatum:
    """The root datum spanned by a closed symmetric subset of ambient roots,
    given as their indices in ``ambient.roots``; an index outside
    ``range(len(ambient.roots))``, negative or not, raises.

    Its roots are read off the ambient datum, not rebuilt: each shares the
    ``coords``, ``coroot`` and ``form`` tuples of its ambient root, so
    characters over the sub-datum live in the ambient lattice, and each
    reflection is a lookup by ambient index in the rows of
    :meth:`RootDatum.reflection_row`.  Ambient roots are listed by
    component, then height, so s_a(b) = b - <b, a^vee> a comes before b
    exactly when the pairing is positive.

    The positive system is the ambient one.  Taken in ambient order, a
    positive root of the subset is simple unless it pairs positively with a
    simple root found before it: in a root system, simple roots pair
    non-positively, and a positive root that is not simple pairs positively
    with a simple root of lower height.  Height is additive, so s_i(b) = b -
    p alpha_i has p = (ht b - ht s_i b) / ht alpha_i, and the Cartan matrix
    is read off the heights.  The simple roots are grouped by the components
    of its Dynkin graph.  For each, :func:`_cartan_table` gives the matrix's
    inverse, its roots' coefficients in datum order with the sign check,
    their coroot coefficients and its reflection recipe, which is replayed
    on ambient indices in one pass: each step child = s_t(parent) is one
    lookup in the row of simple root t, checked by ht child = ht parent - q
    ht alpha_t, which holds exactly when the ambient pairing is the table's
    q.  So each root found is the ambient root with the table's
    coefficients; no two are the same, as the simple roots, positive and
    pairing non-positively, are linearly independent.  Then the roots found
    must be exactly the subset, as for every closed symmetric subset.

    Last, the subset S must be closed: no a + b with a, b in S is a root
    outside S.  It suffices to test a simple root a of S, at rank_S * |S|
    lookups instead of |S|^2.  For let a + b be a root outside S, and take
    w in W_S with w(a) simple in S; it exists because S is the root system
    of its base.  W_S keeps S stable, and so the roots outside S, so w(a) +
    w(b) is again a root outside S, with w(b) in S.  Only the b with <b,
    a^vee> >= 0 are tested: for the others a + b is 0 or, S being a root
    system, a root of S.  Each test reads the index of a + b from the
    ambient :meth:`RootDatum.sum_row` of a, built once per spec.

    Every call builds and checks the datum anew, with a new
    :class:`DatumTables` whose tables, the :class:`LinearTables` among them,
    are built only when read; only the tables of :func:`_cartan_table` and
    the ambient rows are shared.  A memo of quotients per ambient spec and
    subset saved time on facet sweeps but held every quotient for the life
    of the process.
    """
    roots = ambient.roots
    members = sorted(set(subset))
    if members and (members[0] < 0 or members[-1] >= len(roots)):
        raise InvariantViolation("subset contains non-roots")
    simples, rows = [], []
    for b in members:
        if roots[b].height > 0:
            for row in rows:
                if row[b] < b:  # b pairs positively with an earlier simple root
                    break
            else:
                simples.append(b)
                rows.append(ambient.reflection_row(b))
    heights = [roots[a].height for a in simples]
    # <alpha_j, alpha_i^vee> = (ht alpha_j - ht s_i alpha_j) / ht alpha_i
    pairings = [
        [(roots[a].height - roots[row[a]].height) // h for a in simples] for row, h in zip(rows, heights)
    ]
    groups = _dynkin_components(pairings)
    out, simple_indices, blocks, reached = [], [], [], set()
    for comp, group in enumerate(groups):
        cartan = tuple(tuple(pairings[i][j] for j in group) for i in group)
        det, adj, table, positions, recipe = _cartan_table(cartan)
        gens = [(rows[i], heights[i]) for i in group]
        picked = [0] * len(table)  # ambient index of each root of the table
        for t, i in enumerate(group):
            picked[positions[t]] = simples[i]
        for child, parent, t, q in recipe:
            row, h = gens[t]
            b = picked[parent]
            k = picked[child] = row[b]
            if roots[k].height != roots[b].height - q * h:
                raise InvariantViolation(f"the reflection rows of component {comp} miss the roots of {cartan}")
        start = len(out)
        for k, (coeffs, co) in zip(picked, table):
            b = roots[k]
            out.append(Root(b.coords, coeffs, comp, b.coroot, co, b.form))
        simple_indices.append(tuple(start + s for s in positions))
        blocks.append((cartan, det, adj))
        reached.update(picked)
    differ = reached.symmetric_difference(members)
    if differ:
        differ = sorted(roots[k].coords for k in differ)
        raise InvariantViolation(f"subset is not the root system of its base, which differs on {differ}")
    inside = set(members)
    for i in (i for group in groups for i in group):
        row, sums = rows[i], ambient.sum_row(simples[i])
        for b in members:
            if row[b] <= b:  # else <b, a^vee> < 0, and a + b is 0 or a root of S
                total = sums[b]
                if total is not None and total not in inside:
                    raise InvariantViolation(f"subset is not closed: {roots[simples[i]]} + {roots[b]} lies outside it")
    obs.count("rootdata.sub_root_datum.builds")
    return RootDatum(spec=None, n=ambient.n, roots=out, simple_indices=simple_indices, rho=None, blocks=blocks)


# ---------------------------------------------------------------------------
# Classification of an abstract datum back into a Dynkin specification


def classify_cartan(cartan) -> tuple[str, int]:
    """Name one connected Cartan matrix of finite type, given as rows.

    :func:`_cartan_table` checks it, once per matrix, and holds its
    determinant: a square matrix with 2 on the diagonal, entries <= 0 off
    it, a symmetric zero pattern, a tree for a Dynkin graph and positive
    leading minors, or :class:`InvariantViolation`.  :func:`_dynkin_type`
    then names it.
    """
    cartan = tuple(map(tuple, cartan))
    return _dynkin_type(cartan, _cartan_table(cartan)[0])


def _dynkin_type(cartan, det: int) -> tuple[str, int]:
    """The type of a connected finite-type Cartan matrix with determinant
    ``det``, from its largest bond, its rank k and ``det`` (Bourbaki, *Lie
    Groups and Lie Algebras*, ch. VI, Plates I-IX): det A_k = k + 1,
    B_k = C_k = 2, D_k = 4, E6 = 3, E7 = 2, E8 = F4 = G2 = 1.  B_k is the
    k > 2 case whose short end of the double bond, the row holding -2, is a
    leaf; so B2 reads as C2, D3 as A3.
    """
    k = len(cartan)
    # a finite-type bond c_ij * c_ji is its larger |entry|: one of the two is -1
    bond = max(1, -min(map(min, cartan)))
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


def classify_diagram(cartan, n: int) -> DynkinSpec:
    """The Dynkin type of a Cartan matrix over a lattice of rank n, its
    Dynkin graph possibly disconnected: each connected component is named
    by :func:`classify_cartan`, and the remaining rank is a central torus."""
    components = sorted(
        classify_cartan(tuple(tuple(cartan[i][j] for j in g) for i in g)) for g in _dynkin_components(cartan)
    )
    return DynkinSpec(tuple(components), n - sum(rank for _, rank in components))


def classify_root_datum(datum: RootDatum) -> DynkinSpec:
    """The Dynkin type of a datum, torus rank inferred from the ambient rank;
    each component is named from the Cartan matrix and determinant it was
    built with."""
    components = sorted(_dynkin_type(cartan, det) for cartan, det, _ in datum._blocks)
    return DynkinSpec(tuple(components), datum.n - sum(rank for _, rank in components))
