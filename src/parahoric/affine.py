"""Affine root combinatorics on one apartment's fundamental alcove.

An affine root is a pair ``(a, gamma)`` of a root and an integer level,
read as the affine function ``x -> a(x) + gamma`` on the apartment.  The
extended simple basis of each component consists of the simple roots at
level 0 together with ``(-highest_root, 1)``.  Facets of the fundamental
alcove are indexed by per-component nonempty subsets of that basis; for each
facet this module computes the grading of the affine roots, the reductive
quotient of the attached parahoric's special fiber, and the graded layers of
its unipotent radical, as pure weight data.

At a facet Theta, ``(a, gamma)`` has grading value ``base(a) + gamma * d``:
``base(a)`` sums a's simple coefficients over the simple Theta-nodes of its
component and the depth ``d`` sums the marks over Theta.  This is the
Z/d-grading of the inner automorphism with Kac coordinates (marks on Theta,
0 elsewhere) that Moy-Prasad filtrations are read from.  The normative
layer model takes for each gradient its canonical representative, of value
``base(a) mod d``.  The classical set Psi (positive roots at level 0, negated
positives at their vanishing level) agrees with it exactly when no root has
``base(a) = d``; ``psi_literal_agrees`` records this.

Everything a facet sweep reads that does not depend on the facet is kept
per spec in the extended basis: each component's extended Cartan matrix,
its roots' simple coefficients as columns, and its alcove vertices.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .rootdata import (
    DynkinSpec,
    InvariantViolation,
    Root,
    RootDatum,
    Weight,
    classify_diagram,
    classify_root_datum,
    dot,
    sub_root_datum,
    weight_key,
    wneg,
)

if TYPE_CHECKING:
    import fractions

__all__ = [
    "AffineRoot",
    "ComponentBasis",
    "AffineBasis",
    "FacetSpec",
    "ParahoricModel",
    "extended_basis",
    "enumerate_facets",
    "parse_facet_spec",
    "parahoric_model",
    "classify_quotient",
    "quotient_by_deletion",
    "facet_barycenter",
]


class AffineRoot(NamedTuple):
    """An affine root (gradient, level)."""

    gradient: Root
    level: int

    def __repr__(self) -> str:
        return f"AffineRoot({weight_key(self.gradient.coords)}; {self.level})"


class ComponentBasis(NamedTuple):
    """Extended basis of one component: simple roots at level 0, then the
    affine node.  ``marks`` solves delta = sum marks[i] * elements[i].

    The facet tables of the component come with it.  ``cartan`` is the
    extended Cartan matrix ``[<elements[j], elements[i]^vee>]_ij``.
    ``columns[i]`` holds the i-th simple coefficient of every root of the
    datum, in root order, and 0 for the roots of other components.
    ``vertices[i]`` is the alcove vertex opposite node i (see
    :func:`_alcove_vertices`) times ``denominator``, in integers.
    """

    elements: tuple[AffineRoot, ...]
    marks: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def ell(self) -> int:
        return sum(self.marks)

    @property
    def rank(self) -> int:
        return len(self.elements) - 1


class AffineBasis(NamedTuple):
    """The extended bases of a datum's components, each with the tables
    that a sweep over the facets reads: the extended Cartan matrix that
    :func:`quotient_by_deletion` deletes nodes from, the coefficient
    columns that :func:`parahoric_model` grades by, and the alcove vertices
    that :func:`facet_barycenter` averages."""

    components: tuple[ComponentBasis, ...]


def extended_basis(rd: RootDatum) -> AffineBasis:
    """Extended affine simple basis with marks and per-component ell.

    The marks are the unique positive integers expressing the constant
    function delta = (0, 1): the gradient equation forces the highest-root
    coefficients on the simple nodes and the level equation forces 1 on the
    affine node.  Every root's simple coefficients are bounded by the marks
    in absolute value, so each affine root ``(a, gamma)`` has coefficients of
    one sign over the extended basis.

    The basis depends on the root structure alone, so it is built and
    checked once, with the facet tables of :class:`ComponentBasis`, on first
    use, and kept in the datum's :class:`parahoric.rootdata.DatumTables`.
    """
    if rd.tables.extended_basis is not None:
        return rd.tables.extended_basis
    if rd.num_components == 0:
        raise ValueError("datum has no semisimple component")
    components, start = [], 0
    for comp in range(rd.num_components):
        simples = rd.component_simple_roots(comp)
        theta = rd.highest_root(comp)
        affine_node = AffineRoot(rd.root_with_coords(wneg(theta.coords)), 1)
        elements = tuple(AffineRoot(a, 0) for a in simples) + (affine_node,)
        marks = tuple(theta.simple_coeffs) + (1,)
        grad = [0] * rd.n
        for m, el in zip(marks, elements):
            for i, c in enumerate(el.gradient.coords):
                grad[i] += m * c
        if any(grad) or sum(m * el.level for m, el in zip(marks, elements)) != 1:
            raise InvariantViolation(f"marks {marks} of component {comp} do not give delta")
        for a in rd.roots:
            if a.component == comp and any(abs(c) > m for c, m in zip(a.simple_coeffs, marks)):
                raise InvariantViolation(
                    f"root {weight_key(a.coords)} exceeds the marks {marks} of component "
                    f"{comp}: its affine roots have coefficients of both signs"
                )
        cartan = tuple(tuple(dot(b.gradient.coords, a.gradient.coroot) for b in elements) for a in elements)
        columns = tuple(
            tuple(a.simple_coeffs[i] if a.component == comp else 0 for a in rd.roots) for i in range(len(simples))
        )
        vertices, denominator = _alcove_vertices(rd, start, marks)
        components.append(ComponentBasis(elements, marks, cartan, columns, vertices, denominator))
        start += len(simples)
    rd.tables.extended_basis = AffineBasis(tuple(components))
    return rd.tables.extended_basis


class FacetSpec(NamedTuple):
    """Per-component index subsets of the extended basis, each nonempty and
    strictly increasing; every function that takes one checks it against its
    basis."""

    theta: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "/".join(",".join(str(i) for i in part) for part in self.theta)


def parse_facet_spec(text: str, basis: AffineBasis) -> FacetSpec:
    """Parse "0,2/1": per-component comma-separated indices, '/'-separated.

    Index order within a component is (simple roots in datum order, then the
    affine node).
    """
    theta = []
    for part in text.strip().split("/"):
        try:
            theta.append(tuple(sorted({int(tok) for tok in part.split(",") if tok != ""})))
        except ValueError:
            raise ValueError(f"bad theta indices {part!r}") from None
    spec = FacetSpec(tuple(theta))
    _check_facet(spec, basis)
    return spec


def _check_facet(theta: FacetSpec, basis: AffineBasis) -> None:
    """Raise ``ValueError`` unless ``theta`` has one part per component of
    ``basis``, each a nonempty, strictly increasing run of indices into the
    component's extended basis."""
    if len(theta.theta) != len(basis.components):
        raise ValueError(
            f"facet spec {str(theta)!r} has {len(theta.theta)} component(s), "
            f"datum has {len(basis.components)}"
        )
    for part, cb in zip(theta.theta, basis.components):
        if not part:
            raise ValueError("each component needs a nonempty theta")
        if any(i >= j for i, j in zip(part, part[1:])):
            raise ValueError(f"theta indices {part} are not strictly increasing")
        if part[0] < 0 or part[-1] >= len(cb.elements):
            raise ValueError(f"theta index out of range in {part}")


def _own_basis(rd: RootDatum, basis: AffineBasis | None) -> AffineBasis:
    """``extended_basis(rd)``, which a ``basis`` given beside ``rd`` must
    equal (a pickle round trip keeps it equal); any other raises ValueError."""
    own = extended_basis(rd)
    if basis is not None and basis != own:
        raise ValueError(f"the basis given is not the extended basis of {rd.spec_string or 'the datum'}")
    return own


def enumerate_facets(rd: RootDatum, basis: AffineBasis | None = None) -> list[FacetSpec]:
    """All facets of the fundamental alcove closure, in a fixed order.

    There are prod_i (2^(rank_i + 1) - 1) of them: one per choice of a
    nonempty subset of each component of ``extended_basis(rd)``, which
    ``basis``, if given, must equal.
    """
    per_component = []
    for cb in _own_basis(rd, basis).components:
        k = len(cb.elements)
        subsets = []
        for mask in range(1, 1 << k):
            subsets.append(tuple(i for i in range(k) if mask >> i & 1))
        per_component.append(subsets)
    return [FacetSpec(combo) for combo in itertools.product(*per_component)]


class ParahoricModel(NamedTuple):
    """Weight-level model of a parahoric special fiber at one facet.

    Roots are ambient root indices, positions in ``datum.roots``, each tuple
    ascending.  ``quotient_roots`` span the reductive quotient;
    ``layers[j-1]`` are the roots at grading value j, whose gradients are
    the weights of the j-th radical layer, as :meth:`layer` gives them.  The
    counts satisfy ``len(quotient_roots) + dim_R == len(datum.roots)``.
    """

    datum: RootDatum
    theta: FacetSpec
    depth: tuple[int, ...]
    quotient_roots: tuple[int, ...]
    quotient_datum: RootDatum
    layers: tuple[tuple[int, ...], ...]
    dim_R: int
    psi_literal_agrees: bool

    def layer(self, j: int) -> tuple[Weight, ...]:
        """Weights at grading value j >= 1 (empty beyond the last layer)."""
        if j < 1:
            raise ValueError("layers are indexed from 1")
        return tuple(self.datum.roots[k].coords for k in self.layers[j - 1]) if j - 1 < len(self.layers) else ()

    def to_json_dict(self) -> dict:
        return {
            "type": self.datum.spec_string,
            "theta": str(self.theta),
            "depth": list(self.depth),
            "quotient_type": str(classify_quotient(self)),
            "quotient_roots": [list(self.datum.roots[k].coords) for k in self.quotient_roots],
            "layers": [
                {"j": j, "weights": [list(w) for w in self.layer(j)], "dim": len(layer)}
                for j, layer in enumerate(self.layers, start=1)
            ],
            "dim_R": self.dim_R,
            "psi_literal_agrees": self.psi_literal_agrees,
        }


def classify_quotient(model: ParahoricModel) -> DynkinSpec:
    return classify_root_datum(model.quotient_datum)


def parahoric_model(rd: RootDatum, theta: FacetSpec, basis: AffineBasis | None = None) -> ParahoricModel:
    """Compute the reductive quotient and graded radical layers at a facet.

    Each root ``a`` takes the value ``base(a) mod d`` of its canonical
    representative: value 0 puts its ambient index into the quotient, value
    j >= 1 puts it into layer j.  Layers of product types are merged by
    grading value across components.  Psi places a root with ``base(a) = d``
    at level 0 instead of -1, so it agrees exactly when there is none.  The
    basis is ``extended_basis(rd)``, which ``basis``, if given, must equal.
    """
    basis = _own_basis(rd, basis)
    _check_facet(theta, basis)
    parts = list(zip(basis.components, theta.theta))
    depth = tuple(sum(cb.marks[i] for i in part) for cb, part in parts)
    # base(a) of every root at once, from the columns of the simple Theta-nodes
    columns = [cb.columns[i] for cb, part in parts for i in part if i < cb.rank]
    bases = list(zip(rd.roots, map(sum, zip(*columns)) if columns else itertools.repeat(0)))
    by_value: list[list[int]] = [[] for _ in range(max(depth))]
    for k, (a, base) in enumerate(bases):
        by_value[base % depth[a.component]].append(k)
    quotient_roots, *layers = by_value
    while layers and not layers[-1]:
        layers.pop()
    return ParahoricModel(
        datum=rd,
        theta=theta,
        depth=depth,
        quotient_roots=tuple(quotient_roots),
        quotient_datum=sub_root_datum(rd, quotient_roots),
        layers=tuple(map(tuple, layers)),
        dim_R=sum(len(layer) for layer in layers),
        psi_literal_agrees=all(base != depth[a.component] for a, base in bases),
    )


def quotient_by_deletion(rd: RootDatum, theta: FacetSpec, basis: AffineBasis | None = None) -> DynkinSpec:
    """Type of the reductive quotient read off the extended Dynkin diagram:
    delete the Theta nodes and every edge adjacent to them, then classify the
    surviving subdiagram.  Must agree with the type computed from the window
    model.  The surviving nodes' Cartan matrix is read off the extended
    Cartan matrices of ``extended_basis(rd)``, which ``basis``, if given,
    must equal."""
    basis = _own_basis(rd, basis)
    _check_facet(theta, basis)
    cbs = basis.components
    survivors = [(c, i) for c, part in enumerate(theta.theta) for i in range(len(cbs[c].elements)) if i not in part]
    cartan = [[cbs[c].cartan[i][j] if c == d else 0 for d, j in survivors] for c, i in survivors]
    return classify_diagram(cartan, rd.n)


# ---------------------------------------------------------------------------
# Facet geometry (exact arithmetic)
#
# Apartment points are written over the basis dual to the fundamental-weight
# coordinates, extended by zero on torus directions, so a root evaluates on a
# point by a plain dot product.


def _alcove_vertices(rd: RootDatum, start: int, marks: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The alcove vertex opposite each extended-basis node of the component
    whose simple roots start at ``start``, as integer numerators over one
    denominator.

    Every other node of the component vanishes at that vertex.  Opposite a
    simple node it is the node's fundamental coweight divided by its mark;
    opposite the affine node it is the origin.
    """
    coweights = [rd.fundamental_coweight(start + pick) for pick in range(len(marks) - 1)]
    det = coweights[0][1]
    denominator = det * math.lcm(*marks)
    vertices = tuple(tuple(c * (denominator // (det * m)) for c in x) for (x, _), m in zip(coweights, marks))
    return vertices + ((0,) * rd.n,), denominator


def facet_barycenter(rd: RootDatum, basis: AffineBasis | None, theta: FacetSpec) -> tuple[fractions.Fraction, ...]:
    """Barycenter of the facet: the average of the alcove vertices of
    ``extended_basis(rd)`` (which ``basis``, if not None, must equal) opposite
    the Theta nodes, component by component.  Lies in the open facet, so an
    affine root vanishes at it iff it vanishes identically on the facet."""
    # imported only here, so that importing this module does not pay for it;
    # a plain import, since a from-import looks up the module's __path__ on
    # every call, about 1.5 us more per call on Python 3.11
    import fractions

    basis = _own_basis(rd, basis)
    _check_facet(theta, basis)
    # integer numerators over one common denominator, and one Fraction per
    # coordinate at the end: each Fraction sum would reduce by a gcd
    num, den = [0] * rd.n, 1
    for cb, part in zip(basis.components, theta.theta):
        sums = map(sum, zip(*(cb.vertices[i] for i in part)))
        comp_den = cb.denominator * len(part)
        common = math.lcm(den, comp_den)
        num = [a * (common // den) + b * (common // comp_den) for a, b in zip(num, sums)]
        den = common
    return tuple(fractions.Fraction(x, den) for x in num)
