import itertools

import pytest

from parahoric import (
    build_root_datum,
    classify_quotient,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    parse_facet_spec,
    quotient_by_deletion,
)
from parahoric.affine import AffineRoot, FacetSpec, facet_barycenter
from parahoric.rootdata import InvariantViolation, RootDatum, sub_root_datum, wneg

from _oracles import (
    affine_decompose,
    affine_eval,
    canonical_rep,
    ell_theta,
    facet_depths,
    parahoric_model_by_canonical_rep,
    solve_marks,
)

RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "A1xA1"]


def _basis(name):
    rd = build_root_datum(name)
    return rd, extended_basis(rd)


def test_marks_against_linear_system_oracle():
    for name in ["A1", "A2", "B2", "C2", "B3", "C3", "G2", "F4", "D4"]:
        rd, basis = _basis(name)
        for cb in basis.components:
            elements = [(el.gradient.coords, el.level) for el in cb.elements]
            assert cb.marks == solve_marks(elements), name
        assert all(m >= 1 for cb in basis.components for m in cb.marks)


def test_marks_examples():
    _, b = _basis("A1")
    assert b.components[0].marks == (1, 1) and b.components[0].ell == 2
    _, b = _basis("C2")
    assert b.components[0].marks == (2, 1, 1) and b.components[0].ell == 4
    _, b = _basis("G2")
    assert b.components[0].ell == 6


def test_affine_decompose_examples():
    rd, b = _basis("A1")
    a = rd.positive_roots[0]
    assert affine_decompose(rd, b, AffineRoot(a, 0)) == (1, 0)
    neg = rd.root_with_coords(wneg(a.coords))
    assert affine_decompose(rd, b, AffineRoot(neg, 0)) == (-1, 0)
    rd, b = _basis("A2")
    neg_theta = rd.root_with_coords(wneg(rd.highest_root(0).coords))
    assert affine_decompose(rd, b, AffineRoot(neg_theta, 1)) == (0, 0, 1)


def test_affine_decompose_sign_coherent():
    for name in ["B3", "G2", "F4"]:
        rd, b = _basis(name)
        for root in rd.roots:
            for level in (-2, -1, 0, 1, 2):
                coeffs = affine_decompose(rd, b, AffineRoot(root, level))
                assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_facet_counts():
    for name, count in [("A1", 3), ("A2", 7), ("C2", 7), ("A1xA1", 9)]:
        rd, b = _basis(name)
        facets = enumerate_facets(rd, b)
        assert len(facets) == count, name
        assert len(set(map(str, facets))) == count


def test_facet_spec_parsing(a2, a2_basis):
    theta = parse_facet_spec("0,2", a2_basis)
    assert theta.theta == ((0, 2),)
    with pytest.raises(ValueError):
        parse_facet_spec("0,9", a2_basis)
    with pytest.raises(ValueError):
        parse_facet_spec("", a2_basis)
    with pytest.raises(ValueError):
        parse_facet_spec("0/1", a2_basis)
    rd, b = _basis("A1xA1")
    theta = parse_facet_spec("0,1/1", b)
    assert theta.theta == ((0, 1), (1,))


def test_ell_theta_examples():
    rd, b = _basis("A1")
    a = rd.positive_roots[0]
    alcove = FacetSpec(((0, 1),))
    assert ell_theta(rd, b, alcove, AffineRoot(a, 0)) == 1
    vertex = FacetSpec(((1,),))
    assert ell_theta(rd, b, vertex, AffineRoot(a, 0)) == 0
    rd, b = _basis("A2")
    theta = FacetSpec(((0, 2),))
    theta_root = rd.highest_root(0)
    assert ell_theta(rd, b, theta, AffineRoot(theta_root, 0)) == 1


def test_ell_theta_additive_in_level():
    rd, b = _basis("C2")
    for theta in enumerate_facets(rd, b):
        d = facet_depths(b, theta)
        for root in rd.roots:
            base = ell_theta(rd, b, theta, AffineRoot(root, 0))
            assert (
                ell_theta(rd, b, theta, AffineRoot(root, 3)) == base + 3 * d[root.component]
            )


def test_canonical_rep_windows():
    rd, b = _basis("A1")
    a = rd.positive_roots[0]
    neg = rd.root_with_coords(wneg(a.coords))
    assert canonical_rep(rd, b, FacetSpec(((1,),)), a).level == 0
    assert canonical_rep(rd, b, FacetSpec(((0,),)), a).level == -1
    alcove = FacetSpec(((0, 1),))
    assert canonical_rep(rd, b, alcove, a) == AffineRoot(a, 0)
    assert canonical_rep(rd, b, alcove, neg) == AffineRoot(neg, 1)
    assert ell_theta(rd, b, alcove, AffineRoot(a, 0)) == 1
    assert ell_theta(rd, b, alcove, AffineRoot(neg, 1)) == 1


def test_parahoric_model_a1():
    rd, b = _basis("A1")
    hyper = parahoric_model(rd, FacetSpec(((1,),)), b)
    assert len(hyper.quotient_roots) == 2 and hyper.dim_R == 0
    assert hyper.layers == ()
    iwahori = parahoric_model(rd, FacetSpec(((0, 1),)), b)
    assert iwahori.quotient_roots == ()
    assert iwahori.dim_R == 2
    assert sorted(iwahori.layer(1)) == [(-2,), (2,)]
    assert len(iwahori.layers) == 1  # depth 2, so layer 1 is the last


def test_parahoric_model_a2_example(a2, a2_basis):
    model = parahoric_model(a2, parse_facet_spec("0,2", a2_basis), a2_basis)
    assert sorted(a2.roots[k].coords for k in model.quotient_roots) == [(-1, 2), (1, -2)]
    assert model.dim_R == 4
    assert len(model.layers) == 1
    assert sorted(model.layer(1)) == sorted(
        [(2, -1), (1, 1), (-2, 1), (-1, -1)]
    )
    assert str(classify_quotient(model)) == "A1+T1"


def test_vertex_facets_of_a2_are_hyperspecial(a2, a2_basis):
    for index in range(3):
        model = parahoric_model(a2, FacetSpec(((index,),)), a2_basis)
        assert model.dim_R == 0
        assert str(classify_quotient(model)) == "A2"


def test_deletion_example_c2_short_middle_node():
    rd, b = _basis("C2")
    # the extended diagram is a path with the short simple root in the middle
    assert str(quotient_by_deletion(rd, FacetSpec(((0,),)), b)) == "A1xA1"
    assert str(quotient_by_deletion(rd, FacetSpec(((1,),)), b)) == "C2"
    assert str(quotient_by_deletion(rd, FacetSpec(((2,),)), b)) == "C2"


def test_deletion_restores_type_at_affine_node(a2, a2_basis):
    assert str(quotient_by_deletion(a2, FacetSpec(((2,),)), a2_basis)) == "A2"


def test_bookkeeping_sweep_rank_le_3():
    for name in RANK_LE_3:
        rd, b = _basis(name)
        root_coords = {r.coords for r in rd.roots}
        for theta in enumerate_facets(rd, b):
            model = parahoric_model(rd, theta, b)
            assert len(model.quotient_roots) + model.dim_R == len(rd.roots)
            quotient = {rd.roots[k].coords for k in model.quotient_roots}
            for c in quotient:
                assert wneg(c) in quotient
            for x, y in itertools.combinations(quotient, 2):
                s = tuple(a + b_ for a, b_ in zip(x, y))
                if s in root_coords:
                    assert s in quotient, (name, str(theta))
            assert quotient_by_deletion(rd, theta, b) == classify_quotient(model)


def test_layers_vanish_at_depth():
    for name in RANK_LE_3:
        rd, b = _basis(name)
        for theta in enumerate_facets(rd, b):
            model = parahoric_model(rd, theta, b)
            assert len(model.layers) <= max(model.depth) - 1 if model.layers else True
            assert model.layer(max(model.depth)) == ()
            assert model.layer(max(model.depth) + 3) == ()


def test_grading_zero_iff_vanishing_at_barycenter():
    for name in ["A1", "A2", "B2", "C2", "G2", "A1xA1"]:
        rd, b = _basis(name)
        for theta in enumerate_facets(rd, b):
            bary = facet_barycenter(rd, b, theta)
            for root in rd.roots:
                rep = canonical_rep(rd, b, theta, root)
                value = ell_theta(rd, b, theta, rep)
                vanishes = any(
                    affine_eval(AffineRoot(root, level), bary) == 0
                    for level in range(-8, 9)
                )
                assert (value == 0) == vanishes, (name, str(theta), root)


def test_barycenter_lies_on_facet():
    for name in ["G2", "B3", "C3", "D4", "F4", "A1xA1+T1", "B2xG2"]:
        rd, b = _basis(name)
        for theta in enumerate_facets(rd, b):
            bary = facet_barycenter(rd, b, theta)
            for cb, part in zip(b.components, theta.theta):
                for i, el in enumerate(cb.elements):
                    value = affine_eval(el, bary)
                    if i in part:
                        assert value > 0, (name, str(theta), i)
                    else:
                        assert value == 0, (name, str(theta), i)


def test_psi_literal_iff_affine_nodes():
    for name in RANK_LE_3:
        rd, b = _basis(name)
        for theta in enumerate_facets(rd, b):
            model = parahoric_model(rd, theta, b)
            affine_nodes_in = all(
                cb.rank in part for cb, part in zip(b.components, theta.theta)
            )
            assert model.psi_literal_agrees == affine_nodes_in, (name, str(theta))
            if affine_nodes_in:
                for a in rd.positive_roots:
                    assert canonical_rep(rd, b, theta, a).level == 0


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "E6", "E7",
     "A1xA1+T1", "B2xG2", "A2xA1+T2"],
)
def test_functional_matches_canonical_rep_oracle(name):
    rd, b = _basis(name)
    for theta in enumerate_facets(rd, b):
        model = parahoric_model(rd, theta, b)
        oracle = parahoric_model_by_canonical_rep(rd, theta, b)
        assert model.to_json_dict() == oracle.to_json_dict(), (name, str(theta))
        assert model.quotient_roots == oracle.quotient_roots, (name, str(theta))
        assert model.layers == oracle.layers, (name, str(theta))
        assert model.psi_literal_agrees == oracle.psi_literal_agrees, (name, str(theta))


def test_extended_basis_rejects_roots_beyond_the_marks(monkeypatch):
    # alpha_1 in place of the highest root still gives delta, but
    # alpha_1 + alpha_2 exceeds its marks by one and would have coefficients
    # of both signs at level -1.  The basis of a spec is built once and
    # shared, so the check runs on a structure of its own: A2 rebuilt from
    # all its roots.
    a2 = build_root_datum("A2")
    rd = sub_root_datum(a2, range(len(a2.roots)))
    monkeypatch.setattr(RootDatum, "highest_root", lambda self, comp: self.simple_roots[0])
    with pytest.raises(InvariantViolation, match="exceeds the marks"):
        extended_basis(rd)


def test_extended_basis_is_built_once_per_spec():
    first, second = build_root_datum("B3"), build_root_datum("B3")
    basis = extended_basis(first)
    assert extended_basis(second) is basis is second.tables.extended_basis
    assert first.chi_cache is not second.chi_cache
    rebuilt = sub_root_datum(first, range(len(first.roots)))
    assert rebuilt.tables.extended_basis is None
    assert extended_basis(rebuilt) is not basis
    assert extended_basis(rebuilt) is extended_basis(rebuilt) is rebuilt.tables.extended_basis


def test_product_layers_merge_by_grading_value():
    rd, b = _basis("A1xA1")
    mixed = parahoric_model(rd, parse_facet_spec("0,1/1", b), b)
    assert mixed.depth == (2, 1)
    assert sorted(mixed.layer(1)) == [(-2, 0), (2, 0)]
    assert sorted(rd.roots[k].coords for k in mixed.quotient_roots) == [(0, -2), (0, 2)]
    both = parahoric_model(rd, parse_facet_spec("0,1/0,1", b), b)
    assert both.depth == (2, 2)
    assert len(both.layers) == 1
    assert sorted(both.layer(1)) == [(-2, 0), (0, -2), (0, 2), (2, 0)]


def test_model_json_shape(a2, a2_basis):
    model = parahoric_model(a2, parse_facet_spec("0,2", a2_basis), a2_basis)
    data = model.to_json_dict()
    assert data["type"] == "A2"
    assert data["theta"] == "0,2"
    assert data["dim_R"] == 4
    assert data["layers"][0]["j"] == 1 and data["layers"][0]["dim"] == 4
    assert data["quotient_type"] == "A1+T1"


@pytest.mark.parametrize(
    "theta",
    [((),), ((0, 0),), ((0, 5),), (), ((0,), (1,))],
    ids=["empty part", "repeated index", "index out of range", "no part", "extra part"],
)
def test_malformed_facet_specs_are_rejected(a2, a2_basis, theta):
    # built without parse_facet_spec, these raised ZeroDivisionError, gave
    # depth 2, type A2 or T2, or ignored a part
    spec = FacetSpec(theta)
    with pytest.raises(ValueError):
        parahoric_model(a2, spec, a2_basis)
    with pytest.raises(ValueError):
        quotient_by_deletion(a2, spec, a2_basis)
    with pytest.raises(ValueError):
        facet_barycenter(a2, a2_basis, spec)


def test_layer_zero_is_not_a_layer(a2, a2_basis):
    model = parahoric_model(a2, parse_facet_spec("0", a2_basis), a2_basis)
    assert model.layer(len(model.layers) + 1) == ()
    with pytest.raises(ValueError, match="layers are indexed from 1"):
        model.layer(0)


def test_a_theta_index_that_is_no_integer_is_named(a2_basis):
    with pytest.raises(ValueError, match="bad theta indices '0,x'"):
        parse_facet_spec("0,x", a2_basis)


def test_a_torus_has_no_extended_basis():
    with pytest.raises(ValueError, match="datum has no semisimple component"):
        extended_basis(build_root_datum("T2"))


# the four facet functions, each called with the datum, a facet and a basis
FACET_CALLS = {
    "enumerate_facets": lambda rd, theta, basis: enumerate_facets(rd, basis),
    "parahoric_model": lambda rd, theta, basis: parahoric_model(rd, theta, basis).to_json_dict(),
    "quotient_by_deletion": lambda rd, theta, basis: quotient_by_deletion(rd, theta, basis),
    "facet_barycenter": lambda rd, theta, basis: facet_barycenter(rd, basis, theta),
}


@pytest.mark.parametrize("name", sorted(FACET_CALLS))
def test_a_basis_of_another_datum_is_rejected(name, a2_basis):
    # with A2's basis, B3 read as A2+T1, listed 7 facets instead of 15 and
    # had a barycenter of 2 coordinates in a lattice of rank 3
    b3 = build_root_datum("B3")
    with pytest.raises(ValueError, match="not the extended basis of B3"):
        FACET_CALLS[name](b3, FacetSpec(((0,),)), a2_basis)


@pytest.mark.parametrize("name", sorted(FACET_CALLS))
def test_the_datums_own_basis_is_accepted_as_object_or_in_value(name):
    import copy
    import pickle

    b3 = build_root_datum("B3")
    theta = FacetSpec(((0, 2),))
    expected = FACET_CALLS[name](b3, theta, None)
    own = extended_basis(b3)
    for basis in (own, extended_basis(build_root_datum("B3")), copy.deepcopy(own), pickle.loads(pickle.dumps(own))):
        assert FACET_CALLS[name](b3, theta, basis) == expected
    assert copy.deepcopy(own) is not own


def test_a_quotient_datum_takes_only_its_own_basis(a2, a2_basis):
    quotient = parahoric_model(a2, FacetSpec(((0, 1),))).quotient_datum
    assert str(quotient_by_deletion(quotient, FacetSpec(((0,),)))) == "A1+T1"
    with pytest.raises(ValueError, match="not the extended basis of the datum"):
        enumerate_facets(quotient, a2_basis)
