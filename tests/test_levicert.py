import itertools
import os
import subprocess
import sys

import pytest

from parahoric import (
    Character,
    NotPrime,
    build_root_datum,
    certify,
    chi_char,
    dim,
    enumerate_facets,
    extended_basis,
    from_parahoric,
    parahoric_model,
    parse_facet_spec,
    unitary_report,
)
from parahoric.charring import (
    VirtualChiSum,
    add,
    character_to_json,
    chi_expand,
    exterior_square,
)
from parahoric.levicert import CERTIFIED, CONDITIONAL, INCONCLUSIVE, SplittingSequence
from parahoric.rootdata import InvariantViolation, _datum_structure

from _oracles import aggregate_expansion, chi_expand_pairwise, evaluate_chi_sum, from_parahoric_by_conjugates

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _model(name, theta_text):
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    return parahoric_model(rd, parse_facet_spec(theta_text, basis), basis)


def test_from_parahoric_hyperspecial():
    seq = from_parahoric(_model("A1", "1"))
    assert seq.layers == ()
    assert sum(seq.dims) == 0


def test_from_parahoric_a1_iwahori():
    seq = from_parahoric(_model("A1", "0,1"))
    assert len(seq.layers) == 1
    assert seq.layers[0].mult == {(2,): 1, (-2,): 1}
    assert seq.dims == (2,)


def test_from_parahoric_a2_facet():
    seq = from_parahoric(_model("A2", "0,2"))
    assert seq.dims == (4,)
    expansion = chi_expand(seq.layers[0])
    assert expansion.coeffs == {(1, 1): 1, (-2, 1): 1}
    # two 2-dimensional standard characters over the quotient
    assert all(seq.quotient_datum.weyl_dim(w) == 2 for w in expansion.coeffs)


def test_certify_requires_prime():
    seq = from_parahoric(_model("A1", "0,1"))
    with pytest.raises(NotPrime):
        certify(seq, 6)


def test_certify_a1_iwahori():
    cert = certify(from_parahoric(_model("A1", "0,1")), 5)
    assert cert.existence == CERTIFIED and cert.conjugacy == CERTIFIED
    assert cert.rule("T")["satisfied"]
    assert cert.rule("E2")["satisfied"]


def test_certify_a2_facet_p5():
    cert = certify(from_parahoric(_model("A2", "0,2")), 5)
    assert cert.existence == CERTIFIED and cert.conjugacy == CERTIFIED
    assert not cert.rule("T")["satisfied"]
    assert cert.rule("C1")["satisfied"]
    assert cert.rule("C1")["values"]["dims"] == [4]
    assert cert.rule("E1")["satisfied"]
    assert cert.rule("E2")["satisfied"]


def test_certify_a2_iwahori_p2_torus_rule():
    cert = certify(from_parahoric(_model("A2", "0,1,2")), 2)
    assert cert.existence == CERTIFIED and cert.conjugacy == CERTIFIED
    assert cert.rule("T")["satisfied"]
    assert not cert.rule("C1")["satisfied"]
    assert not cert.rule("E1")["satisfied"]
    assert not cert.rule("E2")["satisfied"]
    assert "diagonalizable" in cert.rule("T")["values"]["note"]


def test_certify_hyperspecial_empty_sequence():
    cert = certify(from_parahoric(_model("C2", "1")), 2)
    assert cert.existence == CERTIFIED and cert.conjugacy == CERTIFIED
    assert cert.rule("E1")["satisfied"]  # empty aggregate


def test_inconclusive_carries_blocker():
    # G2 at the facet keeping only the short simple node: large layers, p = 2
    cert = certify(from_parahoric(_model("G2", "0,2")), 2)
    if cert.existence == INCONCLUSIVE:
        assert any("existence blocked" in n for n in cert.notes)


def test_rank_refinement_monotone_rank_le_2():
    for name in ["A1", "A2", "B2", "C2", "G2"]:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            seq = from_parahoric(parahoric_model(rd, theta, basis))
            for p in (2, 3, 5, 7):
                plain = certify(seq, p, use_rank_refinement=False)
                refined = certify(seq, p, use_rank_refinement=True)
                order = {INCONCLUSIVE: 0, CONDITIONAL: 1, CERTIFIED: 2}
                assert order[refined.existence] >= order[plain.existence]
                assert order[refined.conjugacy] >= order[plain.conjugacy]


def test_refinement_ignored_for_products():
    seq = from_parahoric(_model("C2", "0"))  # quotient A1xA1
    cert = certify(seq, 3, use_rank_refinement=True)
    assert any("rank refinement ignored" in n for n in cert.notes)
    assert not cert.rule("C1")["values"]["rank_refined"]


def test_e1_implies_e2_or_single_layer():
    for name in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            seq = from_parahoric(parahoric_model(rd, theta, basis))
            for p in (2, 3, 5, 7):
                cert = certify(seq, p)
                if cert.rule("E1")["satisfied"]:
                    assert cert.rule("E2")["satisfied"] or len(seq.layers) <= 1


def test_traces_reevaluate():
    for name in ["A2", "C2", "G2"]:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            seq = from_parahoric(parahoric_model(rd, theta, basis))
            cert = certify(seq, 5)
            t = cert.rule("T")
            assert t["satisfied"] == (t["values"]["quotient_root_count"] == 0)
            c1 = cert.rule("C1")
            assert c1["satisfied"] == all(
                d < c1["values"]["bound"] for d in c1["values"]["dims"]
            )
            assert c1["values"]["dims"] == list(seq.dims)
            e1 = cert.rule("E1")
            assert e1["satisfied"] == (
                e1["values"]["total_dim"] <= e1["values"]["bound"]
                and e1["values"]["nonnegative"]
            )
            assert e1["values"]["total_dim"] == sum(seq.dims)
            e2 = cert.rule("E2")
            assert e2["satisfied"] == all(
                layer["dim"] <= e2["values"]["p"] and layer["nonnegative"]
                for layer in e2["values"]["layers"]
            )
            if cert.existence == CERTIFIED:
                assert t["satisfied"] or e1["satisfied"] or e2["satisfied"]


def test_aggregate_expansion_matches_layers():
    seq = from_parahoric(_model("A2", "0,1,2"))
    aggregate = Character(seq.quotient_datum, {})
    for layer in seq.layers:
        aggregate = add(aggregate, layer)
    recomputed = evaluate_chi_sum(seq.quotient_datum, chi_expand(aggregate))
    assert recomputed == aggregate.mult


def test_chi_expand_matches_pairwise_oracle_on_certify_sweep():
    for name in ["B3", "C3", "D4", "G2", "A1xA1+T1", "B2xG2", "F4"]:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            seq = from_parahoric(parahoric_model(rd, theta, basis))
            aggregate = Character(seq.quotient_datum, {})
            for layer in seq.layers:
                aggregate = add(aggregate, layer)
            for ch in (*seq.layers, aggregate):
                assert chi_expand(ch).coeffs == chi_expand_pairwise(ch.datum, ch.mult)


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "G2", "F4", "E6", "E7", "A1xA1+T1", "B2xG2"])
def test_layers_and_e1_match_the_per_weight_oracles(name):
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        model = parahoric_model(rd, theta, basis)
        seq = from_parahoric(model)
        expected = from_parahoric_by_conjugates(model)
        assert seq.layers == expected.layers, theta
        assert seq.dims == expected.dims == tuple(map(len, model.layers)), theta
        e1 = certify(seq, 5).rule("E1")["values"]
        direct = aggregate_expansion(expected)
        assert e1["expansion"] == character_to_json(direct.coeffs), theta
        assert e1["nonnegative"] == direct.is_nonnegative(), theta


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "G2", "B2xG2", "F4", "E6"])
def test_layer_characters_pass_the_checked_constructor(name):
    # from_parahoric builds its layers without the constructor's checks
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        seq = from_parahoric(parahoric_model(rd, theta, basis))
        for layer in seq.layers:
            assert layer == Character(layer.datum, dict(layer.mult)), theta


def test_dims_follow_the_layers():
    a2 = build_root_datum("A2")
    seq = SplittingSequence(a2, (Character(a2, {(1, 1): 1}),))
    assert seq.dims == (6,)
    assert seq.expansions == (VirtualChiSum({(1, 1): 1, (0, 0): -2}),)
    with pytest.raises(TypeError):
        SplittingSequence(a2, seq.layers, (1,))
    replaced = SplittingSequence(seq.quotient_datum, seq.layers + (Character(a2, {(0, 0): 2}),))
    assert replaced.dims == (6, 2)
    assert replaced.expansions == seq.expansions + (VirtualChiSum({(0, 0): 2}),)
    # from_parahoric counts weights and sums chi over them; a constructed
    # sequence sums its characters and expands them again
    counted = from_parahoric(_model("A2", "0,2"))
    assert counted.dims == (4,)
    assert counted.expansions == (VirtualChiSum({(1, 1): 1, (-2, 1): 1}),)
    twice = SplittingSequence(counted.quotient_datum, counted.layers * 2)
    assert twice.dims == (4, 4)
    assert twice.expansions == counted.expansions * 2


@pytest.mark.parametrize("name", ["B2", "B3", "C3", "C4", "G2", "D4", "A1xA1+T1", "B2xG2", "F4", "E6"])
def test_brauer_klimyk_expansions_match_freudenthal(name):
    # from_parahoric sums chi over each layer's weights on root indices;
    # chi_expand peels the layer character by Freudenthal's recursion
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        seq = from_parahoric(parahoric_model(rd, theta, basis))
        assert seq.expansions == tuple(map(chi_expand, seq.layers)), theta
        assert seq.expansions == SplittingSequence(seq.quotient_datum, seq.layers).expansions, theta
        total = {}
        for expansion in seq.expansions:
            for w, c in expansion.coeffs.items():
                total[w] = total.get(w, 0) + c
        assert {w: c for w, c in total.items() if c} == aggregate_expansion(seq).coeffs, theta


def _stray_b3_walk(target):
    """B3 at the facet {1}, where (1, 1, -2) is the one layer weight that
    walks: s_3 . (1, 1, -2) = (1, 1, -2) + alpha_3.  The sum row of alpha_3 on
    a B3 structure of its own is made to send it to ``target``: None, or
    "self" for (1, 1, -2) itself."""
    rd = _datum_structure.__wrapped__("B3")
    basis = extended_basis(rd)
    model = parahoric_model(rd, parse_facet_spec("1", basis), basis)
    a, w = (rd.root_index[c] for c in [(0, -1, 2), (1, 1, -2)])
    sums = list(rd.sum_row(a))
    sums[w] = w if target == "self" else target
    rd.tables.sum_rows[a] = tuple(sums)
    return model


def test_a_dot_walk_that_finds_no_root_or_never_ends_raises():
    with pytest.raises(InvariantViolation, match=r"dot walk finds no root above \(1, 1, -2\)"):
        from_parahoric(_stray_b3_walk(None))
    # a row that keeps the weight where it is walks it forever
    with pytest.raises(InvariantViolation, match="dot walk takes more than 3 steps"):
        from_parahoric(_stray_b3_walk("self"))


def test_rule_lookup_names_a_missing_rule():
    cert = certify(from_parahoric(_model("A2", "0,2")), 5)
    assert cert.rule("E2")["id"] == "E2"
    with pytest.raises(KeyError, match="'X'"):
        cert.rule("X")


def test_e1_sums_the_layer_expansions_dropping_cancelled_terms():
    # over A2 the orbit sum m(1,1) is chi(1,1) - 2 chi(0,0); a second layer
    # 2 chi(0,0) cancels the negative term in the aggregate
    a2 = build_root_datum("A2")
    orbit_sum = Character(a2, {(1, 1): 1})
    trivial = Character(a2, {(0, 0): 2})
    for layers, expansion in [
        ((orbit_sum,), {"0,0": -2, "1,1": 1}),
        ((orbit_sum, trivial), {"1,1": 1}),
    ]:
        seq = SplittingSequence(a2, layers)
        cert = certify(seq, 11)
        e1 = cert.rule("E1")["values"]
        assert e1["expansion"] == expansion == character_to_json(aggregate_expansion(seq).coeffs)
        assert e1["nonnegative"] == (len(layers) == 2)
        assert [layer["expansion"] for layer in cert.rule("E2")["values"]["layers"]] == [
            character_to_json(chi_expand(ch).coeffs) for ch in layers
        ]


# B3 at the facet {2}: the quotient is A3 and the one layer of six weights is
# a single orbit of it.  Dropping a weight, or repeating one, leaves a layer
# that is no union of whole orbits of multiplicity one; a weight that is no
# ambient root has no place in the reflection rows.
BROKEN_LAYERS = (
    "from parahoric import (InvariantViolation, build_root_datum, extended_basis, from_parahoric,\n"
    "                       parahoric_model, parse_facet_spec)\n"
    "rd = build_root_datum('B3')\n"
    "basis = extended_basis(rd)\n"
    "model = parahoric_model(rd, parse_facet_spec('2', basis), basis)\n"
    "(layer,) = model.layers\n"
    "for broken in (layer[1:], layer + layer[:1], layer[1:] + (len(rd.roots),), layer[1:] + (-1,)):\n"
    "    try:\n"
    "        from_parahoric(model._replace(layers=(broken,)))\n"
    "    except InvariantViolation as exc:\n"
    "        print('raised:', exc)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_from_parahoric_rejects_layers_that_are_not_whole_orbits(flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BROKEN_LAYERS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: layer is not stable under the quotient's Weyl group at (1, -1, 0)",
        "raised: layer weights are not distinct: 6 of 7",
        "raised: layer weight 18 is not an ambient root",
        "raised: layer weight -1 is not an ambient root",
    ]


def test_chi_expand_matches_pairwise_oracle_on_unitary_family():
    for n in range(2, 7):
        rd = build_root_datum(f"C{n}")
        lam2 = exterior_square(chi_char(rd, tuple(int(i == 0) for i in range(n))))
        assert chi_expand(lam2).coeffs == chi_expand_pairwise(rd, lam2.mult)


def test_unitary_report_table():
    for n in (2, 3, 4, 5):
        for p in (3, 5, 7):
            report = unitary_report(n, p)
            w2 = tuple(1 if i == 1 else 0 for i in range(n))
            zero = ",".join(["0"] * n)
            w2_key = ",".join(str(c) for c in w2)
            assert report["expansion"] == {w2_key: 1, zero: 1}
            assert report["dim_lambda2"] == n * (2 * n - 1)
            assert report["dim_w0"] == 2 * n * n - n - 1
            assert report["existence"] is True
            assert report["conjugacy_by_group_points"] == (n % p != 0)
            assert report["h1_nonzero_reported"] == (n % p == 0)
            assert report["trigger_trivial_in_w0"] == ((2 * n) % p == 0)


def test_unitary_report_specific_verdicts():
    assert unitary_report(2, 3)["conjugacy_by_group_points"] is True
    assert unitary_report(3, 3)["conjugacy_by_group_points"] is False
    r = unitary_report(2, 5)
    assert r["dim_w0"] == 5 and 5 < 5 * 2  # rule C1 would also apply at p=5


def test_unitary_report_validates_input():
    with pytest.raises(NotPrime):
        unitary_report(3, 2)
    with pytest.raises(NotPrime):
        unitary_report(3, 9)
    with pytest.raises(ValueError):
        unitary_report(1, 3)


def test_user_supplied_sequence():
    # certificates work for hand-built layer lists, not only parahoric ones
    c2 = build_root_datum("C2")
    layer = chi_char(c2, (0, 1))
    seq = SplittingSequence(c2, (layer,))
    cert = certify(seq, 7)
    assert cert.existence == CERTIFIED and cert.conjugacy == CERTIFIED
    # at p = 3 the 5-dimensional layer exceeds every bound
    cert3 = certify(seq, 3)
    assert not cert3.rule("E1")["satisfied"]
    assert not cert3.rule("E2")["satisfied"]
    assert cert3.existence == INCONCLUSIVE
    assert cert3.conjugacy == INCONCLUSIVE
    # the rank refinement r = 2 raises the bound to 6 > 5 and upgrades C1/E1
    refined = certify(seq, 3, use_rank_refinement=True)
    assert refined.rule("C1")["satisfied"]
    assert refined.rule("E1")["satisfied"]
    assert refined.existence == CERTIFIED and refined.conjugacy == CERTIFIED


def test_certify_takes_only_an_int_prime():
    # is_prime(5.0) held, so the certificate carried "bound": 5.0, "p": 5.0
    seq = from_parahoric(_model("A2", "0,2"))
    for p in (5.0, True, "5"):
        with pytest.raises(NotPrime):
            certify(seq, p)
    assert certify(seq, 5).existence == CERTIFIED


def test_a_layer_with_a_fractional_multiplicity_is_rejected(a2):
    # it was accepted, and its sequence certified with "dims": [4.5]
    with pytest.raises(ValueError, match="character multiplicities must be integers"):
        SplittingSequence(a2, (Character(a2, {(1, 0): 1.5}),))
