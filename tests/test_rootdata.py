import hashlib
import itertools
import os
import random
import re
import subprocess
import sys

import pytest

from parahoric import (
    DynkinSpec,
    IllegalRank,
    NotDominant,
    build_root_datum,
    chi_char,
    classify_root_datum,
    dim,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    parse_dynkin_spec,
    parse_facet_spec,
    quotient_by_deletion,
)
from parahoric import rootdata
from parahoric.affine import facet_barycenter
from parahoric.charring import DiskCharacters
from parahoric.rootdata import (
    InvariantViolation,
    _datum_structure,
    classify_cartan,
    dot,
    is_prime,
    parse_weight_key,
    sub_root_datum,
    wadd,
    weight_key,
    wneg,
)

from _oracles import (
    classify_nodes_by_inverse,
    dominant_conjugate,
    dominant_conjugate_by_reflection,
    facet_barycenter_by_fractions,
    integer_coords,
    is_prime_by_trial_division,
    roots_by_closure,
    roots_by_weyl_images,
    stabilizer_orbits_by_closure,
    sub_root_datum_by_solves,
    weyl_group_matrices,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _indices(rd, coords):
    """The ambient root indices of the roots of ``rd`` with these coordinates."""
    return [rd.root_index[c] for c in coords]


CLASSICAL_COUNTS = {
    "A1": 2,
    "A2": 6,
    "A3": 12,
    "A4": 20,
    "B2": 8,
    "B3": 18,
    "B4": 32,
    "C2": 8,
    "C3": 18,
    "C4": 32,
    "D3": 12,
    "D4": 24,
    "G2": 12,
    "F4": 48,
    "E6": 72,
}


def test_parse_grammar():
    assert str(parse_dynkin_spec("a2")) == "A2"
    assert str(parse_dynkin_spec("A1xA1+T1")) == "A1xA1+T1"
    assert str(parse_dynkin_spec("c3")) == "C3"
    spec = parse_dynkin_spec("A1+T2")
    assert spec.components == (("A", 1),) and spec.extra_torus_rank == 2
    assert parse_dynkin_spec("T3").rank == 3


def test_parse_rejects_bad_specs():
    for bad in ["", "H3", "A0", "D1", "D2", "E5", "F3", "G4", "A1+X2", "A", "A1x"]:
        with pytest.raises(IllegalRank):
            parse_dynkin_spec(bad)


def test_root_counts_match_classical():
    for name, count in CLASSICAL_COUNTS.items():
        rd = build_root_datum(name)
        assert len(rd.roots) == count, name
        assert len(rd.positive_roots) * 2 == count, name


def test_roots_agree_with_weyl_image_oracle():
    for name in ["A1", "A2", "B2", "C2", "G2", "A3", "A1xA1"]:
        rd = build_root_datum(name)
        oracle = roots_by_weyl_images(rd)
        assert {r.coords for r in rd.roots} == oracle, name


def test_root_set_closed_under_negation_and_reflection(a2, g2):
    for rd in (a2, g2):
        coords = {r.coords for r in rd.roots}
        for r in rd.roots:
            assert tuple(-c for c in r.coords) in coords
            for s in rd.simple_roots:
                assert rd.reflect(s, r.coords) in coords


def test_pairing_normalization(a2, c2, g2):
    for rd in (a2, c2, g2):
        for r in rd.roots:
            assert dot(r.coords, r.coroot) == 2


def test_sign_coherence_of_simple_coeffs(c2, g2):
    for rd in (c2, g2):
        for r in rd.roots:
            assert all(c >= 0 for c in r.simple_coeffs) or all(
                c <= 0 for c in r.simple_coeffs
            )


def test_deterministic_root_order(a2):
    rebuilt = build_root_datum("A2")
    assert [r.coords for r in rebuilt.roots] == [r.coords for r in a2.roots]
    keys = [(r.component, r.height, r.simple_coeffs) for r in a2.roots]
    assert keys == sorted(keys)


def test_highest_root(a1, a2, c2):
    assert a1.highest_root(0).simple_coeffs == (1,)
    assert a2.highest_root(0).simple_coeffs == (1, 1)
    hr = c2.highest_root(0)
    assert hr.simple_coeffs == (2, 1)
    # long root: its coroot has smaller coefficients than a short root's
    assert hr.coroot_coeffs == (1, 1)


def test_pair_examples(a2):
    a1v = a2.simple_roots[0].coroot
    theta_v = a2.highest_root(0).coroot
    assert dot((1, 0), a1v) == 1
    assert dot((3, 1), theta_v) == 4
    assert dot(a2.rho, theta_v) == 2


def test_reflect_examples(a2):
    s1 = a2.simple_roots[0]
    assert a2.reflect(s1, s1.coords) == tuple(-c for c in s1.coords)
    assert a2.reflect(s1, (1, 0)) == (-1, 1)
    assert a2.reflect(s1, (0, 5)) == (0, 5)  # orthogonal weight is fixed


def test_reflect_is_involution(g2, c2):
    import random

    rng = random.Random(1)
    for rd in (g2, c2):
        for _ in range(50):
            lam = tuple(rng.randint(-4, 4) for _ in range(rd.n))
            root = rng.choice(rd.roots)
            assert rd.reflect(root, rd.reflect(root, lam)) == lam


def test_weyl_orbit_examples(a2):
    assert a2.weyl_orbit((0, 0)) == ((0, 0),)
    assert len(a2.weyl_orbit((1, 0))) == 3
    assert len(a2.weyl_orbit((1, 1))) == 6


def test_orbit_size_divides_group_order():
    for name in ["A2", "B2", "G2", "A1xA1"]:
        rd = build_root_datum(name)
        order = len(weyl_group_matrices(rd))
        for lam in itertools.product(range(-1, 3), repeat=rd.n):
            assert order % rd.orbit_size(lam) == 0


def _assert_orbit_sizes_enumerate(rd, weights):
    """orbit_size(lam) is the length of the enumerated orbit containing lam."""
    orbits = {}
    for lam in weights:
        dom = dominant_conjugate(rd, lam)
        if dom not in orbits:
            orbits[dom] = set(rd.weyl_orbit(dom))
        assert lam in orbits[dom]
        assert rd.orbit_size(lam) == len(orbits[dom]), (rd.spec_string, lam)


def test_orbit_size_matches_orbit_enumeration():
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2", "F4"]
    for name in names + ["A1xA1+T1", "B2xG2"]:
        rd = build_root_datum(name)
        _assert_orbit_sizes_enumerate(rd, itertools.product(range(-1, 3), repeat=rd.n))


def test_root_closure_matches_coefficient_closure():
    names = [f"{family}{rank}" for family, ranks in
             [("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(4, 7)),
              ("E", range(6, 9))] for rank in ranks]
    for name in names + ["F4", "G2", "A1xA1+T1", "B2xG2"]:
        assert build_root_datum(name).roots == roots_by_closure(name), name


def test_orbit_size_on_facet_quotients():
    for name in ["F4", "E6"]:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        # 0, +-e_i and e_i - e_{i+1}: mostly not dominant for the quotient
        weights = [tuple(s * (i == j) for j in range(rd.n)) for i in range(rd.n) for s in (0, 1, -1)]
        weights += [tuple((i == j) - (i + 1 == j) for j in range(rd.n)) for i in range(rd.n - 1)]
        for theta in enumerate_facets(rd, basis):
            sub = parahoric_model(rd, theta, basis).quotient_datum
            _assert_orbit_sizes_enumerate(sub, weights)


def test_orbit_size_of_rho_is_weyl_group_order():
    for name, order in [("E6", 51_840), ("E7", 2_903_040), ("E8", 696_729_600)]:
        rd = build_root_datum(name)
        assert rd.orbit_size(rd.rho) == order
        assert rd.orbit_size(wneg(rd.rho)) == order


def test_dominant_conjugate(a2):
    assert dominant_conjugate(a2, (2, 1)) == (2, 1)
    assert dominant_conjugate(a2, (-1, 1)) == (1, 0)
    assert dominant_conjugate(a2, (-1, -1)) == (1, 1)


def test_dominant_conjugate_is_orbit_invariant(g2):
    lam = (1, 2)
    rep = dominant_conjugate(g2, lam)
    for w in g2.weyl_orbit(lam):
        assert dominant_conjugate(g2, w) == rep
    assert dominant_conjugate(g2, rep) == rep


def test_weyl_dim_examples(a2, c2):
    assert a2.weyl_dim((0, 0)) == 1
    assert a2.weyl_dim((5, 0)) == 21
    assert a2.weyl_dim((3, 1)) == 24
    assert a2.weyl_dim((2, 0)) == 6
    assert c2.weyl_dim((0, 1)) == 5
    with pytest.raises(NotDominant):
        a2.weyl_dim((-1, 0))


def test_weyl_dim_closed_form_a2(a2):
    for a in range(5):
        for b in range(5):
            assert a2.weyl_dim((a, b)) == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_dominance_order(a2):
    assert a2.dominance_leq((0, 0), (1, 1))
    assert a2.dominance_leq((2, 0), (3, 1))  # difference (1,1) = alpha1 + alpha2
    assert not a2.dominance_leq((0, 0), (1, 0))  # not in the root lattice
    assert not a2.dominance_leq((1, 1), (0, 0))


def _facet_quotient(name, spec):
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    return parahoric_model(rd, parse_facet_spec(spec, basis), basis).quotient_datum


def test_root_lattice_coords_constructive():
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2",
             "A1xA1+T1", "B2xG2"]
    data = [build_root_datum(name) for name in names]
    # A1xA2+T1 inside F4, and the pure torus T3 left by the Iwahori of B3
    data += [_facet_quotient("F4", "0,1"), _facet_quotient("B3", "0,1,2,3")]
    assert data[-1].semisimple_rank == 0
    rng = random.Random(11)
    for rd in data:
        simples = [a.coords for a in rd.simple_roots]
        zero = (0,) * rd.n
        for _ in range(20):
            c = tuple(rng.randint(-4, 4) for _ in simples)
            v = tuple(sum(ci * s[i] for ci, s in zip(c, simples)) for i in range(rd.n))
            assert rd.root_lattice_coords(v) == c
            assert rd.dominance_leq(zero, v) == all(ci >= 0 for ci in c)
            # unit shifts: fundamental weights, torus directions, off-span vectors
            for i in range(rd.n):
                shifted = tuple(x + (j == i) for j, x in enumerate(v))
                assert rd.root_lattice_coords(shifted) == integer_coords(simples, shifted)
    a2, torus_type = data[names.index("A2")], data[names.index("A1xA1+T1")]
    pure_torus = data[-1]
    assert a2.root_lattice_coords((1, 0)) is None  # fundamental weight outside Q
    assert torus_type.root_lattice_coords((2, 0, 1)) is None  # torus shift of alpha_1
    assert pure_torus.root_lattice_coords((0, 0, 0)) == ()
    assert pure_torus.root_lattice_coords((0, 1, 0)) is None
    assert not pure_torus.dominance_leq((0, 0, 0), (1, 0, 0))


def test_invariant_violation_survives_optimize_flag():
    code = (
        "from parahoric import (Character, InvariantViolation, SimpleLedger, build_root_datum,\n"
        "                       chi_char, extended_basis, from_parahoric, parahoric_model,\n"
        "                       parse_facet_spec, resolve_simple, sub_root_datum)\n"
        "from parahoric.rootdata import classify_cartan\n"
        "a2, c2 = build_root_datum('A2'), build_root_datum('C2')\n"
        "def wrong_chi():  # a plausible but wrong chi(3,0): dim 10, keys below (3,0)\n"
        "    a2.chi_cache[(3, 0)] = {(3, 0): 1, (0, 0): 7}\n"
        "    resolve_simple(a2, 3, (3, 0), SimpleLedger(a2, 3))\n"
        "affine_d4 = [[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1], [0, 0, 0, 2, -1],\n"
        "             [-1, -1, -1, -1, 2]]\n"
        "import parahoric.rootdata as rootdata\n"
        "def joined_orbits():  # a C3 whose row of s_1 sends alpha_1 to alpha_3: long roots count twice\n"
        "    c3 = rootdata._datum_structure.__wrapped__('C3')\n"
        "    s1, _, s3 = c3.simple_indices[0]\n"
        "    row = list(c3.reflection_row(s1))\n"
        "    row[s1] = s3\n"
        "    c3.tables.reflection_rows[s1] = tuple(row)\n"
        "    chi_char(c3, (0, 1, 0))\n"
        "def doubled_two_rho():  # a wrong Freudenthal denominator: (2 rho, alpha_i) doubled\n"
        "    rd = build_root_datum('A2')\n"
        "    linear = rd.linear_tables()\n"
        "    doubled = linear._replace(two_rho_form=tuple(2 * x for x in linear.two_rho_form))\n"
        "    rd.tables = rootdata.DatumTables(linear=doubled)  # this build's own tables\n"
        "    chi_char(rd, (1, 1))\n"
        "def swapped_row():  # two entries of alpha_2's reflection row in A3 exchanged\n"
        "    a3 = build_root_datum('A3')\n"
        "    i, j, k = (a3.root_index[c] for c in [(-1, 2, -1), (-1, 0, -1), (0, 1, -2)])\n"
        "    row = a3.reflection_row(i)\n"
        "    swapped = list(row)\n"
        "    swapped[j], swapped[k] = row[k], row[j]\n"
        "    a3.tables.reflection_rows[i] = tuple(swapped)\n"
        "    try:\n"
        "        sub_root_datum(a3, range(len(a3.roots)))\n"
        "    finally:\n"
        "        a3.tables.reflection_rows[i] = row\n"
        "def tampered_coroot():  # A2 with the coroot of alpha_1 + alpha_2 given as 2 alpha_1^vee\n"
        "    fresh = rootdata._datum_structure.__wrapped__('A2')\n"
        "    top = fresh.positive_roots[-1]\n"
        "    tampered = rootdata.Root(top.coords, top.simple_coeffs, 0, top.coroot, (2, 0), top.form)\n"
        "    fresh.positive_roots = fresh.positive_roots[:-1] + (tampered,)\n"
        "    fresh.highest_coroots()\n"
        "def dropped_generator():  # W_{s_1}-orbits in A2 on an identity row of s_1, as if s_1 were dropped\n"
        "    fresh = rootdata._datum_structure.__wrapped__('A2')\n"
        "    s1 = fresh.simple_indices[0][0]\n"
        "    fresh.tables.reflection_rows[s1] = tuple(range(len(fresh.roots)))\n"
        "    fresh.stabilizer_orbits((0,))\n"
        "def stray_walk():  # B3 at {1}: alpha_3's sum row sends (1, 1, -2) to alpha_3, out of the layer\n"
        "    b3 = rootdata._datum_structure.__wrapped__('B3')\n"
        "    basis = extended_basis(b3)\n"
        "    model = parahoric_model(b3, parse_facet_spec('1', basis), basis)\n"
        "    a, w = (b3.root_index[c] for c in [(0, -1, 2), (1, 1, -2)])\n"
        "    sums = list(b3.sum_row(a))\n"
        "    sums[w] = a\n"
        "    b3.tables.sum_rows[a] = tuple(sums)\n"
        "    from_parahoric(model)\n"
        "def at(rd, *coords):  # ambient root indices\n"
        "    return [rd.root_index[c] for c in coords]\n"
        "for make in (lambda: sub_root_datum(a2, [0, len(a2.roots)]),\n"
        "             lambda: sub_root_datum(a2, [-1]),\n"
        "             lambda: Character(a2, {(-1, 0): 1}),\n"
        "             wrong_chi,\n"
        "             lambda: classify_cartan(affine_d4),\n"
        "             joined_orbits,\n"
        "             lambda: sub_root_datum(a2, at(a2, (2, -1), (-2, 1), (-1, 2), (1, -2))),\n"
        "             doubled_two_rho,\n"
        "             lambda: sub_root_datum(c2, at(c2, (2, -1), (-2, 1), (0, 1), (0, -1))),\n"
        "             swapped_row,\n"
        "             tampered_coroot,\n"
        "             dropped_generator,\n"
        "             stray_walk):\n"
        "    try:\n"
        "        make()\n"
        "    except InvariantViolation as exc:\n"
        "        print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 13
    assert lines[0] == lines[1] == "raised: subset contains non-roots"
    assert lines[2].startswith("raised: character keys must be dominant")
    assert lines[3].startswith("raised: chi((3, 0)) - ch L((1, 1)) is not a character")
    assert lines[4].startswith("raised: leading minor 5 of [[2, 0, 0, 0, -1]")
    assert lines[5].startswith("raised: W_J-orbits (J = (0, 1, 2)) count 12 positive roots, not 9")
    assert lines[6].startswith(
        "raised: subset is not the root system of its base, which differs on [(-1, -1), (1, 1)]"
    )
    assert lines[7] == "raised: Freudenthal step at (0, 0): 12 / 10"
    assert lines[8] == "raised: subset is not closed: Root(2,-1) + Root(0,-1) lies outside it"
    assert lines[9] == (
        "raised: the reflection rows of component 0 miss the roots of ((2, -1, 0), (-1, 2, -1), (0, -1, 2))"
    )
    assert lines[10] == "raised: component 0 has no coroot above every positive coroot"
    assert lines[11] == (
        "raised: the top Root(-1,2) of a W_J-orbit (J = (0,)) pairs negatively with a simple coroot of J"
    )
    assert lines[12] == "raised: dot walk leaves its layer at (0, -1, 2)"


def test_torus_factors():
    rd = build_root_datum("A1+T1")
    assert rd.n == 2
    assert len(rd.roots) == 2
    assert rd.roots[0].coords in {(2, 0), (-2, 0)}
    assert rd.is_dominant((0, -5))
    assert rd.weyl_dim((1, 7)) == 2


def test_classify_roundtrip():
    for name in ["A1", "A2", "A4", "C2", "B3", "C3", "D4", "F4", "G2", "E6", "A1xA1+T1", "D3"]:
        rd = build_root_datum(name)
        spec = classify_root_datum(rd)
        if name == "D3":
            assert spec == DynkinSpec((("A", 3),))
        else:
            assert spec == rd.spec, name


def _cartan(k, edges):
    """Cartan matrix of k nodes; an edge is (i, j) or (i, j, c_ij, c_ji)."""
    c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for i, j, *entries in edges:
        c[i][j], c[j][i] = entries or (-1, -1)
    return c


@pytest.mark.parametrize(
    "cartan, message",
    [
        (_cartan(3, [(0, 1), (1, 2), (2, 0)]), "Dynkin graph"),  # affine A2, a cycle
        (_cartan(5, [(0, 4), (1, 4), (2, 4), (3, 4)]), "leading minor"),  # affine D4
        (_cartan(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]), "leading minor"),  # affine D5
        (_cartan(3, [(0, 1, -3, -1), (1, 2)]), "leading minor"),  # affine G2
        (_cartan(3, [(0, 1, -2, -1), (1, 2, -1, -2)]), "leading minor"),  # affine C2
        (_cartan(4, [(0, 2), (1, 2), (2, 3, -1, -2)]), "leading minor"),  # affine B3
        (_cartan(5, [(0, 1), (1, 2), (2, 3, -1, -2), (3, 4)]), "leading minor"),  # affine F4
        (_cartan(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), "leading minor"),  # affine E6
        ([[2, -1], [0, 2]], "not a Cartan matrix"),  # a_12 != 0 but a_21 = 0
        ([[2, 1], [1, 2]], "not a Cartan matrix"),  # positive off the diagonal
        ([[3, -1], [-1, 2]], "not a Cartan matrix"),  # 3 on the diagonal
        ([[2], [-1, 2]], "not a Cartan matrix"),  # not square
    ],
)
def test_classify_cartan_rejects_affine_diagrams(cartan, message):
    with pytest.raises(InvariantViolation, match=message):
        classify_cartan(cartan)


FINITE_TYPES = (
    [("A", k) for k in range(1, 13)]
    + [(family, k) for family in "BC" for k in range(2, 13)]
    + [("D", k) for k in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family, rank", FINITE_TYPES)
def test_classify_cartan_names_every_finite_type_in_any_node_order(family, rank):
    cartan = build_root_datum(f"{family}{rank}").linear_tables().cartan
    # B2 is C2 with its two nodes swapped
    expected = ("C", 2) if (family, rank) == ("B", 2) else (family, rank)
    rng = random.Random(f"{family}{rank}")
    for _ in range(8):
        order = rng.sample(range(rank), rank)
        permuted = [[cartan[i][j] for j in order] for i in order]
        assert classify_cartan(permuted) == expected, order


def test_classify_cartan_rejects_affine_diagrams_under_optimize_flag():
    cases = test_classify_cartan_rejects_affine_diagrams.pytestmark[0].args[1]
    code = (
        "from parahoric.rootdata import InvariantViolation, classify_cartan\n"
        f"for cartan in {[cartan for cartan, _ in cases]!r}:\n"
        "    try:\n"
        "        print('named:', classify_cartan(cartan))\n"
        "    except InvariantViolation as exc:\n"
        "        print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases) == 12
    assert all(line.startswith(f"raised: {message}") for line, (_, message) in zip(lines, cases))


@pytest.mark.parametrize("name", ["B3", "C4", "D5", "G2", "F4", "E6", "B2xG2"])
def test_quotient_coroot_coefficients_rebuild_the_coroots(name):
    # coroot_coeffs come from root lengths; summed against the simple
    # coroots of the quotient they must give back each inherited coroot
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        q = parahoric_model(rd, theta, basis).quotient_datum
        for r in q.roots:
            rebuilt = [0] * q.n
            for c, a in zip(r.coroot_coeffs, q.component_simple_roots(r.component)):
                rebuilt = [x + c * y for x, y in zip(rebuilt, a.coroot)]
            assert tuple(rebuilt) == r.coroot, (name, theta, r)
            assert (r.coroot_height > 0) == (r.height > 0)


def test_weight_key_roundtrip():
    for w in [(1, 0), (-3, 2, 0), (0,)]:
        assert parse_weight_key(weight_key(w)) == w


def test_builds_of_one_spec_share_structure_but_not_characters(tmp_path):
    first, second = build_root_datum("A2"), build_root_datum("A2")
    assert first is not second
    assert first.chi_cache == {} and second.chi_cache == {}
    assert first.chi_cache is not second.chi_cache
    assert first.roots is second.roots
    assert first.same_datum(second) and second.same_datum(first)

    # a wrong chi(1,1) poisoned into one build is served by that build only
    first.chi_cache[(1, 1)] = {(1, 1): 1}
    assert chi_char(first, (1, 1)).mult == {(1, 1): 1}
    later = build_root_datum("A2")
    assert later.chi_cache == {}
    assert chi_char(later, (1, 1)).mult == {(1, 1): 1, (0, 0): 2}
    assert dim(chi_char(later, (1, 1))) == 8

    second.chi_cache = DiskCharacters(second, str(tmp_path))
    assert type(build_root_datum("A2").chi_cache) is dict


def test_orbit_tables_are_shared_per_spec_and_hold_root_data_only():
    first, second = build_root_datum("B3"), build_root_datum("B3")
    # two builds of a spec share one table object; a quotient has its own
    assert first.tables is second.tables
    assert first.tables.orbits is second.tables.orbits
    alpha = first.simple_roots[0].coords
    sub = sub_root_datum(first, _indices(first, [alpha, wneg(alpha)]))
    assert sub.tables is not first.tables
    assert sub_root_datum(first, _indices(first, [alpha, wneg(alpha)])).tables is not sub.tables
    assert sub.tables.orbits is not first.tables.orbits

    chi_char(first, (1, 1, 1))
    chi_char(sub, (2, 0, 0))
    assert first.tables.orbits and sub.tables.orbits
    for tables in (first.tables.orbits, sub.tables.orbits):
        for zeros, table in tables.items():
            assert all(type(j) is int for j in zeros)
            for form, labels, norm, count in table:
                assert all(type(x) is int for x in form + labels)
                assert type(norm) is int and type(count) is int
    assert build_root_datum("B3").chi_cache == {}


@pytest.mark.parametrize("drop", ["orbit", "root"])
def test_corrupt_orbit_table_raises(drop):
    # one entry of the row of s_1 on an A2 of its own: alpha_1 + alpha_2
    # sent to alpha_1 joins the orbit {alpha_1, -alpha_1} to that of
    # alpha_2, which then counts half, and alpha_1 sent to -alpha_2 leaves
    # it the orbit {alpha_1, -alpha_2, -alpha_1 - alpha_2}, of odd size
    fresh = _datum_structure.__wrapped__("A2")
    s1, index = fresh.simple_indices[0][0], fresh.root_index
    row = list(fresh.reflection_row(s1))
    if drop == "orbit":
        row[index[(1, 1)]] = s1
    else:
        row[s1] = index[(1, -2)]
    fresh.tables.reflection_rows[s1] = tuple(row)
    message = "count 2 positive roots, not 3" if drop == "orbit" else "has odd size"
    with pytest.raises(InvariantViolation, match=message):
        fresh.stabilizer_orbits((0,))
    assert fresh.tables.orbits == {}


def test_illegal_specs_raise_on_every_call():
    # the memo of canonical spec strings keeps no spelling that fails
    kept = rootdata._canonical_spec.cache_info().currsize
    for bad in ["E9", "G3", "A0", "e9"]:
        for _ in range(3):
            with pytest.raises(IllegalRank):
                build_root_datum(bad)
    assert rootdata._canonical_spec.cache_info().currsize == kept


def test_spellings_of_one_spec_share_the_memo_entry():
    variants = ["A1xA1+T1", "a1xa1+t1", " a1 X A1 + t1 ", DynkinSpec([("A", 1), ("A", 1)], 1)]
    data = [build_root_datum(v) for v in variants]
    before = _datum_structure.cache_info()
    data += [build_root_datum(v) for v in variants]
    after = _datum_structure.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(variants), 0)
    assert all(rd.roots is data[0].roots for rd in data)
    # a spelling is parsed once: a second build reads its canonical string
    # from the memo
    build_root_datum("b3")
    parsed = rootdata._canonical_spec.cache_info()
    assert build_root_datum("b3").tables is build_root_datum("B3").tables
    assert rootdata._canonical_spec.cache_info().hits - parsed.hits == 2
    assert all(rd.spec_string == "A1xA1+T1" for rd in data)
    assert len({id(rd.chi_cache) for rd in data}) == len(data)


ORBIT_TABLE_TYPES = {"A1", "A2", "A3", "A4", "B3", "C3", "G2", "F4", "B2xG2"}


@pytest.mark.parametrize("name", sorted(ORBIT_TABLE_TYPES) + ["A2xA1+T2", "F4:0,1"])
def test_stabilizer_orbits_match_the_matrix_closure(name):
    """Each row covers the orbit of W_J that its position names, with its
    count of positive roots, from the orbit's highest positive root: the
    last in root order, the one of largest height and pairing nonnegatively
    with every alpha_j^vee, j in J, given by its Dynkin labels.  On the
    torus type and the facet quotient of F4 at {0, 1}, the labels are not
    the coordinates."""
    rd = _facet_quotient(*name.split(":")) if ":" in name else build_root_datum(name)
    order = {r.coords: i for i, r in enumerate(rd.roots)}
    for k in range(rd.semisimple_rank + 1):
        for zeros in itertools.combinations(range(rd.semisimple_rank), k):
            rows = rd.stabilizer_orbits(zeros)
            expected = stabilizer_orbits_by_closure(rd, zeros)
            assert len(rows) == len(expected), zeros
            for (form, labels, norm, count), (orbit, positives) in zip(rows, expected):
                coords = max(orbit, key=order.get)
                alpha = rd.root_with_coords(coords)
                assert count == positives, (zeros, coords)
                assert labels == tuple(rootdata.dot(coords, a.coroot) for a in rd.simple_roots), (zeros, coords)
                heights = [rd.root_with_coords(b).height for b in orbit]
                assert heights.count(alpha.height) == 1 and alpha.height == max(heights)
                assert all(labels[j] >= 0 for j in zeros)
                assert (form, norm) == (alpha.form, rootdata.dot(alpha.form, coords))


def test_orbit_sizes_are_one_table_per_spec_with_an_entry_per_zero_set():
    fresh = _datum_structure.__wrapped__("B3")
    assert fresh.tables.orbit_sizes == {}
    met = {}
    for lam in itertools.product(range(-1, 2), repeat=3):
        dom = dominant_conjugate_by_reflection(fresh, lam)
        zeros = tuple(j for j, a in enumerate(fresh.simple_roots) if not dot(dom, a.coroot))
        met[zeros] = len(fresh.weyl_orbit(lam))
        assert fresh.orbit_size(lam) == met[zeros], lam
        assert fresh.tables.orbit_sizes == met
    first, second = build_root_datum("B3"), build_root_datum("B3")
    assert first.tables.orbit_sizes is second.tables.orbit_sizes
    alpha = first.simple_roots[0].coords
    sub = sub_root_datum(first, _indices(first, [alpha, wneg(alpha)]))
    assert sub.tables.orbit_sizes is not first.tables.orbit_sizes and sub.tables.orbit_sizes == {}
    assert sub.orbit_size((1, 0, 0)) == 2 and sub.tables.orbit_sizes == {(): 2}
    # a dominant weight is looked up by its own labels, with no chamber walk
    # and so no linear tables; a non-dominant one is walked first
    assert sub.tables.linear is None
    assert sub.orbit_size((-1, 0, 0)) == 2 and sub.tables.linear is not None


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "G2", "F4",
     "E6", "E7", "E8", "A1xA1+T1", "B2xG2", "A2xA1+T2"],
)
def test_memoized_build_matches_fresh_construction(name):
    fresh = _datum_structure.__wrapped__(str(parse_dynkin_spec(name)))
    memoized = build_root_datum(name)
    assert memoized.roots == fresh.roots
    assert [(r.height, r.coroot_height) for r in memoized.roots] == [
        (r.height, r.coroot_height) for r in fresh.roots
    ]
    assert memoized.simple_indices == fresh.simple_indices
    assert memoized.linear_tables() == fresh.linear_tables()
    assert (memoized.spec, memoized.n, memoized.rho) == (fresh.spec, fresh.n, fresh.rho)
    if name in ORBIT_TABLE_TYPES:
        for k in range(memoized.semisimple_rank + 1):
            for zeros in itertools.combinations(range(memoized.semisimple_rank), k):
                assert memoized.stabilizer_orbits(zeros) == fresh.stabilizer_orbits(zeros)
    # each build keeps its own characters
    chi_char(memoized, (0,) * memoized.n)
    rebuilt = build_root_datum(name)
    assert rebuilt.chi_cache == {} and memoized.chi_cache != {}


def _root_fields(roots):
    return [
        (r.coords, r.simple_coeffs, r.component, r.coroot, r.coroot_coeffs, r.form, r.height,
         r.coroot_height)
        for r in roots
    ]


@pytest.mark.parametrize(
    "name, subset, differ",
    [
        # A2: +-alpha_1, +-alpha_2, not closed; the base adds +-(alpha_1 + alpha_2)
        ("A2", [(2, -1), (-2, 1), (-1, 2), (1, -2)], [(-1, -1), (1, 1)]),
        # A2 without -(alpha_1 + alpha_2), not symmetric
        ("A2", [(2, -1), (-2, 1), (-1, 2), (1, -2), (1, 1)], [(-1, -1)]),
        # C2: +-alpha_1, +-(alpha_1 + alpha_2), +-(2 alpha_1 + alpha_2), not closed
        # (alpha_1 - (alpha_1 + alpha_2) = -alpha_2); the base does not reach
        # +-(2 alpha_1 + alpha_2)
        ("C2", [(2, -1), (-2, 1), (0, 1), (0, -1), (2, 0), (-2, 0)], [(-2, 0), (2, 0)]),
    ],
)
def test_sub_root_datum_rejects_subsets_that_are_not_the_root_system_of_their_base(name, subset, differ):
    message = f"subset is not the root system of its base, which differs on {differ}"
    rd = build_root_datum(name)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        sub_root_datum(rd, _indices(rd, subset))


def test_sub_root_datum_rejects_subsets_that_are_not_closed():
    # C2: +-alpha_1, +-(alpha_1 + alpha_2), both short and orthogonal, is the
    # root system A1xA1 of its base, but alpha_1 - (alpha_1 + alpha_2) =
    # -alpha_2 is a root outside it
    c2 = build_root_datum("C2")
    with pytest.raises(InvariantViolation, match=re.escape("subset is not closed: Root(2,-1) + Root(0,-1)")):
        sub_root_datum(c2, _indices(c2, [(2, -1), (-2, 1), (0, 1), (0, -1)]))


CLOSURE_SWEEP_TYPES = [
    "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2", "A1xA1", "B2xA1", "B2xB2", "G2xA1",
]


def test_closure_check_matches_the_all_pairs_check():
    """Every symmetric subset that is the root system of its base (every
    nonempty set of positive roots with their negatives, kept unless
    ``sub_root_datum`` rejects it on another ground) is accepted exactly when
    no sum of two of its roots is a root outside it."""
    subsystems = not_closed = 0
    for name in CLOSURE_SWEEP_TYPES:
        rd = build_root_datum(name)
        roots = {r.coords for r in rd.roots}
        positives = [r.coords for r in rd.positive_roots]
        for k in range(1, len(positives) + 1):
            for chosen in itertools.combinations(positives, k):
                subset = set(chosen) | {wneg(c) for c in chosen}
                sums = {tuple(x + y for x, y in zip(a, b)) for a in subset for b in subset}
                closed = not (sums & roots) - subset
                try:
                    sub_root_datum(rd, _indices(rd, subset))
                except InvariantViolation as exc:
                    if not str(exc).startswith("subset is not closed"):
                        continue
                    assert not closed, (name, sorted(subset))
                else:
                    assert closed, (name, sorted(subset))
                subsystems += 1
                not_closed += not closed
    assert (subsystems, not_closed) == (349, 36)


SWEEP_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5", "D4", "D5",
    "D6", "G2", "F4", "E6", "E7", "E8", "A1xA1+T1", "B2xG2", "A2xA1+T2",
]


@pytest.mark.parametrize("name", SWEEP_TYPES)
def test_highest_coroots_pair_most_with_every_fundamental_weight(name):
    # a dominant weight is a nonnegative sum of fundamental weights, so the
    # coroot that pairs most with each of them pairs most with all
    rd = build_root_datum(name)
    highest = rd.highest_coroots()
    assert [theta.component for theta in highest] == list(range(rd.num_components))
    for theta in highest:
        roots = [b for b in rd.positive_roots if b.component == theta.component]
        for i in range(rd.semisimple_rank):
            assert theta.coroot[i] == max(b.coroot[i] for b in roots), (name, theta, i)
        # with two root lengths it is the highest short root, not the highest root
        one_length = len({rootdata.dot(b.form, b.coords) for b in roots}) == 1
        assert (theta is rd.highest_root(theta.component)) == one_length, (name, theta)
    assert build_root_datum(name).highest_coroots() is highest is rd.tables.highest_coroots


def test_first_fundamental_weight_of_b3_is_not_minuscule():
    # it pairs 2 with the highest coroot and 1 with the highest root's coroot
    rd = build_root_datum("B3")
    (theta,) = rd.highest_coroots()
    assert (rootdata.dot((1, 0, 0), theta.coroot), rootdata.dot((1, 0, 0), rd.highest_root(0).coroot)) == (2, 1)
    assert chi_char(rd, (1, 0, 0)).mult == {(1, 0, 0): 1, (0, 0, 0): 1}


@pytest.mark.parametrize("name", SWEEP_TYPES)
def test_quotient_data_match_the_root_by_root_solve(name):
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        model = parahoric_model(rd, theta, basis)
        q = model.quotient_datum
        expected = sub_root_datum_by_solves(rd, [rd.roots[k].coords for k in model.quotient_roots])
        assert _root_fields(q.roots) == _root_fields(expected["roots"]), theta
        assert q.simple_indices == expected["simple_indices"], theta
        linear = q.linear_tables()
        assert linear.cartan == expected["cartan"], theta
        assert (linear.det, linear.adj) == expected["inverse"], theta
        assert linear.two_rho_form == expected["two_rho_form"], theta
        assert linear.two_rho_coroot == expected["two_rho_coroot"], theta
        assert classify_root_datum(q) == expected["type"], theta
        for r in q.roots:
            b = rd.root_with_coords(r.coords)
            assert r.coords is b.coords and r.coroot is b.coroot and r.form is b.form, theta


def test_reflection_recipes_rebuild_every_root_of_their_matrix():
    # every Cartan matrix that a spec or a facet quotient is built from
    matrices = set()
    for name in SWEEP_TYPES:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        data = [rd] + [parahoric_model(rd, theta, basis).quotient_datum for theta in enumerate_facets(rd, basis)]
        matrices.update(cartan for datum in data for cartan, _, _ in datum._blocks)
    for cartan in matrices:
        _, _, table, simples, recipe = rootdata._cartan_table(cartan)
        children = [child for child, _, _, _ in recipe]
        assert sorted(children) == sorted(set(range(len(table))) - set(simples)), cartan
        units = [tuple(int(i == t) for i in range(len(cartan))) for t in range(len(cartan))]
        replayed = dict(zip(simples, units))
        for child, parent, t, q in recipe:
            assert parent in replayed, cartan  # listed before its child
            coeffs = replayed[parent]
            assert q == sum(c * x for c, x in zip(cartan[t], coeffs)), cartan  # q = <parent, alpha_t^vee>
            replayed[child] = coeffs[:t] + (coeffs[t] - q,) + coeffs[t + 1 :]
        assert [replayed[position] for position in range(len(table))] == [coeffs for coeffs, _ in table], cartan
    assert len(matrices) == 57


def test_deletion_types_match_the_per_call_inverse_and_the_quotient():
    # quotient_by_deletion reads each determinant from the bounded
    # _cartan_table; emptied first, it must hold every matrix of the sweep
    # with room to spare
    rootdata._cartan_table.cache_clear()
    for name in SWEEP_TYPES:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            survivors = [
                el.gradient
                for cb, part in zip(basis.components, theta.theta)
                for i, el in enumerate(cb.elements)
                if i not in part
            ]
            deleted = quotient_by_deletion(rd, theta, basis)
            assert deleted == classify_nodes_by_inverse(survivors, rd.n), (name, str(theta))
            assert deleted == classify_root_datum(parahoric_model(rd, theta, basis).quotient_datum), (name, str(theta))
    info = rootdata._cartan_table.cache_info()
    assert info.currsize < info.maxsize


@pytest.mark.parametrize("name", [name for name in SWEEP_TYPES if name != "E8"])
def test_facet_barycenters_match_the_fraction_sum(name):
    # the bench digests hash the barycenter strings, so compare those
    rd = build_root_datum(name)
    basis = extended_basis(rd)
    for theta in enumerate_facets(rd, basis):
        expected = facet_barycenter_by_fractions(rd, basis, theta)
        assert [str(x) for x in facet_barycenter(rd, basis, theta)] == [str(x) for x in expected], theta


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_reflection_rows_match_reflect(name):
    rd = build_root_datum(name)
    for i, alpha in enumerate(rd.roots):
        row = rd.reflection_row(i)
        assert [rd.roots[k].coords for k in row] == [rd.reflect(alpha, b.coords) for b in rd.roots]
    assert build_root_datum(name).reflection_row(0) is rd.reflection_row(0)


@pytest.mark.parametrize("name", ["G2", "F4", "B2xG2", "A2xA1+T2", "E6"])
def test_label_tables_match_the_roots(name):
    # closure_rows(()) is the one label table: every positive root's labels
    # and its simple coefficients
    rd = build_root_datum(name)
    quotient = sub_root_datum(rd, [k for k, b in enumerate(rd.roots) if b.component == rd.num_components - 1])
    assert quotient.tables.closure_rows == {}
    for datum in (rd, quotient):
        rows = datum.closure_rows(())
        assert datum.tables.closure_rows[()] is rows
        zero = (0,) * datum.n
        assert len(rows) == len(datum.positive_roots)
        for (labels, coeffs), b in zip(rows, datum.positive_roots):
            assert labels == tuple(dot(b.coords, a.coroot) for a in datum.simple_roots)
            assert rootdata.combine(coeffs, datum.simple_coords, zero) == b.coords
    assert build_root_datum(name).closure_rows(()) is rd.closure_rows(())


@pytest.mark.parametrize("name", ["G2", "F4", "B2xG2", "A2xA1+T2", "E6"])
def test_closure_rows_are_the_roots_a_weight_with_that_zero_set_can_lose(name):
    # mu has the labels 0 on J and 3 elsewhere, at least the label of any
    # positive root there, so mu - beta is dominant exactly when the labels
    # of beta are at most 0 on J
    rd = build_root_datum(name)
    quotient = sub_root_datum(rd, [k for k, b in enumerate(rd.roots) if b.component == rd.num_components - 1])
    for datum in (rd, quotient):
        rows = datum.closure_rows(())
        rank = datum.semisimple_rank
        for zeros in itertools.chain.from_iterable(itertools.combinations(range(rank), k) for k in range(rank + 1)):
            mu = tuple(0 if j in zeros else 3 for j in range(rank))
            expected = tuple(row for row in rows if min(x - y for x, y in zip(mu, row[0])) >= 0)
            assert datum.closure_rows(zeros) == expected, (name, zeros)
            assert datum.tables.closure_rows[zeros] is datum.closure_rows(zeros)
    assert build_root_datum(name).closure_rows(()) is rd.closure_rows(())


def test_chamber_walk_is_bounded_by_the_number_of_positive_roots():
    # a pairing that no step changes never reaches the chamber
    with pytest.raises(InvariantViolation, match="chamber walk takes more than 3 steps"):
        rootdata.chamber_walk([-1], [()], 3)
    # -rho needs the longest element, which takes exactly that many steps
    for name in ["A2", "B3", "G2", "E6"]:
        rd = build_root_datum(name)
        pairs = [-1] * rd.semisimple_rank
        _, steps = rootdata.chamber_walk(pairs, rd.linear_tables().cartan_columns, len(rd.positive_roots))
        assert steps == len(rd.positive_roots) and pairs == [1] * rd.semisimple_rank


@pytest.mark.parametrize("name, theta", [("B3", None), ("C3", None), ("G2", None), ("F4", None), ("F4", "0")])
def test_carried_walk_ends_on_the_image_of_the_root(name, theta):
    # the walk w of nu carries the labels of alpha to those of w(alpha), a
    # root, and d + w(alpha) = w(nu + alpha) has the dominant conjugate of
    # nu + alpha
    rd = build_root_datum(name)
    if theta is not None:  # F4 at 0: the quotient A1xC3
        basis = extended_basis(rd)
        rd = parahoric_model(rd, parse_facet_spec(theta, basis), basis).quotient_datum
    columns, bound = rd.linear_tables().cartan_columns, len(rd.positive_roots)

    def labels(w):
        return [dot(w, f) for f in rd.simple_coroots]

    def dominant(pairs):
        rootdata.chamber_walk(pairs, columns, bound)
        return pairs

    root_labels = {tuple(labels(b.coords)) for b in rd.roots}
    for nu in itertools.product(range(-2, 3), repeat=rd.n):
        alone = labels(nu)
        walked = rootdata.chamber_walk(alone, columns, bound)
        for b in rd.roots:
            d, c = labels(nu), labels(b.coords)
            assert rootdata.chamber_walk(d, columns, bound, c) == walked and d == alone, (name, nu)
            assert tuple(c) in root_labels, (name, nu, b)
            assert dominant([x + y for x, y in zip(d, c)]) == dominant(labels(wadd(nu, b.coords))), (name, nu, b)


def test_a_wrong_carried_reflection_is_caught_by_the_root_check_under_optimize_flag():
    # chamber_walk with the carried update's sign flipped, x + x_i column i
    # for s_i(x) = x - x_i column i: a string ends on labels of no root
    code = (
        "import inspect\n"
        "from parahoric import charring, rootdata\n"
        "from parahoric.rootdata import InvariantViolation\n"
        "source = inspect.getsource(rootdata.chamber_walk)\n"
        "right, wrong = 'x[j] -= x_i * c', 'x[j] += x_i * c'\n"
        "print(source.count(right))\n"
        "namespace = dict(vars(rootdata))\n"
        "exec(source.replace(right, wrong), namespace)\n"
        "charring.chamber_walk = namespace['chamber_walk']\n"
        "b3 = rootdata._datum_structure.__wrapped__('B3')\n"
        "try:\n"
        "    charring.chi_char(b3, b3.rho)\n"
        "except InvariantViolation as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "raised: the alpha-string at (2, 0, 1) from (-1, 2, -2) carries (-1, 4, -6), not a root's labels",
    ]


# SHA-256 of each spec's structure (the fields of _structure_digest),
# recorded before Dynkin specs and quotients were built by one constructor;
# unlike the comparison with _datum_structure.__wrapped__, it does not run
# the code under test on both sides.  The eight types with orbit tables that
# have a row of more than one root (all of ORBIT_TABLE_TYPES but A1) were
# recorded again when each row came to be listed from its orbit's highest
# positive root (test_stabilizer_orbits_match_the_matrix_closure), with
# their other fields unchanged
SPEC_DIGESTS = {
    "A1": "ce48a5c56a25a3fd297368fa90e4abdde58e8fe3038a43d9681955fc6dcb0f68",
    "A2": "a3badad188e8a01d329144d54a3c4099f65a50f7bdf532688f88004ef7844849",
    "A3": "8df184c3ce9b3f9fd792fe4657a95487b3597c78b3e8d4b30c800bbbb2e0edb0",
    "A4": "d53143a6f33c6d7193b60ebdf55bea905b7b766b69c247ee0bec671e69860d38",
    "A5": "a6f048b1e6d85a81df62399c901e2f000092faca9e23c23bd1a95a1f2ec31594",
    "B2": "3cb4fd8493828316c486bc4c11fdd70bae70b41b9505fbd8f5bb1fe693216b37",
    "B3": "eb990b34289e1d29791d34484a7fbd0f78a488e317a3c481b32f70fc367d6070",
    "B4": "13b8a35b90b900482012ad3dcf91c886c87d7910d0a2f1572f44875e1caa2a8a",
    "B5": "c38e0b95a5f77ae3c7a83c024aeeba075f7581ae41647fc262a14ae10d1724de",
    "C2": "cecca63893d93d23c8f3b0e0a494c7b2c2da7d162b853006dfd556bfb8fbda23",
    "C3": "b3ca1b4b226d3a22f2f76f6a42e7b918ef5c7dc07a71be8c2798aa6e9b14a925",
    "C4": "8448b5235500e762b070224ceec6663a1f786ae99254c4cd5f08b3462c980541",
    "C5": "993151ccdb5565f4e36bd0ac073b722116172412f450139d4de5d3c785d7f559",
    "D4": "d9f206157ec0acc205946d2c59d53a60bdbd0fb46f724b68fd6dcfb3b49a596e",
    "D5": "b239aeb54901b7a1a52813309ece3a39abeb49ae623dd27e92f97e52252c8fbe",
    "D6": "b8efe403f127824dff4835e8284225d93cbca0242147e7d7abffd3dd985a4730",
    "G2": "291118d5761e75c70277878f518f79febf37c9815f83784405e0d71e71ab2494",
    "F4": "507c571957c220a3ed03718fee9bdc06957633890505c417c2765957107d1dcd",
    "E6": "87a917c0bb4dcae0db5c800e2ee2a7942bb5593b972e561c33e0b70d15102800",
    "E7": "c3d543ef1a300802b8a74dbfed531ae1449cd738ae72309b86751ed5afd65bea",
    "E8": "04adcbfca84e5e607a58d2a99aff182891f0de7ddb3f9b8a6fdcc4c0466c94dc",
    "A1xA1+T1": "1299fa8c8137f931eba0a12dcc0cdad47c04bf928da179fe6452e346cf31845b",
    "B2xG2": "8f1a4082f7f46e3be5d217d79965628d4d14ee4ab18c924004b80596230bd0c5",
    "A2xA1+T2": "fd7162af4bf4e8eec51689861c27b52d336f28e73339e471371c04655cfe5fb9",
    "D3": "8d2d85e6fcd99616b59c3bceafac370f900b6cfe2531fa7a7cee1ac106928e9e",
    "A1+T1": "bc64565cd4d6754400432a91a6f76aa8c98b4459c5196908ddd6e2a1a4d42d67",
}


def _structure_digest(rd):
    linear = rd.linear_tables()
    fields = [
        str(rd.spec), rd.n, rd.rho, _root_fields(rd.roots), rd.simple_indices, linear.cartan,
        linear.det, linear.adj, linear.two_rho_form, linear.two_rho_coroot,
    ]
    if rd.spec_string in ORBIT_TABLE_TYPES:
        rank = rd.semisimple_rank
        fields.append([rd.stabilizer_orbits(zeros) for k in range(rank + 1)
                       for zeros in itertools.combinations(range(rank), k)])
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
def test_spec_structure_matches_its_recorded_digest(name):
    assert _structure_digest(build_root_datum(name)) == SPEC_DIGESTS[name]


def test_is_prime_agrees_with_trial_division_below_ten_to_the_five():
    assert [p for p in range(-5, 10**5) if is_prime(p) != is_prime_by_trial_division(p)] == []


def test_is_prime_rejects_pseudoprimes_and_decides_large_primes():
    # 561 is a Carmichael number; 3 825 123 056 546 413 051 is a strong
    # pseudoprime to each of the bases 2 ... 23, so bases up to 41 are needed
    assert not is_prime(561)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert is_prime(2**31 - 1) and is_prime_by_trial_division(2**31 - 1)
    with pytest.raises(ValueError, match="decided only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_highest_root_names_a_missing_component():
    a1xa1 = build_root_datum("A1xA1")
    assert a1xa1.highest_root(1).coords != a1xa1.highest_root(0).coords
    for component in (2, -1):
        with pytest.raises(ValueError, match=f"no component {component}"):
            a1xa1.highest_root(component)


def test_weights_take_only_int_coordinates(a2):
    # orbit_size((0.5, 0)) returned 3
    with pytest.raises(ValueError, match="not an int"):
        a2.orbit_size((0.5, 0))
    for lam in ((1.0, 0), (True, 0), (1, None)):
        with pytest.raises(ValueError, match="not an int"):
            a2.check_weights((0, 0), lam)
    a2.check_weights((0, 0), (-1, 2))
    assert a2.orbit_size((1, 0)) == 3


def test_is_prime_is_false_for_anything_but_an_int():
    assert is_prime(5) and not is_prime(5.0) and not is_prime(True) and not is_prime("5")


def test_check_dominant(a2):
    assert a2.check_dominant((0, 3)) is None
    with pytest.raises(NotDominant, match=r"^\(1, -1\) is not dominant$"):
        a2.check_dominant((1, -1))
    with pytest.raises(ValueError, match="has length 1"):
        a2.check_dominant((1,))


@pytest.mark.parametrize("spec", ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "A1xA1+T1", "B2xG2", "A2+T2"])
def test_fundamental_coweights_are_dual_to_the_simple_roots(spec):
    rd = build_root_datum(spec)
    for i in range(rd.semisimple_rank):
        x, d = rd.fundamental_coweight(i)
        assert d > 0 and len(x) == rd.n and not any(x[rd.semisimple_rank:]), (spec, i)
        assert [dot(a, x) for a in rd.simple_coords] == [d * (i == j) for j in range(rd.semisimple_rank)], (spec, i)


def test_classify_diagram_names_a_product_and_its_torus():
    a2, g2 = [[2, -1], [-1, 2]], [[2, -1], [-3, 2]]
    blocks = [row + [0, 0] for row in a2] + [[0, 0] + row for row in g2]
    assert str(rootdata.classify_diagram(blocks, 5)) == "A2xG2+T1"
    order = (2, 0, 3, 1)  # the same diagram with its nodes interleaved
    assert str(rootdata.classify_diagram([[blocks[i][j] for j in order] for i in order], 4)) == "A2xG2"


def test_classify_diagram_rejects_an_asymmetric_zero_pattern():
    # [[2, 0], [-1, 2]] read as A1xA1, while classify_cartan raised on it
    for cartan in ([[2, 0], [-1, 2]], [[2, -1], [0, 2]]):
        with pytest.raises(InvariantViolation, match="not a Cartan matrix"):
            rootdata.classify_diagram(cartan, 2)
        with pytest.raises(InvariantViolation, match="not a Cartan matrix"):
            classify_cartan(cartan)
