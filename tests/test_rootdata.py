import itertools
import os
import random
import subprocess
import sys

import pytest

from parahoric import (
    DynkinSpec,
    IllegalRank,
    NotDominant,
    RootDatum,
    build_root_datum,
    chi_char,
    classify_root_datum,
    dim,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    parse_dynkin_spec,
    parse_facet_spec,
)
from parahoric import rootdata
from parahoric.charring import DiskCharacters
from parahoric.rootdata import (
    InvariantViolation,
    _datum_structure,
    classify_cartan,
    parse_weight_key,
    sub_root_datum,
    weight_key,
    wneg,
)

from _oracles import integer_coords, roots_by_closure, roots_by_weyl_images, weyl_group_matrices

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    for bad in ["", "H3", "A0", "D1", "E5", "F3", "G4", "A1+X2", "A", "A1x"]:
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
            assert RootDatum.pair(r.coords, r.coroot) == 2


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
    assert RootDatum.pair((1, 0), a1v) == 1
    assert RootDatum.pair((3, 1), theta_v) == 4
    assert RootDatum.pair(a2.rho, theta_v) == 2


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
        dom = rd.dominant_conjugate(lam)
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
    assert a2.dominant_conjugate((2, 1)) == (2, 1)
    assert a2.dominant_conjugate((-1, 1)) == (1, 0)
    assert a2.dominant_conjugate((-1, -1)) == (1, 1)


def test_dominant_conjugate_is_orbit_invariant(g2):
    lam = (1, 2)
    rep = g2.dominant_conjugate(lam)
    for w in g2.weyl_orbit(lam):
        assert g2.dominant_conjugate(w) == rep
    assert g2.dominant_conjugate(rep) == rep


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
        "                       chi_char, resolve_simple, sub_root_datum)\n"
        "from parahoric.jantzen import LOWEST_ALCOVE, LedgerEntry\n"
        "from parahoric.rootdata import classify_cartan\n"
        "a2 = build_root_datum('A2')\n"
        "conflicting = SimpleLedger(a2, 3)\n"
        "conflicting.entries[(0, 0)] = LedgerEntry(chi_char(a2, (1, 1)), LOWEST_ALCOVE, {})\n"
        "def wrong_chi():  # a plausible but wrong chi(3,0): dim 10, keys below (3,0)\n"
        "    a2.chi_cache[(3, 0)] = {(3, 0): 1, (0, 0): 7}\n"
        "    resolve_simple(a2, 3, (3, 0), SimpleLedger(a2, 3))\n"
        "affine_d4 = [[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1], [0, 0, 0, 2, -1],\n"
        "             [-1, -1, -1, -1, 2]]\n"
        "import parahoric.rootdata as rootdata\n"
        "def dropped_orbit():  # the W_J-orbit tables of C3 without their last orbit\n"
        "    orbits = rootdata._parabolic_orbits\n"
        "    rootdata._parabolic_orbits = lambda rd, zeros: orbits(rd, zeros)[:-1]\n"
        "    try:\n"
        "        chi_char(build_root_datum('C3'), (0, 1, 0))\n"
        "    finally:\n"
        "        rootdata._parabolic_orbits = orbits\n"
        "for make in (lambda: sub_root_datum(a2, [(1, 0), (-1, 0)]),\n"
        "             lambda: Character(a2, {(-1, 0): 1}),\n"
        "             lambda: SimpleLedger(a2, 3, {(0, 0): LedgerEntry(chi_char(a2, (0, 0)), LOWEST_ALCOVE, {})}).merge(conflicting),\n"
        "             wrong_chi,\n"
        "             lambda: classify_cartan(affine_d4),\n"
        "             dropped_orbit):\n"
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
    assert len(lines) == 6
    assert lines[0].startswith("raised: subset contains non-roots")
    assert lines[1].startswith("raised: character keys must be dominant")
    assert lines[2].startswith("raised: merged ledgers disagree on ch L((0, 0))")
    assert lines[3].startswith("raised: chi((3, 0)) - ch L((1, 1)) is not a character")
    assert lines[4].startswith("raised: leading minor 5 of [[2, 0, 0, 0, -1]")
    assert lines[5].startswith("raised: W_J-orbits (J = (0, 1, 2)) count 3 positive roots, not 9")


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
    cartan = build_root_datum(f"{family}{rank}").cartan
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
    assert len(lines) == len(cases) == 8
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
    assert first._orbit_tables is second._orbit_tables
    alpha = first.simple_roots[0].coords
    sub = sub_root_datum(first, [alpha, wneg(alpha)])
    assert sub._orbit_tables is not first._orbit_tables

    chi_char(first, (1, 1, 1))
    chi_char(sub, (2, 0, 0))
    assert first._orbit_tables and sub._orbit_tables
    for tables in (first._orbit_tables, sub._orbit_tables):
        for zeros, table in tables.items():
            assert all(type(j) is int for j in zeros)
            for form, coords, norm, count in table:
                assert all(type(x) is int for x in form + coords)
                assert type(norm) is int and type(count) is int
    assert build_root_datum("B3").chi_cache == {}


@pytest.mark.parametrize("drop", ["orbit", "root"])
def test_corrupt_orbit_table_raises(monkeypatch, drop):
    orbits = rootdata._parabolic_orbits

    def corrupt(datum, zeros):
        found = orbits(datum, zeros)
        if drop == "orbit":
            return found[1:]
        # leave alpha_1 out of its orbit {alpha_1, -alpha_1}
        return [orbit[1:] if any(b.height < 0 for b in orbit) else orbit for orbit in found]

    monkeypatch.setattr(rootdata, "_parabolic_orbits", corrupt)
    fresh = _datum_structure.__wrapped__("A2")
    message = "count 1 positive roots, not 3" if drop == "orbit" else "has odd size"
    with pytest.raises(InvariantViolation, match=message):
        fresh.stabilizer_orbits((0,))
    assert fresh._orbit_tables == {}


def test_illegal_specs_raise_on_every_call():
    for bad in ["E9", "G3", "A0"]:
        for _ in range(3):
            with pytest.raises(IllegalRank):
                build_root_datum(bad)


def test_spellings_of_one_spec_share_the_memo_entry():
    variants = ["A1xA1+T1", "a1xa1+t1", " a1 X A1 + t1 ", DynkinSpec([("A", 1), ("A", 1)], 1)]
    data = [build_root_datum(v) for v in variants]
    before = _datum_structure.cache_info()
    data += [build_root_datum(v) for v in variants]
    after = _datum_structure.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(variants), 0)
    assert all(rd.roots is data[0].roots for rd in data)
    assert all(rd.spec_string == "A1xA1+T1" for rd in data)
    assert len({id(rd.chi_cache) for rd in data}) == len(data)


ORBIT_TABLE_TYPES = {"A1", "A2", "A3", "A4", "B3", "C3", "G2", "F4", "B2xG2"}


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
    assert memoized.cartan == fresh.cartan
    assert (memoized._det, memoized._adj) == (fresh._det, fresh._adj)
    assert memoized._two_rho_form == fresh._two_rho_form
    assert memoized._two_rho_coroot == fresh._two_rho_coroot
    assert (memoized.spec, memoized.n, memoized.rho) == (fresh.spec, fresh.n, fresh.rho)
    if name in ORBIT_TABLE_TYPES:
        for k in range(memoized.semisimple_rank + 1):
            for zeros in itertools.combinations(range(memoized.semisimple_rank), k):
                assert memoized.stabilizer_orbits(zeros) == fresh.stabilizer_orbits(zeros)
    # each build keeps its own characters
    chi_char(memoized, (0,) * memoized.n)
    rebuilt = build_root_datum(name)
    assert rebuilt.chi_cache == {} and memoized.chi_cache != {}
