import collections
import itertools
import random
import sys
from fractions import Fraction

import pytest

from parahoric import (
    Character,
    DatumMismatch,
    InvariantViolation,
    NotDominant,
    RootDatum,
    SimpleLedger,
    SplittingSequence,
    VirtualChiSum,
    add,
    build_root_datum,
    certify,
    chi_char,
    chi_expand,
    chi_normalize,
    dim,
    dual,
    enumerate_facets,
    exterior_square,
    extended_basis,
    from_parahoric,
    jantzen_report,
    jantzen_sum,
    lowest_alcove_test,
    parahoric_model,
    resolve_simple,
    tensor,
)
from parahoric import charring, obs
from parahoric.charring import _dominant_below, expand_full
from parahoric.rootdata import ReadOnly, combine, dot, wsub

from _oracles import (
    c2_w2_weights,
    chi_char_reference,
    chi_expand_map,
    chi_expand_pairwise,
    dominant_below_box_scan,
    dominant_below_by_weights,
    dominant_conjugate,
    evaluate_chi_sum,
    exterior_square_by_pairs,
    sl3_adjoint_weights,
)


def _full_multiset(ch):
    out = []
    for w, m in expand_full(ch).items():
        out.extend([w] * m)
    return sorted(out)


def test_chi_char_trivial(a2):
    ch = chi_char(a2, (0, 0))
    assert ch.mult == {(0, 0): 1}
    assert dim(ch) == 1


def test_chi_char_rejects_non_dominant(a2):
    with pytest.raises(NotDominant):
        chi_char(a2, (-1, 0))


def test_sl3_adjoint_against_weight_oracle(a2):
    ch = chi_char(a2, (1, 1))
    assert ch.mult[(0, 0)] == 2
    assert dim(ch) == 8
    assert _full_multiset(ch) == sl3_adjoint_weights()


def test_c2_five_dim_against_exterior_square_oracle(c2):
    ch = chi_char(c2, (0, 1))
    assert dim(ch) == 5
    assert ch.mult[(0, 0)] == 1
    assert _full_multiset(ch) == c2_w2_weights()


def test_dim_matches_weyl_dim_small_grid():
    for name in ["A1", "A2", "B2", "C2", "G2", "A1xA1"]:
        rd = build_root_datum(name)
        for lam in itertools.product(range(3), repeat=rd.n):
            assert dim(chi_char(rd, lam)) == rd.weyl_dim(lam), (name, lam)


def _weight_box(rd, side, torus=((),)):
    return [
        lam + t
        for lam in itertools.product(range(side + 1), repeat=rd.semisimple_rank)
        for t in torus
    ]


def _rank4_boxes():
    """Weight boxes over every type of rank <= 4 plus D3, B2xG2, tori and four
    E6 weights, as (type, weights) pairs."""
    sides = {"A1": 4, "A2": 3, "B2": 3, "C2": 3, "G2": 3, "A3": 2, "B3": 2, "C3": 2,
             "D3": 2, "A4": 1, "B4": 1, "C4": 1, "D4": 1, "B2xG2": 1}
    cases = [(name, _weight_box(build_root_datum(name), side)) for name, side in sides.items()]
    # F4 weights whose box scan stays under a fifth of a second
    f4 = [lam for lam in _weight_box(build_root_datum("F4"), 1) if sum(lam) <= 1]
    cases.append(("F4", f4 + [(0, 0, 1, 1), (1, 0, 0, 1)]))
    cases.append(("A1xA1+T1", _weight_box(build_root_datum("A1xA1+T1"), 2, [(0,), (-3,)])))
    cases.append(("A2xA1+T2", _weight_box(build_root_datum("A2xA1+T2"), 1, [(0, 0), (2, -1)])))
    cases.append(("E6", [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)]))
    return cases


def _labels(rd, lam):
    """The Dynkin labels of lam, its pairings with the simple coroots."""
    return tuple(dot(lam, a.coroot) for a in rd.simple_roots)


def test_dominance_closure_matches_box_scan():
    cases = _rank4_boxes()
    checked = 0
    for name, weights in cases:
        rd = build_root_datum(name)
        for lam in weights:
            expected = dominant_below_box_scan(rd, lam)
            heights = {}
            for labels, coeffs in _dominant_below(rd, _labels(rd, lam)).items():
                mu = wsub(lam, combine(coeffs, rd.simple_coords, (0,) * rd.n))
                assert labels == tuple(dot(mu, a.coroot) for a in rd.simple_roots), (name, lam, mu)
                heights[mu] = sum(coeffs)
            assert heights == expected, (name, lam)
            assert dominant_below_by_weights(rd, lam) == expected, (name, lam)
            checked += 1
    assert checked == 302


def test_chi_char_matches_reference_freudenthal():
    f4 = build_root_datum("F4")
    cases = [(build_root_datum(name), weights) for name, weights in _rank4_boxes()]
    cases.append((f4, [(1, 1, 1, 1)]))
    basis = extended_basis(f4)
    for theta in enumerate_facets(f4, basis):
        model = parahoric_model(f4, theta, basis)
        sub = model.quotient_datum
        layer_weights = {f4.roots[k].coords for layer in model.layers for k in layer}
        cases.append((sub, [(0,) * sub.n] + sorted(w for w in layer_weights if sub.is_dominant(w))))
    checked = 0
    for rd, weights in cases:
        for lam in weights:
            expected = chi_char_reference(rd, lam)
            assert list(chi_char(rd, lam).mult.items()) == list(expected.items()), (rd.spec, lam)
            checked += 1
    assert checked == 836


def test_label_path_matches_reference_across_components_and_quotients():
    # the labels run over the whole simple list: components of different
    # families side by side, and E6 quotients with several components.  Each
    # layer character of an E6 quotient has a single dominant weight, so no
    # alpha-string runs on it; twice a layer weight has several
    b2g2 = build_root_datum("B2xG2")
    cases = [(b2g2, _weight_box(b2g2, 2))]
    e6 = build_root_datum("E6")
    basis = extended_basis(e6)
    for theta in enumerate_facets(e6, basis):
        model = parahoric_model(e6, theta, basis)
        sub = model.quotient_datum
        weights = {e6.roots[k].coords for layer in model.layers for k in layer}
        layer_weights = sorted(w for w in weights if sub.is_dominant(w))
        cases.append((sub, [(0,) * sub.n] + layer_weights))
        if sub.num_components > 1:
            cases.append((sub, [tuple(2 * x for x in w) for w in layer_weights]))
    assert max(sub.num_components for sub, _ in cases) == 4
    checked = strings = 0
    for rd, weights in cases:
        for lam in weights:
            expected = chi_char_reference(rd, lam)
            assert list(chi_char(rd, lam).mult.items()) == list(expected.items()), (rd.spec, lam)
            checked += 1
            strings += len(expected) > 1
    assert (checked, strings) == (81 + 2408 + 1511, 79 + 1165)


MINUSCULE = [("A4", (1, 2, 3, 4)), ("B4", (4,)), ("C4", (1,)), ("D5", (1, 4, 5)), ("E6", (1, 6)), ("E7", (7,))]


@pytest.mark.parametrize("name, nodes", MINUSCULE)
def test_minuscule_and_zero_weights_take_the_one_freudenthal_path(name, nodes):
    """A minuscule or zero lam is the only dominant weight below itself: the
    recursion stores {lam: 1} as an ordinary run that walks no string."""
    rd = build_root_datum(name)
    weights = [tuple(int(j + 1 == i) for j in range(rd.n)) for i in nodes] + [(0,) * rd.n]
    for lam in weights:
        rd.chi_cache = {}
        with obs.recording() as counts:
            ch = chi_char(rd, lam)
        assert ch.mult == {lam: 1} and rd.chi_cache[lam] == {lam: 1}, lam
        assert counts["charring.freudenthal.runs"] == counts["charring.freudenthal.dominant_weights"] == 1, lam
        others = ("string_steps", "chamber_walks", "walk_steps", "norm_cuts")
        assert [counts.get(f"charring.freudenthal.{k}", 0) for k in others] == [0, 0, 0, 0], lam


@pytest.mark.parametrize(
    "name, lam",
    [
        ("F4", (1, 1, 1, 1)),
        ("E6", (1, 0, 0, 0, 0, 1)),
        ("E6", (0, 1, 0, 0, 0, 0)),
        ("E7", (1, 0, 0, 0, 0, 0, 0)),
        ("E7", (0, 0, 0, 0, 0, 0, 1)),
        ("E8", (1, 0, 0, 0, 0, 0, 0, 0)),
        ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),
    ],
)
def test_chi_char_matches_reference_on_exceptional_types(name, lam):
    rd = build_root_datum(name)
    ch = chi_char(rd, lam)
    assert list(ch.mult.items()) == list(chi_char_reference(rd, lam).items())
    assert dim(ch) == rd.weyl_dim(lam)
    lhs, rhs = _second_moment_sides(rd, ch, lam)
    assert lhs == rhs > 0


def _second_moment_sides(rd, ch, lam):
    """Both sides of Dynkin's second-moment identity for V(lam) over a simple
    datum: dim g * sum_mu m_mu (mu, mu) = rank * dim V * (lam, lam + 2 rho),
    the trace of the Casimir on the Cartan subalgebra.  The left sum runs
    over dominant keys, each counted |W mu| times; the form on weights is
    (w_i, w_l) = adj[l][i] d_l / det, with d_l = (alpha_l, alpha_l) / 2."""
    d = [Fraction(dot(a.form, a.coords), 2) for a in rd.simple_roots]
    linear = rd.linear_tables()

    def form(mu, nu):
        return sum(mu[i] * nu[l] * linear.adj[l][i] * d[l] for i in range(rd.n) for l in range(rd.n)) / linear.det

    dim_g = len(rd.roots) + rd.semisimple_rank
    lhs = dim_g * sum(m * rd.orbit_size(mu) * form(mu, mu) for mu, m in ch.mult.items())
    rhs = rd.semisimple_rank * rd.weyl_dim(lam) * form(lam, tuple(x + 2 * r for x, r in zip(lam, rd.rho)))
    return lhs, rhs


@pytest.mark.parametrize("name, lam", [("B3", (1, 0, 1)), ("G2", (1, 1)), ("C3", (0, 1, 1))])
def test_second_moment_identity_on_classical_and_g2_characters(name, lam):
    rd = build_root_datum(name)
    ch = chi_char(rd, lam)
    lhs, rhs = _second_moment_sides(rd, ch, lam)
    assert lhs == rhs > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda a2: chi_char(a2, (1,)),
        lambda a2: chi_char(a2, (2,)),
        lambda a2: a2.weyl_dim((2,)),
        lambda a2: a2.orbit_size((1,)),
        lambda a2: jantzen_sum(a2, 5, (1, 0, 0)),
        lambda a2: resolve_simple(a2, 5, (1,), SimpleLedger(a2, 5)),
        lambda a2: Character(a2, {(1,): 1}),
        lambda a2: a2.weyl_orbit((1,)),
        lambda a2: dominant_conjugate(a2, (1,)),
        lambda a2: a2.dominance_leq((1,), (1, 0)),
        lambda a2: chi_normalize(a2, (1,)),
        lambda a2: lowest_alcove_test(a2, 5, (1,)),
    ],
    ids=["chi_char", "chi_char IndexError", "weyl_dim", "orbit_size", "jantzen_sum", "resolve_simple",
         "Character", "weyl_orbit", "dominant_conjugate", "dominance_leq", "chi_normalize",
         "lowest_alcove_test"],
)
def test_weights_of_the_wrong_length_are_rejected(a2, call):
    # dot and wadd stop at the shorter weight: chi(1) over A2 had dim 3,
    # weyl_dim((2,)) was 6, chi((2,)) raised IndexError and J((1,0,0)) was 0;
    # weyl_orbit((1,)) was ((-1,), (1,)), dominant_conjugate((1,)) was (1,),
    # chi_normalize((1,)) was (1, (1,)), and the last two calls were True
    with pytest.raises(ValueError, match="has length"):
        call(a2)


@pytest.mark.parametrize(
    "call",
    [
        lambda a2, w: chi_char(a2, w),
        lambda a2, w: a2.weyl_dim(w),
        lambda a2, w: a2.orbit_size(w),
        lambda a2, w: a2.weyl_orbit(w),
        lambda a2, w: a2.dominance_leq(w, (1, 1)),
        lambda a2, w: chi_normalize(a2, w),
        lambda a2, w: jantzen_sum(a2, 5, w),
        lambda a2, w: resolve_simple(a2, 5, w, SimpleLedger(a2, 5)),
    ],
    ids=["chi_char", "weyl_dim", "orbit_size", "weyl_orbit", "dominance_leq", "chi_normalize", "jantzen_sum",
         "resolve_simple"],
)
@pytest.mark.parametrize("weight", [[5, 0], [1, 1]])
def test_weights_that_are_not_tuples_are_rejected(a2, call, weight):
    # a list got past the length check: chi_normalize(a2, [1, 0]) was
    # (1, [1, 0]), weyl_dim([1, 1]) was 8 and J([5, 0]) was computed, while
    # chi_char and weyl_orbit raised TypeError: unhashable type
    with pytest.raises(ValueError, match=r"^weight \[\d, \d\] is not a tuple$"):
        call(a2, weight)


def test_add_with_zero_and_itself(a2):
    ch = chi_char(a2, (1, 0))
    zero = Character(a2, {})
    assert add(ch, zero) == add(zero, ch) == ch
    two = add(ch, ch)
    assert two.mult == {w: 2 * m for w, m in ch.mult.items()}
    assert dim(two) == 2 * dim(ch)


def test_trusted_records_pass_the_checked_constructor(monkeypatch):
    # each record the library builds by ReadOnly._trusted, skipping its
    # constructor's checks, is rebuilt here through that constructor: a
    # splitting sequence from its datum and layers alone, which must give
    # the dims and expansions that from_parahoric read off the weights
    producers = collections.Counter()
    trusted = ReadOnly._trusted.__func__

    def checked(cls, *values):
        producers[sys._getframe(1).f_code.co_name] += 1
        if cls is not SplittingSequence:
            return cls(*values)
        record, rebuilt = trusted(cls, *values), cls(*values[:2])
        assert (rebuilt.dims, rebuilt.expansions) == (record.dims, record.expansions), record.layers
        return rebuilt

    monkeypatch.setattr(ReadOnly, "_trusted", classmethod(checked))
    for name, weights in _rank4_boxes():
        rd = build_root_datum(name)
        chars = [chi_char(rd, lam) for lam in weights]
        for ch in chars:
            assert dual(dual(ch)) == ch, (name, ch)
            assert add(ch, add(ch, ch)).mult == {w: 3 * m for w, m in ch.mult.items()}, (name, ch)
        small = [ch for ch in chars if dim(ch) <= 30][:4]
        for ch1, ch2 in itertools.combinations_with_replacement(small, 2):
            assert dim(tensor(ch1, ch2)) == dim(ch1) * dim(ch2), (name, ch1, ch2)
            assert dim(exterior_square(ch1)) == dim(ch1) * (dim(ch1) - 1) // 2, (name, ch1)
    for name in ("B3", "C3", "G2", "B2xG2", "F4"):
        rd = build_root_datum(name)
        for theta in enumerate_facets(rd):
            seq = from_parahoric(parahoric_model(rd, theta))
            for refine in (False, True):
                certify(seq, 5, refine)
    for name, p, side in (("A2", 5, 12), ("G2", 7, 7)):
        rd = build_root_datum(name)
        ledger = SimpleLedger(rd, p)
        for lam in itertools.product(range(side), repeat=rd.n):
            jantzen_report(rd, p, lam, ledger)
    assert set(producers) == {"chi_char", "add", "dual", "_compress", "_chi_expand", "_jantzen_sum", "_resolve",
                              "from_parahoric", "certify"}


def test_datum_mismatch(a2, c2):
    with pytest.raises(DatumMismatch):
        tensor(chi_char(a2, (1, 0)), chi_char(c2, (1, 0)))


def test_tensor_unit_and_dims(a2):
    nat = chi_char(a2, (1, 0))
    assert tensor(nat, chi_char(a2, (0, 0))) == nat
    prod = tensor(nat, chi_char(a2, (0, 1)))
    assert dim(prod) == 9
    assert chi_expand(prod).coeffs == {(1, 1): 1, (0, 0): 1}


def test_tensor_commutative_associative(a2):
    chs = [chi_char(a2, w) for w in [(1, 0), (0, 1), (1, 1)]]
    assert tensor(chs[0], chs[1]) == tensor(chs[1], chs[0])
    assert tensor(tensor(chs[0], chs[1]), chs[2]) == tensor(
        chs[0], tensor(chs[1], chs[2])
    )


def test_dual(a2):
    triv = chi_char(a2, (0, 0))
    assert dual(triv) == triv
    nat = chi_char(a2, (1, 0))
    assert dual(nat) == chi_char(a2, (0, 1))
    for w in [(1, 0), (2, 1), (1, 1)]:
        ch = chi_char(a2, w)
        assert dual(dual(ch)) == ch
    a, b = chi_char(a2, (1, 0)), chi_char(a2, (1, 1))
    assert dual(tensor(a, b)) == tensor(dual(a), dual(b))


def test_exterior_square(a2, c2):
    assert exterior_square(chi_char(a2, (0, 0))).mult == {}
    nat2 = chi_char(c2, (1, 0))
    lam2 = exterior_square(nat2)
    assert dim(lam2) == 6
    assert chi_expand(lam2).coeffs == {(0, 1): 1, (0, 0): 1}
    assert exterior_square(chi_char(a2, (1, 0))) == chi_char(a2, (0, 1))


def test_exterior_square_dimension_formula(a2, g2):
    for rd, w in [(a2, (1, 1)), (a2, (2, 0)), (g2, (1, 0))]:
        ch = chi_char(rd, w)
        d = dim(ch)
        assert dim(exterior_square(ch)) == d * (d - 1) // 2


def test_chi_normalize_examples(a2):
    assert chi_normalize(a2, (2, 0)) == (1, (2, 0))
    assert chi_normalize(a2, (3, -2)) == (-1, (2, 0))
    assert chi_normalize(a2, (0, -1)) is None


def test_chi_normalize_consistent_over_dot_orbit(a2):
    # applying every Weyl element through the dot action must yield the same
    # dominant representative with the determinant sign, or zero uniformly
    from _oracles import weyl_group_matrices, mat_apply

    group = weyl_group_matrices(a2)
    rho = (1, 1)
    for mu in itertools.product(range(-4, 4), repeat=2):
        base = chi_normalize(a2, mu)
        shifted = tuple(m + r for m, r in zip(mu, rho))
        for mat in group:
            image = tuple(x - r for x, r in zip(mat_apply(mat, shifted), rho))
            got = chi_normalize(a2, image)
            if base is None:
                assert got is None
            else:
                assert got is not None and got[1] == base[1]


def test_chi_expand_basis_roundtrip(a2):
    for w in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        assert chi_expand(chi_char(a2, w)).coeffs == {w: 1}


def test_chi_expand_fuzz_roundtrip():
    rng = random.Random(20240711)
    names = ["A1", "A2", "B2", "C2", "A1xA1"]
    data = {name: build_root_datum(name) for name in names}
    for _ in range(200):
        rd = data[rng.choice(names)]
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(0, 3) for _ in range(rd.n))
            coeffs[w] = rng.choice([-3, -2, -1, 1, 2, 3])
        vcs = VirtualChiSum(coeffs)
        assert chi_expand_map(rd, evaluate_chi_sum(rd, vcs)) == vcs


def test_chi_expand_matches_pairwise_oracle_on_random_combinations():
    rng = random.Random(3)
    names = ["A2", "B2", "G2", "A3", "C3", "A1xA1+T1"]
    data = {name: build_root_datum(name) for name in names}
    for _ in range(150):
        rd = data[rng.choice(names)]
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            lam = tuple(rng.randint(0, 2) for _ in range(rd.semisimple_rank))
            lam += tuple(rng.randint(-2, 2) for _ in range(rd.n - rd.semisimple_rank))
            coeffs[lam] = rng.choice([-3, -2, -1, 1, 2, 3])
        mult = evaluate_chi_sum(rd, VirtualChiSum(coeffs))
        assert chi_expand_map(rd, mult).coeffs == chi_expand_pairwise(rd, mult) == coeffs


def test_characters_over_quotient_datum(a2, a2_basis):
    from parahoric import parahoric_model, parse_facet_spec

    model = parahoric_model(a2, parse_facet_spec("0,2", a2_basis), a2_basis)
    sub = model.quotient_datum
    ch = chi_char(sub, (1, 1))
    assert dim(ch) == 2
    assert sub.weyl_dim((1, 1)) == 2
    layer = Character(sub, {(1, 1): 1, (-2, 1): 1})
    assert chi_expand(layer).coeffs == {(1, 1): 1, (-2, 1): 1}


def test_characters_over_torus_datum(a2, a2_basis):
    from parahoric import parahoric_model, parse_facet_spec

    model = parahoric_model(a2, parse_facet_spec("0,1,2", a2_basis), a2_basis)
    torus = model.quotient_datum
    assert torus.semisimple_rank == 0
    ch = chi_char(torus, (2, -1))
    assert ch.mult == {(2, -1): 1} and dim(ch) == 1
    assert chi_expand(Character(torus, {(1, 0): 2})).coeffs == {(1, 0): 2}


def test_chi_readers_share_the_cached_map_without_changing_it(monkeypatch):
    rd = build_root_datum("B2")
    lam = (1, 2)
    stored = dict(chi_char(rd, lam).mult)
    mult = evaluate_chi_sum(rd, VirtualChiSum({lam: 2, (0, 0): -1}))
    assert chi_expand_map(rd, mult).coeffs == {lam: 2, (0, 0): -1}
    # chi_char hands out a copy: changing it leaves the cached map as it was
    chi_char(rd, lam).mult[lam] = 99
    assert rd.chi_cache[lam] == stored == chi_char(rd, lam).mult
    with pytest.raises(NotDominant):
        evaluate_chi_sum(rd, VirtualChiSum({(-1, 0): 1}))
    # a raw map keeps its dominance test; the keys of a Character were
    # checked when it was built, so chi_expand does not test them again
    with pytest.raises(InvariantViolation, match="non-dominant keys"):
        chi_expand_map(rd, {lam: 1, (-1, 0): 1})
    ch = chi_char(rd, lam)
    monkeypatch.setattr(RootDatum, "is_dominant", lambda self, w: False)
    assert chi_expand(ch).coeffs == {lam: 1}
    with pytest.raises(InvariantViolation, match="non-dominant keys"):
        chi_expand_map(rd, ch.mult)


def test_exterior_square_matches_the_pair_loop():
    # Lambda^2 V = (V (x) V - psi^2 V) / 2 against the sum over weight pairs
    checked = 0
    for name, weights in _rank4_boxes():
        rd = build_root_datum(name)
        for lam in weights:
            ch = chi_char(rd, lam)
            if dim(ch) <= 40:
                assert exterior_square(ch).mult == exterior_square_by_pairs(ch), (name, lam)
                checked += 1
    assert checked > 100


def test_exterior_square_checks_the_halved_difference(a2, monkeypatch):
    natural = chi_char(a2, (1, 0))
    # V (x) V replaced by V + V: psi^2 V leaves -1 at (2, 0)
    monkeypatch.setattr(charring, "tensor", add)
    with pytest.raises(InvariantViolation, match=r"V \(x\) V - psi\^2 V is -1 at \(2, 0\)"):
        exterior_square(natural)
    # V (x) V replaced by V + chi(2, 0): psi^2 V cancels (2, 0), and 1 is
    # left at (1, 0), which is no multiplicity doubled
    monkeypatch.setattr(charring, "tensor", lambda ch1, ch2: add(ch1, chi_char(a2, (2, 0))))
    with pytest.raises(InvariantViolation, match=r"V \(x\) V - psi\^2 V is 1 at \(1, 0\)"):
        exterior_square(natural)


def test_characters_and_chi_sums_take_only_int_values(a2):
    with pytest.raises(ValueError, match="character multiplicities must be integers"):
        Character(a2, {(1, 0): 1.5})
    with pytest.raises(ValueError, match="character multiplicities must be integers"):
        Character(a2, {(1, 0): True})
    with pytest.raises(ValueError, match="chi-sum coefficients must be integers"):
        VirtualChiSum({(1, 0): 0.5})
    with pytest.raises(ValueError, match="not an int"):
        Character(a2, {(1.0, 0): 1})


def test_chi_char_takes_only_int_coordinates(a2):
    # it returned Character(1*[0.5,0.5])
    with pytest.raises(ValueError, match=r"weight \(0\.5, 0\.5\) has a coordinate that is not an int"):
        chi_char(a2, (0.5, 0.5))
    assert chi_char(a2, (1, 1)).mult[(0, 0)] == 2
