"""Property tests: the counting, conjugation and expansion fast paths against
enumeration and the brute-force oracles, over generated types and weights."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from parahoric import (
    VirtualChiSum,
    build_root_datum,
    chi_char,
    dim,
    enumerate_facets,
    extended_basis,
    parahoric_model,
)
from parahoric.charring import _plausible_character

from _oracles import (
    chi_expand_map,
    chi_expand_pairwise,
    dominant_conjugate,
    dominant_conjugate_by_reflection,
    evaluate_chi_sum,
    weyl_group_matrices,
)

NAMES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xA1+T1", "B2xG2"]

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)


@functools.cache
def _datum(name):
    return build_root_datum(name)


@functools.cache
def _weyl_group_order(name):
    return len(weyl_group_matrices(_datum(name)))


def _weights(rd, low, high):
    """Weights with semisimple coordinates in [low, high] and torus
    coordinates in [-2, 2]."""
    return st.tuples(
        *[st.integers(low, high)] * rd.semisimple_rank,
        *[st.integers(-2, 2)] * (rd.n - rd.semisimple_rank),
    )


@functools.cache
def _facet_quotients(name):
    """The reductive quotients of every facet of a type."""
    rd = _datum(name)
    basis = extended_basis(rd)
    return [parahoric_model(rd, theta, basis).quotient_datum for theta in enumerate_facets(rd, basis)]


@PROPERTY_SETTINGS
@given(st.data())
def test_orbit_size_counts_the_orbit_and_divides_the_group_order(data):
    # dominant weights take the zero-set lookup without a chamber walk, the
    # others are walked first
    name = data.draw(st.sampled_from(NAMES))
    rd = _datum(name)
    lam = data.draw(_weights(rd, 0, 3) if data.draw(st.booleans()) else _weights(rd, -3, 3))
    size = rd.orbit_size(lam)
    assert size == len(rd.weyl_orbit(lam))
    assert _weyl_group_order(name) % size == 0


@PROPERTY_SETTINGS
@given(st.data())
def test_dim_reads_orbit_sizes_by_zero_set(data):
    # on spec data the semisimple coordinates are the labels, so a box of
    # nonnegative ones is dominant; on a facet quotient of B3 or G2, an
    # ambient dominant weight is dominant for the quotient too
    name = data.draw(st.sampled_from(NAMES))
    lam = data.draw(_weights(_datum(name), 0, 2))
    rd = _datum(name)
    if data.draw(st.booleans()) and name in ("B3", "G2"):
        rd = data.draw(st.sampled_from(_facet_quotients(name)))
    ch = chi_char(rd, lam)
    total = dim(ch)
    assert total == sum(m * len(rd.weyl_orbit(w)) for w, m in ch.mult.items())
    assert total == rd.weyl_dim(lam)
    assert _plausible_character(rd, lam, ch.mult)


@PROPERTY_SETTINGS
@given(st.data())
def test_dominant_conjugate_matches_reflection_loop(data):
    rd = _datum(data.draw(st.sampled_from(NAMES + ["F4", "E6"])))
    lam = data.draw(_weights(rd, -4, 4))
    dom = dominant_conjugate(rd, lam)
    assert dom == dominant_conjugate_by_reflection(rd, lam)
    assert rd.is_dominant(dom)


@PROPERTY_SETTINGS
@given(st.data())
def test_chi_expand_inverts_evaluation(data):
    rd = _datum(data.draw(st.sampled_from(NAMES)))
    coeffs = data.draw(
        st.dictionaries(
            _weights(rd, 0, 2),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    mult = evaluate_chi_sum(rd, VirtualChiSum(coeffs))
    assert chi_expand_map(rd, mult) == VirtualChiSum(coeffs)
    assert chi_expand_pairwise(rd, mult) == coeffs
