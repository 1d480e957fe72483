import itertools

from parahoric import (
    build_root_datum,
    certify,
    chi_char,
    classify_quotient,
    enumerate_facets,
    extended_basis,
    from_parahoric,
    obs,
    parahoric_model,
    quotient_by_deletion,
)
from parahoric.rootdata import _datum_structure


def test_nothing_is_recorded_when_off():
    # a B3 structure of its own, so its rows are built here
    rd = _datum_structure.__wrapped__("B3")
    assert not obs.enabled()
    obs.count("rootdata.reflection_rows.built")
    rd.reflection_row(0)
    with obs.recording() as counters:
        assert obs.enabled() and counters == {}
    assert not obs.enabled()
    rd.reflection_row(1)
    build_root_datum("B3")
    assert counters == {}


def test_recordings_nest_and_count_build_memo_hits():
    build_root_datum("G2")
    with obs.recording() as outer:
        build_root_datum("G2")
        with obs.recording() as inner:
            build_root_datum("g2")
            build_root_datum("G2")
        build_root_datum("G2")
    assert outer == {"rootdata.build_root_datum.hits": 2}
    assert inner == {"rootdata.build_root_datum.hits": 2}


def test_a_memo_miss_records_no_hit_count():
    # a torus rank no other test builds, raised until the build misses, so
    # that the shared memo need not be cleared
    for k in itertools.count(5):
        misses = _datum_structure.cache_info().misses
        with obs.recording() as counters:
            build_root_datum(f"G2+T{k}")
        if _datum_structure.cache_info().misses > misses:
            break
    assert "rootdata.build_root_datum.hits" not in counters


def test_reflection_rows_are_built_once_per_spec_over_two_facet_sweeps():
    rd = _datum_structure.__wrapped__("B3")
    basis = extended_basis(rd)
    facets = enumerate_facets(rd, basis)
    sweeps = []
    for _ in range(2):
        with obs.recording() as counters:
            for theta in facets:
                from_parahoric(parahoric_model(rd, theta, basis))
        sweeps.append(counters)
    # one reflection row and one sum row per ambient root that is a simple
    # root of some facet's quotient, one quotient built per facet, and the
    # same 11 of the sweep's 176 layer weights walked by the dot action
    simples = {
        rd.root_index[a.coords]
        for theta in facets
        for a in parahoric_model(rd, theta, basis).quotient_datum.simple_roots
    }
    each = {"rootdata.sub_root_datum.builds": len(facets), "levicert.from_parahoric.walks": 11}
    assert sweeps == [
        {"rootdata.reflection_rows.built": len(simples), "rootdata.sum_rows.built": len(simples), **each},
        each,
    ]
    assert sorted(rd.tables.reflection_rows) == sorted(rd.tables.sum_rows) == sorted(simples)


def test_facet_models_and_their_certificates_build_no_linear_tables():
    rd = build_root_datum("E6")
    basis = extended_basis(rd)
    facets = enumerate_facets(rd, basis)
    sequences = []
    with obs.recording() as sweep:
        for theta in facets:
            model = parahoric_model(rd, theta, basis)
            classify_quotient(model)
            quotient_by_deletion(rd, theta, basis)
            sequences.append(from_parahoric(model))
    assert "rootdata.quotient_linear_tables.built" not in sweep
    assert "levicert.from_parahoric.walks" not in sweep  # E6 is simply laced
    assert sweep["rootdata.sub_root_datum.builds"] == len(facets)
    with obs.recording() as certified:
        for seq in sequences:
            certify(seq, 5)
    assert certified == {}


def test_freudenthal_counts_a_run_once_and_nothing_on_a_hit():
    # an F4 structure of its own, so the orbit tables build the reflection
    # rows of its four simple roots here
    f4 = _datum_structure.__wrapped__("F4")
    with obs.recording() as first:
        chi_char(f4, (1, 1, 1, 1))
    with obs.recording() as second:
        chi_char(f4, (1, 1, 1, 1))
    assert first == {
        "rootdata.reflection_rows.built": 4,
        "charring.freudenthal.runs": 1,
        "charring.freudenthal.dominant_weights": 58,
        "charring.freudenthal.string_steps": 1061,
        "charring.freudenthal.chamber_walks": 386,
        "charring.freudenthal.walk_steps": 712,
        "charring.freudenthal.norm_cuts": 533,
    }
    assert second == {}
