"""The contract of the library's records: how they are built, compared,
hashed and printed, which of them are read-only, and which checks their
constructors keep."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from parahoric import (
    AffineRoot,
    Character,
    DynkinSpec,
    IllegalRank,
    NotPrime,
    Root,
    SimpleLedger,
    SplittingSequence,
    VirtualChiSum,
    build_root_datum,
    certify,
    chi_char,
    extended_basis,
    from_parahoric,
    jantzen_report,
    parahoric_model,
    parse_dynkin_spec,
    parse_facet_spec,
)
from parahoric.affine import FacetSpec
from parahoric.rootdata import DatumTables

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _copy_of(root, **changes):
    fields = dict(
        coords=root.coords, simple_coeffs=root.simple_coeffs, component=root.component,
        coroot=root.coroot, coroot_coeffs=root.coroot_coeffs, form=root.form,
    )
    fields.update(changes)
    return Root(**fields)


def test_dynkin_spec_equality_and_hash():
    spec = DynkinSpec((("A", 1), ("A", 1)), 1)
    assert spec == parse_dynkin_spec("A1xA1+T1") and hash(spec) == hash(parse_dynkin_spec("A1xA1+T1"))
    assert DynkinSpec((("A", 2),)) == DynkinSpec((("A", 2),), 0)
    assert spec != DynkinSpec((("A", 1), ("A", 1)))
    assert spec != DynkinSpec((("A", 1),), 1)
    assert len({spec, parse_dynkin_spec("a1xa1+t1"), DynkinSpec((("A", 2),))}) == 2


def test_root_equality_and_hash_ignore_the_stored_heights(a2):
    for root in a2.roots:
        twin = _copy_of(root)
        assert twin == root and hash(twin) == hash(root) and twin is not root
        assert twin.height == root.height and twin.coroot_height == root.coroot_height
    root = a2.roots[0]
    for name, value in [("coords", (9, 9)), ("simple_coeffs", (9, 9)), ("component", 1),
                        ("coroot", (9, 9)), ("coroot_coeffs", (9, 9)), ("form", (9, 9))]:
        assert _copy_of(root, **{name: value}) != root, name
    assert root != root.coords
    assert len(set(a2.roots) | {_copy_of(r) for r in a2.roots}) == len(a2.roots)


def test_affine_root_and_facet_spec_equality_and_hash(a2, a2_basis):
    a = a2.simple_roots[0]
    assert AffineRoot(a, 0) == AffineRoot(_copy_of(a), 0)
    assert hash(AffineRoot(a, 0)) == hash(AffineRoot(_copy_of(a), 0))
    assert AffineRoot(a, 0) != AffineRoot(a, 1)
    assert AffineRoot(a, 0) != AffineRoot(a2.simple_roots[1], 0)
    theta = parse_facet_spec("0,2", a2_basis)
    assert theta == FacetSpec(((0, 2),)) and hash(theta) == hash(FacetSpec(((0, 2),)))
    assert theta != FacetSpec(((0, 1),))
    assert len({theta, FacetSpec(((0, 2),)), FacetSpec(((1,),))}) == 2


def test_repr_and_str(a2, a2_basis):
    spec = parse_dynkin_spec("A1xA1+T1")
    assert repr(spec) == "DynkinSpec(components=(('A', 1), ('A', 1)), extra_torus_rank=1)"
    assert str(spec) == "A1xA1+T1"
    assert str(DynkinSpec((), 2)) == "T2" and str(DynkinSpec(())) == "T0"
    root = a2.roots[0]
    assert repr(root) == str(root) == "Root(-1,-1)"
    node = a2_basis.components[0].elements[-1]
    assert repr(node) == str(node) == "AffineRoot(-1,-1; 1)"
    theta = parse_facet_spec("0,2", a2_basis)
    assert repr(theta) == "FacetSpec(theta=((0, 2),))" and str(theta) == "0,2"
    ch = Character(a2, {(1, 1): 1, (0, 0): 2})
    assert repr(ch) == str(ch) == "Character(2*[0,0] + 1*[1,1])"
    assert repr(Character(a2)) == "Character(0)"
    chi = VirtualChiSum({(1, 1): 1, (0, 0): -2})
    assert repr(chi) == str(chi) == "VirtualChiSum(-2*chi(0,0) + 1*chi(1,1))"
    assert repr(VirtualChiSum()) == "VirtualChiSum(0)"


def test_characters_compare_by_value_and_are_unhashable(a2):
    ch = Character(a2, {(1, 1): 1})
    assert ch == Character(build_root_datum("A2"), {(1, 1): 1})
    assert ch != Character(a2, {(1, 1): 2}) and ch != {(1, 1): 1}
    chi = VirtualChiSum({(1, 1): 1})
    assert chi == VirtualChiSum({(1, 1): 1}) and chi != VirtualChiSum({(1, 1): -1})
    for record in (ch, chi):
        with pytest.raises(TypeError):
            hash(record)


def test_datum_tables_take_keywords(a2):
    linear = a2.linear_tables()
    tables = DatumTables()
    assert tables.linear is tables.extended_basis is None
    tables.linear = linear
    assert tables.linear is linear
    assert tables.orbits == tables.orbit_sizes == tables.closure_rows == {}
    assert tables.reflection_rows == tables.sum_rows == {}
    tables.linear = None  # mutable
    assert tables.linear is None


def test_defaults_are_fresh_per_instance(a2):
    first, second = SimpleLedger(a2, 3), SimpleLedger(a2, 3)
    assert first.entries == second.entries == {} and first.entries is not second.entries
    assert first.undetermined == second.undetermined == set()
    assert first.undetermined is not second.undetermined
    one, other = DatumTables(), DatumTables()
    for name in ("orbits", "orbit_sizes", "closure_rows", "reflection_rows", "sum_rows"):
        assert getattr(one, name) == {} and getattr(one, name) is not getattr(other, name), name
    assert Character(a2).mult is not Character(a2).mult
    assert VirtualChiSum().coeffs is not VirtualChiSum().coeffs


def _frozen_records():
    a2 = build_root_datum("A2")
    basis = extended_basis(a2)
    model = parahoric_model(a2, parse_facet_spec("0", basis), basis)
    return [
        (parse_dynkin_spec("A2"), "components"),
        (a2.roots[0], "height"),
        (Character(a2, {(1, 1): 1}), "mult"),
        (VirtualChiSum({(1, 1): 1}), "coeffs"),
        (from_parahoric(model), "layers"),
        (basis.components[0].elements[0], "level"),
        (basis.components[0], "marks"),
        (basis, "components"),
        (model.theta, "theta"),
        (model, "layers"),
        (jantzen_report(a2, 3, (1, 1)), "p"),
    ]


@pytest.mark.parametrize("index", range(11))
def test_read_only_records_reject_assignment(index):
    record, name = _frozen_records()[index]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_read_only_records_copy_and_pickle(a2):
    spec = parse_dynkin_spec("A1xA1+T1")
    for record in (spec, a2.roots[3]):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
    assert pickle.loads(pickle.dumps(a2.roots[3])).height == a2.roots[3].height


@pytest.mark.parametrize(
    "components, torus",
    [
        ((("D", 2),), 0), ((("H", 3),), 0), ((("E", 5),), 0), ((("A", 0),), 0), ((("A", 1),), -1),
        # a rank or torus rank that is a float, a bool or a str, not an int
        ((("A", 2.0),), 0), ((("A", True),), 0), ((("A", "2"),), 0),
        ((("A", 2),), 1.0), ((("A", 2),), True), ((("A", 2),), "1"),
        # components that are not (family, rank) pairs
        ("A2", 0), ([("A", 2, 0)], 0), (None, 0),
    ],
)
def test_dynkin_spec_rejects_illegal_ranks(components, torus):
    with pytest.raises(IllegalRank):
        DynkinSpec(components, torus)


@pytest.mark.parametrize("wrap", [lambda items: (x for x in items), list], ids=["generator", "list"])
def test_constructors_read_an_iterable_once(wrap, a2):
    # a generator checked and then stored would be spent: the sequence read
    # no layers, and certified what the tuple of the same layers does not
    spec = DynkinSpec(wrap([("A", 1), ("A", 1)]), 1)
    assert spec == parse_dynkin_spec("A1xA1+T1") and hash(spec) == hash(parse_dynkin_spec("A1xA1+T1"))
    assert build_root_datum(spec).spec.components == (("A", 1), ("A", 1))
    layers = (chi_char(a2, (3, 0)), chi_char(a2, (2, 2)))
    seq, expected = SplittingSequence(a2, wrap(layers)), SplittingSequence(a2, layers)
    assert type(seq.layers) is tuple and seq.layers == expected.layers
    assert seq.dims == expected.dims == (10, 27) and seq.expansions == expected.expansions
    assert certify(seq, 2).to_json_dict() == certify(expected, 2).to_json_dict()
    assert certify(seq, 2).existence == "inconclusive"


def test_ledger_rejects_a_composite_p(a2):
    with pytest.raises(NotPrime):
        SimpleLedger(a2, 4)
    assert SimpleLedger(a2, 5).p == 5


def test_splitting_sequence_takes_only_the_datum_and_the_layers(a2):
    layers = (Character(a2, {(1, 1): 1}),)
    with pytest.raises(TypeError):
        SplittingSequence(a2, layers, (1,))
    seq = SplittingSequence(quotient_datum=a2, layers=layers)
    assert seq.dims == (6,) and seq.layers == layers


# Each constructor check that raises InvariantViolation, which must survive
# python -O.
CONSTRUCTOR_CHECKS = (
    "from parahoric import Character, InvariantViolation, SplittingSequence, VirtualChiSum, build_root_datum\n"
    "a2, c2 = build_root_datum('A2'), build_root_datum('C2')\n"
    "cases = [\n"
    "    lambda: Character(a2, {(1, 1): 0}),\n"
    "    lambda: Character(a2, {(1, 1): -1}),\n"
    "    lambda: Character(a2, {(-1, 2): 1}),\n"
    "    lambda: VirtualChiSum({(1, 1): 0}),\n"
    "    lambda: SplittingSequence(a2, (Character(c2, {(1, 0): 1}),)),\n"
    "]\n"
    "for case in cases:\n"
    "    try:\n"
    "        case()\n"
    "    except InvariantViolation as exc:\n"
    "        print('raised:', exc)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_constructors_keep_their_invariant_checks(flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CONSTRUCTOR_CHECKS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: character multiplicities must be positive: {(1, 1): 0}",
        "raised: character multiplicities must be positive: {(1, 1): -1}",
        "raised: character keys must be dominant: [(-1, 2)]",
        "raised: chi-sum coefficients must be nonzero: {(1, 1): 0}",
        "raised: a layer character lives over another root datum",
    ]


def test_character_rejects_weights_of_the_wrong_length(a2):
    with pytest.raises(ValueError):
        Character(a2, {(1, 1, 0): 1})
