"""Exact combinatorics of root data, parahoric facets, characters, and
Levi-decomposition certificates."""

__version__ = "0.1.0"

from .rootdata import (
    DynkinSpec,
    IllegalRank,
    InvariantViolation,
    NotDominant,
    Root,
    RootDatum,
    Weight,
    build_root_datum,
    classify_root_datum,
    parse_dynkin_spec,
    sub_root_datum,
)
from .affine import (
    AffineBasis,
    AffineRoot,
    FacetSpec,
    ParahoricModel,
    classify_quotient,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    parse_facet_spec,
    quotient_by_deletion,
)
from .charring import (
    Character,
    DatumMismatch,
    VirtualChiSum,
    add,
    chi_char,
    chi_expand,
    chi_normalize,
    dim,
    dual,
    exterior_square,
    tensor,
)
from .jantzen import (
    HypothesisUnmet,
    NotPrime,
    SimpleLedger,
    dot_reflect,
    ext1_dim,
    ext2_chain,
    jantzen_report,
    jantzen_sum,
    lowest_alcove_test,
    resolve_simple,
)
from .levicert import (
    LeviCertificate,
    SplittingSequence,
    certify,
    from_parahoric,
    unitary_report,
)
