"""Exact combinatorics of root data, parahoric facets, characters, and
Levi-decomposition certificates.

The names below are re-exported from the submodules that define them.
Each is imported on first access (PEP 562), so ``import parahoric`` loads
no submodule, and a process loads only the modules it reads.
"""

import importlib

__version__ = "0.1.0"

#: The defining submodule of each re-exported name.
_HOME = {
    name: module
    for module, names in {
        "rootdata": "DynkinSpec IllegalRank InvariantViolation NotDominant NotPrime Root RootDatum Weight "
                    "build_root_datum classify_root_datum parse_dynkin_spec sub_root_datum",
        "affine": "AffineBasis AffineRoot FacetSpec ParahoricModel classify_quotient enumerate_facets "
                  "extended_basis parahoric_model parse_facet_spec quotient_by_deletion",
        "charring": "Character DatumMismatch VirtualChiSum add chi_char chi_expand chi_normalize dim dual "
                    "exterior_square tensor",
        "jantzen": "HypothesisUnmet SimpleLedger dot_reflect ext1_dim ext2_chain jantzen_report jantzen_sum "
                   "lowest_alcove_test resolve_simple",
        "levicert": "LeviCertificate SplittingSequence certify from_parahoric unitary_report",
    }.items()
    for name in names.split()
}

_SUBMODULES = ("affine", "charring", "jantzen", "levicert", "obs", "rootdata")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
