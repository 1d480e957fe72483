"""The import surface: what ``import parahoric`` and each CLI subcommand
load.  Every check runs in a fresh interpreter, so that it starts from a
clean ``sys.modules``."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: What ``from parahoric import *`` has bound since the package re-exported
#: its submodules' names eagerly: 47 names and six submodules.
STAR_NAMES = {
    "AffineBasis", "AffineRoot", "Character", "DatumMismatch", "DynkinSpec", "FacetSpec",
    "HypothesisUnmet", "IllegalRank", "InvariantViolation", "LeviCertificate", "NotDominant",
    "NotPrime", "ParahoricModel", "Root", "RootDatum", "SimpleLedger", "SplittingSequence",
    "VirtualChiSum", "Weight", "add", "build_root_datum", "certify", "chi_char", "chi_expand",
    "chi_normalize", "classify_quotient", "classify_root_datum", "dim", "dot_reflect", "dual",
    "enumerate_facets", "ext1_dim", "ext2_chain", "extended_basis", "exterior_square",
    "from_parahoric", "jantzen_report", "jantzen_sum", "lowest_alcove_test", "parahoric_model",
    "parse_dynkin_spec", "parse_facet_spec", "quotient_by_deletion", "resolve_simple",
    "sub_root_datum", "tensor", "unitary_report",
    "affine", "charring", "jantzen", "levicert", "obs", "rootdata",
}


def _run(code):
    """The stdout lines of ``code`` run in a fresh interpreter on the source tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(code):
    """The ``parahoric`` submodules loaded once ``code`` has run."""
    (line,) = _run(f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('parahoric.')))")
    return set(line.split())


def test_import_loads_no_submodule():
    assert _loaded("import parahoric") == set()


def test_star_import_binds_the_recorded_names():
    (line,) = _run("before = set(dir())\nfrom parahoric import *\nprint(*sorted(set(dir()) - before - {'before'}))")
    assert set(line.split()) == STAR_NAMES
    assert len(STAR_NAMES) == 53


def test_each_name_is_its_defining_module_object():
    code = (
        "import importlib, parahoric\n"
        "assert set(parahoric.__all__) <= set(dir(parahoric))\n"
        "for name in parahoric._SUBMODULES:\n"
        "    assert getattr(parahoric, name) is importlib.import_module(f'parahoric.{name}'), name\n"
        "for name, module in parahoric._HOME.items():\n"
        "    home = importlib.import_module(f'parahoric.{module}')\n"
        "    assert getattr(parahoric, name) is getattr(home, name), name\n"
        "print('ok')"
    )
    assert _run(code) == ["ok"]


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import parahoric\n"
        "try:\n"
        "    parahoric.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(parahoric, 'cli'), hasattr(parahoric, '__version__'))"
    )
    assert _run(code) == ["module 'parahoric' has no attribute 'no_such_name'", "False True"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["rootsys", "--type", "B2"], {"charring", "jantzen", "levicert"}),
        (["facets", "--type", "G2"], {"charring", "jantzen", "levicert"}),
        (["parahoric", "--type", "B3", "--theta", "0,1"], {"charring", "jantzen", "levicert"}),
        (["character", "--type", "A2", "--weight", "1,1"], {"affine", "jantzen", "levicert"}),
        (["verify-unitary", "--n", "2", "--p", "3"], {"affine", "jantzen"}),
    ],
    ids=["rootsys", "facets", "parahoric", "character", "verify-unitary"],
)
def test_each_subcommand_loads_only_its_layers(argv, absent):
    code = (
        "import contextlib, io\n"
        "from parahoric.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    loaded = _loaded(code)
    assert "parahoric.rootdata" in loaded
    assert not loaded & {f"parahoric.{name}" for name in absent}, loaded


#: The standard-library modules that ``dataclasses`` brought into every
#: process: the library's records are written without them.
RECORD_MACHINERY = ("dataclasses", "inspect")

SUBCOMMANDS = [
    ["rootsys", "--type", "B2"],
    ["facets", "--type", "G2"],
    ["parahoric", "--type", "B3", "--theta", "0,1"],
    ["levi", "--type", "B3", "--theta", "0,1", "--p", "5"],
    ["character", "--type", "A2", "--weight", "1,1"],
    ["jantzen", "--type", "A2", "--weight", "5,0", "--p", "5"],
    ["verify-sl3", "--p", "3"],
    ["verify-unitary", "--n", "2", "--p", "3"],
]


def _machinery_loaded(code):
    """Which of :data:`RECORD_MACHINERY` are loaded once ``code`` has run."""
    return _run(f"{code}\nimport sys\nprint(*[m for m in {RECORD_MACHINERY!r} if m in sys.modules])")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
def test_no_subcommand_loads_dataclasses_or_inspect(argv):
    code = (
        "import contextlib, io\n"
        "from parahoric.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert _machinery_loaded(code) == [""]


@pytest.mark.parametrize("module", ["affine", "charring", "jantzen", "levicert", "obs", "rootdata"])
def test_no_module_loads_dataclasses_or_inspect(module):
    assert _machinery_loaded(f"import parahoric.{module}") == [""]
