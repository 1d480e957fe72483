"""Self-tests of the benchmark itself; run with ``python3 -m pytest bench``.

They run no timed workload: they check that the benchmark uses only the
public parahoric API, that ``BENCHMARK.json`` matches the metrics the
runner reports, that inputs follow the seed, and that every op a seed can
draw has a stored digest.
"""

from __future__ import annotations

import ast
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_FILES = sorted(
    os.path.join(BENCH_DIR, f) for f in os.listdir(BENCH_DIR) if f.endswith(".py")
)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_accesses(source: str, name: str) -> list[str]:
    """Every ``obj._name`` and ``from parahoric... import _name`` in ``source``."""
    offenders = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            offenders.append(f"{name}:{node.lineno} .{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("parahoric"):
            offenders += [f"{name}:{node.lineno} import {a.name}"
                          for a in node.names if _private(a.name)]
    return offenders


def test_no_private_attribute_access():
    """No ``obj._name`` anywhere in the benchmark, so private parahoric
    state (caches, solvers) can change without breaking it."""
    offenders = []
    for path in BENCH_FILES:
        with open(path, encoding="utf-8") as fh:
            offenders += private_accesses(fh.read(), os.path.basename(path))
    assert offenders == []


def test_private_access_is_detected():
    src = ("import parahoric\n"
           "from parahoric.charring import _LinSolver, chi_char\n"
           "rd = parahoric.build_root_datum('A2')\n"
           "rd._orbit_cache.clear()\n"
           "rd.__class__\n")
    assert private_accesses(src, "x.py") == ["x.py:2 import _LinSolver", "x.py:4 ._orbit_cache"]


def test_benchmark_json_matches_runner():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in run.PER_LAYER]


def _workloads(seed):
    sys.path.insert(0, run.SRC)
    return [run.make_workload(name, seed) for name in W.WORKLOADS]


def test_inputs_follow_the_seed():
    for a, b, c in zip(_workloads(5), _workloads(5), _workloads(6)):
        keys = [op.key for op in a.inputs(0)]
        assert keys == [op.key for op in b.inputs(0)]
        assert keys != [op.key for op in c.inputs(0)]
        assert keys != [op.key for op in a.inputs(1)]
        assert len(keys) >= 20


def test_every_drawn_op_has_a_digest():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    for seed in range(4):
        for wl in _workloads(seed):
            for k in range(3):
                missing = [op.key for op in wl.inputs(k) if op.key not in expected]
                assert missing == [], (wl.name, seed, k, missing[:5])


def test_self_time_excludes_children():
    tr = Tracer()
    tr.begin("bench.op", 0)
    tr.call("charring.chi_char", sum, [1, 2])
    tr.end()
    tr.spans[0]["start"], tr.spans[0]["end"] = 0, 10
    tr.spans[1]["start"], tr.spans[1]["end"] = 2, 6
    totals = tr.totals()
    assert totals["bench.op"] == [1, 10e-9, 6e-9]
    assert totals["charring.chi_char"] == [1, 4e-9, 4e-9]
    assert tr.spans[1]["parent"] == 0 and tr.spans[1]["op"] == 0
