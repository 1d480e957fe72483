"""Every ``facet_certify`` benchmark op against its stored digest.

The benchmark compares each op's checked payload with ``bench/expected.json``
only for the ops a timed pass draws; this runs all of them, untimed, so a
change to the affine models, the quotient classification or the Levi
certificates that alters any facet's output fails here.  It only reads
``bench/``.
"""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def test_every_facet_certify_op_matches_its_digest():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    tracer = NullTracer()
    ops = list(workloads.FacetCertify(0).all_ops())
    mismatched = [op.key for op in ops if run.digest(op.fn(tracer)()) != expected.get(op.key)]
    assert len(ops) == 1403
    assert mismatched == []
