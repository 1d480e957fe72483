"""Record the output digest of every op any seed can issue.

Run from the repository root on the commit whose outputs are the reference::

    python3 bench/record.py            # writes bench/expected.json

The pools in ``workloads.py`` are finite, so every op key a run can draw is
recorded.  CLI outputs are taken from ``parahoric.cli.main`` in-process
with ``--no-cache``; the benchmark runs the same commands as child processes
and compares the envelope ``outputs`` digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main() -> int:
    expected = {}
    tr = NullTracer()
    for wl in (W.WeylChars(0), W.FacetCertify(0), W.ModularLedger(0)):
        for op in wl.all_ops():
            expected[op.key] = run.digest(op.fn(tr)())
        print(f"{wl.name}: {len(expected)} digests so far", flush=True)
    from parahoric.cli import main as cli_main

    for args in W.CliPools().all_args():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main([*args, "--json", "--no-cache"])
        if code != 0:
            raise SystemExit(f"{args}: exit {code}")
        expected[W.cli_key(args)] = run.digest(json.loads(out.getvalue())["outputs"])
    print(f"cli: {len(expected)} digests in total")
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
