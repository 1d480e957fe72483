"""Levi certificates of whole facet sweeps against their recorded digests.

A sweep certifies every facet of one Dynkin type at one prime, with or
without the rank refinement.  Each type's facets are modelled once, by
``parahoric_model`` and ``from_parahoric``, and each facet's splitting
sequence is then certified at every (p, refinement) pair: only the bounds
of a certificate depend on them.  A sweep's digest is the
SHA-256 of the JSON list of ``{"theta", "certificate"}`` in
``enumerate_facets`` order.  ``certificate_digests.json`` holds the digests
of F4, E6, E7 and E8 at p = 2, 3, 5, 7, with and without the refinement.

Usage (from the repository root)::

    PYTHONPATH=src python3 tests/check_certificate_digests.py          # E7 and E8
    PYTHONPATH=src python3 tests/check_certificate_digests.py F4 E6

It checks every recorded sweep of the types named, prints one line per sweep
with its digest and exits 1 when a digest differs.  After each type's sweeps
it prints one line with two CPU times, the model phase (``parahoric_model``
and ``from_parahoric`` over all facets) and the certify sweeps, the wall
seconds of both, and the process's peak RSS so far (``ru_maxrss``, in MB;
name one type to read that type's own peak).  It only reads the recorded
digests; it never writes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from parahoric import (
    build_root_datum,
    certify,
    enumerate_facets,
    from_parahoric,
    parahoric_model,
)
from parahoric.levicert import SplittingSequence

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certificate_digests.json")
PRIMES = (2, 3, 5, 7)


def sweep_key(spec: str, p: int, refine: bool) -> str:
    return f"{spec}|{p}|{int(refine)}"


def facet_sequences(spec: str) -> list[tuple[str, SplittingSequence]]:
    """Each facet of the type, in ``enumerate_facets`` order, with the
    splitting sequence of its model."""
    rd = build_root_datum(spec)
    return [(str(theta), from_parahoric(parahoric_model(rd, theta))) for theta in enumerate_facets(rd)]


def sweep_digest(sequences: list[tuple[str, SplittingSequence]], p: int, refine: bool) -> str:
    certificates = [
        {"theta": theta, "certificate": certify(seq, p, refine).to_json_dict()} for theta, seq in sequences
    ]
    text = json.dumps(certificates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("types", nargs="*", default=["E7", "E8"], help="any of F4 E6 E7 E8")
    args = parser.parse_args(argv)
    unknown = set(args.types) - {"F4", "E6", "E7", "E8"}
    if unknown:
        parser.error(f"no recorded sweeps for {', '.join(sorted(unknown))}")
    expected = recorded()
    bad = 0
    for spec in args.types:
        cpu, wall = time.process_time(), time.perf_counter()
        sequences = facet_sequences(spec)
        model_cpu = time.process_time() - cpu
        for p in PRIMES:
            for refine in (False, True):
                key = sweep_key(spec, p, refine)
                digest = sweep_digest(sequences, p, refine)
                verdict = "ok" if expected[key] == digest else "MISMATCH"
                bad += verdict != "ok"
                print(f"{key:10} {verdict:8} {digest}")
        sweep_cpu, wall = time.process_time() - cpu - model_cpu, time.perf_counter() - wall
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        print(
            f"{spec:10} {len(sequences)} facets, {2 * len(PRIMES)} sweeps: models cpu {model_cpu:6.2f} s  "
            f"sweeps cpu {sweep_cpu:6.2f} s  wall {wall:6.2f} s  rss {rss:6.1f} MB"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
