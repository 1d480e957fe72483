"""Levi certificates of whole facet sweeps against their recorded digests.

A sweep certifies every facet of one Dynkin type at one prime, with or
without the rank refinement: ``parahoric_model``, ``from_parahoric`` and
``certify`` per facet, on one extended basis.  Its digest is the SHA-256 of
the JSON list of ``{"theta", "certificate"}`` in ``enumerate_facets`` order.
``certificate_digests.json`` holds the digests of F4, E6, E7 and E8 at
p = 2, 3, 5, 7, with and without the refinement.

Usage (from the repository root)::

    PYTHONPATH=src python3 tests/check_certificate_digests.py          # E7 and E8
    PYTHONPATH=src python3 tests/check_certificate_digests.py F4 E6

It checks every recorded sweep of the types named, prints one line per sweep
with its CPU and wall seconds, and exits 1 when a digest differs.  It only
reads the recorded digests; it never writes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from parahoric import (
    build_root_datum,
    certify,
    enumerate_facets,
    extended_basis,
    from_parahoric,
    parahoric_model,
)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certificate_digests.json")
PRIMES = (2, 3, 5, 7)


def sweep_key(spec: str, p: int, refine: bool) -> str:
    return f"{spec}|{p}|{int(refine)}"


def sweep_digest(spec: str, p: int, refine: bool) -> str:
    rd = build_root_datum(spec)
    basis = extended_basis(rd)
    certificates = []
    for theta in enumerate_facets(rd, basis):
        seq = from_parahoric(parahoric_model(rd, theta, basis))
        certificates.append({"theta": str(theta), "certificate": certify(seq, p, refine).to_json_dict()})
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
        for p in PRIMES:
            for refine in (False, True):
                key = sweep_key(spec, p, refine)
                cpu, wall = time.process_time(), time.perf_counter()
                digest = sweep_digest(spec, p, refine)
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
                verdict = "ok" if expected[key] == digest else "MISMATCH"
                bad += verdict != "ok"
                print(f"{key:10} {verdict:8} cpu {cpu:6.2f} s  wall {wall:6.2f} s  {digest}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
