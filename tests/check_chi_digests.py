"""Freudenthal multiplicities of large highest weights against recorded digests.

A case is one Dynkin type and one multiple k of rho.  Its digest is the
SHA-256 of the JSON list of ``chi_char(rd, k * rho).mult.items()``, so it
fixes both the multiplicities and the order in which the recursion stores
them.  ``chi_digests.json`` holds the digests of F4 2rho, E6 2rho, E7 rho,
E8 rho, G2 5rho, B4 2rho, C4 2rho, A4 3rho and D5 2rho.

Usage (from the repository root)::

    PYTHONPATH=src python3 tests/check_chi_digests.py            # every case
    PYTHONPATH=src python3 tests/check_chi_digests.py E6 E7

It checks every recorded case of the types named, each on a new datum with
an empty ``chi_cache``, and that ``dim`` of the character, which reads each
key's orbit size by the zero set of its labels, is the Weyl dimension of k
rho (the E8 rho case runs that lookup over 14 869 keys).  It
prints one line per case with its CPU and wall seconds, the process's peak
RSS so far (``ru_maxrss``, in MB; name one type to read that case's own
peak) and its dimension, and exits 1 when a digest or a dimension differs.
It only reads the recorded digests; it never writes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from parahoric import chi_char, dim
from parahoric.rootdata import _datum_structure

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chi_digests.json")
CASES = {"F4": 2, "E6": 2, "E7": 1, "E8": 1, "G2": 5, "B4": 2, "C4": 2, "A4": 3, "D5": 2}


def case_key(spec: str) -> str:
    return f"{spec}|{CASES[spec]}rho"


def chi_case(spec: str) -> tuple[str, int, int]:
    """The digest of chi(k rho), its ``dim`` and the Weyl dimension of k rho."""
    # a fresh structure, so no table or character of another case is reused
    rd = _datum_structure.__wrapped__(spec)
    lam = tuple(CASES[spec] * x for x in rd.rho)
    ch = chi_char(rd, lam)
    text = json.dumps(list(ch.mult.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), dim(ch), rd.weyl_dim(lam)


def recorded() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("types", nargs="*", default=list(CASES), help=f"any of {' '.join(CASES)}")
    args = parser.parse_args(argv)
    unknown = set(args.types) - set(CASES)
    if unknown:
        parser.error(f"no recorded case for {', '.join(sorted(unknown))}")
    expected = recorded()
    bad = 0
    for spec in args.types:
        key = case_key(spec)
        cpu, wall = time.process_time(), time.perf_counter()
        digest, dimension, weyl_dimension = chi_case(spec)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        verdict = "ok" if expected[key] == digest else "MISMATCH"
        if dimension != weyl_dimension:
            verdict = f"DIM!={weyl_dimension}"
        bad += verdict != "ok"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
        print(f"{key:9} {verdict:8} cpu {cpu:6.2f} s  wall {wall:6.2f} s  rss {rss:6.1f} MB  {digest}  dim {dimension}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
