"""The four benchmark workloads and the ops they issue.

A workload turns ``(seed, pass index)`` into a list of ops.  Where the
seed picks inputs, it picks one item from each group of neighbours in a pool
sorted by a cost proxy (stratified sampling), so a pass keeps its cost
profile while its inputs change and two seeds can be compared.

An op is a ``(key, fn)`` pair.  ``fn(tracer)`` does the timed work through
``tracer.call`` and returns a ``check`` closure.  ``check()`` runs outside
the timed region, raises ``CheckFailed`` on a wrong result and returns the
JSON payload whose digest must match ``expected.json`` under ``key``.

Only names exported by ``parahoric/__init__.py`` are used, plus
``facet_barycenter`` (public in ``parahoric.affine``) and the CLI as a
subprocess.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("weyl_chars", "facet_certify", "modular_ledger", "cli")

# Per-op limits: a pathological regression becomes a failed op, not a hang.
OP_TIMEOUT_S = 20
CLI_TIMEOUT_S = 15


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    key: str
    fn: Callable


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def stratified(rng: random.Random, pool: list, group: int) -> list:
    """One item from each run of ``group`` neighbours in a cost-sorted pool."""
    return [rng.choice(pool[i:i + group]) for i in range(0, len(pool), group)]


def _wkey(w) -> str:
    return ",".join(str(c) for c in w)


def _mult_json(mult) -> list:
    return [[_wkey(w), m] for w, m in sorted(mult.items())]


def _unit(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


# Textbook Weyl group orders, for the orbit-size divisibility check.
def weyl_group_order(spec: str) -> int:
    family, rank = spec[0], int(spec[1:])
    if family == "A":
        return math.factorial(rank + 1)
    if family in "BC":
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}[spec]


# ---------------------------------------------------------------------------
# weyl_chars: characters and orbits; never touches affine, jantzen, levicert.

# Box side per type for chi_char pools (coordinates 0..side).
CHI_BOX = {"A1": 6, "A2": 3, "A3": 2, "A4": 2, "B2": 3, "B3": 2, "B4": 1,
           "C2": 3, "C3": 2, "C4": 1, "D4": 1, "G2": 2, "F4": 1, "E6": 1}
# Beyond these dimensions a character takes more than half a second; the
# expensive cases enter only as the fixed anchors below.
CHI_DIM_CAP = {"F4": 20000, "E6": 1000}
CHI_ANCHORS = (("F4", (1, 1, 0, 0)), ("F4", (1, 1, 1, 1)),
               ("E7", (0, 0, 0, 0, 0, 0, 1)), ("E7", (1, 0, 0, 0, 0, 0, 0)))
ORBIT_BOX = {"A1": 2, "A2": 2, "A3": 1, "A4": 1, "B2": 2, "B3": 1, "B4": 1,
             "C2": 2, "C3": 1, "C4": 1, "D4": 1, "G2": 2, "F4": 1}
ORBIT_ANCHORS = (("E6", (1, 1, 1, 1, 1, 1)),)


def chi_op(spec, lam):
    import parahoric as P

    def fn(tr):
        rd = tr.call("rootdata.build_root_datum", P.build_root_datum, spec)
        ch = tr.call("charring.chi_char", P.chi_char, rd, lam)
        total = tr.call("charring.dim", P.dim, ch)
        wdim = tr.call("rootdata.weyl_dim", rd.weyl_dim, lam)
        tr.count("charring.chi_char.dominant_weights", len(ch.mult))
        tr.count("charring.chi_char.dim", total)

        def check():
            require(total == wdim, f"dim {total} != weyl_dim {wdim}")
            return {"mult": _mult_json(ch.mult), "dim": total}
        return check
    return Op(f"chi|{spec}|{_wkey(lam)}", fn)


def orbit_op(spec, lam):
    import parahoric as P

    def fn(tr):
        rd = tr.call("rootdata.build_root_datum", P.build_root_datum, spec)
        size = tr.call("rootdata.orbit_size", rd.orbit_size, lam)
        tr.count("rootdata.orbit_size.points", size)

        def check():
            order = weyl_group_order(spec)
            require(order % size == 0, f"orbit size {size} does not divide |W| = {order}")
            return {"orbit_size": size}
        return check
    return Op(f"orbit|{spec}|{_wkey(lam)}", fn)


class WeylChars:
    repeats = 3
    name = "weyl_chars"

    def __init__(self, seed: int):
        import parahoric as P
        self.seed = seed
        self.chi_pools = {}
        for spec, side in CHI_BOX.items():
            rd = P.build_root_datum(spec)
            cap = CHI_DIM_CAP.get(spec)
            pool = []
            for lam in itertools.product(range(side + 1), repeat=rd.n):
                d = rd.weyl_dim(lam)
                if (spec, lam) not in CHI_ANCHORS and (cap is None or d <= cap):
                    pool.append((d, lam))
            self.chi_pools[spec] = [lam for _, lam in sorted(pool)]
        self.orbit_pools = {}
        for spec, side in ORBIT_BOX.items():
            n = P.build_root_datum(spec).n
            pool = itertools.product(range(side + 1), repeat=n)
            self.orbit_pools[spec] = sorted(pool, key=lambda w: (sum(1 for c in w if c), w))
        # E6: multiples of fundamental weights (orbits up to 720 points).
        self.orbit_pools["E6"] = [tuple(c * x for x in _unit(6, i)) for c in (1, 2) for i in range(6)]

    def all_ops(self):
        for spec, pool in self.chi_pools.items():
            yield from (chi_op(spec, lam) for lam in pool)
        for spec, pool in self.orbit_pools.items():
            yield from (orbit_op(spec, lam) for lam in pool)
        yield from (chi_op(s, lam) for s, lam in CHI_ANCHORS)
        yield from (orbit_op(s, lam) for s, lam in ORBIT_ANCHORS)

    def inputs(self, k: int) -> list[Op]:
        rng = _rng(self.name, self.seed, k)
        ops = [chi_op(s, lam) for s, lam in CHI_ANCHORS]
        ops += [orbit_op(s, lam) for s, lam in ORBIT_ANCHORS]
        # Half of each chi pool, and every orbit: with fewer ops the seed's
        # draw moved op_ms_p50 and op_ms_p90 by about 6 % (IQR over seeds).
        for spec, pool in self.chi_pools.items():
            ops += [chi_op(spec, lam) for lam in stratified(rng, pool, 2)]
        for spec, pool in self.orbit_pools.items():
            ops += [orbit_op(spec, lam) for lam in pool]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# facet_certify: affine models and Levi certificates.

FACET_TYPES = ("B3", "C3", "D4", "G2", "A1xA1+T1", "B2xG2", "F4")
MODEL_ONLY_TYPES = ("E6",)
FACET_PRIMES = (3, 5, 7, 11)
UNITARY_N = (2, 3, 4, 5, 6)


def facet_op(spec, theta, p, refine):
    import parahoric as P
    from parahoric.affine import facet_barycenter

    def fn(tr):
        rd = tr.call("rootdata.build_root_datum", P.build_root_datum, spec)
        basis = tr.call("affine.extended_basis", P.extended_basis, rd)
        model = tr.call("affine.parahoric_model", P.parahoric_model, rd, theta, basis)
        q_model = tr.call("affine.classify_quotient", P.classify_quotient, model)
        q_deleted = tr.call("affine.quotient_by_deletion", P.quotient_by_deletion, rd, theta, basis)
        bary = tr.call("affine.facet_barycenter", facet_barycenter, rd, basis, theta)
        seq = tr.call("levicert.from_parahoric", P.from_parahoric, model)
        cert = None
        if p is not None:
            cert = tr.call("levicert.certify", P.certify, seq, p, refine)
            tr.count("levicert.certify.certified", cert.existence == "certified")
        tr.count("affine.parahoric_model.dim_R", model.dim_R)

        def check():
            require(str(q_model) == str(q_deleted),
                    f"quotient {q_model} != deletion {q_deleted}")
            require(len(model.quotient_roots) + model.dim_R == len(rd.roots),
                    "quotient roots + dim_R != number of roots")
            dims = list(seq.dims)
            require(sum(dims) == model.dim_R, f"layer dims {dims} do not sum to dim_R")
            return {
                "model": model.to_json_dict(),
                "barycenter": [str(x) for x in bary],
                "layer_dims": dims,
                "certificate": cert.to_json_dict() if cert is not None else None,
            }
        return check
    tag = "-" if p is None else f"{p}|{int(refine)}"
    return Op(f"facet|{spec}|{theta}|{tag}", fn)


def family_op(n, p):
    import parahoric as P

    def fn(tr):
        rd = tr.call("rootdata.build_root_datum", P.build_root_datum, f"C{n}")
        natural = tr.call("charring.chi_char", P.chi_char, rd, _unit(n, 0))
        lam2 = tr.call("charring.exterior_square", P.exterior_square, natural)
        expansion = tr.call("charring.chi_expand", P.chi_expand, lam2)
        report = tr.call("levicert.unitary_report", P.unitary_report, n, p)
        tr.count("charring.chi_expand.terms", len(expansion.coeffs))

        def check():
            w2, zero = _unit(n, 1), (0,) * n
            require(expansion.coeffs == {w2: 1, zero: 1}, f"Lambda^2 expansion {expansion.coeffs}")
            require(P.dim(lam2) == n * (2 * n - 1), "dim Lambda^2 != n(2n-1)")
            require(report["expansion"] == {_wkey(w2): 1, _wkey(zero): 1}, "report expansion")
            require(report["dim_lambda2"] == n * (2 * n - 1), "report dim_lambda2")
            require(report["dim_w0"] == 2 * n * n - n - 1, "report dim_w0")
            require(report["conjugacy_by_group_points"] == (n % p != 0), "conjugacy verdict")
            return {"expansion": _mult_json(expansion.coeffs), "report": report}
        return check
    return Op(f"unitary|{n}|{p}", fn)


class FacetCertify:
    repeats = 2  # three would take a run past 35 s on a loaded machine
    name = "facet_certify"

    def __init__(self, seed: int):
        import parahoric as P
        self.seed = seed
        self.facets = {}
        for spec in FACET_TYPES + MODEL_ONLY_TYPES:
            rd = P.build_root_datum(spec)
            facets = P.enumerate_facets(rd, P.extended_basis(rd))
            self.facets[spec] = sorted(facets, key=lambda t: (sum(map(len, t.theta)), t.theta))

    def all_ops(self):
        for spec in FACET_TYPES:
            for theta in self.facets[spec]:
                for p in FACET_PRIMES:
                    yield facet_op(spec, theta, p, False)
                    yield facet_op(spec, theta, p, True)
        for spec in MODEL_ONLY_TYPES:
            yield from (facet_op(spec, theta, None, False) for theta in self.facets[spec])
        yield from (family_op(n, p) for n in UNITARY_N for p in FACET_PRIMES)

    def inputs(self, k: int) -> list[Op]:
        rng = _rng(self.name, self.seed, k)
        ops = []
        for spec in FACET_TYPES:
            for theta in self.facets[spec]:
                ops.append(facet_op(spec, theta, rng.choice(FACET_PRIMES), rng.random() < 0.5))
        # Every E6 facet: a seeded third of them moved op_ms_p90 by 7 % (IQR
        # over seeds), as the heavier ones fill the gap below the F4 tail.
        for spec in MODEL_ONLY_TYPES:
            ops += [facet_op(spec, theta, None, False) for theta in self.facets[spec]]
        ops += [family_op(n, rng.choice(FACET_PRIMES)) for n in UNITARY_N]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# modular_ledger: Jantzen reports over boxes sharing one ledger per (type, p).

# (type, p, side) of the box [0, side)^rank.  Each box is issued in one fixed
# shuffled order, which decides the ops that find their weights already in
# the ledger; the seed interleaves the boxes and picks the sl3 primes.  The
# seed neither moves a box (a shift by one changes its cost by up to a third)
# nor reorders it (that moved op_ms_p50 by 14 % between seeds).
LEDGER_BOXES = (("A2", 5, 12), ("A2", 7, 15), ("B2", 5, 10), ("G2", 7, 7), ("A3", 5, 5))
SL3_PRIME_PAIRS = ((3, 5), (7, 11), (13, 17), (19, 23), (29, 31))


def in_lowest_alcove(rd, p, lam) -> bool:
    return all(
        sum(x * y for x, y in zip(lam, a.coroot)) + a.coroot_height <= p
        for a in rd.roots if a.height > 0
    )


def jantzen_op(rd, spec, p, lam, ledger):
    import parahoric as P

    def fn(tr):
        report = tr.call("jantzen.jantzen_report", P.jantzen_report, rd, p, lam, ledger)
        tr.count("jantzen.jantzen_report.terms", len(report.J.coeffs))

        def check():
            if in_lowest_alcove(rd, p, lam):
                require(not report.J.coeffs, f"J({lam}) != 0 in the lowest alcove")
            mu = report.radical_id
            if mu is not None:
                chi = P.chi_char(rd, lam).mult
                total = dict(report.chL.mult)
                for w, m in ledger.get(mu).char.mult.items():
                    total[w] = total.get(w, 0) + m
                require(total == chi, f"ch L{lam} + ch L{mu} != chi{lam}")
            payload = report.to_json_dict()
            payload["chL"] = _mult_json(report.chL.mult) if report.chL is not None else None
            return payload
        return check
    return Op(f"jantzen|{spec}|{p}|{_wkey(lam)}", fn)


def sl3_op(p):
    import parahoric as P

    def fn(tr):
        rd = tr.call("rootdata.build_root_datum", P.build_root_datum, "A2")
        ledger = P.SimpleLedger(rd, p)
        lam, mu, gamma = (p, 0), (p - 2, 1), (p - 3, 0)
        j_mu = tr.call("jantzen.jantzen_sum", P.jantzen_sum, rd, p, mu)
        j_lam = tr.call("jantzen.jantzen_sum", P.jantzen_sum, rd, p, lam)
        ext2 = tr.call("jantzen.ext2_chain", P.ext2_chain, rd, p, lam, mu, gamma, ledger)
        dual_l = tr.call("charring.dual", P.dual, ledger.get(lam).char)
        w_char = tr.call("charring.tensor", P.tensor, dual_l, ledger.get(gamma).char)
        dim_w = tr.call("charring.dim", P.dim, w_char)
        tr.count("jantzen.jantzen_sum.terms", len(j_mu.coeffs) + len(j_lam.coeffs))

        def check():
            require(j_mu.coeffs == {gamma: 1}, f"J(mu) = {j_mu.coeffs}")
            require(j_lam.coeffs == {mu: 1, gamma: -1}, f"J(lambda) = {j_lam.coeffs}")
            require(ext2 == 1, f"dim Ext^2 = {ext2}")
            require(dim_w == 3 * (p - 1) * (p - 2) // 2, f"dim W = {dim_w}")
            return {"ext2": ext2, "W": _mult_json(w_char.mult)}
        return check
    return Op(f"sl3|{p}", fn)


class ModularLedger:
    repeats = 3
    name = "modular_ledger"

    def __init__(self, seed: int):
        self.seed = seed
        self.ledgers = []

    def box_ops(self) -> list[list[Op]]:
        """Per box, a Jantzen op per weight in the box's fixed order, with a
        fresh ledger per box."""
        import parahoric as P
        boxes, self.ledgers = [], []
        for spec, p, side in LEDGER_BOXES:
            rd = P.build_root_datum(spec)
            ledger = P.SimpleLedger(rd, p)
            self.ledgers.append(ledger)
            box = list(itertools.product(range(side), repeat=rd.n))
            random.Random(f"{spec}:{p}").shuffle(box)
            boxes.append([jantzen_op(rd, spec, p, lam, ledger) for lam in box])
        return boxes

    def all_ops(self):
        return [op for box in self.box_ops() for op in box] + \
               [sl3_op(p) for pair in SL3_PRIME_PAIRS for p in pair]

    def inputs(self, k: int) -> list[Op]:
        rng = _rng(self.name, self.seed, k)
        queues = self.box_ops() + [[sl3_op(rng.choice(pair)) for pair in SL3_PRIME_PAIRS]]
        turns = [i for i, queue in enumerate(queues) for _ in queue]
        rng.shuffle(turns)
        pending = [iter(queue) for queue in queues]
        return [next(pending[i]) for i in turns]

    def end_pass(self, tr):
        for ledger in self.ledgers:
            tr.count("jantzen.ledger.entries", len(ledger.entries))
            tr.count("jantzen.ledger.resolved",
                     sum(1 for entry in ledger.entries.values() if entry.radical))


# ---------------------------------------------------------------------------
# cli: one subprocess per op against a private disk cache; a pass is a cold
# round (misses, writes) followed by a warm round (hits, reads).

CLI_ROOTSYS = ("A2", "B3", "C3", "D4", "G2", "F4", "E6", "A1xA1+T1")
CLI_FACETS = ("B2", "B3", "C3", "G2", "A1xA1+T1", "D4")
CLI_PARAHORIC = ("B3", "C3", "G2", "D4")
CLI_LEVI = ("B3", "C3", "G2", "B2xG2")
CLI_CHARACTER = ("A2", "A3", "B3", "C3", "G2", "D4")
CLI_JANTZEN_SIDE = 12
CLI_JANTZEN_PRIMES = (5, 7)
CLI_SL3_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CLI_UNITARY_PRIMES = (3, 5, 7, 11)
CLI_SUBCOMMANDS = ("rootsys", "facets", "parahoric", "levi", "character",
                   "jantzen", "verify-sl3", "verify-unitary")


class CliPools:
    """Argument pools for each subcommand."""

    def __init__(self):
        import parahoric as P
        self.thetas = {}
        for spec in sorted(set(CLI_PARAHORIC + CLI_LEVI)):
            self.thetas[spec] = [str(t) for t in P.enumerate_facets(P.build_root_datum(spec))]
        self.weights = {}
        for spec in CLI_CHARACTER:
            n = P.build_root_datum(spec).n
            box = itertools.product(range(CHI_BOX[spec] + 1), repeat=n)
            self.weights[spec] = [_wkey(lam) for lam in box]

    def all_args(self):
        yield from (["rootsys", "--type", t] for t in CLI_ROOTSYS)
        yield from (["facets", "--type", t] for t in CLI_FACETS)
        for t in CLI_PARAHORIC:
            yield from (["parahoric", "--type", t, "--theta", th] for th in self.thetas[t])
        for t in CLI_LEVI:
            for th in self.thetas[t]:
                for p in FACET_PRIMES:
                    yield ["levi", "--type", t, "--theta", th, "--p", str(p)]
                    yield ["levi", "--type", t, "--theta", th, "--p", str(p), "--rank-refinement"]
        for t in CLI_CHARACTER:
            yield from (["character", "--type", t, "--weight", w] for w in self.weights[t])
        for p in CLI_JANTZEN_PRIMES:
            for lam in itertools.product(range(CLI_JANTZEN_SIDE), repeat=2):
                yield ["jantzen", "--type", "A2", "--weight", _wkey(lam), "--p", str(p)]
        yield from (["verify-sl3", "--p", str(p)] for p in CLI_SL3_PRIMES)
        for n in UNITARY_N:
            yield from (["verify-unitary", "--n", str(n), "--p", str(p)] for p in CLI_UNITARY_PRIMES)


def cli_key(args: list[str]) -> str:
    return "cli|" + " ".join(a for a in args if a != "--no-cache")


class Cli:
    """Ops run ``python -m parahoric.cli <args> --json`` in a child process
    whose ``PARAHORIC_CACHE_DIR`` is a directory made for each pass inside
    ``scratch`` and removed after it."""

    name = "cli"
    # Each op is a fresh process of about 0.2 s, so a run already holds
    # 100 short samples; running every pass twice would double its length.
    repeats = 1

    def __init__(self, seed: int, src: str, scratch: str):
        self.seed = seed
        self.src = src
        self.scratch = scratch
        os.makedirs(scratch, exist_ok=True)
        self.pools = CliPools()
        self.cache_dir = None

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        # Outside a pass (``--version``) nothing is cached; never the user's cache.
        env["PARAHORIC_CACHE_DIR"] = self.cache_dir or self.scratch
        return env

    def op(self, args: list[str], phase: str, outputs: dict):
        sub = args[0] + (".nocache" if "--no-cache" in args else "")
        name = f"cli.{sub}.{phase}"
        argv = [sys.executable, "-m", "parahoric.cli", *args, "--json"]

        def run_cli():
            return subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, env=self.env())

        def fn(tr):
            proc = tr.call(name, run_cli)

            def check():
                require(proc.returncode == 0,
                        f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                result = json.loads(proc.stdout)["outputs"]
                if args[0].startswith("verify-"):
                    require(result["passed"] is True, f"{args[0]} did not pass")
                slot = " ".join(args)
                if phase == "cold":
                    outputs[slot] = result
                else:
                    require(outputs.get(slot) == result, "warm outputs differ from cold outputs")
                return result
            return check
        return Op(cli_key(args), fn)

    def draw_args(self, rng: random.Random) -> list[list[str]]:
        thetas, weights = self.pools.thetas, self.pools.weights
        levi_type = rng.choice(CLI_LEVI)
        par_type = rng.choice(CLI_PARAHORIC)
        char_type = rng.choice(CLI_CHARACTER)
        char_w = rng.choice(weights[char_type])
        jan_w = _wkey((rng.randrange(CLI_JANTZEN_SIDE), rng.randrange(CLI_JANTZEN_SIDE)))
        jan_p = str(rng.choice(CLI_JANTZEN_PRIMES))
        levi = ["levi", "--type", levi_type, "--theta", rng.choice(thetas[levi_type]),
                "--p", str(rng.choice(FACET_PRIMES))]
        if rng.random() < 0.5:
            levi.append("--rank-refinement")
        return [
            ["rootsys", "--type", rng.choice(CLI_ROOTSYS)],
            ["facets", "--type", rng.choice(CLI_FACETS)],
            ["parahoric", "--type", par_type, "--theta", rng.choice(thetas[par_type])],
            levi,
            ["character", "--type", char_type, "--weight", char_w],
            ["jantzen", "--type", "A2", "--weight", jan_w, "--p", jan_p],
            ["verify-sl3", "--p", str(rng.choice(CLI_SL3_PRIMES))],
            ["verify-unitary", "--n", str(rng.choice(UNITARY_N)),
             "--p", str(rng.choice(CLI_UNITARY_PRIMES))],
            ["character", "--type", char_type, "--weight", char_w, "--no-cache"],
            ["jantzen", "--type", "A2", "--weight", jan_w, "--p", jan_p, "--no-cache"],
        ]

    def all_ops(self):
        outputs: dict = {}
        return [self.op(a, "cold", outputs) for a in self.pools.all_args()]

    def inputs(self, k: int) -> list[Op]:
        rng = _rng(self.name, self.seed, k)
        args = self.draw_args(rng)
        rng.shuffle(args)
        outputs: dict = {}
        return [self.op(a, "cold", outputs) for a in args] + \
               [self.op(a, "warm", outputs) for a in args]

    def begin_pass(self):
        self.cache_dir = tempfile.mkdtemp(prefix="cli-cache-", dir=self.scratch)

    def end_pass(self, tr):
        # The warm round only reads, so this is the cache the cold round left.
        files = nbytes = 0
        for root, _, names in os.walk(self.cache_dir):
            for fname in names:
                files += 1
                nbytes += os.path.getsize(os.path.join(root, fname))
        tr.count("cli.cache.files", files)
        tr.count("cli.cache.bytes", nbytes)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = None
