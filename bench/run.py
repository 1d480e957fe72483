"""Benchmark for parahoric: closed-loop workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 bench/run.py --workload weyl_chars --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload, one process each

One client issues ops back to back (closed loop) in whole passes while
another pass fits in ``--seconds`` (at least one pass and 100 op samples);
a pass is one seeded draw of inputs (see ``workloads.py``).  Each library
pass runs ``repeats`` times (two or three) over the same inputs and an op's
latency is the median of its executions.  Every op is checked, outside its
timed region, and its output digest is compared with ``expected.json``
(recorded from the seed commit by ``record.py``).  A wrong result, an exception, a
non-zero CLI exit or a timeout is a failed op; the run goes on.

Times in the end-to-end metrics are rescaled to a reference speed.  On a
shared machine other tenants can slow a core by up to half, for
milliseconds or for minutes.  So every 20 ms the runner times a fixed
pure-Python loop (``reference_loop``) and multiplies each op's wall time by
``REFERENCE_S`` over the loop's mean time just before and after the op.  A
run on a slowed core then reads like one on an idle core.  The loop runs
with the cyclic collector off, so the program's heap does not slow it.

Starting a process slows with the machine in a way that loop does not
follow (rescaling ``cli`` ops by it made their spread larger, not smaller).
So ``cli`` op times and ``setup_s`` are rescaled the same way against
starting a bare interpreter (``spawn_sample``, ``REFERENCE_SPAWN_S``).  The
end-to-end metrics computed from wall times are kept in the result file as
``wall_metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs every pass twice in one process, untraced and traced with spans around
every call into parahoric, in alternating order, and reports the per-layer
metrics (per pass) and the tracing overhead (median over passes of the
traced minus the untraced op time, rescaled as above).  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``; a result file with provenance (and the spans, when traced) goes
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

sys.path.insert(0, BENCH_DIR)
import workloads as W  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SETUP_PROBES = 11
# reference_loop() on an idle core of the machine the benchmark was tuned on
# (Intel Xeon, Python 3.11); rescaled times are wall times at that speed.
REFERENCE_S = 6e-4
# About the fastest spawn_sample() seen on that machine (2 cores, shared).
REFERENCE_SPAWN_S = 0.06
SPEED_EVERY_S = 0.02
MIN_OPS = 100  # so op_ms_p90 has at least ten samples above it
OVERRUN_S = 60  # a pass stops early once the phase is this far past --seconds

# name, unit, better, bound
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.0001),
)

LAYERS = ("rootdata", "affine", "charring", "jantzen", "levicert", "cli", "bench")
CLI_TIMED = tuple(f"cli.{sub}.{phase}.s" for sub in W.CLI_SUBCOMMANDS for phase in ("cold", "warm"))

# name, unit, better, the end-to-end metric and workload it should move.
PER_LAYER = (
    ("rootdata.build_root_datum.s", "s", "lower", "ops_per_s, op_ms_p90 on weyl_chars"),
    ("rootdata.build_root_datum.calls", "count", "lower", "ops_per_s, op_ms_p90 on weyl_chars"),
    ("rootdata.orbit_size.s", "s", "lower", "ops_per_s, op_ms_p90 on weyl_chars"),
    ("rootdata.orbit_size.points", "count", "lower", "ops_per_s, op_ms_p90 on weyl_chars"),
    ("rootdata.weyl_dim.s", "s", "lower", "ops_per_s, op_ms_p90 on weyl_chars"),
    ("charring.chi_char.s", "s", "lower", "ops_per_s on weyl_chars"),
    ("charring.chi_char.calls", "count", "lower", "ops_per_s on weyl_chars"),
    ("charring.chi_char.dominant_weights", "count", "lower", "ops_per_s on weyl_chars"),
    ("charring.chi_char.dim", "count", "lower", "ops_per_s on weyl_chars"),
    ("charring.dim.s", "s", "lower", "ops_per_s on weyl_chars; op_ms_p50 on modular_ledger"),
    ("charring.chi_expand.s", "s", "lower", "ops_per_s on facet_certify"),
    ("charring.chi_expand.terms", "count", "lower", "ops_per_s on facet_certify"),
    ("charring.tensor.s", "s", "lower", "op_ms_p90 on modular_ledger"),
    ("charring.dual.s", "s", "lower", "op_ms_p90 on modular_ledger"),
    ("charring.exterior_square.s", "s", "lower", "op_ms_p90 on facet_certify"),
    ("levicert.certify.s", "s", "lower", "ops_per_s on facet_certify"),
    ("levicert.certify.calls", "count", "lower", "ops_per_s on facet_certify"),
    ("levicert.certify.certified", "count", "higher", "ops_per_s on facet_certify"),
    ("levicert.unitary_report.s", "s", "lower", "op_ms_p90 on facet_certify"),
    ("levicert.from_parahoric.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("affine.extended_basis.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("affine.parahoric_model.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("affine.parahoric_model.calls", "count", "lower", "op_ms_p50 on facet_certify"),
    ("affine.parahoric_model.dim_R", "count", "lower", "op_ms_p50 on facet_certify"),
    ("affine.classify_quotient.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("affine.quotient_by_deletion.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("affine.facet_barycenter.s", "s", "lower", "op_ms_p50 on facet_certify"),
    ("jantzen.jantzen_sum.s", "s", "lower", "ops_per_s on modular_ledger"),
    ("jantzen.jantzen_sum.terms", "count", "lower", "ops_per_s on modular_ledger"),
    ("jantzen.jantzen_report.s", "s", "lower", "ops_per_s on modular_ledger"),
    ("jantzen.jantzen_report.terms", "count", "lower", "ops_per_s on modular_ledger"),
    ("jantzen.ext2_chain.s", "s", "lower", "ops_per_s on modular_ledger"),
    ("jantzen.ledger.entries", "count", "higher", "ops_per_s on modular_ledger"),
    ("jantzen.ledger.resolved", "count", "higher", "ops_per_s on modular_ledger"),
    ("cli.startup.s", "s", "lower", "op_ms_p50 on cli"),
    *((name, "s", "lower", "op_ms_p50 on cli") for name in CLI_TIMED),
    ("cli.character.nocache.cold.s", "s", "lower", "op_ms_p50 on cli"),
    ("cli.jantzen.nocache.cold.s", "s", "lower", "op_ms_p50 on cli"),
    ("cli.cache.files", "count", "lower", "op_ms_p50 on cli"),
    ("cli.cache.bytes", "bytes", "lower", "op_ms_p50 on cli"),
    ("bench.check.s", "s", "lower", "op_ms_p50 on cli"),
    *((f"{layer}.self_s", "s", "lower", "self time of the layer's spans") for layer in LAYERS),
    ("bench.trace_overhead.s", "s", "lower", "traced minus untraced op time per pass"),
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {W.OP_TIMEOUT_S} s")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_workload(name: str, seed: int):
    if name == "weyl_chars":
        return W.WeylChars(seed)
    if name == "facet_certify":
        return W.FacetCertify(seed)
    if name == "modular_ledger":
        return W.ModularLedger(seed)
    return W.Cli(seed, SRC, RESULTS)


def reference_loop() -> int:
    """Fixed work in the style of the library's inner loops: tuple
    arithmetic and dict updates."""
    w = (3, -1, 2, 0)
    seen: dict = {}
    for i in range(1500):
        w = (w[1], w[2] - w[0], w[3] + 1, w[0] - i % 7)
        seen[w] = seen.get(w, 0) + 1
    return len(seen)


def speed_sample() -> float:
    """Mean time of two reference loops, after one to warm the caches.  The
    cyclic collector is off meanwhile, so the sample does not pay for the
    program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_loop()
        start = time.perf_counter()
        reference_loop()
        reference_loop()
        return (time.perf_counter() - start) / 2
    finally:
        if enabled:
            gc.enable()


def spawn_sample() -> float:
    """Wall time to start and end a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=W.CLI_TIMEOUT_S)
    return time.perf_counter() - start


class Rescaler:
    """Rescales wall times to the reference speed, measured around them by
    ``sample``, which takes ``reference_s`` at that speed."""

    def __init__(self, sample=speed_sample, reference_s=REFERENCE_S):
        self.sample, self.reference_s = sample, reference_s
        self.before = sample()
        self.sampled_at = time.perf_counter()
        self.pending: list[float] = []
        self.done: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if time.perf_counter() - self.sampled_at >= SPEED_EVERY_S:
            self.flush()

    def flush(self) -> list[float]:
        after = self.sample()
        factor = self.reference_s / ((self.before + after) / 2)
        self.done += [t * factor for t in self.pending]
        self.pending = []
        self.before, self.sampled_at = after, time.perf_counter()
        return self.done


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # rescaled
        self.wall: list[float] = []
        self.per_op: list[tuple[str, float]] = []  # (key, rescaled ms)
        self.failures: list[str] = []
        self.keys = hashlib.sha256()


def run_pass(wl, k: int, tr, stats: Stats, expected: dict, deadline: float):
    """Issue pass ``k``'s ops one after another; return their keys, wall
    latencies and rescaled latencies (s)."""
    ops = wl.inputs(k)
    if hasattr(wl, "begin_pass"):
        wl.begin_pass()
    keys, latencies = [], []
    rescaler = Rescaler(spawn_sample, REFERENCE_SPAWN_S) if wl.name == "cli" else Rescaler()
    for op in ops:
        if time.perf_counter() > deadline:
            break
        op_id = stats.attempted
        stats.attempted += 1
        stats.keys.update(op.key.encode() + b"\n")
        keys.append(op.key)
        error = None
        tr.begin("bench.op", op_id)
        signal.setitimer(signal.ITIMER_REAL, W.OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            check = op.fn(tr)
        except Exception as exc:  # any failure of the op is recorded, not raised
            error = f"{type(exc).__name__}: {exc}"
        finally:
            latencies.append(time.perf_counter() - start)
            signal.setitimer(signal.ITIMER_REAL, 0)
            tr.unwind()
        rescaler.add(latencies[-1])
        if error is None:
            tr.begin("bench.check")
            try:
                got = digest(check())
                want = expected.get(op.key)
                if got != want:
                    error = f"digest {got} != stored {want}"
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            tr.end()
        if error is not None:
            stats.failed += 1
            if len(stats.failures) < 20:
                stats.failures.append(f"{op.key}: {error}")
            print(f"FAILED {op.key}: {error}", file=sys.stderr)
    if hasattr(wl, "end_pass"):
        wl.end_pass(tr)
    return list(zip(keys, latencies, rescaler.flush()))


def run_phase(wl, stats, expected, seconds: float, repeats: int) -> int:
    """Run whole untraced passes while one more fits in ``seconds`` (at
    least one pass and ``MIN_OPS`` op samples); return the number of passes.

    With ``repeats`` > 1 each pass runs that many times in a row over the
    same inputs (fresh state each time) and an op's latency is the median
    of its executions, which a burst of interference during one of
    them does not move.
    """
    start = time.perf_counter()
    deadline = start + seconds + OVERRUN_S
    tr = NullTracer()
    k = 0
    while time.perf_counter() < deadline:
        elapsed = time.perf_counter() - start
        if k > 0 and len(stats.latencies) >= MIN_OPS and elapsed * (k + 1) / k > seconds:
            break
        runs = [run_pass(wl, k, tr, stats, expected, deadline) for _ in range(repeats)]
        for executions in zip(*runs):
            scaled = statistics.median(e[2] for e in executions)
            stats.wall.append(statistics.median(e[1] for e in executions))
            stats.latencies.append(scaled)
            stats.per_op.append((executions[0][0], scaled * 1e3))
        k += 1
    return k


def run_traced(wl, tr, stats, expected, seconds: float) -> tuple[int, list[float]]:
    """Run each pass untraced and traced, the order alternating from pass
    to pass (A B, B A, ...), while another pair fits in ``seconds``.
    Returns (passes, per pass the traced minus the untraced op time, both
    rescaled)."""
    start = time.perf_counter()
    deadline = start + seconds + OVERRUN_S
    overheads = []
    k = 0
    while k == 0 or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        untraced = NullTracer()
        op_s = {}
        for t in ((untraced, tr) if k % 2 == 0 else (tr, untraced)):
            op_s[t] = sum(scaled for _, _, scaled in run_pass(wl, k, t, stats, expected, deadline))
        overheads.append(op_s[tr] - op_s[untraced])
        k += 1
    return k, overheads


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from process start until the workload's inputs are ready,
    and the same rescaled by a ``spawn_sample`` before and after each probe:
    like a CLI op, a probe starts a process, which a Python loop does not
    follow."""
    times, scaled = [], []
    before = spawn_sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        after = spawn_sample()
        scaled.append(times[-1] * REFERENCE_SPAWN_S / ((before + after) / 2))
        before = after
    return times, scaled


def peak_rss_mb(workload: str) -> float:
    """This process, or for ``cli`` the largest of its child processes."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(latencies: list[float], ok_ratio: float, setup: list[float], rss_mb: float) -> dict:
    lat = sorted(latencies)
    values = {
        "ops_per_s": len(lat) * ok_ratio / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def cli_startup(wl) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "parahoric.cli", "--version"],
                       capture_output=True, timeout=W.CLI_TIMEOUT_S, env=wl.env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(tr: Tracer, passes: int, overhead_s: float, startup_s: float | None) -> dict:
    """Tracer totals per pass; ``overhead_s`` is already per pass."""
    totals = tr.totals()
    values = {}
    for name, (calls, total, _) in totals.items():
        values[f"{name}.s"] = total
        values[f"{name}.calls"] = calls
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row[2] for n, row in totals.items() if n.split(".", 1)[0] == layer)
    values.update(tr.counters)
    out = {}
    for name, unit, _, _ in PER_LAYER:
        value = values.get(name, 0) / passes
        out[name] = {"value": value, "unit": unit}
    out["bench.trace_overhead.s"]["value"] = overhead_s
    out["cli.startup.s"]["value"] = startup_s or 0.0
    return out


def provenance(workload: str, seed: int, seconds: int, trace: int, stats: Stats) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_sha256": stats.keys.hexdigest(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def run_workload(args) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    wl = make_workload(args.workload, args.seed)
    stats = Stats()
    record = {}
    if args.trace:
        tr = Tracer()
        startup = cli_startup(wl) if args.workload == "cli" else None
        passes, overheads = run_traced(wl, tr, stats, expected, args.seconds)
        metrics = per_layer(tr, passes, statistics.median(overheads), startup)
        record["trace_overheads_s"] = overheads
        record["spans"] = tr.spans
        record["span_totals"] = {n: {"calls": c, "s": t, "self_s": s}
                                 for n, (c, t, s) in tr.totals().items()}
        record["moves"] = {name: moves for name, _, _, moves in PER_LAYER}
    else:
        passes = run_phase(wl, stats, expected, args.seconds, wl.repeats)
        rss_mb = peak_rss_mb(args.workload)  # before the setup probes add children
        setup_wall, setup = setup_probes(args.workload, args.seed)
        ok_ratio = 1 - stats.failed / stats.attempted
        metrics = end_to_end(stats.latencies, ok_ratio, setup, rss_mb)
        wall = end_to_end(stats.wall, ok_ratio, setup_wall, rss_mb)
        record["wall_metrics"] = {name: m["value"] for name, m in wall.items()}
        record["setup_probes_s"] = setup
        record["setup_probes_wall_s"] = setup_wall
        record["op_samples"] = len(stats.latencies)
        record["op_ms"] = stats.per_op
    failed_ratio = stats.failed / stats.attempted
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    record.update(provenance(args.workload, args.seed, args.seconds, args.trace, stats))
    record.update(passes=passes, failed_ratio=failed_ratio, failures=stats.failures, result=result)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed {args.seed}: {passes} passes, {stats.attempted} ops "
          f"(samples for percentiles: {len(stats.latencies)}), results in {os.path.relpath(path, ROOT)}")
    print(f"failed_ratio = {failed_ratio:.6g} ({stats.failed}/{stats.attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return result


def run_all(args) -> dict:
    """Each workload in a fresh process, so caches and peak RSS never carry over."""
    results = {}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(1)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs, print 'ready' and exit (setup timing)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parahoric", "__init__.py")):
        print(f"error: no parahoric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        make_workload(args.workload, args.seed).inputs(0)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
