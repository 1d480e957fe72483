"""Command-line surface: reports, verification commands, persistent cache.

One binary with subcommands; every numeric field in a report is an exact
integer rendered in decimal.  ``--json`` wraps the command output in a
report envelope ``{command, inputs, outputs, tool_version, elapsed_ms}``.
Exit codes: 0 ok, 1 usage error, 2 verification mismatch, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

from . import __version__
from .affine import (
    classify_quotient,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    parse_facet_spec,
)
from .charring import DiskCharacters, character_to_json, chi_char, dim, dual, tensor
from .jantzen import NotPrime, SimpleLedger, ext2_chain, jantzen_report, jantzen_sum
from .levicert import certify, from_parahoric, unitary_report
from .rootdata import InvariantViolation, Weight, build_root_datum, parse_weight_key, weight_key

USAGE_ERROR = 1
VERIFY_MISMATCH = 2
INTERNAL_ERROR = 3


def default_cache_dir() -> str:
    env = os.environ.get("PARAHORIC_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "parahoric")


def _datum(args, spec: str):
    """The datum of ``spec``, its characters kept on disk unless --no-cache."""
    rd = build_root_datum(spec)
    if not args.no_cache:
        rd.chi_cache = DiskCharacters(rd, default_cache_dir())
    return rd


def _weight(args, rd) -> Weight:
    """The --weight argument, checked to be a weight of ``rd``."""
    lam = parse_weight_key(args.weight)
    if len(lam) != rd.n:
        raise ValueError(f"weight {args.weight!r} has wrong length for {rd.spec_string}")
    return lam


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parahoric")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report envelope")
        p.add_argument("--no-cache", action="store_true", help="disable the disk cache")

    p = sub.add_parser("rootsys", help="root counts, highest roots, marks")
    p.add_argument("--type", required=True)
    common(p)
    p.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("facets", help="facet table with quotient types")
    p.add_argument("--type", required=True)
    common(p)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("parahoric", help="reductive quotient and radical layers at a facet")
    p.add_argument("--type", required=True)
    p.add_argument("--theta", required=True)
    common(p)
    p.set_defaults(func=cmd_parahoric)

    p = sub.add_parser("levi", help="Levi-decomposition certificate at a facet")
    p.add_argument("--type", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rank-refinement", action="store_true")
    common(p)
    p.set_defaults(func=cmd_levi)

    p = sub.add_parser("character", help="weight multiplicities of a chi-basis character")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True, help="comma-separated fundamental coordinates")
    common(p)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("jantzen", help="Jantzen sum and derived simple character")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True, help="comma-separated fundamental coordinates")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_jantzen)

    p = sub.add_parser("verify-sl3", help="check the rank-2 modular chain end to end")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify_sl3)

    p = sub.add_parser("verify-unitary", help="check the symplectic exterior-square example")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify_unitary)

    return parser


class Report(NamedTuple):
    """What a command reports: the envelope's inputs and outputs, the plain
    text lines, and the exit code."""

    inputs: dict
    outputs: dict
    lines: list[str]
    code: int = 0


# ---------------------------------------------------------------------------
# Commands


def cmd_rootsys(args) -> Report:
    rd = _datum(args, args.type)
    lines = [f"type {rd.spec_string}: rank {rd.n}, {len(rd.roots)} roots"]
    components = []
    if rd.num_components:
        basis = extended_basis(rd)
        for comp, cb in enumerate(basis.components):
            family, rank = rd.spec.components[comp]
            highest = rd.highest_root(comp)
            components.append(
                {
                    "family": family,
                    "rank": rank,
                    "num_roots": sum(1 for r in rd.roots if r.component == comp),
                    "highest_root": list(highest.coords),
                    "marks": list(cb.marks),
                    "ell": cb.ell,
                }
            )
            lines.append(
                f"  component {comp} ({family}{rank}): highest root "
                f"{weight_key(highest.coords)}, marks {list(cb.marks)}, ell {cb.ell}"
            )
    outputs = {
        "type": rd.spec_string,
        "rank": rd.n,
        "total_roots": len(rd.roots),
        "extra_torus_rank": rd.spec.extra_torus_rank,
        "components": components,
    }
    return Report({"type": args.type}, outputs, lines)


def cmd_facets(args) -> Report:
    rd = _datum(args, args.type)
    basis = extended_basis(rd)
    thetas = enumerate_facets(rd, basis)
    rows = []
    lines = [f"{len(thetas)} facets of {rd.spec_string}"]
    for theta in thetas:
        model = parahoric_model(rd, theta, basis)
        rows.append(
            {
                "theta": str(theta),
                "quotient_type": str(classify_quotient(model)),
                "dim_R": model.dim_R,
                "depth": list(model.depth),
            }
        )
        lines.append(
            f"  theta {str(theta):12s} quotient {rows[-1]['quotient_type']:10s} dim_R {model.dim_R}"
        )
    outputs = {"type": rd.spec_string, "count": len(rows), "facets": rows}
    return Report({"type": args.type}, outputs, lines)


def cmd_parahoric(args) -> Report:
    rd = _datum(args, args.type)
    basis = extended_basis(rd)
    theta = parse_facet_spec(args.theta, basis)
    model = parahoric_model(rd, theta, basis)
    outputs = model.to_json_dict()
    lines = [
        f"{rd.spec_string} facet {theta}: quotient {outputs['quotient_type']}, "
        f"dim_R {model.dim_R}, depth {list(model.depth)}, "
        f"psi_literal_agrees {model.psi_literal_agrees}",
    ]
    for layer in outputs["layers"]:
        keys = " ".join(weight_key(tuple(w)) for w in layer["weights"])
        lines.append(f"  layer {layer['j']}: dim {layer['dim']}  weights {keys}")
    return Report({"type": args.type, "theta": args.theta}, outputs, lines)


def cmd_levi(args) -> Report:
    rd = _datum(args, args.type)
    basis = extended_basis(rd)
    theta = parse_facet_spec(args.theta, basis)
    model = parahoric_model(rd, theta, basis)
    cert = certify(from_parahoric(model), args.p, args.rank_refinement)
    outputs = {
        "type": rd.spec_string,
        "theta": str(theta),
        "p": args.p,
        "rank_refinement": args.rank_refinement,
        "certificate": cert.to_json_dict(),
    }
    lines = [
        f"{rd.spec_string} facet {theta} at p={args.p}: "
        f"existence {cert.existence}, conjugacy {cert.conjugacy}"
    ]
    for rule in cert.rules:
        lines.append(f"  rule {rule['id']}: satisfied={rule['satisfied']}")
    for note in cert.notes:
        lines.append(f"  note: {note}")
    return Report({"type": args.type, "theta": args.theta, "p": args.p}, outputs, lines)


def cmd_character(args) -> Report:
    rd = _datum(args, args.type)
    lam = _weight(args, rd)
    ch = chi_char(rd, lam)
    total = dim(ch)
    outputs = {
        "type": rd.spec_string,
        "weight": weight_key(lam),
        "dim": total,
        "weyl_dim": rd.weyl_dim(lam),
        "support": character_to_json(ch.mult),
    }
    lines = [f"chi({weight_key(lam)}) over {rd.spec_string}: dim {total}"]
    for w, m in sorted(ch.mult.items()):
        lines.append(f"  {weight_key(w):12s} mult {m:4d}  orbit {rd.orbit_size(w)}")
    return Report({"type": args.type, "weight": args.weight}, outputs, lines)


def cmd_jantzen(args) -> Report:
    rd = _datum(args, args.type)
    lam = _weight(args, rd)
    report = jantzen_report(rd, args.p, lam)
    outputs = report.to_json_dict()
    lines = [
        f"J({weight_key(lam)}) at p={args.p} over {rd.spec_string}: {outputs['J']}",
        f"  radical: {outputs['radical']}  ch L dim: {outputs['chL_dim']}  "
        f"provenance: {outputs['provenance']}",
    ]
    return Report({"type": args.type, "weight": args.weight, "p": args.p}, outputs, lines)


def cmd_verify_sl3(args) -> Report:
    p = args.p
    if p < 3:
        raise ValueError("p must be an odd prime at least 3")
    rd = _datum(args, "A2")
    lam, mu, gamma = (p, 0), (p - 2, 1), (p - 3, 0)
    j_mu = jantzen_sum(rd, p, mu)
    j_lam = jantzen_sum(rd, p, lam)
    ledger = SimpleLedger(rd, p)
    ext2 = ext2_chain(rd, p, lam, mu, gamma, ledger)
    w_char = tensor(dual(ledger.entries[lam].char), ledger.entries[gamma].char)
    dim_w = dim(w_char)
    expected_dim_w = 3 * (p - 1) * (p - 2) // 2
    checks = {
        "J_mu": j_mu.coeffs == {gamma: 1},
        "J_lambda": j_lam.coeffs == {mu: 1, gamma: -1},
        "ext2": ext2 == 1,
        "dim_W": dim_w == expected_dim_w,
    }
    passed = all(checks.values())
    outputs = {
        "p": p,
        "lambda": weight_key(lam),
        "mu": weight_key(mu),
        "gamma": weight_key(gamma),
        "J_mu": character_to_json(j_mu.coeffs),
        "J_lambda": character_to_json(j_lam.coeffs),
        "ext2": ext2,
        "dim_W": dim_w,
        "expected_dim_W": expected_dim_w,
        "checks": checks,
        "passed": passed,
    }
    lines = [
        f"p={p}: lambda={weight_key(lam)} mu={weight_key(mu)} gamma={weight_key(gamma)}",
        f"  J(mu) = {outputs['J_mu']}  [{'ok' if checks['J_mu'] else 'MISMATCH'}]",
        f"  J(lambda) = {outputs['J_lambda']}  [{'ok' if checks['J_lambda'] else 'MISMATCH'}]",
        f"  dim Ext^2 = {ext2}  [{'ok' if checks['ext2'] else 'MISMATCH'}]",
        f"  dim W = {dim_w} (expected {expected_dim_w})  [{'ok' if checks['dim_W'] else 'MISMATCH'}]",
        "PASS" if passed else "FAIL",
    ]
    return Report({"p": p}, outputs, lines, 0 if passed else VERIFY_MISMATCH)


def cmd_verify_unitary(args) -> Report:
    report = unitary_report(args.n, args.p)
    n = args.n
    w2_key = weight_key(tuple(1 if i == 1 else 0 for i in range(n)))
    zero_key = weight_key((0,) * n)
    checks = {
        "expansion": report["expansion"] == {w2_key: 1, zero_key: 1},
        "dim_lambda2": report["dim_lambda2"] == n * (2 * n - 1),
        "dim_w0": report["dim_w0"] == 2 * n * n - n - 1,
    }
    passed = all(checks.values())
    outputs = dict(report)
    outputs["checks"] = checks
    outputs["passed"] = passed
    lines = [
        f"C{n} at p={args.p}: dim lambda^2 = {report['dim_lambda2']}, "
        f"expansion {report['expansion']}",
        f"  traceless part dim {report['dim_w0']}",
        f"  Levi factor exists: yes (cited); conjugate by group points: "
        f"{'yes' if report['conjugacy_by_group_points'] else 'no'} "
        f"(p {'divides' if n % args.p == 0 else 'does not divide'} n)",
        "PASS" if passed else "FAIL",
    ]
    return Report({"n": args.n, "p": args.p}, outputs, lines, 0 if passed else VERIFY_MISMATCH)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        report = args.func(args)
    except (ValueError, NotPrime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    if args.json:
        envelope = {
            "command": args.command,
            "inputs": report.inputs,
            "outputs": report.outputs,
            "tool_version": __version__,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in report.lines:
            print(line)
    return report.code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
