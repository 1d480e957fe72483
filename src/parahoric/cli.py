"""Command-line surface: reports, verification commands, persistent cache.

One binary with subcommands; every numeric field in a report is an exact
integer rendered in decimal.  ``--json`` wraps the command output in a
report envelope ``{command, inputs, outputs, tool_version, elapsed_ms}``.
Exit codes: 0 ok, 1 usage error, 2 verification mismatch, 3 internal error.
A reader that closes the output early, as ``parahoric facets --type E7 |
head -1`` does, ends the run quietly with the command's own exit code.
Each subcommand imports only the library layers it reads, inside its
``cmd_*`` function, so a process pays to load nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .rootdata import InvariantViolation, Weight, build_root_datum, parse_weight_key, weight_key

USAGE_ERROR = 1
VERIFY_MISMATCH = 2
INTERNAL_ERROR = 3


def default_cache_dir() -> str:
    env = os.environ.get("PARAHORIC_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores an empty or relative value
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "parahoric")


def _datum(args, spec: str):
    """The datum of ``spec``, its characters kept on disk unless --no-cache.
    Only the commands that compute characters of it call this."""
    from .charring import DiskCharacters

    rd = build_root_datum(spec)
    if not args.no_cache:
        rd.chi_cache = DiskCharacters(rd, default_cache_dir())
    return rd


def _weight(args, rd) -> Weight:
    """The --weight argument, checked to be a weight of ``rd``."""
    try:
        lam = parse_weight_key(args.weight)
    except ValueError:
        raise ValueError(f"bad --weight {args.weight!r}: expected comma-separated integers") from None
    rd.check_weights(lam)
    return lam


class Report(NamedTuple):
    """What a command reports: the envelope's outputs, the plain text lines,
    and the exit code.  The envelope's inputs come from :data:`COMMANDS`."""

    outputs: dict
    lines: list[str]
    code: int = 0


# ---------------------------------------------------------------------------
# Commands


def cmd_rootsys(args) -> Report:
    from .affine import extended_basis

    rd = build_root_datum(args.type)
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
    return Report(outputs, lines)


def cmd_facets(args) -> Report:
    from .affine import classify_quotient, enumerate_facets, parahoric_model

    rd = build_root_datum(args.type)
    thetas = enumerate_facets(rd)
    rows = []
    lines = [f"{len(thetas)} facets of {rd.spec_string}"]
    for theta in thetas:
        model = parahoric_model(rd, theta)
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
    return Report(outputs, lines)


def _facet_model(args):
    """The parahoric model of the datum --type at the facet --theta."""
    from .affine import extended_basis, parahoric_model, parse_facet_spec

    rd = build_root_datum(args.type)
    return parahoric_model(rd, parse_facet_spec(args.theta, extended_basis(rd)))


def cmd_parahoric(args) -> Report:
    model = _facet_model(args)
    outputs = model.to_json_dict()
    lines = [
        f"{model.datum.spec_string} facet {model.theta}: quotient {outputs['quotient_type']}, "
        f"dim_R {model.dim_R}, depth {list(model.depth)}, "
        f"psi_literal_agrees {model.psi_literal_agrees}",
    ]
    for layer in outputs["layers"]:
        keys = " ".join(weight_key(tuple(w)) for w in layer["weights"])
        lines.append(f"  layer {layer['j']}: dim {layer['dim']}  weights {keys}")
    return Report(outputs, lines)


def cmd_levi(args) -> Report:
    from .levicert import certify, from_parahoric

    model = _facet_model(args)
    rd, theta = model.datum, model.theta
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
    return Report(outputs, lines)


def cmd_character(args) -> Report:
    from .charring import character_to_json, chi_char, dim

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
    return Report(outputs, lines)


def cmd_jantzen(args) -> Report:
    from .jantzen import jantzen_report

    rd = _datum(args, args.type)
    lam = _weight(args, rd)
    report = jantzen_report(rd, args.p, lam)
    outputs = report.to_json_dict()
    lines = [
        f"J({weight_key(lam)}) at p={args.p} over {rd.spec_string}: {outputs['J']}",
        f"  radical: {outputs['radical']}  ch L dim: {outputs['chL_dim']}  "
        f"provenance: {outputs['provenance']}",
    ]
    return Report(outputs, lines)


def _verdict(outputs: dict, checks: dict, lines: list[str]) -> Report:
    """The report of a verify command: ``checks`` and whether all of them
    passed added to ``outputs``, PASS or FAIL after ``lines``, and exit code
    2 on a failed check."""
    passed = all(checks.values())
    outputs.update(checks=checks, passed=passed)
    return Report(outputs, [*lines, "PASS" if passed else "FAIL"], 0 if passed else VERIFY_MISMATCH)


def cmd_verify_sl3(args) -> Report:
    from .charring import character_to_json, dim, dual, tensor
    from .jantzen import SimpleLedger, ext2_chain, jantzen_sum

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
    }
    lines = [
        f"p={p}: lambda={weight_key(lam)} mu={weight_key(mu)} gamma={weight_key(gamma)}",
        f"  J(mu) = {outputs['J_mu']}  [{'ok' if checks['J_mu'] else 'MISMATCH'}]",
        f"  J(lambda) = {outputs['J_lambda']}  [{'ok' if checks['J_lambda'] else 'MISMATCH'}]",
        f"  dim Ext^2 = {ext2}  [{'ok' if checks['ext2'] else 'MISMATCH'}]",
        f"  dim W = {dim_w} (expected {expected_dim_w})  [{'ok' if checks['dim_W'] else 'MISMATCH'}]",
    ]
    return _verdict(outputs, checks, lines)


def cmd_verify_unitary(args) -> Report:
    from .levicert import unitary_report

    report = unitary_report(args.n, args.p)
    n = args.n
    w2_key = weight_key(tuple(1 if i == 1 else 0 for i in range(n)))
    zero_key = weight_key((0,) * n)
    checks = {
        "expansion": report["expansion"] == {w2_key: 1, zero_key: 1},
        "dim_lambda2": report["dim_lambda2"] == n * (2 * n - 1),
        "dim_w0": report["dim_w0"] == 2 * n * n - n - 1,
    }
    lines = [
        f"C{n} at p={args.p}: dim lambda^2 = {report['dim_lambda2']}, "
        f"expansion {report['expansion']}",
        f"  traceless part dim {report['dim_w0']}",
        f"  Levi factor exists: yes (cited); conjugate by group points: "
        f"{'yes' if report['conjugacy_by_group_points'] else 'no'} "
        f"(p {'divides' if n % args.p == 0 else 'does not divide'} n)",
    ]
    return _verdict(dict(report), checks, lines)


# ---------------------------------------------------------------------------
# The command table: parser, dispatch and envelope inputs


class Command(NamedTuple):
    func: Callable[[argparse.Namespace], Report]
    help: str
    options: tuple[str, ...]


#: Each subcommand, in help order, with its options in usage order.  Every
#: subcommand also takes --json and --no-cache.
COMMANDS = {
    "rootsys": Command(cmd_rootsys, "root counts, highest roots, marks", ("--type",)),
    "facets": Command(cmd_facets, "facet table with quotient types", ("--type",)),
    "parahoric": Command(cmd_parahoric, "reductive quotient and radical layers at a facet",
                         ("--type", "--theta")),
    "levi": Command(cmd_levi, "Levi-decomposition certificate at a facet",
                    ("--type", "--theta", "--p", "--rank-refinement")),
    "character": Command(cmd_character, "weight multiplicities of a chi-basis character",
                         ("--type", "--weight")),
    "jantzen": Command(cmd_jantzen, "Jantzen sum and derived simple character", ("--type", "--weight", "--p")),
    "verify-sl3": Command(cmd_verify_sl3, "check the rank-2 modular chain end to end", ("--p",)),
    "verify-unitary": Command(cmd_verify_unitary, "check the symplectic exterior-square example",
                              ("--n", "--p")),
}

#: The argparse keywords of each option.
OPTIONS = {
    "--type": {"required": True},
    "--theta": {"required": True},
    "--weight": {"required": True, "help": "comma-separated fundamental coordinates"},
    "--p": {"type": int, "required": True},
    "--n": {"type": int, "required": True},
    "--rank-refinement": {"action": "store_true"},
    "--json": {"action": "store_true", "help": "emit a JSON report envelope"},
    "--no-cache": {"action": "store_true", "help": "disable the disk cache"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage line and ``prog: error: message``, with exit
        status ``USAGE_ERROR`` instead of argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parahoric")
    parser.add_argument("--version", action="version", version=__version__)
    # not required, so that an unknown option is named when no command is given
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in (*command.options, "--json", "--no-cache"):
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    started = time.monotonic()
    try:
        report = command.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:
        # imported only here, so that no run that succeeds pays for it
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    try:
        if args.json:
            # the command's valued options; its flags stay out
            valued = [o[2:].replace("-", "_") for o in command.options if "action" not in OPTIONS[o]]
            envelope = {
                "command": args.command,
                "inputs": {dest: getattr(args, dest) for dest in valued},
                "outputs": report.outputs,
                "tool_version": __version__,
                "elapsed_ms": int((time.monotonic() - started) * 1000),
            }
            print(json.dumps(envelope, sort_keys=True))
        else:
            for line in report.lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, or the flush at exit raises again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
