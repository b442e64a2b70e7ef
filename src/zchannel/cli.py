"""Command-line front end: table and curve exports, validations, search
and simulation drivers.

Every run writes ``manifest.json`` into the output directory recording
the subcommand, parameters, outputs, and wall time, so result files can
always be traced to the invocation that made them.  CSV output is fixed
9-decimal format with newline endings; reruns are byte-identical.

Exit codes: 0 on success, 1 for usage errors (any ``ValueError``, which
covers bad arguments, out-of-range sizes and malformed code files), 2 when
a requested computation ends unresolved (cap hit, failed validation,
refused budget).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .protocol import (
    BudgetExceededError,
    ProtocolParams,
    adversary_exhaustive,
    read_code_file,
    validate_parameters,
    write_code_file,
)
from .rate_bounds import gv_rate, mrrw_rate, rcb_lower_curve
from .search import MAX_NODES, best_list_code, max_code
from .tau_lp import UnresolvedError, solve_tau
from .two_stage import TwoStageConfig, plotkin_point, two_stage_curve, verify_remains


@dataclass
class RunManifest:
    subcommand: str
    parameters: dict
    version: str = __version__
    wall_seconds: float = 0.0
    outputs: list[str] = field(default_factory=list)
    status: str = "ok"
    error: str | None = None
    # tau-table only: each size's solver counters and time, keyed by M
    solver: dict[str, dict] | None = None
    # two-stage-curve only: one two_stage.CurvePoint per tau
    two_stage: list[dict] | None = None
    # rcb-curve only: lanes of the omega-grid root, replayed and uncertified,
    # the polish's probes, those bisected (every probe with a root) and
    # those left uncertified, and the bisection's loop rounds
    rcb_curve: dict[str, int] | None = None

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "manifest.json", self.__dict__, sort_keys=True)


def _write_json(path: Path, doc, *, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def _csv_curve(path: Path, taus, rates, manifest: RunManifest) -> None:
    with path.open("w", newline="") as fh:
        fh.write("tau,rate\n")
        for t, r in zip(taus, rates):
            fh.write(f"{t:.9f},{r:.9f}\n")
    manifest.outputs.append(path.name)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tau_table(args, out: Path, manifest: RunManifest) -> int:
    if not 2 <= args.max_m <= 18:
        raise ValueError("--max-m must lie in 2..18")
    rows = []
    unresolved = []
    manifest.solver = {}
    for m in range(2, args.max_m + 1):
        try:
            cert = solve_tau(m)
        except UnresolvedError as exc:
            # no certificate, so no row: the size is reported, never filled in
            unresolved.append(f"M={m}: {exc}")
            continue
        rows.append((m, cert.tau.numerator, cert.tau.denominator))
        manifest.solver[str(m)] = cert.meta
        cert_path = out / f"certificate_{m}.json"
        _write_json(cert_path, cert.to_json_dict(), sort_keys=True)
        manifest.outputs.append(cert_path.name)
    csv_path = out / "tau_table.csv"
    with csv_path.open("w", newline="") as fh:
        fh.write("M,tau_num,tau_den\n")
        for m, num, den in rows:
            fh.write(f"{m},{num},{den}\n")
    manifest.outputs.append(csv_path.name)
    if unresolved:
        manifest.status = "unresolved"
        manifest.error = "; ".join(unresolved)
        return 2
    return 0


def _cmd_rcb_curve(args, out: Path, manifest: RunManifest) -> int:
    curve = rcb_lower_curve(
        args.list_size, r_points=args.grid, omega_points=args.grid
    )
    manifest.rcb_curve = curve.counts
    _csv_curve(out / f"rcb_lower_L{args.list_size}.csv", curve.taus, curve.rates, manifest)
    return 0


def _cmd_two_stage_curve(args, out: Path, manifest: RunManifest) -> int:
    if args.grid < 1:
        raise ValueError("--grid must be at least 1")
    cfg = TwoStageConfig(l_up=args.lup)
    taus = [args.tau_max * k / args.grid for k in range(1, args.grid + 1)]
    curve = two_stage_curve(taus, cfg)
    manifest.two_stage = [asdict(p) for p in curve]
    _csv_curve(out / "two_stage.csv", taus, [p.rate for p in curve], manifest)
    # both reference curves end at tau = 1/4; past it they get no rows
    gv_taus = [t for t in taus if t <= 0.25]
    _csv_curve(out / "gv.csv", gv_taus, [gv_rate(t) for t in gv_taus], manifest)
    _csv_curve(out / "mrrw.csv", gv_taus, [mrrw_rate(t) for t in gv_taus], manifest)
    return 0


def _cmd_plotkin_point(args, out: Path, manifest: RunManifest) -> int:
    point = plotkin_point()
    path = out / "plotkin_point.json"
    _write_json(path, point.to_json_dict(), sort_keys=True)
    manifest.outputs.append(path.name)
    return 0


def _cmd_verify_remains(args, out: Path, manifest: RunManifest) -> int:
    report = verify_remains(args.lup)
    doc = {
        "omega_low": str(report.omega_low),
        "omega_high": str(report.omega_high),
        "rows": [
            {
                "L": r.L,
                "value": str(r.lhs),
                "needed_low": str(r.rhs_low),
                "needed_high": str(r.rhs_high),
                "ok": r.ok,
                "equality": r.equality,
            }
            for r in report.rows
        ],
        "tail_ok": report.tail_ok,
        "tail_range": list(report.tail_range),
        "all_ok": report.all_ok,
    }
    path = out / "remains.json"
    _write_json(path, doc)
    manifest.outputs.append(path.name)
    if not report.all_ok:
        manifest.status = "failed-validation"
        return 2
    return 0


def _cmd_search(args, out: Path, manifest: RunManifest) -> int:
    if args.mode == "max-code":
        result = max_code(args.n, args.d, max_nodes=args.max_nodes)
    else:
        if args.w is None or args.size is None or args.list_size is None:
            raise ValueError("best-list needs --w, --size and --list-size")
        result = best_list_code(args.n, args.w, args.size, args.list_size,
                                max_nodes=args.max_nodes)
    code_path = out / "code.txt"
    write_code_file(code_path, result.code)
    manifest.outputs.append(code_path.name)
    doc = {
        "mode": args.mode,
        "objective": result.objective,
        "optimal": result.optimal,
        "nodes": result.nodes,
        "note": result.note,
        "words": [str(w) for w in result.code],
    }
    path = out / "search.json"
    _write_json(path, doc)
    manifest.outputs.append(path.name)
    if not result.optimal:
        # the code is written, but nothing certifies it as the optimum
        manifest.status = "unresolved"
        manifest.error = result.note
        return 2
    return 0


def _parse_stage2(items: list[str]) -> dict[int, Path]:
    family = {}
    for item in items:
        grade, _, file = item.partition("=")
        if not file or not grade.isdigit() or int(grade) < 1:
            raise ValueError(
                f"--stage2 takes GRADE=FILE with a positive GRADE, got {item!r}"
            )
        if int(grade) in family:
            raise ValueError(f"--stage2 gives grade {int(grade)} twice")
        family[int(grade)] = Path(file)
    return family


def _cmd_simulate(args, out: Path, manifest: RunManifest) -> int:
    stage1 = read_code_file(args.stage1)
    family = {
        grade: read_code_file(path)
        for grade, path in _parse_stage2(args.stage2).items()
    }
    params = ProtocolParams(stage1, family, args.t)
    validation = validate_parameters(params)
    messages = (
        [args.message] if args.message is not None else list(range(params.message_count))
    )
    verdict: dict[str, object] = {
        "t": args.t,
        "messages": messages,
        "valid": validation.all_ok,
        "validation": [asdict(r) for r in validation.rows],
    }
    status = 0
    if not validation.all_ok:
        verdict["result"] = "invalid-parameters"
        status = 2
    else:
        runs = []
        all_passed = True
        try:
            for m in messages:
                rep = adversary_exhaustive(params, m)
                all_passed &= rep.passed
                runs.append(
                    {
                        "message": m,
                        "passed": rep.passed,
                        "patterns": rep.patterns,
                        "digest": rep.digest,
                        "failures": [t.to_json_dict() for t in rep.failures],
                    }
                )
        except BudgetExceededError as exc:
            verdict["result"] = "budget-exceeded"
            verdict["detail"] = str(exc)
            status = 2
        else:
            verdict["runs"] = runs
            verdict["result"] = "pass" if all_passed else "fail"
            status = 0 if all_passed else 2
    path = out / "verdict.json"
    _write_json(path, verdict)
    manifest.outputs.append(path.name)
    if status:
        manifest.status = str(verdict["result"])
    return status


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zchannel",
        description="codes and bounds for the channel that only flips 1 to 0",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)
        return p

    p = command("tau-table", _cmd_tau_table, "solved correctable fractions with certificates")
    p.add_argument("--max-m", type=int, required=True)

    p = command("rcb-curve", _cmd_rcb_curve, "random-coding achievability curve")
    p.add_argument("--list-size", type=int, required=True)
    p.add_argument("--grid", type=int, default=2000)

    p = command("two-stage-curve", _cmd_two_stage_curve,
                "feedback rate curve with reference curves")
    p.add_argument("--lup", type=int, default=17)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--tau-max", type=float, default=0.5)

    command("plotkin-point", _cmd_plotkin_point, "zero-rate threshold point")

    p = command("verify-remains", _cmd_verify_remains,
                "exact certification of the threshold inequalities")
    p.add_argument("--lup", type=int, default=17)

    p = command("search", _cmd_search, "exact code searches with a node cap")
    p.add_argument("mode", choices=["max-code", "best-list"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="even distance floor (max-code)")
    p.add_argument("--w", type=int, help="constant weight (best-list)")
    p.add_argument("--size", type=int, help="code size (best-list)")
    p.add_argument("--list-size", type=int, help="list size (best-list)")
    p.add_argument("--max-nodes", type=int, default=MAX_NODES, help="search node cap")

    p = command("simulate", _cmd_simulate, "run the two-stage protocol against the adversary")
    p.add_argument("--stage1", required=True, help="stage-1 code file")
    p.add_argument("--stage2", action="append", default=[], metavar="GRADE=FILE",
                   help="stage-2 code for one list size (repeatable)")
    p.add_argument("--t", type=int, required=True, help="adversary budget")
    p.add_argument("--message", type=int, help="single message (default: all)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage problems; we reserve 2 for unresolved work
        return 1 if exc.code else 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = {
        k: v for k, v in vars(args).items() if k not in ("fn", "subcommand", "out")
    }
    manifest = RunManifest(args.subcommand, params)
    started = time.monotonic()
    try:
        status = args.fn(args, out, manifest)
    except (ValueError, UnresolvedError, BudgetExceededError) as exc:
        # ValueError (ProtocolError included) is bad input; the rest is
        # work that could not be finished
        usage = isinstance(exc, ValueError)
        print(f"error: {exc}", file=sys.stderr)
        manifest.status = "usage-error" if usage else "unresolved"
        manifest.error = str(exc)
        status = 1 if usage else 2
    manifest.wall_seconds = round(time.monotonic() - started, 3)
    manifest.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
