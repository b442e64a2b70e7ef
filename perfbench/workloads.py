"""The four workloads: their fixed batches and the checks on every output.

A workload is a list of ops.  An op is one checked call: a solve plus its
certificate check, one CLI run, one search, or one adversary message.  It
returns what it observed, and ``run_pass`` compares that with the value
recorded in ``expected.json``.  An op fails if it raises, if its own
invariant check fails, or if the observation differs from the record.

Every call goes through a module attribute at call time (``tau_lp.solve_tau``,
not a local alias), so the tracer's rebinding sees it.  Sizes are chosen
so one pass takes a few seconds at the seed commit; README.md explains
each choice.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
FIXTURES = HERE / "fixtures"

EXACT_LP_SIZES = tuple(range(2, 11))
RCB_LIST_SIZES = (1, 3, 17)
RCB_GRID = 100
TWO_STAGE_ARGS = ("--lup", "17", "--grid", "2", "--tau-max", "0.30")
TWO_STAGE_FILES = ("two_stage.csv", "gv.csv", "mrrw.csv")
MAX_CODE_ARGS = (9, 8)
BEST_LIST_ARGS = ((8, 3, 4, 1), (7, 3, 5, 2))
SAMPLE_ARGS = (32, 8, 0.5, 1, 1000)  # n, size, omega, list size, trials
RECORDED_SEEDS = tuple(range(32))
PROTOCOL_MESSAGES = 15
PROTOCOL_T = 2


class CheckFailed(Exception):
    """An output broke an invariant or differs from its recorded value."""


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    # False only where a seed may have no recorded value; the op then
    # relies on its own invariant checks
    required: bool = True


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def run_pass(ops: list[Op], expected: dict, failures: list[str]) -> tuple[int, int]:
    """Run every op once; returns (attempted, failed) and appends a line
    per failure."""
    attempted = failed = 0
    for op in ops:
        attempted += 1
        try:
            observed = op.run()
            want = expected.get(op.label)
            if want is None:
                if op.required:
                    raise CheckFailed("no recorded value")
            elif observed != want:
                raise CheckFailed(f"observed {observed}, recorded {want}")
        except Exception as exc:  # any failure of the program counts, never stops the pass
            failed += 1
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return attempted, failed


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_run(argv: list[str], out: Path) -> None:
    from zchannel import cli

    shutil.rmtree(out, ignore_errors=True)
    status = cli.main([*argv, "--out", str(out)])
    if status != 0:
        raise CheckFailed(f"exit status {status}")


def _cli_files(argv: list[str], out: Path, files: tuple[str, ...]) -> dict:
    _cli_run(argv, out)
    return {name: _sha256((out / name).read_bytes()) for name in files}


# ---------------------------------------------------------------------------
# exact_lp


def _exact_lp(seed: int, tmp: Path) -> list[Op]:
    from zchannel import tau_lp

    def solve(m: int) -> dict:
        cert = tau_lp.solve_tau(m)
        return {
            "tau": str(cert.tau),
            "certificate_ok": tau_lp.verify_certificate(cert).ok,
        }

    return [Op(f"solve_tau M={m}", lambda m=m: solve(m)) for m in EXACT_LP_SIZES]


# ---------------------------------------------------------------------------
# rcb_curve and two_stage


def _rcb_curve(seed: int, tmp: Path) -> list[Op]:
    def curve(L: int) -> dict:
        argv = ["rcb-curve", "--list-size", str(L), "--grid", str(RCB_GRID)]
        return _cli_files(argv, tmp / f"rcb{L}", (f"rcb_lower_L{L}.csv",))

    return [Op(f"rcb-curve L={L}", lambda L=L: curve(L)) for L in RCB_LIST_SIZES]


def _two_stage(seed: int, tmp: Path) -> list[Op]:
    argv = ["two-stage-curve", *TWO_STAGE_ARGS]
    return [Op("two-stage-curve", lambda: _cli_files(argv, tmp / "two_stage", TWO_STAGE_FILES))]


# ---------------------------------------------------------------------------
# codes


def _code_result(result) -> dict:
    return {
        "objective": result.objective,
        "optimal": result.optimal,
        "words": [str(w) for w in result.code],
    }


def sample_label(seed: int) -> str:
    return f"sample_code_radius seed={seed}"


def _protocol_instance():
    """Stage 1: all 15 weight-2 words of length 6, budget t=2.  Grade L of
    stage 2: the first L of 15 disjoint-support weight-3 words of length 45."""
    from zchannel.protocol import ProtocolParams
    from zchannel.words import Code

    stage1 = [
        "".join("1" if k in (i, j) else "0" for k in range(6))
        for i in range(6)
        for j in range(i + 1, 6)
    ]
    stage2 = ["0" * (3 * k) + "111" + "0" * (42 - 3 * k) for k in range(15)]
    family = {L: Code.from_strings(stage2[:L]) for L in range(1, len(stage2) + 1)}
    return ProtocolParams(Code.from_strings(stage1), family, PROTOCOL_T)


def _codes(seed: int, tmp: Path) -> list[Op]:
    from zchannel import protocol, search

    def sample() -> dict:
        first = search.sample_code_radius(*SAMPLE_ARGS, seed)
        again = search.sample_code_radius(*SAMPLE_ARGS, seed)
        if first != again:
            raise CheckFailed("the same seed gave different draws")
        if len(first) != SAMPLE_ARGS[-1] or not all(0 <= v <= 1 for v in first):
            raise CheckFailed("expected one value in [0, 1] per trial")
        return {"sha256": _sha256("\n".join(map(str, first)).encode())}

    def simulate() -> dict:
        out = tmp / "simulate"
        _cli_run(
            [
                "simulate",
                "--stage1", str(FIXTURES / "stage1_w3.txt"),
                "--stage2", f"1={FIXTURES / 'stage2_list1.txt'}",
                "--stage2", f"2={FIXTURES / 'stage2_list2.txt'}",
                "--t", "2",
            ],
            out,
        )
        verdict = json.loads((out / "verdict.json").read_text())
        return {
            "result": verdict["result"],
            "passed": [run["passed"] for run in verdict["runs"]],
            "digests": [run["digest"] for run in verdict["runs"]],
        }

    params = _protocol_instance()

    def adversary(m: int) -> dict:
        report = protocol.adversary_exhaustive(params, m)
        return {"passed": report.passed, "digest": report.digest}

    ops = [Op(f"max_code{MAX_CODE_ARGS}", lambda: _code_result(search.max_code(*MAX_CODE_ARGS)))]
    ops += [
        Op(f"best_list_code{args}", lambda args=args: _code_result(search.best_list_code(*args)))
        for args in BEST_LIST_ARGS
    ]
    ops.append(Op(sample_label(seed), sample, required=False))
    ops.append(Op("simulate fixture", simulate))
    ops.append(
        Op("validate_parameters", lambda: {"all_ok": protocol.validate_parameters(params).all_ok})
    )
    ops += [
        Op(f"adversary_exhaustive m={m}", lambda m=m: adversary(m))
        for m in range(PROTOCOL_MESSAGES)
    ]
    return ops


_PASSES = {
    "exact_lp": _exact_lp,
    "rcb_curve": _rcb_curve,
    "two_stage": _two_stage,
    "codes": _codes,
}
NAMES = tuple(_PASSES)


def build(name: str, seed: int, tmp: Path) -> list[Op]:
    """The ops of one pass of workload ``name``; CLI outputs go under ``tmp``."""
    return _PASSES[name](seed, tmp)
