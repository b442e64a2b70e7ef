"""Tests of the benchmark itself: output checks, self time, rebinding.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(name: str, labels: set[str], tmp_path: Path, seed: int = 0) -> list:
    ops = [op for op in workloads.build(name, seed, tmp_path) if op.label in labels]
    assert {op.label for op in ops} == labels
    return ops


def test_wrong_fraction_is_a_failed_op(tmp_path):
    ops = _ops("exact_lp", {"solve_tau M=2", "solve_tau M=3"}, tmp_path)
    expected = workloads.load_expected()
    assert workloads.run_pass(ops, expected, []) == (2, 0)
    wrong = dict(expected)
    wrong["solve_tau M=3"] = {"tau": "1/3", "certificate_ok": True}
    failures: list[str] = []
    assert workloads.run_pass(ops, wrong, failures) == (2, 1)
    assert failures[0].startswith("solve_tau M=3: CheckFailed")


def test_corrupted_csv_is_a_failed_op(tmp_path, monkeypatch):
    from zchannel import cli

    ops = _ops("rcb_curve", {"rcb-curve L=1"}, tmp_path)
    expected = workloads.load_expected()
    assert workloads.run_pass(ops, expected, []) == (1, 0)

    real_main = cli.main

    def corrupting_main(argv):
        status = real_main(argv)
        for csv in Path(argv[argv.index("--out") + 1]).glob("*.csv"):
            data = bytearray(csv.read_bytes())
            data[-2] ^= 1  # last digit of the last rate
            csv.write_bytes(bytes(data))
        return status

    monkeypatch.setattr(cli, "main", corrupting_main)
    failures: list[str] = []
    assert workloads.run_pass(ops, expected, failures) == (1, 1)
    assert "rcb_lower_L1.csv" in failures[0]


def test_raising_or_unrecorded_op_fails():
    def boom():
        raise ValueError("bad input")

    ops = [workloads.Op("raises", boom), workloads.Op("unrecorded", dict)]
    failures: list[str] = []
    assert workloads.run_pass(ops, {}, failures) == (2, 2)
    assert failures == [
        "raises: ValueError: bad input",
        "unrecorded: CheckFailed: no recorded value",
    ]


def test_unrecorded_seed_checks_invariants(tmp_path, monkeypatch):
    from zchannel import search

    seed = 10**6
    assert seed not in workloads.RECORDED_SEEDS
    ops = _ops("codes", {workloads.sample_label(seed)}, tmp_path, seed)
    expected = workloads.load_expected()
    assert workloads.run_pass(ops, expected, []) == (1, 0)

    real = search.sample_code_radius
    monkeypatch.setattr(search, "sample_code_radius", lambda *a: [v + 1 for v in real(*a)])
    assert workloads.run_pass(ops, expected, []) == (1, 1)
    draws = iter(range(10))
    monkeypatch.setattr(search, "sample_code_radius", lambda *a: real(*a[:-1], next(draws)))
    assert workloads.run_pass(ops, expected, []) == (1, 1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2

    def failing_leaf():
        clock.now += 7
        raise KeyError("x")

    leaf_w = tracer.wrap("leaf", leaf)
    failing_w = tracer.wrap("leaf", failing_leaf)

    def mid():
        clock.now += 1
        leaf_w()
        clock.now += 3
        with pytest.raises(KeyError):
            failing_w()

    mid_w = tracer.wrap("mid", mid)

    def top():
        clock.now += 5
        mid_w()
        leaf_w()
        clock.now += 1

    tracer.wrap("top", top)()
    # leaf spans 2 + 7 + 2; mid spans 1 + 2 + 3 + 7; top spans 5 + 13 + 2 + 1
    assert tracer.calls == {"leaf": 3, "mid": 1, "top": 1}
    assert tracer.self_s == {"leaf": 11, "mid": 4, "top": 6}
    assert tracer._child_time == []


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".")[0] == "zchannel"
        for attr, value in vars(mod).items()
    }


def test_traced_rebinds_everywhere_and_restores():
    import zchannel
    from zchannel import cli, rate_bounds, tau_lp, two_stage

    solve_tau, tau_star = tau_lp.solve_tau, rate_bounds.tau_star
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer) as rebound:
            for mod in (tau_lp, cli, zchannel):
                assert mod.solve_tau is not solve_tau
                assert mod.solve_tau.__wrapped__ is solve_tau
            assert two_stage.tau_star is rate_bounds.tau_star is not tau_star
            names = {(mod.__name__, attr) for mod, attr, _ in rebound}
            assert {("zchannel.cli", "main"), ("zchannel.protocol", "list_radius")} <= names
            cli.solve_tau(5)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.metrics()
    assert metrics["tau_lp.solve_tau.calls"] == 1
    assert metrics["tau_lp.verify_certificate.calls"] == 1
    assert metrics["tau_lp.pivots"] == 11


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    layer_names = [*tracing.Tracer().metrics(), "trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == bench_run.layer_unit(m["name"]) for m in spec["per_layer"])
