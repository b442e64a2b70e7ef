"""zchannel benchmark: time to a certified result, end to end and per layer.

    python3 perfbench/run.py --workload exact_lp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh single processes: several set-up probes that
stop once inputs are built, then one worker that repeats the workload's
fixed batch for ``--seconds`` and checks every output against the values
recorded in ``expected.json``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics plus the tracing overhead.  Human-readable lines and
a JSON report (environment, quartiles, failures) come first; the last line
of standard output is the result object.  Exits 1, printing no result,
when a worker cannot start or dies.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170
CLEARED_ENV = ("ZCHANNEL_THREADS", "ZCHANNEL_STRETCH", "ZCHANNEL_LOG")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """A worker could not start, crashed or timed out."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start(worker_args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with the time from launch to "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        stdout=subprocess.PIPE,
        env=_worker_env(),
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != json.dumps({"ready": True}):
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen) -> dict | None:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1])["result"] if lines else None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(raw: dict) -> dict:
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "git_sha": sha,
        "git_dirty": None if status is None else status != "",
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One workload; returns (result object, report)."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    worker_args = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--tmp", str(tmp),
    ]
    proc = None
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup_s = _start([*worker_args, "--setup-only"])
            _finish(proc)
            setups.append(setup_s)
        proc, setup_s = _start(worker_args)
        setups.append(setup_s)
        raw = _finish(proc)
        if raw is None:
            raise BenchError("worker printed no result")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    plain = [p for p in raw["passes"] if not p["traced"]]
    wall = summary([p["wall_s"] for p in plain])
    cpu = summary([p["cpu_s"] for p in plain])
    setup = summary(setups)
    if trace:
        metrics = {
            key: {"value": statistics.median(layer[key] for layer in raw["layers"]),
                  "unit": layer_unit(key)}
            for key in raw["layers"][0]
        }
        traced_wall = statistics.median(p["wall_s"] for p in raw["passes"] if p["traced"])
        metrics["trace_overhead_s"] = {"value": traced_wall - wall["median"], "unit": "s"}
    else:
        values = {
            "wall_s": wall["median"],
            "cpu_s": cpu["median"],
            "setup_s": setup["median"],
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(raw),
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": {**setup, "samples": setups},
        "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        "fail_ratio": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
        "passes": raw["passes"],
    }
    return result, report


def print_human(result: dict, report: dict) -> None:
    name = report["workload"]
    for key, metric in result["metrics"].items():
        line = f"{name:<10} {key:<44} {metric['value']:.6g} {metric['unit']}"
        spread = report.get(key)
        if isinstance(spread, dict):
            line += f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})"
        print(line)
    print(
        f"{name:<10} {'fail_ratio':<44} {report['fail_ratio']:.6g} 1"
        f"  ({result['failed']}/{result['attempted']} ops failed)"
    )
    for failure in report["failures"]:
        print(f"{name:<10} FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, args.trace)
            print_human(result, report)
            print(json.dumps({"report": report}))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
