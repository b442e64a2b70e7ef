"""Run one workload in this (fresh) process and report raw samples.

Protocol on standard output, one JSON object per line: ``{"ready": true}``
once set-up is done (interpreter, ``import zchannel``, fixtures, inputs
and the table of recorded values), then ``{"result": {...}}`` with every
pass's wall and CPU time.  Anything the package itself prints goes to
standard error.  With ``--setup-only`` the process exits after "ready".

Passes repeat until the next one would overrun ``--seconds`` (at least
one pass; with ``--trace 1`` at least one untraced and one traced,
alternating).  Only the traced passes have wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _emit(stream, obj: dict) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for CLI outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = sys.stdout
    sys.stdout = sys.stderr

    import numpy
    import zchannel  # noqa: F401  (import cost belongs to set-up)

    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, Path(args.tmp))
    expected = workloads.load_expected()
    _emit(out, {"ready": True})
    if args.setup_only:
        return 0

    passes: list[dict] = []
    layers: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    traced_next = False
    started = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced_next else None
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        if tracer is None:
            a, f = workloads.run_pass(ops, expected, failures)
        else:
            with tracing.traced(tracer):
                a, f = workloads.run_pass(ops, expected, failures)
        wall = time.perf_counter() - t0
        passes.append({"traced": traced_next, "wall_s": wall, "cpu_s": _cpu_now() - cpu0})
        if tracer is not None:
            layers.append(tracer.metrics())
        attempted += a
        failed += f
        if args.trace:
            traced_next = not traced_next
        kinds = {p["traced"] for p in passes}
        if len(kinds) == (2 if args.trace else 1):
            longest = max(p["wall_s"] for p in passes)
            if time.perf_counter() - started + longest > args.seconds:
                break

    _emit(
        out,
        {
            "result": {
                "passes": passes,
                "layers": layers,
                "attempted": attempted,
                "failed": failed,
                "failures": failures[:10],
                "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
