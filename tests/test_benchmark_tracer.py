"""The benchmark's tracer (perfbench/tracing.py) names the package's
functions by string and reads each with getattr, so a function renamed or
deleted here crashes every traced benchmark run.  Each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, fn, _ in tracing.TRACED:
        loaded = importlib.import_module(f"zchannel.{module}")
        assert callable(getattr(loaded, fn, None)), f"zchannel.{module}.{fn}"
