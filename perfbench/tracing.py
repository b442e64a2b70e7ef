"""Per-layer spans recorded from outside the package.

``traced(tracer)`` rebinds each function in ``TRACED`` to a wrapper in
every loaded ``zchannel`` module that holds it, so calls made through a
name imported with ``from .x import f`` are seen too, and puts every
original back on exit.  A wrapper records the call count and the self
time of its span: the span's duration minus the spans of wrapped calls
made inside it.  Counters come from what the wrapped calls already
return (certificate meta, search nodes, adversary patterns).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator


def _add_cert_meta(tracer: "Tracer", cert) -> None:
    meta = getattr(cert, "meta", None) or {}
    tracer.count("tau_lp.pivots", meta.get("pivots", 0))
    tracer.count("tau_lp.cg_rounds", meta.get("rounds", 0))
    tracer.count("tau_lp.active_columns", meta.get("active_columns", 0))


def _add_nodes(name: str) -> Callable:
    def hook(tracer: "Tracer", result) -> None:
        tracer.count(name, result.nodes)
    return hook


def _add_patterns(tracer: "Tracer", report) -> None:
    tracer.count("protocol.adversary_exhaustive.patterns", report.patterns)


def _add_accept(tracer: "Tracer", ok) -> None:
    tracer.count("two_stage.check_star.accepted", 1 if ok else 0)


# (module, function, hook reading counters from the return value)
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("tau_lp", "solve_tau", _add_cert_meta),
    ("tau_lp", "verify_certificate", None),
    ("rate_bounds", "rcb_lower_curve", None),
    ("rate_bounds", "tau_star", None),
    ("two_stage", "two_stage_rate", None),
    ("two_stage", "check_star", _add_accept),
    ("two_stage", "r2", None),
    ("words", "list_radius", None),
    ("search", "max_code", _add_nodes("search.max_code.nodes")),
    ("search", "best_list_code", _add_nodes("search.best_list_code.nodes")),
    ("search", "sample_code_radius", None),
    ("protocol", "validate_parameters", None),
    ("protocol", "adversary_exhaustive", _add_patterns),
    ("protocol", "decode", None),
    ("cli", "main", None),
)

# counters reported as they are; the accept count becomes a ratio
COUNTERS = (
    "tau_lp.pivots",
    "tau_lp.cg_rounds",
    "tau_lp.active_columns",
    "search.max_code.nodes",
    "search.best_list_code.nodes",
    "protocol.adversary_exhaustive.patterns",
)


class Tracer:
    """Span and counter totals for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        # one entry per open span: time covered by its wrapped children
        self._child_time: list[float] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self.clock()
            self._child_time.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.clock() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += span
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + span - children
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every per-layer value of this pass; layers that never ran read 0."""
        out: dict[str, float] = {}
        for module, fn, _ in TRACED:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        checks = self.calls.get("two_stage.check_star", 0)
        accepted = self.counters.get("two_stage.check_star.accepted", 0)
        out["two_stage.check_star.accept_ratio"] = accepted / checks if checks else 0.0
        return out


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextmanager
def traced(tracer: Tracer, package: str = "zchannel") -> Iterator[list[tuple]]:
    """Rebind every traced function of the loaded modules for the duration
    of the block.

    Yields the list of (module, attribute, original) bindings replaced.
    """
    modules = _package_modules(package)
    rebound: list[tuple] = []
    try:
        for module, fn, hook in TRACED:
            loaded = sys.modules.get(f"{package}.{module}")
            if loaded is None:
                continue  # never imported, so never called
            original = getattr(loaded, fn)
            wrapper = tracer.wrap(f"{module}.{fn}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        rebound.append((mod, attr, original))
        yield rebound
    finally:
        for mod, attr, original in reversed(rebound):
            setattr(mod, attr, original)
