"""One pass of every benchmark workload (perfbench/workloads.py), in
process, against the values recorded in perfbench/expected.json.  The
benchmark rejects a change whose ops fail, so a change that moves a
recorded output shows here first, without a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["exact_lp", "rcb_curve", "two_stage", "codes"])
def test_one_pass_of_each_workload_fails_no_op(workloads, name, tmp_path):
    assert name in workloads.NAMES
    failures = []
    ops = workloads.build(name, 0, tmp_path)
    attempted, failed = workloads.run_pass(ops, workloads.load_expected(), failures)
    assert attempted == len(ops) > 0
    assert failed == 0, failures
