"""Byte-exact CLI outputs, pinned by fixtures under ``golden/``.

Each case reruns one small command line in process and compares every
file it writes, except the manifest (which records wall time), with the
fixture copy.  The fixtures were recorded before the refactors they
guard; regenerate them only for a deliberate change of output, and say
so where the change is recorded.

With ``ZCHANNEL_STRETCH=1``, two larger runs are also held to the sha256
of one output file each, recorded the same way: the grid-2000 list-3
curve (about 5 s) and the grid-50 two-stage curve.  They reach many more
tau_star roots than the grid-50 fixtures.
"""

import hashlib
import os
from pathlib import Path

import pytest

from zchannel.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

RUNS = {
    "tau_table": ["tau-table", "--max-m", "8"],
    "rcb_curve": ["rcb-curve", "--list-size", "3", "--grid", "50"],
    "rcb_curve_l1": ["rcb-curve", "--list-size", "1", "--grid", "50"],
    "rcb_curve_l17": ["rcb-curve", "--list-size", "17", "--grid", "50"],
    "two_stage_curve": [
        "two-stage-curve", "--lup", "17", "--grid", "1", "--tau-max", "0.15",
    ],
    # tau = 0.30 scans most candidates before one passes; past tau = 1/4 the
    # reference curves are header-only
    "two_stage_curve_late": [
        "two-stage-curve", "--lup", "17", "--grid", "1", "--tau-max", "0.30",
    ],
    # taus 0.12, 0.24, 0.36 and 0.48 in one call: the walk carries each
    # pair's failed rungs and dead pairs across the zero-rate threshold
    "two_stage_curve_walk": [
        "two-stage-curve", "--lup", "17", "--grid", "4", "--tau-max", "0.48",
    ],
    "plotkin_point": ["plotkin-point"],
    "verify_remains": ["verify-remains", "--lup", "17"],
    "search_max_code": ["search", "max-code", "--n", "6", "--d", "4"],
    "search_best_list": [
        "search", "best-list", "--n", "6", "--w", "3", "--size", "4", "--list-size", "2",
    ],
    "simulate": [
        "simulate",
        "--stage1", str(DATA / "stage1_w3.txt"),
        "--stage2", f"1={DATA / 'stage2_list1.txt'}",
        "--stage2", f"2={DATA / 'stage2_list2.txt'}",
        "--t", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    assert main([*RUNS[name], "--out", str(tmp_path)]) == 0
    want = {p.name for p in (GOLDEN / name).iterdir()}
    got = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert got == want
    for file in sorted(want):
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


STRETCH_RUNS = {
    "rcb_lower_L3.csv": (
        ["rcb-curve", "--list-size", "3", "--grid", "2000"],
        "38092a7f0847c24b321debcc5db221152927054bb433573024c25d1679a72499",
    ),
    "two_stage.csv": (
        ["two-stage-curve", "--lup", "17", "--grid", "50"],
        "9fc5cef1749c0f2f950e66727ba97313cfc94c504233942793e4c381ab79e51a",
    ),
}


@pytest.mark.skipif(os.environ.get("ZCHANNEL_STRETCH") != "1", reason="stretch run")
@pytest.mark.parametrize("name", sorted(STRETCH_RUNS))
def test_large_run_matches_its_pinned_digest(name, tmp_path):
    argv, digest = STRETCH_RUNS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
