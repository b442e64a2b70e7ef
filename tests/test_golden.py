"""Byte-exact CLI outputs, pinned by fixtures under ``golden/``.

Each case reruns one small command line in process and compares every
file it writes, except the manifest (which records wall time), with the
fixture copy.  The fixtures were recorded before the refactors they
guard; regenerate them only for a deliberate change of output, and say
so where the change is recorded.
"""

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
