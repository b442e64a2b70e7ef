"""End-to-end runs of the command line driver, in process.

Each test calls ``main`` with a temp output directory and inspects the
files it leaves behind: the manifest must always appear, CSV output must
be byte-stable across reruns, and exit codes must follow the 0/1/2
convention (success / usage error / unresolved or failed work).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from zchannel import cli, tau_lp, two_stage
from zchannel.cli import main
from zchannel.tau_lp import TauCertificate, UnresolvedError, verify_certificate

DATA = Path(__file__).parent / "data"


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_tau_table_small(tmp_path):
    out = tmp_path / "run"
    assert main(["tau-table", "--max-m", "5", "--out", str(out)]) == 0
    lines = (out / "tau_table.csv").read_text().splitlines()
    assert lines[0] == "M,tau_num,tau_den"
    assert lines[1:] == ["2,1,1", "3,1,2", "4,1,2", "5,2,5"]
    for m in range(2, 6):
        cert = TauCertificate.from_json_dict(
            json.loads((out / f"certificate_{m}.json").read_text())
        )
        assert verify_certificate(cert).ok
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "tau-table"
    assert manifest["status"] == "ok"
    assert "tau_table.csv" in manifest["outputs"]
    assert manifest["parameters"]["max_m"] == 5
    assert manifest["wall_seconds"] >= 0
    solver = manifest["solver"]
    assert {int(m): meta["pivots"] for m, meta in solver.items()} == {2: 0, 3: 0, 4: 1, 5: 3}
    for meta in solver.values():
        assert {"method", "active_columns", "wall_seconds"} <= meta.keys()
        assert meta["method"] == "exact-simplex"


def test_tau_table_leaves_out_unresolved_sizes(tmp_path, monkeypatch):
    real_solve = cli.solve_tau

    def solve_or_give_up(m):
        if m == 4:
            raise UnresolvedError("float solve failed: Iteration limit reached.")
        return real_solve(m)

    monkeypatch.setattr(cli, "solve_tau", solve_or_give_up)
    out = tmp_path / "run"
    assert main(["tau-table", "--max-m", "5", "--out", str(out)]) == 2
    lines = (out / "tau_table.csv").read_text().splitlines()
    assert lines[1:] == ["2,1,1", "3,1,2", "5,2,5"]
    assert not (out / "certificate_4.json").exists()
    manifest = read_manifest(out)
    assert manifest["status"] == "unresolved"
    assert manifest["error"] == "M=4: float solve failed: Iteration limit reached."


def test_tau_table_refuses_a_float_basis_that_fails_the_check(tmp_path, monkeypatch):
    opt = pytest.importorskip("scipy.optimize")
    real = opt.linprog

    def doctor_m13(*args, **kwargs):
        res = real(*args, **kwargs)
        if len(kwargs["b_ub"]) == 78:  # the 78 pairs of M=13
            res.x[np.argmax(res.x)] = 0.0
        return res

    monkeypatch.setattr(opt, "linprog", doctor_m13)
    # 9..12 take the float route too, undoctored, which keeps the run short
    monkeypatch.setattr(tau_lp, "_DIRECT_LIMIT", 8)
    out = tmp_path / "run"
    assert main(["tau-table", "--max-m", "13", "--out", str(out)]) == 2
    lines = (out / "tau_table.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [str(m) for m in range(2, 13)]
    assert not (out / "certificate_13.json").exists()
    manifest = read_manifest(out)
    assert manifest["status"] == "unresolved"
    assert manifest["error"].startswith("M=13: float-basis certificate fails verification")
    methods = {int(m): meta["method"] for m, meta in manifest["solver"].items()}
    assert methods == {
        m: "exact-simplex" if m <= 8 else "float-basis" for m in range(2, 13)
    }


def test_tau_table_range_is_enforced(tmp_path):
    out = tmp_path / "run"
    assert main(["tau-table", "--max-m", "1", "--out", str(out)]) == 1
    manifest = read_manifest(out)
    assert manifest["status"] == "usage-error"
    assert "2..18" in manifest["error"]


def test_unknown_arguments_exit_one(tmp_path, capsys):
    assert main(["tau-table", "--max-m", "3", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()  # swallow argparse noise


def test_rcb_curve_output_format(tmp_path):
    out = tmp_path / "a"
    assert main(["rcb-curve", "--list-size", "1", "--grid", "40", "--out", str(out)]) == 0
    lines = (out / "rcb_lower_L1.csv").read_text().splitlines()
    assert lines[0] == "tau,rate"
    assert len(lines) > 1
    for line in lines[1:]:
        tau, rate = line.split(",")
        assert len(tau.split(".")[1]) == 9
        assert len(rate.split(".")[1]) == 9
    taus = [float(l.split(",")[0]) for l in lines[1:]]
    assert taus == sorted(taus)

    out2 = tmp_path / "b"
    assert main(["rcb-curve", "--list-size", "1", "--grid", "40", "--out", str(out2)]) == 0
    assert (out / "rcb_lower_L1.csv").read_bytes() == (out2 / "rcb_lower_L1.csv").read_bytes()


def test_rcb_curve_list_size_bounds(tmp_path):
    out = tmp_path / "run"
    assert main(["rcb-curve", "--list-size", "18", "--out", str(out)]) == 1
    assert read_manifest(out)["status"] == "usage-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "max-code", "--n", "30"],
        ["rcb-curve", "--list-size", "3", "--grid", "1"],
        ["two-stage-curve", "--grid", "0"],
        ["two-stage-curve", "--lup", "0"],
        ["search", "max-code", "--n", "4", "--d", "2", "--max-nodes", "0"],
        ["search", "best-list", "--n", "40", "--w", "3", "--size", "4", "--list-size", "1"],
        ["search", "best-list", "--n", "6", "--w", "3", "--size", "4", "--list-size", "1",
         "--max-nodes", "0"],
        ["search", "best-list", "--n", "6", "--w", "3", "--size", "4", "--list-size", "0"],
        ["two-stage-curve", "--lup", "18"],
        ["rcb-curve", "--list-size", "0"],
        ["verify-remains", "--lup", "0"],
        ["verify-remains", "--lup", "18"],
    ],
)
def test_range_errors_below_the_cli_exit_one(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    manifest = read_manifest(out)
    assert manifest["status"] == "usage-error"
    assert manifest["error"]


def test_two_stage_curve_files(tmp_path):
    out = tmp_path / "a"
    argv = [
        "two-stage-curve",
        "--lup", "3",
        "--grid", "3",
        "--tau-max", "0.3",
        "--out", str(out),
    ]
    assert main(argv) == 0
    two_stage = (out / "two_stage.csv").read_text().splitlines()
    gv = (out / "gv.csv").read_text().splitlines()
    mrrw = (out / "mrrw.csv").read_text().splitlines()
    assert len(two_stage) == 4  # header + three grid points
    # reference curves stop at the quarter point where they hit zero
    assert all(float(l.split(",")[0]) <= 0.25 for l in gv[1:])
    assert len(gv) == len(mrrw)
    rates = {l.split(",")[0]: float(l.split(",")[1]) for l in two_stage[1:]}
    for line in gv[1:]:
        tau, rate = line.split(",")
        assert rates[tau] >= float(rate) - 1e-9

    record = read_manifest(out)["two_stage"]
    assert [f"{p['tau']:.9f},{p['rate']:.9f}" for p in record] == two_stage[1:]
    for p in record:
        assert p["checks"] > 0
        assert p["killed"] >= 0
        if p["rate"]:
            assert p["rate"] == p["alpha"] * p["R"]
        else:
            assert p["omega"] is p["alpha"] is p["R"] is None

    out2 = tmp_path / "b"
    argv[-1] = str(out2)
    assert main(argv) == 0
    for name in ("two_stage.csv", "gv.csv", "mrrw.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_plotkin_point_run(tmp_path):
    out = tmp_path / "run"
    assert main(["plotkin-point", "--out", str(out)]) == 0
    doc = json.loads((out / "plotkin_point.json").read_text())
    assert 0.660 < float(doc["omega_max"]) < 0.662
    assert 0.4402 < float(doc["tau_max"]) < 0.4412


def test_verify_remains_run(tmp_path):
    out = tmp_path / "run"
    assert main(["verify-remains", "--lup", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "remains.json").read_text())
    assert doc["all_ok"] is True
    assert doc["tail_ok"] is True
    assert [r["L"] for r in doc["rows"]] == [1, 2, 3, 4]
    assert [r["L"] for r in doc["rows"] if r["equality"]] == [2]


def test_search_max_code_run(tmp_path):
    out = tmp_path / "run"
    assert main(["search", "max-code", "--n", "3", "--d", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "search.json").read_text())
    assert doc["mode"] == "max-code"
    assert doc["objective"] == 2
    assert doc["optimal"] is True
    assert len(doc["words"]) == 2
    code_lines = (out / "code.txt").read_text().splitlines()
    assert code_lines[1:] == doc["words"]


def test_search_best_list_run(tmp_path):
    out = tmp_path / "run"
    argv = [
        "search", "best-list",
        "--n", "4", "--w", "2", "--size", "3", "--list-size", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads((out / "search.json").read_text())
    assert doc["objective"] == 0
    assert doc["words"] == ["1100", "1010", "0110"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "best-list", "--n", "7", "--w", "3", "--size", "4", "--list-size", "1",
         "--max-nodes", "50"],
        ["search", "max-code", "--n", "8", "--d", "4", "--max-nodes", "10"],
    ],
)
def test_search_stopped_by_node_cap_exits_two(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    manifest = read_manifest(out)
    assert manifest["status"] == "unresolved"
    assert manifest["error"] == "node budget exhausted"
    doc = json.loads((out / "search.json").read_text())
    assert doc["optimal"] is False
    assert doc["note"] == "node budget exhausted"
    assert doc["nodes"] > int(argv[-1])
    code_lines = (out / "code.txt").read_text().splitlines()
    assert code_lines[1:] == doc["words"]
    assert sorted(manifest["outputs"]) == ["code.txt", "search.json"]


def test_search_best_list_needs_shape_flags(tmp_path):
    out = tmp_path / "run"
    assert main(["search", "best-list", "--n", "4", "--out", str(out)]) == 1
    assert read_manifest(out)["status"] == "usage-error"


def test_simulate_clean_pass(tmp_path):
    out = tmp_path / "run"
    argv = [
        "simulate",
        "--stage1", str(DATA / "stage1_w3.txt"),
        "--stage2", f"1={DATA / 'stage2_list1.txt'}",
        "--stage2", f"2={DATA / 'stage2_list2.txt'}",
        "--t", "2",
        "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["result"] == "pass"
    assert doc["valid"] is True
    assert [r["message"] for r in doc["runs"]] == [0, 1, 2, 3]
    digests = [r["digest"] for r in doc["runs"]]
    assert len(set(digests)) == 4
    assert all(r["passed"] for r in doc["runs"])


def test_simulate_rejects_undersized_family(tmp_path):
    out = tmp_path / "run"
    argv = [
        "simulate",
        "--stage1", str(DATA / "stage1_w3.txt"),
        "--stage2", f"1={DATA / 'stage2_list1.txt'}",
        "--stage2", f"2={DATA / 'stage2_list2.txt'}",
        "--t", "3",
        "--out", str(out),
    ]
    assert main(argv) == 2
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["result"] == "invalid-parameters"
    assert read_manifest(out)["status"] == "invalid-parameters"
    bad = [r for r in doc["validation"] if not r["ok"]]
    assert bad


def test_simulate_stage2_flag_syntax(tmp_path):
    out = tmp_path / "run"
    argv = [
        "simulate",
        "--stage1", str(DATA / "stage1_w3.txt"),
        "--stage2", "zero=whatever",
        "--t", "1",
        "--out", str(out),
    ]
    assert main(argv) == 1
    assert read_manifest(out)["status"] == "usage-error"


def test_simulate_rejects_malformed_code_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("length=6\n111000\n")
    out = tmp_path / "run"
    argv = [
        "simulate",
        "--stage1", str(bad),
        "--stage2", f"1={DATA / 'stage2_list1.txt'}",
        "--t", "1",
        "--out", str(out),
    ]
    assert main(argv) == 1
    manifest = read_manifest(out)
    assert manifest["status"] == "usage-error"
    assert "bad header" in manifest["error"]


def test_two_stage_curve_checks_every_tau_before_any_work(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_star called")

    monkeypatch.setattr(two_stage, "check_star", refuse)
    out = tmp_path / "run"
    argv = ["two-stage-curve", "--tau-max", "1.0", "--grid", "50", "--out", str(out)]
    assert main(argv) == 1
    manifest = read_manifest(out)
    assert manifest["status"] == "usage-error"
    assert "1.0" in manifest["error"]
    assert not (out / "two_stage.csv").exists()
