import json
import os

import numpy as np
import pytest

from disperlim.cli import cli_main


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


GRID2 = {"dims": [32, 32], "lengths": [40.0, 40.0]}
FAMILY = {"name": "gaussian_zero_mean", "amplitude": 0.3, "width": 3.0}


def test_no_subcommand_is_usage_error(capsys):
    assert cli_main([]) == 1


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_config_path_in_message(tmp_path, capsys):
    rc = cli_main(["converge", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_malformed_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["kp", "--config", str(bad)]) == 1


def test_kp_writes_trajectory(tmp_path):
    cfg = _write(tmp_path / "kp.json", {
        "schema_version": 1, "grid": GRID2, "ion_temperature": 1.0,
        "dt": 2e-3, "T": 0.02, "snapshots": 2, "initial": FAMILY})
    out = tmp_path / "traj"
    assert cli_main(["kp", "--config", cfg, "--out", str(out)]) == 0
    index = json.load(open(out / "index.json"))
    assert len(index["files"]) == len(index["times"]) == 3


def test_profiles_then_residuals(tmp_path):
    cfg = _write(tmp_path / "prof.json", {
        "schema_version": 1, "grid": GRID2, "ion_temperature": 1.0,
        "order": 1, "initial": FAMILY})
    hier = tmp_path / "hier"
    assert cli_main(["profiles", "--config", cfg, "--out", str(hier)]) == 0
    rcfg = _write(tmp_path / "res.json", {
        "schema_version": 1, "hierarchy": str(hier), "epsilon": 0.1})
    assert cli_main(["residuals", "--config", rcfg]) == 0


def test_residuals_fail_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path / "prof.json", {
        "schema_version": 1, "grid": GRID2, "ion_temperature": 1.0,
        "order": 1, "initial": FAMILY})
    hier = tmp_path / "hier"
    cli_main(["profiles", "--config", cfg, "--out", str(hier)])
    # corrupt one stored field on disk
    from disperlim.fldio import read_fld, write_fld
    import disperlim as dl
    f, name = read_fld(hier / "u1_1.fld")
    write_fld(hier / "u1_1.fld", dl.RealField(f.grid, f.values * 1.001), name)
    rcfg = _write(tmp_path / "res.json", {
        "schema_version": 1, "hierarchy": str(hier), "epsilon": 0.1})
    assert cli_main(["residuals", "--config", rcfg]) == 2


def test_ep_subcommand(tmp_path):
    cfg = _write(tmp_path / "ep.json", {
        "schema_version": 1, "grid": GRID2,
        "params": {"epsilon": 0.1, "ion_temperature": 1.0},
        "initial": FAMILY, "T": 0.01, "snapshots": 2,
        "stepper": {"dt": 2e-3}})
    out = tmp_path / "ep_out"
    assert cli_main(["ep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "n_final.fld").exists()
    log = json.load(open(out / "diagnostics.json"))
    assert log[-1]["min_n"] > 0.5


def test_ep_rejects_truncation_order_2(tmp_path, capsys):
    cfg = _write(tmp_path / "ep.json", {
        "schema_version": 1, "grid": GRID2,
        "params": {"epsilon": 0.1, "ion_temperature": 1.0},
        "initial": FAMILY, "T": 0.01, "snapshots": 2, "truncation_order": 2,
        "stepper": {"dt": 2e-3}})
    out = tmp_path / "ep_out"
    assert cli_main(["ep", "--config", cfg, "--out", str(out)]) == 1
    assert "truncation_order" in capsys.readouterr().err
    assert not (out / "n_final.fld").exists()


def test_converge_outputs_and_determinism(tmp_path):
    cfg = _write(tmp_path / "study.json", {
        "schema_version": 1, "d": 2, "ion_temperature": 1.0,
        "epsilons": [0.2, 0.141, 0.1], "tau0": 0.04, "s_prime": 4,
        "truncation_order": 1, "grid": GRID2, "dt": 2e-3, "samples": 2,
        "family": FAMILY})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert cli_main(["converge", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_main(["converge", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "table.csv").read_bytes()
    assert csv1 == (out2 / "table.csv").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "epsilon,time,norm_kind,n,u,phi,err1"
    assert (out1 / "table.json").exists()
    assert any(p.name.startswith("diagnostics_eps_") for p in out1.iterdir())


def test_soliton_test_default(capsys):
    assert cli_main(["soliton-test"]) == 0
    assert "speed" in capsys.readouterr().out


def test_lin_kp_homogeneous(tmp_path):
    cfg = _write(tmp_path / "lin.json", {
        "schema_version": 1, "grid": GRID2, "ion_temperature": 1.0,
        "dt": 2e-3, "T": 0.02, "snapshots": 2, "initial": FAMILY})
    out = tmp_path / "lin_out"
    assert cli_main(["lin-kp", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "index.json").exists()
