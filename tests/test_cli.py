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


GRID3 = {"dims": [16, 16, 16], "lengths": [20.0, 20.0, 20.0]}
EP = {"schema_version": 1, "grid": GRID2,
      "params": {"epsilon": 0.1, "ion_temperature": 1.0}, "initial": FAMILY,
      "T": 0.01, "snapshots": 2, "stepper": {"dt": 2e-3}}
KP = {"schema_version": 1, "grid": GRID2, "ion_temperature": 1.0, "dt": 2e-3,
      "T": 0.02, "snapshots": 2, "initial": FAMILY}
ZK = dict(KP, grid=GRID3, initial=dict(FAMILY, width=2.4))
PROFILES = {"schema_version": 1, "grid": GRID2, "ion_temperature": 1.0,
            "order": 1, "initial": FAMILY}
RESIDUALS = {"schema_version": 1, "hierarchy": "no-such-hierarchy", "epsilon": 0.1}
STUDY = {"schema_version": 1, "d": 2, "ion_temperature": 1.0,
         "epsilons": [0.2, 0.141, 0.1], "tau0": 0.04, "grid": GRID2, "dt": 2e-3,
         "samples": 2, "family": FAMILY}


def _set(path, value):
    """A change to a base config: set (or, for value None, delete) ``path``."""
    def change(cfg):
        *outer, last = path.split(".")
        for key in outer:
            cfg = cfg[key]
        if value is None:
            del cfg[last]
        else:
            cfg[last] = value
    return change


BAD_CONFIGS = [
    # unknown keys, at the top level and nested
    ("ep", EP, "snapshotz", 3),
    ("ep", EP, "grid.lenghts", [40.0, 40.0]),
    ("ep", EP, "params.wave_speed", 1.5),
    ("ep", EP, "stepper.poisson_tl", 1e-10),
    ("ep", EP, "stepper.hyperviscosity", [1.0, 4]),
    ("ep", EP, "initial.amplitud", 0.2),
    ("ep", EP, "tail_guard", 1e-6),
    ("kp", KP, "equation", "ZK"),
    ("kp", KP, "background", "elsewhere"),
    ("kp", KP, "initial.kappa", 0.7),
    ("kp", KP, "grid.dimz", [32, 32]),
    ("zk", ZK, "snapshotz", 2),
    ("lin-kp", KP, "backgrund", "elsewhere"),
    ("lin-zk", ZK, "initial.widht", 2.0),
    ("profiles", PROFILES, "orde", 2),
    ("profiles", PROFILES, "grid.lenghts", [40.0, 40.0]),
    ("profiles", PROFILES, "initial.file_name", "n1.fld"),
    ("residuals", RESIDUALS, "epsilonn", 0.1),
    ("converge", STUDY, "sampels", 5),
    ("converge", STUDY, "grid.lenghts", [40.0, 40.0]),
    ("converge", STUDY, "family.widht", 2.0),
    ("soliton-test", {}, "kapa", 0.5),
    # missing required keys
    ("ep", EP, "stepper.dt", None),
    ("ep", EP, "T", None),
    ("ep", EP, "params.epsilon", None),
    ("kp", KP, "T", None),
    ("zk", ZK, "grid.dims", None),
    ("lin-kp", KP, "dt", None),
    ("lin-zk", ZK, "T", None),
    ("profiles", PROFILES, "grid", None),
    ("residuals", RESIDUALS, "hierarchy", None),
    ("converge", STUDY, "d", None),
    ("converge", STUDY, "tau0", None),
    # values that do not convert
    ("ep", EP, "stepper.dt", "fast"),
    ("ep", EP, "snapshots", 2.5),
    ("ep", EP, "grid.dims", [32, "x"]),
    ("kp", KP, "snapshots", "two"),
    ("kp", KP, "initial.center", "middle"),
    ("zk", ZK, "zk_transverse_coeff", [0.3]),
    ("lin-kp", KP, "background", 5),
    ("lin-zk", ZK, "V", "fast"),
    ("profiles", PROFILES, "order", "two"),
    ("profiles", PROFILES, "second", 5),
    ("residuals", RESIDUALS, "epsilon", "small"),
    ("converge", STUDY, "samples", "ten"),
    ("converge", STUDY, "epsilons", [0.2, "x", 0.1]),
    ("converge", STUDY, "family", "gaussian"),
    ("soliton-test", {}, "points", "many"),
    ("soliton-test", {}, "kappa", "half"),
]


@pytest.mark.parametrize("command, base, path, value", BAD_CONFIGS,
                         ids=[f"{c}-{p}-{'missing' if v is None else v}"
                              for c, _, p, v in BAD_CONFIGS])
def test_bad_config_is_named_and_writes_nothing(tmp_path, capsys, command, base,
                                                path, value):
    cfg = json.loads(json.dumps(base))
    _set(path, value)(cfg)
    out = tmp_path / "out"
    rc = cli_main([command, "--config", _write(tmp_path / "cfg.json", cfg),
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and path in err
    assert "Traceback" not in err
    assert not out.exists()


def test_threads_come_from_the_option_only(monkeypatch, capsys):
    monkeypatch.setenv("DISPERLIM_THREADS", "two")
    assert cli_main(["soliton-test"]) == 0


def test_lin_kp_rejects_a_background_on_another_grid(tmp_path, capsys):
    small = dict(KP, grid={"dims": [16, 16], "lengths": [40.0, 40.0]})
    background = tmp_path / "bg"
    assert cli_main(["kp", "--config", _write(tmp_path / "kp.json", small),
                     "--out", str(background)]) == 0
    capsys.readouterr()
    out = tmp_path / "lin"
    cfg = _write(tmp_path / "lin.json", dict(KP, background=str(background)))
    assert cli_main(["lin-kp", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "(16, 16)" in err and "(32, 32)" in err
    assert not out.exists()


def test_lin_kp_about_a_stored_background(tmp_path, capsys):
    background = tmp_path / "bg"
    assert cli_main(["kp", "--config", _write(tmp_path / "kp.json", KP),
                     "--out", str(background)]) == 0
    out = tmp_path / "lin"
    cfg = _write(tmp_path / "lin.json", dict(KP, background=str(background)))
    assert cli_main(["lin-kp", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "index.json").exists()


def test_bad_trajectory_index_key_is_named(tmp_path, capsys):
    background = tmp_path / "bg"
    assert cli_main(["kp", "--config", _write(tmp_path / "kp.json", KP),
                     "--out", str(background)]) == 0
    index = json.load(open(background / "index.json"))
    index["config"]["dtt"] = index["config"].pop("dt")
    json.dump(index, open(background / "index.json", "w"))
    cfg = _write(tmp_path / "lin.json", dict(KP, background=str(background)))
    assert cli_main(["lin-kp", "--config", cfg, "--out", str(tmp_path / "lin")]) == 1
    assert "config.dtt" in capsys.readouterr().err


def test_profiles_order_out_of_range_is_rejected(tmp_path, capsys):
    for bad in ({"order": 3}, {"order": 1, "second": "n2.fld"}):
        cfg = _write(tmp_path / "prof.json", dict(PROFILES, **bad))
        assert cli_main(["profiles", "--config", cfg,
                         "--out", str(tmp_path / "hier")]) == 1
        assert "order" in capsys.readouterr().err
    assert not (tmp_path / "hier").exists()


@pytest.mark.parametrize("command, cfg", [
    ("kp", dict(KP, initial={"file": "missing.fld"})),
    ("profiles", dict(PROFILES, order=2, second="missing.fld"))])
def test_a_missing_field_file_is_named(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    assert cli_main([command, "--config", _write(tmp_path / "cfg.json", cfg),
                     "--out", str(out)]) == 1
    assert "missing.fld" in capsys.readouterr().err
    assert not out.exists()


def test_a_center_of_another_rank_is_rejected(tmp_path, capsys):
    cfg = dict(KP, initial=dict(FAMILY, center=[20.0]))
    assert cli_main(["kp", "--config", _write(tmp_path / "cfg.json", cfg),
                     "--out", str(tmp_path / "out")]) == 1
    assert "center needs 2 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["d", "V", "order", "time", "fields"])
def test_a_manifest_key_missing_is_named(tmp_path, capsys, key):
    hier = tmp_path / "hier"
    assert cli_main(["profiles", "--config", _write(tmp_path / "prof.json", PROFILES),
                     "--out", str(hier)]) == 0
    manifest = json.load(open(hier / "manifest.json"))
    del manifest[key]
    _write(hier / "manifest.json", manifest)
    capsys.readouterr()
    cfg = _write(tmp_path / "res.json", dict(RESIDUALS, hierarchy=str(hier)))
    assert cli_main(["residuals", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"manifest.json:{key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["files", "times", "config"])
def test_a_trajectory_index_key_missing_is_named(tmp_path, capsys, key):
    background = tmp_path / "bg"
    assert cli_main(["kp", "--config", _write(tmp_path / "kp.json", KP),
                     "--out", str(background)]) == 0
    index = json.load(open(background / "index.json"))
    del index[key]
    _write(background / "index.json", index)
    capsys.readouterr()
    cfg = _write(tmp_path / "lin.json", dict(KP, background=str(background)))
    assert cli_main(["lin-kp", "--config", cfg, "--out", str(tmp_path / "lin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"index.json:{key}" in err
    assert "Traceback" not in err
