import json
import os

import numpy as np
import pytest

import disperlim as dl
from disperlim.errors import ConfigurationError
from disperlim.fldio import (load_hierarchy, load_trajectory, read_fld,
                             save_hierarchy, save_trajectory, write_fld)
from disperlim.initial_data import gaussian_zero_mean
from disperlim.limit_equations import LimitConfig, solve_kp2
from disperlim.profiles import first_order_profiles_kp


def test_fld_round_trip(tmp_path, rng):
    g = dl.build_grid([16, 8], [3.0, 5.0])
    f = dl.RealField(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.fld"
    write_fld(path, f, name="density")
    back, name = read_fld(path)
    assert name == "density"
    assert back.grid.dims == g.dims and back.grid.lengths == g.lengths
    assert np.array_equal(back.values, f.values)


def test_fld_header_is_json_line(tmp_path):
    g = dl.build_grid([8], [1.0])
    path = tmp_path / "f.fld"
    write_fld(path, dl.RealField.zeros(g))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    assert header["format"] == "FLD1"
    assert header["dims"] == [8]
    assert len(payload) == 8 * 8


def test_truncated_payload_rejected(tmp_path):
    g = dl.build_grid([8], [1.0])
    path = tmp_path / "f.fld"
    write_fld(path, dl.RealField.zeros(g))
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-8])
    with pytest.raises(ConfigurationError):
        read_fld(path)


def test_grid_mismatch_rejected(tmp_path):
    g = dl.build_grid([8], [1.0])
    other = dl.build_grid([8], [2.0])
    path = tmp_path / "f.fld"
    write_fld(path, dl.RealField.zeros(g))
    with pytest.raises(ConfigurationError):
        read_fld(path, other)


def test_trajectory_round_trip(tmp_path):
    g = dl.build_grid([32, 32], [40.0, 40.0])
    n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    traj = solve_kp2(n0, LimitConfig(V=1.0, dt=1e-3, T=0.01, equation="KP2",
                                     snapshots=2))
    d = tmp_path / "traj"
    save_trajectory(d, traj)
    back = load_trajectory(d)
    assert np.allclose(back.times, traj.times)
    assert np.array_equal(back.states[-1], traj.states[-1])
    assert back.config.equation == "KP2"


def test_hierarchy_round_trip(tmp_path):
    g = dl.build_grid([32, 32], [40.0, 40.0])
    n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    h = first_order_profiles_kp(n1, np.sqrt(2.0))
    d = tmp_path / "hier"
    save_hierarchy(d, h)
    assert os.path.exists(d / "manifest.json")
    back = load_hierarchy(d)
    assert back.d == 2 and back.order == 1
    assert back.V == pytest.approx(np.sqrt(2.0))
    for name in h.fields:
        assert np.array_equal(back.fields[name], h.fields[name])
    for name in h.aux:
        assert np.array_equal(back.aux[name], h.aux[name])


def test_hierarchy_round_trip_keeps_coefficients(tmp_path):
    from dataclasses import replace
    g = dl.build_grid([32, 32], [40.0, 40.0])
    n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    h = first_order_profiles_kp(n1, np.sqrt(2.0))
    h = replace(h, coeffs=replace(h.coeffs, transverse=0.37, bilinear=1.25))
    save_hierarchy(tmp_path / "hier", h)
    back = load_hierarchy(tmp_path / "hier")
    assert back.coeffs == h.coeffs


def test_hierarchy_without_stored_coefficients_gets_defaults(tmp_path):
    g = dl.build_grid([32, 32], [40.0, 40.0])
    n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    h = first_order_profiles_kp(n1, np.sqrt(2.0))
    d = tmp_path / "hier"
    save_hierarchy(d, h)
    manifest = json.load(open(d / "manifest.json"))
    del manifest["coeffs"]
    json.dump(manifest, open(d / "manifest.json", "w"))
    assert load_hierarchy(d).coeffs == h.coeffs


def _zk_trajectory():
    from disperlim.limit_equations import solve_zk
    g = dl.build_grid([16, 16, 16], [20.0] * 3)
    n0 = gaussian_zero_mean(g, amplitude=0.3, width=2.4)
    return solve_zk(n0, LimitConfig(V=1.0, dt=1e-3, T=0.002, equation="ZK",
                                    zk_transverse_coeff=0.3,
                                    zk_nonlinear_coeff=2.0, snapshots=2))


def test_trajectory_round_trip_keeps_coefficients(tmp_path):
    traj = _zk_trajectory()
    save_trajectory(tmp_path / "traj", traj)
    back = load_trajectory(tmp_path / "traj")
    assert back.config == traj.config
    assert back.config.coefficients() == traj.config.coefficients()
    assert np.array_equal(back.states[-1], traj.states[-1])


def test_trajectory_without_stored_coefficients_gets_defaults(tmp_path):
    traj = _zk_trajectory()
    d = tmp_path / "traj"
    save_trajectory(d, traj)
    index = json.load(open(d / "index.json"))
    for key in ("zk_nonlinear_coeff", "zk_transverse_coeff",
                "lin_bilinear_coeff"):
        del index["config"][key]
    json.dump(index, open(d / "index.json", "w"))
    back = load_trajectory(d)
    assert back.config == LimitConfig(V=1.0, dt=1e-3, T=0.002, equation="ZK",
                                      snapshots=2)
