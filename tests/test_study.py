import json
import logging
import re
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import disperlim as dl
from disperlim import (ConfigurationError, RealField, ScalingParams,
                       StudyConfig, compute_remainder, fit_order,
                       remainder_norm_report, run_convergence_study,
                       assemble_initial_data, first_order_profiles_kp)
from disperlim.initial_data import gaussian_zero_mean
from disperlim.study import RemainderState

V2 = float(np.sqrt(2.0))


@pytest.fixture(scope="module")
def prepared():
    g = dl.build_grid([48, 48], [40.0, 40.0])
    n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    h = first_order_profiles_kp(n1, V2)
    p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
    state, info = assemble_initial_data(h, p, return_info=True)
    return g, h, p, state, info


class TestComputeRemainder:
    def test_prepared_data_has_zero_remainder(self, prepared):
        g, h, p, state, info = prepared
        rem = compute_remainder(state, h, p)
        assert np.max(np.abs(rem.n_R.values)) < 1e-10
        assert max(np.max(np.abs(c.values)) for c in rem.u_R) < 1e-10
        # the potential remainder is the logged preparation gap over eps^2
        from disperlim.spectral import l2_norm
        assert l2_norm(rem.phi_R) == pytest.approx(
            info["phi_gap_l2"] / p.epsilon ** 2, rel=1e-10)

    def test_zero_hierarchy_formula(self, prepared):
        g, _, p, state, _ = prepared
        zero_h = first_order_profiles_kp(RealField.zeros(g), V2)
        rem = compute_remainder(state, zero_h, p)
        oracle = (state.n.values - 1.0) / p.epsilon ** 2
        assert np.allclose(rem.n_R.values, oracle)

    def test_linearity_in_perturbation(self, prepared):
        g, h, p, state, _ = prepared
        bump = gaussian_zero_mean(g, amplitude=0.05, width=5.0)
        from disperlim.euler_poisson import EPState
        shifted = EPState(n=RealField(g, state.n.values + p.epsilon ** 2 * bump.values),
                          u=state.u, phi=state.phi, time=state.time, params=p)
        r0 = compute_remainder(state, h, p)
        r1 = compute_remainder(shifted, h, p)
        assert np.allclose(r1.n_R.values - r0.n_R.values, bump.values, atol=1e-11)

    def test_time_mismatch_rejected(self, prepared):
        g, h, p, state, _ = prepared
        from disperlim.euler_poisson import EPState
        late = EPState(n=state.n, u=state.u, phi=state.phi, time=1.0, params=p)
        with pytest.raises(ConfigurationError):
            compute_remainder(late, h, p)


class TestNormReport:
    def _cfg(self, d=2, ti=1.0):
        return StudyConfig(d=d, ion_temperature=ti, epsilons=(0.2, 0.1, 0.05),
                           tau0=0.1, grid_dims=(16,) * d,
                           grid_lengths=(2 * np.pi,) * d)

    def test_zero_remainder(self):
        g = dl.build_grid([16, 16], [2 * np.pi] * 2)
        zero = RealField.zeros(g)
        r = RemainderState(n_R=zero, u_R=(zero, zero), phi_R=zero,
                           epsilon=0.1, time=0.0)
        rep = remainder_norm_report(r, self._cfg())
        assert rep["n"] == 0.0 and rep["u"] == 0.0 and rep["phi"] == 0.0

    def test_triple_kind_for_pressureless(self):
        g = dl.build_grid([16, 16, 16], [2 * np.pi] * 3)
        x, _, _ = g.meshgrid()
        mode = RealField(g, np.sin(x))
        zero = RealField.zeros(g)
        r = RemainderState(n_R=mode, u_R=(mode, zero, zero), phi_R=mode,
                           epsilon=0.1, time=0.0)
        cfg3 = StudyConfig(d=3, ion_temperature=0.0, epsilons=(0.2, 0.1, 0.05),
                           tau0=0.1, grid_dims=(16,) * 3,
                           grid_lengths=(2 * np.pi,) * 3)
        rep = remainder_norm_report(r, cfg3)
        assert rep["norm_kind"] == "triple"
        # single-mode hand formula: |grad_w f| = |lap_w f| = |f| for sin(x1)
        p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
        from disperlim.spectral import sobolev_norm
        n4 = sobolev_norm(mode, 4)
        assert rep["phi"] == pytest.approx(
            n4 * np.sqrt(1 + 0.1 + 0.01), rel=1e-12)
        assert rep["phi"] >= rep["n"]

    def test_plain_kind_for_warm(self):
        g = dl.build_grid([16, 16], [2 * np.pi] * 2)
        x, _ = g.meshgrid()
        mode = RealField(g, np.sin(x))
        zero = RealField.zeros(g)
        r = RemainderState(n_R=mode, u_R=(zero, zero), phi_R=zero,
                           epsilon=0.1, time=0.0)
        rep = remainder_norm_report(r, self._cfg())
        from disperlim.spectral import sobolev_norm
        assert rep["norm_kind"] == "H4"
        assert rep["n"] == pytest.approx(sobolev_norm(mode, 4), rel=1e-12)


class TestFitOrder:
    def test_exact_quadratic(self):
        pts = [(e, 3.0 * e ** 2) for e in (0.2, 0.1, 0.05, 0.025)]
        fit = fit_order(pts)
        assert fit["order"] == pytest.approx(2.0, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0)

    def test_constant_errors(self):
        fit = fit_order([(0.2, 0.7), (0.1, 0.7), (0.05, 0.7)])
        assert fit["order"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_three_halves(self, rng):
        eps = np.geomspace(0.2, 0.0125, 9)
        errs = eps ** 1.5 * (1.0 + 0.01 * rng.standard_normal(9))
        fit = fit_order(list(zip(eps, errs)))
        assert fit["order"] == pytest.approx(1.5, abs=0.05)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_order([(0.2, 1.0), (0.1, 0.0), (0.05, 0.1)])

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            fit_order([(0.2, 1.0), (0.1, 0.5)])


class TestStudyConfig:
    def test_pressureless_needs_3d(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(d=2, ion_temperature=0.0, epsilons=(0.2, 0.1, 0.05),
                        tau0=0.1)

    def test_epsilons_must_descend(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.05, 0.1, 0.2),
                        tau0=0.1)

    def test_needs_three_epsilons(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.2, 0.1), tau0=0.1)

    def test_json_round_trip(self):
        cfg = StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.2, 0.1, 0.05),
                          tau0=0.5, samples=12, seed=7)
        back = StudyConfig.from_jsonable(cfg.as_jsonable())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        obj = StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.2, 0.1, 0.05),
                          tau0=0.5).as_jsonable()
        obj["sampels"] = 5
        obj["grid"]["lenghts"] = [40.0, 40.0]
        with pytest.raises(ConfigurationError, match="grid.lenghts, sampels"):
            StudyConfig.from_jsonable(obj)

    def test_grid_fields_are_read_only_from_the_grid_object(self):
        obj = StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.2, 0.1, 0.05),
                          tau0=0.5).as_jsonable()
        obj["grid_dims"] = [32, 32]
        with pytest.raises(ConfigurationError, match="unknown config keys: grid_dims"):
            StudyConfig.from_jsonable(obj)

    def test_schema_version_guard(self):
        obj = StudyConfig(d=2, ion_temperature=1.0, epsilons=(0.2, 0.1, 0.05),
                          tau0=0.5).as_jsonable()
        obj["schema_version"] = 2
        with pytest.raises(ConfigurationError):
            StudyConfig.from_jsonable(obj)


@pytest.fixture(scope="module")
def mini_cfg():
    return StudyConfig(
        d=2, ion_temperature=1.0, epsilons=(0.2, 0.141, 0.1), tau0=0.06,
        grid_dims=(32, 32), grid_lengths=(40.0, 40.0), dt=2e-3, samples=3,
        family={"name": "gaussian_zero_mean", "amplitude": 0.3, "width": 3.0})


class TestMiniStudy:
    def test_table_structure(self, mini_cfg):
        table = run_convergence_study(mini_cfg)
        assert len(table.rows) == 3 * 4  # epsilons x (samples + initial)
        assert {"epsilon", "time", "norm_kind", "n", "u", "phi", "err1"} <= set(table.rows[0])
        assert table.rows[0]["norm_kind"] == "H4"
        assert table.uniformity["max_over_min"] is not None
        assert np.isfinite(table.fit["order"])

    def test_initial_remainder_well_prepared(self, mini_cfg):
        table = run_convergence_study(mini_cfg)
        for row in table.rows:
            if row["time"] == 0.0:
                assert row["n"] < 1e-9
                assert row["u"] < 1e-9

    def test_threaded_matches_serial(self, mini_cfg):
        serial = run_convergence_study(mini_cfg, threads=1)
        threaded = run_convergence_study(mini_cfg, threads=2)
        assert serial.rows == threaded.rows

    def test_csv_bit_determinism(self, mini_cfg, tmp_path):
        run_convergence_study(mini_cfg, out_dir=tmp_path / "a")
        run_convergence_study(mini_cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "table.csv").read_bytes()
        b = (tmp_path / "b" / "table.csv").read_bytes()
        assert a == b

    def test_zero_amplitude_family_undefined_fit(self):
        cfg = StudyConfig(
            d=2, ion_temperature=1.0, epsilons=(0.2, 0.141, 0.1), tau0=0.02,
            grid_dims=(32, 32), grid_lengths=(40.0, 40.0), dt=2e-3, samples=2,
            family={"name": "gaussian_zero_mean", "amplitude": 0.0, "width": 3.0})
        table = run_convergence_study(cfg)
        assert table.fit["order"] is None
        assert "undefined" in table.fit

    def test_dt_rounding_is_logged(self, caplog):
        cfg = StudyConfig(
            d=2, ion_temperature=1.0, epsilons=(0.2, 0.141, 0.1), tau0=0.01,
            grid_dims=(32, 32), grid_lengths=(40.0, 40.0), dt=3e-3, samples=2,
            family={"name": "gaussian_zero_mean", "amplitude": 0.3, "width": 3.0})
        with caplog.at_level(logging.INFO, logger="disperlim"):
            table = run_convergence_study(cfg)
        events = [(r.name, r.requested_dt, r.effective_dt) for r in caplog.records
                  if getattr(r, "event", None) == "dt_rounded"]
        assert events == [("disperlim.study", 3e-3, pytest.approx(0.0025, rel=1e-14))]
        assert table.config["dt"] == events[0][2]
        assert [r["time"] for r in table.rows[:3]] == [0.0, 0.005, 0.01]


# ---------------------------------------------------------------------------
# the JSON form of a study config, over random valid configs

_FAMILIES = [{"name": "gaussian_zero_mean", "amplitude": 0.3, "width": 3.0},
             {"name": "gaussian_zero_mean", "center": [1.0, 2.0]},
             {"name": "mode_packet", "n_modes": 2},
             {"name": "kdv_soliton", "kappa": 0.4}]


@st.composite
def study_configs(draw):
    d = draw(st.sampled_from((2, 3)))
    eps = sorted(set(draw(st.lists(st.floats(0.01, 0.5), min_size=3, max_size=6))),
                 reverse=True)
    assume(len(eps) >= 3)
    size = st.lists(st.integers(4, 32).map(lambda n: 2 * n), min_size=d, max_size=d)
    return StudyConfig(
        d=d, ion_temperature=draw(st.floats(0.0 if d == 3 else 0.01, 4.0)),
        epsilons=tuple(eps), tau0=draw(st.floats(1e-3, 2.0)),
        s_prime=draw(st.integers(4, 8)), truncation_order=draw(st.sampled_from((1, 2))),
        grid_dims=draw(st.none() | size),
        grid_lengths=draw(st.none() | st.lists(st.floats(1.0, 100.0), min_size=d,
                                               max_size=d)),
        dt=draw(st.floats(1e-5, 1e-2)), samples=draw(st.integers(1, 30)),
        family=dict(draw(st.sampled_from(_FAMILIES))),
        poisson_tol=draw(st.floats(1e-13, 1e-6)), c_cfl=draw(st.floats(0.1, 1.0)),
        seed=draw(st.integers(0, 2 ** 31)))


@settings(max_examples=60, deadline=None)
@given(cfg=study_configs())
def test_json_form_round_trips(cfg):
    text = json.dumps(cfg.as_jsonable())
    assert StudyConfig.from_jsonable(json.loads(text)) == cfg
    assert StudyConfig.from_jsonable(cfg.as_jsonable()) == cfg


_FAMILY_PARAMETERS = {"name", "amplitude", "width", "center", "n_modes", "kappa"}


@settings(max_examples=60, deadline=None)
@given(cfg=study_configs(), where=st.sampled_from(["", "grid", "family"]),
       key=st.text(string.ascii_lowercase + "_", min_size=1, max_size=12),
       value=st.integers() | st.text(max_size=5) | st.lists(st.integers(), max_size=2))
def test_an_extra_key_is_named(cfg, where, key, value):
    obj = cfg.as_jsonable()
    obj.update(tau0=obj["dt"], samples=1)  # a short study, should a key get through
    section = obj[where] if where else obj
    assume(key not in section and not (where == "family" and key in _FAMILY_PARAMETERS))
    section[key] = value
    name = re.escape(f"{where}.{key}" if where else key)
    with pytest.raises(ConfigurationError, match=rf"unknown config keys: (.*, )?{name}(,|$)"):
        # the family's keys are read where the study builds it, its first step
        run_convergence_study(StudyConfig.from_jsonable(obj))
