import logging

import numpy as np
import pytest

import disperlim as dl
from disperlim import (ConfigurationError, ConstraintError, LimitConfig,
                       NumericalError, RealField, conserved_quantities,
                       kdv_line_soliton, kp2_linear_symbol, solve_kdv,
                       solve_kp2, solve_linearized_kp, solve_linearized_zk,
                       solve_zk, zero_mean_soliton, zk_linear_symbol)
from disperlim.initial_data import gaussian_zero_mean
from disperlim.limit_equations import (LimitCoefficients, LinearizedSource,
                                       solve_coupled_order2)
from disperlim.spectral import fft_c

V2 = float(np.sqrt(2.0))


class TestSymbols:
    def test_streamwise_only(self):
        assert kp2_linear_symbol((1.0, 0.0), 1.0) == pytest.approx(0.5j)

    def test_streamwise_mean_is_zero(self):
        for m in (1.0, 3.0):
            assert kp2_linear_symbol((0.0, m), 1.0) == 0.0

    def test_purely_imaginary(self):
        for k in [(1.0, 1.0), (2.0, -3.0), (0.5, 0.25)]:
            assert kp2_linear_symbol(k, V2).real == 0.0
            assert zk_linear_symbol(k + (0.7,), V2).real == 0.0

    def test_zk_transverse_sign(self):
        # transverse dispersion adds to the streamwise branch in 3D
        s = zk_linear_symbol((1.0, 1.0, 0.0), 1.0)
        assert s.imag == pytest.approx(0.5 + 1.0)  # 1/(2V) + (1+V^4)/(2V) at V=1

    def test_zk_transverse_audit_value(self):
        s = zk_linear_symbol((1.0, 1.0, 0.0), 1.0, transverse=0.5)
        assert s.imag == pytest.approx(1.0)


class TestSoliton:
    def test_zero_kappa(self):
        g = dl.build_grid([64], [80.0])
        field, speed = kdv_line_soliton(0.0, 1.0, g)
        assert field.max_abs() == 0.0 and speed == 0.0

    def test_closed_form_amplitude_and_speed(self):
        g = dl.build_grid([256], [80.0])
        field, speed = kdv_line_soliton(0.5, 1.0, g)
        assert speed == pytest.approx(0.5)
        assert field.max_abs() == pytest.approx(1.5, rel=1e-6)

    def test_insufficient_decay_rejected(self):
        g = dl.build_grid([64], [10.0])
        with pytest.raises(ConfigurationError):
            kdv_line_soliton(0.3, 1.0, g)

    def test_symbolic_substitution(self):
        # independent re-derivation: substitute the closed form into the
        # travelling-wave reduction with symbolic algebra
        sp = pytest.importorskip("sympy")
        x, t, kap, V = sp.symbols("x t kappa V", positive=True)
        c = 2 * kap ** 2 / V
        u = (6 * kap ** 2 / V ** 2) * sp.sech(kap * (x - c * t)) ** 2
        residual = (sp.diff(u, t) + V * u * sp.diff(u, x)
                    + sp.Rational(1, 2) / V * sp.diff(u, x, 3))
        assert sp.simplify(residual.rewrite(sp.exp)) == 0

    def test_spectral_substitution_residual(self):
        # the profile satisfies the discrete travelling-wave identity to
        # near round-off on a fine grid (unmasked operators: substitution
        # into the equation itself)
        from disperlim.limit_equations import LimitCoefficients
        from disperlim.spectral import deriv_factor, ifft_c
        g = dl.build_grid([512], [80.0])
        field, speed = kdv_line_soliton(0.5, 1.0, g)
        co = LimitCoefficients.for_equation("KdV", 1.0)
        uhat = fft_c(field.values, g)
        d1 = deriv_factor(g, 0, 1)
        rhs = ifft_c(-0.5 * co.nonlinear * d1 * fft_c(field.values ** 2, g)
                     - co.dispersion_x * (-d1.imag ** 3 * 1j) * uhat, g)
        residual = rhs + speed * ifft_c(d1 * uhat, g)
        l2 = np.sqrt(np.mean(residual ** 2) * g.volume)
        assert l2 <= 1e-10

    def test_mean_shift_identity(self):
        # removing the conserved mean shifts the frame speed by -V*mean;
        # verified by symbolic substitution of the shifted profile
        sp = pytest.importorskip("sympy")
        x, t, kap, V, b = sp.symbols("x t kappa V b", positive=True)
        c = 2 * kap ** 2 / V - V * b
        u = (6 * kap ** 2 / V ** 2) * sp.sech(kap * (x - c * t)) ** 2 - b
        residual = (sp.diff(u, t) + V * u * sp.diff(u, x)
                    + sp.Rational(1, 2) / V * sp.diff(u, x, 3))
        assert sp.simplify(residual.rewrite(sp.exp)) == 0

    def test_propagation_speed(self):
        # one quarter of a domain crossing, peak within one grid cell
        g = dl.build_grid([256], [80.0])
        field, speed = zero_mean_soliton(0.5, 1.0, g)
        T = 80.0 / speed / 4.0
        traj = solve_kdv(field, LimitConfig(V=1.0, dt=2e-3, T=T,
                                            equation="KdV", snapshots=1))
        x = g.axis_coordinates(0).ravel()
        peak = x[int(np.argmax(traj.final.values))]
        expected = (40.0 + speed * T) % 80.0
        err = abs((peak - expected + 40.0) % 80.0 - 40.0)
        assert err <= 80.0 / 256


class TestSolvers:
    def test_zero_initial_stays_zero(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        traj = solve_kp2(RealField.zeros(g),
                         LimitConfig(V=V2, dt=1e-2, T=0.1, equation="KP2"))
        assert traj.final.max_abs() == 0.0

    def test_constraint_violation_rejected(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        _, y = g.meshgrid()
        with pytest.raises(ConstraintError):
            solve_kp2(RealField(g, 0.1 * np.sin(y)),
                      LimitConfig(V=V2, dt=1e-2, T=0.1, equation="KP2"))

    def test_constraint_preserved(self):
        g = dl.build_grid([48, 48], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        traj = solve_kp2(n0, LimitConfig(V=V2, dt=2e-3, T=0.2, equation="KP2"))
        c = fft_c(traj.final.values, g)
        off = np.abs(c[0, 1:])
        assert off.max() < 1e-10

    def test_linear_flow_l2_constant(self):
        # dispersive purity: with the quadratic term suppressed by zero
        # coefficient the flow is an isometry
        g = dl.build_grid([48, 48], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        cfg = LimitConfig(V=V2, dt=2e-3, T=0.3, equation="KP2",
                          zk_nonlinear_coeff=0.0)
        traj = solve_kp2(n0, cfg)
        l2 = [np.sqrt(np.mean(s ** 2)) for s in (traj.states[0], traj.states[-1])]
        assert abs(l2[1] - l2[0]) / l2[0] < 1e-12

    def test_transverse_symmetry_preserved(self):
        g = dl.build_grid([128, 16], [80.0, 10.0])
        sol, _ = zero_mean_soliton(0.5, 1.0, g)
        traj = solve_kp2(sol, LimitConfig(V=1.0, dt=2e-3, T=0.5, equation="KP2"))
        spread = np.max(np.abs(traj.final.values - traj.final.values[:, :1]))
        assert spread < 1e-12

    def test_kdv_reduction_2d(self):
        g2 = dl.build_grid([128, 16], [80.0, 10.0])
        g1 = dl.build_grid([128], [80.0])
        sol2, _ = zero_mean_soliton(0.4, 1.0, g2)
        sol1 = RealField(g1, sol2.values[:, 0].copy())
        kw = dict(V=1.0, dt=2e-3, T=1.0, snapshots=1)
        t2 = solve_kp2(sol2, LimitConfig(equation="KP2", **kw))
        t1 = solve_kdv(sol1, LimitConfig(equation="KdV", **kw))
        assert np.max(np.abs(t2.final.values[:, 0] - t1.final.values)) < 1e-8

    def test_kdv_reduction_3d(self):
        g3 = dl.build_grid([128, 8, 8], [80.0, 10.0, 10.0])
        g1 = dl.build_grid([128], [80.0])
        sol3, _ = zero_mean_soliton(0.4, 1.0, g3)
        sol1 = RealField(g1, sol3.values[:, 0, 0].copy())
        kw = dict(V=1.0, dt=2e-3, T=1.0, snapshots=1)
        t3 = solve_zk(sol3, LimitConfig(equation="ZK", **kw))
        t1 = solve_kdv(sol1, LimitConfig(equation="KdV", **kw))
        assert np.max(np.abs(t3.final.values[:, 0, 0] - t1.final.values)) < 1e-8

    def test_invariant_drift_short(self):
        g = dl.build_grid([64, 64], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        traj = solve_kp2(n0, LimitConfig(V=V2, dt=1e-3, T=0.25, equation="KP2"))
        q0 = conserved_quantities(traj.field(0), "KP2", V2)
        qT = conserved_quantities(traj.final, "KP2", V2)
        assert abs(qT["mass"] - q0["mass"]) < 1e-10
        assert abs(qT["l2"] - q0["l2"]) / q0["l2"] < 1e-10


class TestLinearizedSolvers:
    def test_zero_source_zero_state(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        src = LinearizedSource.homogeneous(RealField.zeros(g))
        traj = solve_linearized_kp(src, RealField.zeros(g),
                                   LimitConfig(V=V2, dt=1e-2, T=0.1,
                                               equation="LinKP"))
        assert traj.final.max_abs() == 0.0

    def test_reduces_to_linear_symbol_flow(self):
        # zero background and source: one mode evolves by the pure phase
        g = dl.build_grid([32, 32], [2 * np.pi, 2 * np.pi])
        x, y = g.meshgrid()
        nk0 = RealField(g, np.cos(2 * x + y))
        src = LinearizedSource.homogeneous(RealField.zeros(g))
        T = 0.5
        traj = solve_linearized_kp(src, nk0, LimitConfig(V=V2, dt=1e-3, T=T,
                                                         equation="LinKP"))
        lam = kp2_linear_symbol((2.0, 1.0), V2)
        expected = np.real(0.5 * np.exp(lam * T) * np.exp(1j * (2 * x + y))) * 2
        assert np.max(np.abs(traj.final.values - expected)) < 1e-10

    def test_zk_reduces_to_symbol_flow(self):
        g = dl.build_grid([16, 16, 16], [2 * np.pi] * 3)
        x, y, z = g.meshgrid()
        nk0 = RealField(g, np.cos(x + y + 2 * z))
        src = LinearizedSource.homogeneous(RealField.zeros(g))
        T = 0.5
        traj = solve_linearized_zk(src, nk0, LimitConfig(V=1.0, dt=1e-3, T=T,
                                                         equation="LinZK"))
        lam = zk_linear_symbol((1.0, 1.0, 2.0), 1.0)
        expected = np.real(0.5 * np.exp(lam * T) * np.exp(1j * (x + y + 2 * z))) * 2
        assert np.max(np.abs(traj.final.values - expected)) < 1e-10


    @pytest.mark.parametrize("T, past", [(0.02, False), (0.03, True)])
    def test_stored_background_is_logged_once(self, caplog, T, past):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        background = solve_kp2(n1, LimitConfig(V=V2, dt=2e-3, T=0.02,
                                               equation="KP2", snapshots=5))
        src = LinearizedSource.from_trajectory(background)
        cfg = LimitConfig(V=V2, dt=1e-3, T=T, equation="LinKP", snapshots=2)
        with caplog.at_level(logging.INFO, logger="disperlim.limit_equations"):
            solve_linearized_kp(src, n1, cfg)
        events = [r for r in caplog.records
                  if getattr(r, "event", None) == "background_interpolated"]
        assert len(events) == 1 and events[0].name == "disperlim.limit_equations"
        assert events[0].snapshot_spacing == pytest.approx(0.004)
        assert events[0].dt == 1e-3
        assert events[0].past_last_snapshot is past

    def test_homogeneous_and_in_memory_backgrounds_log_nothing(self, caplog):
        g = dl.build_grid([16, 16, 16], [20.0] * 3)
        n1 = gaussian_zero_mean(g, amplitude=0.3, width=2.4)
        cfg = LimitConfig(V=1.0, dt=1e-3, T=0.002, equation="LinZK", snapshots=1)
        sources = [LinearizedSource.homogeneous(n1),
                   LinearizedSource(grid=g, background=lambda t: (1.0 + t) * n1.values)]
        with caplog.at_level(logging.INFO, logger="disperlim.limit_equations"):
            for src in sources:
                solve_linearized_zk(src, n1, cfg)
        assert not [r for r in caplog.records if getattr(r, "event", None)]


class TestConservedQuantities:
    def test_zero_field(self):
        g = dl.build_grid([16, 16, 16], [2 * np.pi] * 3)
        q = conserved_quantities(RealField.zeros(g), "ZK", 1.0)
        assert q["mass"] == 0.0 and q["l2"] == 0.0 and q["hamiltonian"] == 0.0

    def test_sin_mass_and_l2(self):
        g = dl.build_grid([16, 16, 16], [2 * np.pi] * 3)
        x, _, _ = g.meshgrid()
        q = conserved_quantities(RealField(g, np.sin(x)), "ZK", 1.0)
        assert abs(q["mass"]) < 1e-12
        assert q["l2"] == pytest.approx((2 * np.pi) ** 3 / 2, rel=1e-12)

    def test_hamiltonian_two_path(self, rng):
        # physical quadrature against an independent spectral Parseval sum
        g = dl.build_grid([16, 16, 16], [3.0, 4.0, 5.0])
        f = gaussian_zero_mean(g, amplitude=0.4, width=0.6)
        co = LimitCoefficients.for_equation("ZK", 1.0)
        q = conserved_quantities(f, "ZK", 1.0)
        chat = fft_c(f.values, g)
        k1 = g.wavenumber(0)
        kperp2 = g.wavenumber(1) ** 2 + g.wavenumber(2) ** 2
        quad = 0.5 * g.volume * float(
            np.sum((co.dispersion_x * k1 ** 2 + co.transverse * kperp2)
                   * np.abs(chat) ** 2))
        cubic = -co.nonlinear / 6.0 * float(np.mean(f.values ** 3)) * g.volume
        assert q["hamiltonian"] == pytest.approx(quad + cubic, abs=1e-12)

    def test_unknown_equation(self):
        g = dl.build_grid([8], [1.0])
        with pytest.raises(ConfigurationError):
            conserved_quantities(RealField.zeros(g), "LinKP", 1.0)


class TestMarch:
    def test_dt_rounding_is_logged(self, caplog):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        cfg = LimitConfig(V=V2, dt=3e-3, T=0.01, equation="KP2", snapshots=1)
        with caplog.at_level(logging.INFO, logger="disperlim.limit_equations"):
            traj = solve_kp2(n0, cfg)
        events = [r for r in caplog.records if getattr(r, "event", None) == "dt_rounded"]
        assert len(events) == 1
        assert events[0].requested_dt == 3e-3
        assert events[0].effective_dt == pytest.approx(0.0025, rel=1e-14)
        assert traj.config.dt == events[0].effective_dt

    def test_coupled_keeps_a_config_whose_dt_divides_T(self, caplog):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        cfg = LimitConfig(V=V2, dt=2.5e-3, T=0.01, equation="KP2", snapshots=2)
        with caplog.at_level(logging.INFO, logger="disperlim.limit_equations"):
            t1, t2 = solve_coupled_order2(n0, RealField.zeros(g), cfg,
                                          lambda v: 0.0 * v)
        assert t1.config is cfg and t2.config is cfg
        assert not [r for r in caplog.records if getattr(r, "event", None)]

    def test_coupled_blowup_guard_trips(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n0 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
        cfg = LimitConfig(V=V2, dt=1e-3, T=0.01, equation="KP2", snapshots=2)
        with pytest.raises(NumericalError, match="blow-up guard"):
            solve_coupled_order2(n0, RealField.zeros(g), cfg,
                                 lambda n1_values: 1e8 * n1_values)
