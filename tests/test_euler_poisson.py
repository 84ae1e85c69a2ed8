import logging
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

import disperlim as dl
from disperlim import euler_poisson
from disperlim import (ConfigurationError, EPState, NumericalError, RealField,
                       ScalingParams, StepperConfig, ep_rhs, linearized_symbol,
                       run_ep, step_ep, solve_poisson)
from disperlim.euler_poisson import EPIntegrator
from disperlim.spectral import fft_c, half


def _rest_state(grid, params):
    zero = RealField.zeros(grid)
    return EPState(n=RealField.constant(grid, 1.0), u=(zero,) * params.dim,
                   phi=zero, time=0.0, params=params)


def _single_mode_state(grid, params, amp, kidx):
    xs = grid.meshgrid()
    phase = sum(kidx[a] * xs[a] for a in range(params.dim))
    n = RealField(grid, 1.0 + amp * np.cos(phase))
    phi = solve_poisson(n, params, tol=1e-13)
    zero = RealField.zeros(grid)
    return EPState(n=n, u=(zero,) * params.dim, phi=phi, time=0.0, params=params)


class TestLinearizedSymbol:
    def test_zero_mode_2d(self):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        assert np.max(np.abs(linearized_symbol((0.0, 0.0), p))) == 0.0

    def test_acoustic_branch_1d_limit(self):
        # d=2, T_i=0, transverse-free mode: phase speeds are V plus/minus the
        # finite-wavelength sound speed of the screened response
        eps, k1 = 0.2, 1.5
        p = ScalingParams(epsilon=eps, ion_temperature=0.0, dim=2)
        L = linearized_symbol((k1, 0.0), p)
        ev = np.sort_complex(np.linalg.eigvals(L))
        c = np.sqrt(1.0 / (1.0 + eps * k1 ** 2))
        expect = np.sort_complex(np.array(
            [1j * p.wave_speed * k1, 1j * (p.wave_speed - c) * k1,
             1j * (p.wave_speed + c) * k1]))
        assert np.allclose(ev, expect, atol=1e-12)

    def test_gyration_at_zero_mode_3d(self):
        eps = 0.04
        p = ScalingParams(epsilon=eps, ion_temperature=0.0, dim=3)
        ev = np.linalg.eigvals(linearized_symbol((0.0, 0.0, 0.0), p))
        ev = np.sort(np.round(ev.imag, 10))
        assert ev[0] == pytest.approx(-1.0 / np.sqrt(eps))
        assert ev[-1] == pytest.approx(1.0 / np.sqrt(eps))

    def test_purely_imaginary(self):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=3)
        ev = np.linalg.eigvals(linearized_symbol((1.2, -0.7, 0.4), p))
        assert np.max(np.abs(ev.real)) < 1e-12


class TestSteadyState:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_rest_state_preserved_100_steps(self, eps):
        g = dl.build_grid([16, 16], [2 * np.pi] * 2)
        p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=2)
        dt = 0.4 * eps * min(g.spacings)
        state = _rest_state(g, p)
        cfg = StepperConfig(dt=dt)
        eng = EPIntegrator(g, p, cfg)
        stack = eng.to_stack(state)
        stack, phi = eng.advance(stack, state.phi.values, 100)
        final = eng.from_stack(stack, phi, 100 * dt)
        assert np.max(np.abs(final.n.values - 1.0)) < 1e-12
        assert max(c.max_abs() for c in final.u) < 1e-12

    def test_zero_tendency_at_rest(self, grid2d):
        p = ScalingParams(epsilon=0.2, ion_temperature=1.0, dim=2)
        dn, du = ep_rhs(_rest_state(grid2d, p))
        assert dn.max_abs() < 1e-13
        assert max(c.max_abs() for c in du) < 1e-13


class TestTendency:
    def test_pressure_absent_when_cold(self, grid2d):
        # T_i = 0 removes the density-gradient force entirely: a velocity-free
        # state with constant potential response feels only the electrostatic
        # force, identical for two densities that differ by scaling T_i only
        p0 = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=2)
        x, _ = grid2d.meshgrid()
        n = RealField(grid2d, 1.0 + 0.05 * np.sin(x))
        phi = solve_poisson(n, p0, tol=1e-12)
        zero = RealField.zeros(grid2d)
        state = EPState(n=n, u=(zero, zero), phi=phi, time=0.0, params=p0)
        dn, du = ep_rhs(state)
        # oracle: with u = 0, du/dt = (V d1 u - grad phi)/eps pointwise
        from disperlim.spectral import deriv_factor, ifft_c
        dphi = ifft_c(deriv_factor(grid2d, 0, 1) * fft_c(phi.values, grid2d),
                      grid2d)
        assert np.max(np.abs(du[0].values + dphi / p0.epsilon)) < 1e-7

    def test_single_mode_matches_symbol_to_quadratic(self, grid2d):
        eps, amp = 0.1, 1e-6
        p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, amp, (1, 2))
        dn, du = ep_rhs(state)
        L = linearized_symbol((1.0, 2.0), p) / eps
        X = np.array([amp / 2, 0.0, 0.0], dtype=complex)
        expect = L @ X
        got = np.array([fft_c(dn.values, grid2d)[1, 2],
                        fft_c(du[0].values, grid2d)[1, 2],
                        fft_c(du[1].values, grid2d)[1, 2]])
        assert np.max(np.abs(got - expect)) < 50 * amp ** 2 / eps + 1e-12

    def test_positivity_guard(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        n = RealField(grid2d, np.full(grid2d.shape, 0.05))
        with pytest.raises(NumericalError):
            EPState(n=n, u=(RealField.zeros(grid2d),) * 2,
                    phi=RealField.zeros(grid2d), time=0.0, params=p)


class TestStepping:
    def test_cfl_guard(self, grid2d):
        p = ScalingParams(epsilon=0.05, ion_temperature=1.0, dim=2)
        bad_dt = 0.6 * p.epsilon * min(grid2d.spacings)
        with pytest.raises(ConfigurationError):
            step_ep(_rest_state(grid2d, p), StepperConfig(dt=bad_dt))

    @pytest.mark.parametrize("dim,eps", [(2, 0.05), (2, 0.2), (3, 0.05), (3, 0.2)])
    def test_linear_step_matches_matrix_exponential(self, dim, eps):
        dims = [32, 32] if dim == 2 else [16, 16, 16]
        g = dl.build_grid(dims, [2 * np.pi] * dim)
        p = ScalingParams(epsilon=eps, ion_temperature=1.0 if dim == 2 else 0.0,
                          dim=dim)
        amp = 1e-6
        kidx = (1, 2) if dim == 2 else (1, 1, 2)
        state = _single_mode_state(g, p, amp, kidx)
        dt = 0.4 * eps * min(g.spacings)
        final, _ = run_ep(state, 1.0, StepperConfig(dt=dt, poisson_tol=1e-13),
                          snapshots=1)
        L = linearized_symbol(tuple(float(k) for k in kidx), p)
        X0 = np.zeros(dim + 1, dtype=complex)
        X0[0] = amp / 2
        XT = expm(L / eps) @ X0
        got = [fft_c(final.n.values - 1.0, g)[kidx]]
        got += [fft_c(final.u[j].values, g)[kidx] for j in range(dim)]
        assert np.max(np.abs(np.array(got) - XT)) / amp < 1e-8

    def test_engine_advance_matches_matrix_exponential_3d(self, grid3d):
        # the engine alone, on a magnetic cold single mode: every component
        # of the advanced stack against expm of the linear symbol
        eps, amp, kidx, steps = 0.1, 1e-6, (1, 1, 2), 30
        p = ScalingParams(epsilon=eps, ion_temperature=0.0, dim=3)
        state = _single_mode_state(grid3d, p, amp, kidx)
        dt = 0.4 * eps * min(grid3d.spacings)
        engine = EPIntegrator(grid3d, p, StepperConfig(dt=dt, poisson_tol=1e-13))
        stack = engine.to_stack(state)
        out, _ = engine.advance(stack, state.phi.values, steps)
        assert out.shape == stack.shape
        X0 = np.zeros(4, dtype=complex)
        X0[0] = amp / 2
        XT = expm(linearized_symbol(tuple(float(k) for k in kidx), p)
                  * (steps * dt / eps)) @ X0
        got = out[(slice(None),) + kidx]
        assert np.max(np.abs(got - XT)) / amp < 1e-8

    def test_dropped_engine_is_freed_at_once(self, grid2d):
        # no reference cycle between the engine and its stepper: the tables
        # go with the last reference, not at the next garbage collection
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        engine = EPIntegrator(grid2d, p, StepperConfig(dt=1e-3))
        ref = weakref.ref(engine)
        del engine
        assert ref() is None

    def test_mass_conserved_per_step(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, 0.05, (1, 1))
        cfg = StepperConfig(dt=0.3 * p.epsilon * min(grid2d.spacings))
        mass0 = float(np.mean(state.n.values - 1.0)) * grid2d.volume
        new = step_ep(state, cfg)
        mass1 = float(np.mean(new.n.values - 1.0)) * grid2d.volume
        assert abs(mass1 - mass0) <= 1e-10 * grid2d.volume

    def test_poisson_consistency_after_step(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, 0.05, (1, 1))
        cfg = StepperConfig(dt=0.3 * p.epsilon * min(grid2d.spacings))
        new = step_ep(state, cfg)
        scale = np.sqrt(np.mean(new.n.values ** 2) * grid2d.volume)
        assert new.poisson_defect() <= cfg.poisson_tol * scale


class TestRun:
    def test_zero_horizon_returns_initial(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _rest_state(grid2d, p)
        final, log = run_ep(state, 0.0, StepperConfig(dt=1e-3))
        assert final is state
        assert len(log.records) == 1

    def test_rounded_dt_builds_one_engine(self, grid2d, monkeypatch):
        # T/dt = 16.7: dt is rounded to T/17 before the only engine is built
        built = []
        init = EPIntegrator.__init__

        def counting(engine, grid, params, cfg):
            built.append(cfg.dt)
            init(engine, grid, params, cfg)

        monkeypatch.setattr(EPIntegrator, "__init__", counting)
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        run_ep(_rest_state(grid2d, p), 0.05, StepperConfig(dt=3e-3), snapshots=1)
        assert built == [pytest.approx(0.05 / 17, rel=1e-14)]

    def test_zero_amplitude_long_run(self, grid2d):
        p = ScalingParams(epsilon=0.2, ion_temperature=1.0, dim=2)
        final, log = run_ep(_rest_state(grid2d, p), 0.5,
                            StepperConfig(dt=5e-3), snapshots=3)
        assert np.max(np.abs(final.n.values - 1.0)) < 1e-12
        assert all(r["mass"] == 0.0 for r in log.records)

    def test_diagnostics_fields(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, 0.01, (1, 0))
        _, log = run_ep(state, 0.05, StepperConfig(dt=2e-3), snapshots=2)
        rec = log.records[-1]
        assert {"time", "mass", "min_n", "poisson_residual", "norms"} <= set(rec)
        assert rec["min_n"] > 0.9
        assert rec["norms"]["H0"] > 0

    def test_blowup_guard_trips(self, grid2d):
        # a state far off the slow manifold with a hostile amplitude blows
        # past ten times its initial H2 size or dies by positivity
        p = ScalingParams(epsilon=0.05, ion_temperature=0.0, dim=2)
        x, y = grid2d.meshgrid()
        n = RealField(grid2d, 1.0 + 0.4 * np.sin(x) * np.cos(y))
        phi = solve_poisson(n, p, tol=1e-11)
        u = (RealField(grid2d, 0.8 * np.sin(y)), RealField(grid2d, 0.8 * np.cos(x)))
        state = EPState(n=n, u=u, phi=phi, time=0.0, params=p)
        with pytest.raises(NumericalError):
            run_ep(state, 5.0, StepperConfig(dt=0.4 * 0.05 * min(grid2d.spacings)),
                   snapshots=200)

    def test_dt_rounding_is_logged(self, grid2d, caplog):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        with caplog.at_level(logging.INFO, logger="disperlim.euler_poisson"):
            run_ep(_rest_state(grid2d, p), 0.05, StepperConfig(dt=3e-3), snapshots=1)
        (event,) = [r for r in caplog.records if getattr(r, "event", None) == "dt_rounded"]
        assert event.requested_dt == 3e-3
        assert event.effective_dt == pytest.approx(0.05 / 17, rel=1e-14)

    def test_tail_damping_switch_is_logged(self, caplog):
        # content above the two-thirds cutoff puts the tail at once above
        # the guard, so damping switches on at the first snapshot
        g = dl.build_grid([16, 16], [2 * np.pi] * 2)
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        x, _ = g.meshgrid()
        n = RealField(g, 1.0 + 0.01 * np.cos(x) + 1e-4 * np.cos(7 * x))
        zero = RealField.zeros(g)
        state = EPState(n=n, u=(zero, zero), phi=solve_poisson(n, p), time=0.0, params=p)
        with caplog.at_level(logging.INFO, logger="disperlim.euler_poisson"):
            _, log = run_ep(state, 0.02, StepperConfig(dt=2e-3), snapshots=2)
        (event,) = [r for r in caplog.records
                    if getattr(r, "event", None) == "tail_damping_enabled"]
        assert event.time == log.records[1]["time"]
        assert 1e-8 < event.tail_fraction < 0.1
        assert log.records[1]["tail_damping_enabled"] is True
        assert "tail_damping_enabled" not in log.records[2]


class TestBudgets:
    """Work counted by wrapping the engine's own bindings."""

    def test_a_cold_3d_tendency_transforms_at_most_8_fields_in_7_out(self, grid3d,
                                                                     monkeypatch):
        # beyond the potential solve's own transforms, which run on the
        # bindings of disperlim.poisson
        p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
        state = _single_mode_state(grid3d, p, 0.05, (1, 1, 2))
        xs = grid3d.meshgrid()
        state = EPState(n=state.n, u=[RealField(grid3d, 0.01 * np.sin(x)) for x in xs],
                        phi=state.phi, time=0.0, params=p)
        engine = EPIntegrator(grid3d, p, StepperConfig(dt=1e-3))
        stack = half(engine.to_stack(state), grid3d)
        fields = {"irfft_c": 0, "rfft_c": 0}

        def counted(name):
            transform = getattr(euler_poisson, name)

            def wrapper(values, grid):
                fields[name] += int(np.prod(values.shape[:-grid.ndim]))
                return transform(values, grid)
            return wrapper

        for name in fields:
            monkeypatch.setattr(euler_poisson, name, counted(name))
        engine.tendency(stack, state.phi.values)
        assert 0 < fields["irfft_c"] <= 8 and 0 < fields["rfft_c"] <= 7

    def test_eigh_sees_at_most_a_quarter_of_the_modes_at_32_cubed(self, monkeypatch):
        matrices = []
        eigh = np.linalg.eigh

        def counted(a):
            matrices.append(int(np.prod(a.shape[:-2])))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        g = dl.build_grid([32] * 3, [20.0] * 3)
        p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
        EPIntegrator(g, p, StepperConfig(dt=1e-3))
        assert 0 < sum(matrices) <= 32 * 32 * 17 // 4

    def test_ep_rhs_builds_no_eigenbasis(self, grid3d, monkeypatch):
        def refuse(*_):
            raise AssertionError("ep_rhs built an eigenbasis or stepper tables")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(euler_poisson, "DiagonalETDRK4", refuse)
        p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
        dn, du = ep_rhs(_single_mode_state(grid3d, p, 0.05, (1, 1, 2)))
        assert dn.max_abs() > 0 and len(du) == 3


class TestTelemetry:
    def test_records_carry_the_work_of_their_interval(self, grid2d):
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, 0.01, (1, 0))
        dt = 2e-3
        _, log = run_ep(state, 10 * dt, StepperConfig(dt=dt), snapshots=2)
        first, *later = log.records
        assert (first["stages"], first["newton_iterations"], first["inner_sweeps"]) == (0, 0, 0)
        # five steps of four stages per interval
        assert [r["stages"] for r in later] == [20, 20]
        for r in later:
            # each stage solves, and so does the consistency solve of the interval
            assert r["newton_iterations"] >= 1
            assert r["inner_sweeps"] >= r["newton_iterations"]

    def test_engine_totals_count_every_solve(self, grid2d, monkeypatch):
        solves = []
        solve = euler_poisson.solve_poisson_values

        def counted(*args, **kwargs):
            phi, info = solve(*args, **kwargs)
            solves.append(info)
            return phi, info

        monkeypatch.setattr(euler_poisson, "solve_poisson_values", counted)
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = _single_mode_state(grid2d, p, 0.05, (1, 1))
        engine = EPIntegrator(grid2d, p, StepperConfig(dt=1e-3))
        engine.advance(engine.to_stack(state), state.phi.values, 3)
        assert len(solves) == 13
        assert engine.stats == {
            "stages": 12,
            "newton_iterations": sum(i["newton_iterations"] for i in solves),
            "inner_sweeps": sum(i["inner_sweeps"] for i in solves)}
