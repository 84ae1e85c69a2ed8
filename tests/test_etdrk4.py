import logging
import tracemalloc

import numpy as np
import pytest

from disperlim.errors import NumericalError
from disperlim.etdrk4 import (DiagonalETDRK4, etdrk4_tables, march, phi_functions,
                              plan)


def _phi_reference(z, terms=60):
    # series definition where it converges fast; exact closed form (free of
    # cancellation) for arguments away from the origin
    from math import factorial
    z = np.asarray(z, dtype=complex)
    if np.abs(z).max() > 2.0:
        ez = np.exp(z)
        return [(ez - 1) / z, (ez - 1 - z) / z ** 2,
                (ez - 1 - z - z ** 2 / 2) / z ** 3]
    out = []
    for shift in (1, 2, 3):
        acc = np.zeros_like(z)
        for n in range(terms):
            acc = acc + z ** n / factorial(n + shift)
        out.append(acc)
    return out


@pytest.mark.parametrize("z", [0.0, 1e-8j, 0.3j, -0.74j, 0.76j, 5.0j, -40.0j,
                               0.2 + 0.3j, -2.0 + 1.0j])
def test_phi_functions_accuracy(z):
    got = phi_functions(np.array([z]))
    ref = _phi_reference(np.array([z], dtype=complex))
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() < 1e-13 * max(1.0, np.abs(r).max())


def test_phi_functions_dense_disk():
    # a lattice over |z| <= 2, the imaginary axis (the undamped EP and limit
    # symbols) and the left half plane (hyperviscous damping), with points
    # on both sides of the series/closed-form switch at |z| = 0.75
    re, im = np.meshgrid(np.linspace(-2.0, 2.0, 81), np.linspace(-2.0, 2.0, 81))
    lattice = (re + 1j * im).ravel()
    ring = np.outer([0.749, 0.7499999, 0.75, 0.751],
                    np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64))).ravel()
    zs = np.concatenate([lattice[np.abs(lattice) <= 2.0],
                         1j * np.linspace(-2.0, 2.0, 401),
                         -np.linspace(0.0, 1.9, 96) + 0.5j, ring])
    got = phi_functions(zs)
    ref = _phi_reference(zs)
    for g, r in zip(got, ref):
        assert g.shape == zs.shape
        assert np.max(np.abs(g - r) / np.abs(r)) < 1e-13


def test_tables_peak_memory_is_a_small_multiple_of_the_input():
    # the tables are six outputs the size of the input; building them must
    # not hold many more (a contour average over 32 points peaks at over
    # 200 times the input)
    rng = np.random.default_rng(3)
    z = 1j * rng.uniform(-1.0, 1.0, 10 ** 5) - rng.uniform(0.0, 0.2, 10 ** 5)
    tracemalloc.start()
    try:
        tables = etdrk4_tables(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables) == 6 and all(t.shape == z.shape for t in tables)
    assert peak < 16 * z.nbytes


def test_phi_continuity_at_cutoff():
    # values are smooth across the contour/closed-form switch
    zs = np.linspace(0.74, 0.76, 21) * 1j
    p1, p2, p3 = phi_functions(zs)
    for p in (p1, p2, p3):
        jumps = np.abs(np.diff(p))
        assert jumps.max() < 1e-3  # smooth on this scale
        assert np.abs(np.diff(jumps)).max() < 1e-4


def test_fourth_order_convergence_scalar_ode():
    # u' = i*w*u + u^2 with exact solution compared at two step sizes
    w = 40.0

    def nonlinear(u, t):
        return u * u

    u0 = np.array([0.01 + 0.0j])
    ref_dt = 1e-4
    stepper = DiagonalETDRK4(np.array([1j * w]), ref_dt, nonlinear)
    u = u0.copy()
    for i in range(int(round(1.0 / ref_dt))):
        u = stepper.step(u, i * ref_dt)
    reference = u.copy()

    errs = []
    for dt in (1e-2, 5e-3):
        stepper = DiagonalETDRK4(np.array([1j * w]), dt, nonlinear)
        u = u0.copy()
        for i in range(int(round(1.0 / dt))):
            u = stepper.step(u, i * dt)
        errs.append(abs(u[0] - reference[0]))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


class TestPlanAndMarch:
    log = logging.getLogger("disperlim.test_plan")

    def test_plan_rounds_dt_and_logs_it(self, caplog):
        with caplog.at_level(logging.INFO, logger=self.log.name):
            dt, marks = plan(0.05, 3e-3, 3, self.log)
        assert dt == pytest.approx(0.05 / 17, rel=1e-14)
        assert marks == [6, 11, 17]
        (event,) = [r for r in caplog.records if getattr(r, "event", None) == "dt_rounded"]
        assert (event.requested_dt, event.effective_dt) == (3e-3, dt)

    def test_plan_keeps_a_dividing_dt_silently(self, caplog):
        with caplog.at_level(logging.INFO, logger=self.log.name):
            assert plan(0.01, 2.5e-3, 10, self.log) == (2.5e-3, [1, 2, 3, 4])
            assert plan(0.0, 1e-3, 5, self.log) == (1e-3, [])
        assert not caplog.records

    def test_march_yields_each_mark(self):
        def advance(x, start, count):
            steps.append((start, count))
            return x * 1.01 ** count

        steps = []
        out = list(march(advance, 1.0, [2, 5], 0.1, abs, t0=1.0))
        assert steps == [(0, 2), (2, 3)]
        assert [t for t, _ in out] == [pytest.approx(1.2), pytest.approx(1.5)]
        assert out[-1][1] == pytest.approx(1.01 ** 5)

    @pytest.mark.parametrize("x0,step,match", [
        (1.0, lambda x: 11.0 * x, "blow-up guard tripped at t = 0.2"),
        (0.0, lambda x: x + 1.5, "blow-up guard tripped at t = 0.2"),  # floor 1
        (1.0, lambda x: x * np.nan, "non-finite state at t = 0.2")])
    def test_march_guard_names_the_time(self, x0, step, match):
        with pytest.raises(NumericalError, match=match):
            list(march(lambda x, _start, _count: step(x), x0, [2, 4], 0.1, abs))
