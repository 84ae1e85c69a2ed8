"""Each correctness check of the benchmark passes on good outputs and fails on
a corrupted one.

    python3 -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import disperlim as dl
from disperlim import RealField, ScalingParams, StepperConfig
from disperlim.euler_poisson import EPIntegrator, EPState
from disperlim.initial_data import gaussian_zero_mean

import checks
import workloads

EPS = (0.2, 0.1, 0.05)


def _sweep(samples=2):
    rows, diagnostics = [], {}
    for e in EPS:
        for i in range(samples + 1):
            t = 0.01 * i
            rows.append({"epsilon": e, "time": t, "norm_kind": "triple",
                         "n": 1.0 + t, "u": 0.5, "phi": 2.0, "err1": e * t + 1e-12})
        diagnostics[e] = {
            "epsilon": e, "prepared": {"phi_gap_l2": 0.5 * e ** 2},
            "snapshots": [{"time": 0.01 * i, "mass": 1e-7, "poisson_residual": 1e-12}
                          for i in range(samples + 1)]}
    return rows, diagnostics


def _check_sweep(rows, diagnostics):
    return checks.check_sweep(rows, diagnostics, EPS, 2, 8000.0, 1e-11,
                              norm_kind="triple")


def test_sweep_checks_pass_on_good_outputs():
    assert _check_sweep(*_sweep()) == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda r, d: d[0.1]["snapshots"][2].update(mass=1e-7 + 2e-10), "mass drift"),
    (lambda r, d: d[0.05]["snapshots"][1].update(poisson_residual=1e-9), "Poisson residual"),
    (lambda r, d: d[0.05]["prepared"].update(phi_gap_l2=0.5 * 0.05 ** 1.5), "phi_gap order"),
    (lambda r, d: r[1].update(n=10.0), "remainder band"),
    (lambda r, d: r[-1].update(err1=1.0), "err1 does not decrease"),
    (lambda r, d: r[4].update(norm_kind="H4"), "norm kinds"),
    (lambda r, d: r.pop(), "rows, expected"),
])
def test_sweep_checks_fail_on_corrupted_outputs(corrupt, expected):
    rows, diagnostics = _sweep()
    corrupt(rows, diagnostics)
    problems = _check_sweep(rows, diagnostics)
    assert any(expected in p for p in problems), problems


def test_linear_matrix_agrees_with_the_program():
    for dim, ti, k in ((2, 1.0, (1.0, 2.0)), (3, 0.0, (1.0, 1.0, 2.0))):
        for eps in (0.05, 0.2):
            p = ScalingParams(epsilon=eps, ion_temperature=ti, dim=dim)
            np.testing.assert_allclose(checks.linear_matrix(k, eps, ti),
                                       dl.linearized_symbol(k, p), atol=1e-14)


def _single_mode_run(dim, steps=10):
    dims = (32, 32) if dim == 2 else (16, 16, 16)
    kidx = (1, 2) if dim == 2 else (1, 1, 2)
    ti = 1.0 if dim == 2 else 0.0
    eps, dt, amp, phase = 0.1, 1e-3, 1e-6, 0.7
    g = dl.build_grid(dims, [2 * np.pi] * dim)
    xs = g.meshgrid()
    n = RealField(g, 1.0 + amp * np.cos(sum(k * x for k, x in zip(kidx, xs)) + phase))
    p = ScalingParams(epsilon=eps, ion_temperature=ti, dim=dim)
    phi = dl.solve_poisson(n, p, tol=1e-13)
    zero = RealField.zeros(g)
    state = EPState(n=n, u=(zero,) * dim, phi=phi, time=0.0, params=p)
    eng = EPIntegrator(g, p, StepperConfig(dt=dt, poisson_tol=1e-13))
    stack, _ = eng.advance(eng.to_stack(state), phi.values, steps)
    got = stack[(slice(None),) + kidx]
    x0 = np.zeros(dim + 1, dtype=complex)
    x0[0] = 0.5 * amp * np.exp(1j * phase)
    return got, checks.expected_mode(kidx, eps, ti, x0, steps * dt), amp


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_fidelity_detects_a_flipped_phase(dim):
    got, want, amp = _single_mode_run(dim)
    assert checks.check_linear_fidelity(got, want, amp) == []
    flipped = got.copy()
    flipped[1] = -flipped[1]
    assert checks.check_linear_fidelity(flipped, want, amp)


def test_poisson_checks_detect_a_perturbed_potential():
    g = dl.build_grid([64, 64], [2 * np.pi] * 2)
    p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
    x, y = g.meshgrid()
    n = RealField(g, 1.0 + 0.4 * np.sin(y + 0.3))
    phi = dl.solve_poisson(n, p, tol=1e-11).values
    assert checks.check_poisson(n.values, phi, g.lengths, 0.1, 1e-11) == []
    assert checks.check_poisson(n.values, phi + 1e-6 * np.cos(x), g.lengths, 0.1, 1e-11)

    mode = np.sin(y + 0.3)
    tiny = RealField(g, 1.0 + 1e-6 * mode)
    phi = dl.solve_poisson(tiny, p, tol=1e-13).values
    assert checks.check_screened_response(phi, 1e-6, mode, g.lengths, 0.1) == []
    assert checks.check_screened_response(phi + 1e-11 * np.cos(x), 1e-6, mode,
                                          g.lengths, 0.1)


def test_ladder_judges_failures():
    ladder = object.__new__(workloads.PoissonLadder)
    typed = (dl.ConvergenceError, "stagnated")
    ok = {"solved": [], "failures": [("2d failing a=0.8", True, *typed)]}
    assert ladder.check_round(ok) == []
    untyped = {"solved": [], "failures": [("2d failing a=0.8", True, FloatingPointError, "")]}
    assert ladder.check_round(untyped)
    unexpected = {"solved": [], "failures": [("2d a=0.3", False, *typed)]}
    assert ladder.check_round(unexpected)


def _order2_case():
    V = math.sqrt(2.0)
    g = dl.build_grid([32, 32], [40.0, 40.0])
    n1 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    h = dl.second_order_profiles_kp(n1, RealField.zeros(g), V)
    p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
    return g, n1, h, p


def test_order2_checks_detect_corruption():
    from disperlim import profiles
    g, n1, h, p = _order2_case()
    check = workloads.Order2Profiles.check_round
    bench = object.__new__(workloads.Order2Profiles)
    coeffs = h.coeffs
    closed = profiles.assemble_lin_source_closed_form(n1, coeffs, "KP2")
    mech = profiles.assemble_lin_source_mechanical(n1, coeffs, "KP2")

    def result(reports, states, mechanical):
        return {"cases": [{"dim": 2, "n1": states, "volume": g.volume,
                           "reports": reports, "mechanical": mechanical,
                           "closed_form": closed}]}

    good = [dl.residual_order_systems(h, p)]
    states = [n1.values, n1.values.copy()]
    assert check(bench, result(good, states, mech)) == []

    for name in ("n1", "u1_2", "phi2"):
        bad = [dl.residual_order_systems(h.corrupted(name, 1e-3), p)]
        assert check(bench, result(bad, states, mech)), name
    assert check(bench, result(good, [n1.values, 1.001 * n1.values], mech))
    assert check(bench, result(good, states, mech * (1.0 + 1e-8)))
