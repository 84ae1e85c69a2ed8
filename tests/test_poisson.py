import numpy as np
import pytest

import disperlim as dl
from disperlim import ConvergenceError, NumericalError, RealField, ScalingParams
from disperlim.poisson import poisson_residual, solve_poisson


@pytest.fixture
def params2d():
    return ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)


def test_uniform_density_gives_zero_potential(grid2d, params2d):
    phi = solve_poisson(RealField.constant(grid2d, 1.0), params2d)
    assert phi.max_abs() < 1e-14


def test_constant_balance(grid2d, params2d):
    c = 0.3
    phi = solve_poisson(RealField.constant(grid2d, np.exp(c)), params2d, tol=1e-12)
    assert np.max(np.abs(phi.values - c)) < 1e-11


def test_linearized_oracle(grid2d):
    # at tiny amplitude the response is n_hat / (1 + eps*|k_w|^2) per mode
    eps, amp = 0.1, 1e-6
    p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=2)
    x, y = grid2d.meshgrid()
    n = RealField(grid2d, 1.0 + amp * np.sin(2 * x + y))
    phi = solve_poisson(n, p, tol=1e-13)
    kw2 = 2.0 ** 2 + eps * 1.0 ** 2
    expected = amp * np.sin(2 * x + y) / (1.0 + eps * kw2)
    assert np.max(np.abs(phi.values - expected)) / amp < 1e-6


def test_residual_meets_tolerance(grid2d, params2d, rng):
    bump = 0.2 * np.real(np.fft.ifft2(np.fft.fft2(rng.standard_normal(grid2d.shape))
                                      * (np.abs(np.fft.fftfreq(32)[:, None]) < 0.2)
                                      * (np.abs(np.fft.fftfreq(32)[None, :]) < 0.2)))
    n = RealField(grid2d, 1.0 + bump - bump.mean())
    phi, info = solve_poisson(n, params2d, tol=1e-11, return_info=True)
    scale = np.sqrt(np.mean(n.values ** 2) * grid2d.volume)
    res = poisson_residual(n.values, phi.values, grid2d, params2d)
    assert res <= 1e-11 * scale


def test_newton_quadratic_convergence(grid2d, params2d):
    x, _ = grid2d.meshgrid()
    n = RealField(grid2d, 1.0 + 0.3 * np.sin(x))
    _, info = solve_poisson(n, params2d, tol=1e-13, return_info=True)
    res = info["residuals"]
    scale = np.sqrt(np.mean(n.values ** 2) * grid2d.volume)
    ratios = [res[i + 1] / res[i] ** 2 for i in range(len(res) - 1)
              if res[i] / scale < 1e-2 and res[i + 1] > 0]
    assert ratios, "expected at least one quadratic-regime step"
    assert all(np.isfinite(r) for r in ratios)
    assert max(ratios) < 1e3  # K finite and modest


def test_warm_start_short_circuit(grid2d, params2d):
    x, _ = grid2d.meshgrid()
    n = RealField(grid2d, 1.0 + 0.1 * np.sin(x))
    phi, _ = solve_poisson(n, params2d, tol=1e-11, return_info=True)
    _, info = solve_poisson(n, params2d, tol=1e-11, warm_start=phi,
                            return_info=True)
    assert info["newton_iterations"] == 0


def test_nonpositive_density_rejected(grid2d, params2d):
    values = np.ones(grid2d.shape)
    values[0, 0] = -0.5
    with pytest.raises(NumericalError):
        # bypass the state validator on purpose: call the solver directly
        from disperlim.poisson import solve_poisson_values
        solve_poisson_values(values, grid2d, params2d)


def test_stagnation_raises(grid2d, params2d):
    x, _ = grid2d.meshgrid()
    n = RealField(grid2d, 1.0 + 0.5 * np.sin(x))
    with pytest.raises(ConvergenceError) as err:
        solve_poisson(n, params2d, tol=1e-13, max_newton=1)
    assert err.value.residual > 0


@pytest.mark.parametrize("amp", [0.8, 0.9, 0.99])
def test_high_contrast_2d(amp):
    # max n up to 1.99: past where a preconditioner built on exp(phi) ~ 1
    # stops contracting
    g = dl.build_grid([128, 128], [2 * np.pi] * 2)
    p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
    _, y = g.meshgrid()
    n = RealField(g, 1.0 + amp * np.sin(y))
    phi, info = solve_poisson(n, p, tol=1e-11, return_info=True)
    scale = np.sqrt(np.mean(n.values ** 2) * g.volume)
    assert poisson_residual(n.values, phi.values, g, p) <= 1e-11 * scale
    assert info["inner_sweeps"] < 400


def test_high_contrast_3d():
    g = dl.build_grid([32, 32, 32], [2 * np.pi] * 3)
    p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
    x, y, z = g.meshgrid()
    n = RealField(g, 1.0 + 0.8 * np.sin(x + y + z))
    phi, info = solve_poisson(n, p, tol=1e-11, return_info=True)
    scale = np.sqrt(np.mean(n.values ** 2) * g.volume)
    assert poisson_residual(n.values, phi.values, g, p) <= 1e-11 * scale
    assert info["inner_sweeps"] < 200


@pytest.mark.parametrize("case", ["nan_density", "overflowing_start"])
def test_non_finite_is_numerical_error(grid2d, params2d, case):
    from disperlim.poisson import solve_poisson_values
    x, _ = grid2d.meshgrid()
    n = 1.0 + 0.1 * np.sin(x)
    warm = None
    if case == "nan_density":
        n[3, 4] = np.nan
    else:
        warm = np.full(grid2d.shape, 800.0)   # exp overflows to inf
    with pytest.raises(NumericalError), np.errstate(over="ignore"):
        solve_poisson_values(n, grid2d, params2d, warm_start=warm)
