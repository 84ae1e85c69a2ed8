"""The half-spectrum layer: real-data transforms, the potential solve and the
Euler-Poisson engine that run on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disperlim as dl
from disperlim import (EPState, RealField, ScalingParams, SpectralField,
                       StepperConfig, ep_rhs, linearized_symbol, solve_poisson)
from disperlim.euler_poisson import EPIntegrator
from disperlim.poisson import poisson_residual, solve_poisson_values
from disperlim.spectral import fft_c, half, irfft_c, rfft_c

even_points = st.integers(4, 16).map(lambda m: 2 * m)


@st.composite
def grids(draw):
    """Random even grids of 8 to 32 points per axis, 2D or 3D."""
    ndim = draw(st.sampled_from([2, 3]))
    dims = [draw(even_points) for _ in range(ndim)]
    lengths = [draw(st.floats(2.0, 40.0)) for _ in range(ndim)]
    return dl.build_grid(dims, lengths)


seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=seeds)
def test_rfft_is_the_half_of_fft(grid, seed):
    x = np.random.default_rng(seed).standard_normal(grid.shape)
    full = fft_c(x, grid)
    got = rfft_c(x, grid)
    assert got.shape == grid.shape[:-1] + (grid.dims[-1] // 2 + 1,)
    assert np.allclose(got, half(full, grid), rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=seeds)
def test_irfft_inverts_rfft(grid, seed):
    x = np.random.default_rng(seed).standard_normal(grid.shape)
    assert np.allclose(irfft_c(rfft_c(x, grid), grid), x, rtol=0.0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(grid=grids())
def test_half_keeps_the_nyquist_wavenumber_negative(grid):
    k = half(grid.wavenumber(grid.ndim - 1), grid).ravel()
    n, length = grid.dims[-1], grid.lengths[-1]
    assert len(k) == n // 2 + 1
    assert k[-1] == pytest.approx(-np.pi * n / length)
    assert np.array_equal(k[:-1], grid.wavenumber(grid.ndim - 1).ravel()[:n // 2])


@settings(max_examples=15, deadline=None)
@given(grid=grids(), seed=seeds, contrast=st.floats(0.0, 0.9),
       epsilon=st.floats(0.05, 0.5))
def test_poisson_residual_bound_up_to_max_density_1_9(grid, seed, contrast,
                                                      epsilon):
    params = ScalingParams(epsilon=epsilon, ion_temperature=1.0, dim=grid.ndim)
    g = np.random.default_rng(seed).standard_normal(grid.shape)
    n = 1.0 + contrast * g / np.max(np.abs(g))
    tol = 1e-11
    phi, _ = solve_poisson_values(n, grid, params, tol=tol)
    norm = np.sqrt(grid.volume * np.mean(n * n))
    assert poisson_residual(n, phi, grid, params) <= tol * norm


def _bump_state(grid, params, amplitude=0.2):
    xs = grid.meshgrid()
    r2 = sum((x - length / 2) ** 2 for x, length in zip(xs, grid.lengths))
    n = RealField(grid, 1.0 + amplitude * np.exp(-r2 / 4.0))
    u = tuple(RealField(grid, 0.1 * amplitude * np.sin(2 * np.pi * x / length))
              for x, length in zip(xs, grid.lengths))
    return EPState(n=n, u=u, phi=solve_poisson(n, params), time=0.0,
                   params=params)


@pytest.mark.parametrize("dims,ti", [([32, 16], 1.0), ([16, 16, 16], 0.0)])
def test_advance_returns_a_hermitian_full_layout_stack(dims, ti):
    grid = dl.build_grid(dims, [12.0] * len(dims))
    params = ScalingParams(epsilon=0.1, ion_temperature=ti, dim=len(dims))
    state = _bump_state(grid, params)
    engine = EPIntegrator(grid, params,
                          StepperConfig(dt=0.4 * 0.1 * min(grid.spacings)))
    stack = engine.to_stack(state)
    for out, _ in (engine.advance(stack, state.phi.values, 3),
                   engine.step_stack(stack, state.phi.values)):
        assert out.shape == stack.shape
        for component in out:
            assert SpectralField(grid, component).hermitian_defect() < 1e-12


def test_rhs_on_a_conjugate_half_mode_matches_the_symbol(grid2d):
    # mode (1, -2) lies in the half that the engine does not store; the
    # tendency is read back there through the full-layout transform
    eps, amp, kidx = 0.1, 1e-7, (1, -2)
    p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=2)
    x, y = grid2d.meshgrid()
    n = RealField(grid2d, 1.0 + amp * np.cos(kidx[0] * x + kidx[1] * y))
    zero = RealField.zeros(grid2d)
    state = EPState(n=n, u=(zero, zero), phi=solve_poisson(n, p, tol=1e-13),
                    time=0.0, params=p)
    dn, du = ep_rhs(state)
    expect = linearized_symbol((1.0, -2.0), p) @ np.array([amp / 2, 0.0, 0.0]) / eps
    got = np.array([fft_c(f.values, grid2d)[kidx] for f in (dn, *du)])
    assert np.max(np.abs(expect)) > amp
    assert np.max(np.abs(got - expect)) < 50 * amp ** 2 / eps + 1e-12
