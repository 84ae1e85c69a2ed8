"""Invariants over random grids: dealiasing, the linear symbols, the engine's
eigenbasis and mass conservation per step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import disperlim as dl
from disperlim import (EPState, LimitConfig, RealField, ScalingParams,
                       SpectralField, StepperConfig, dealias, linearized_symbol,
                       solve_kdv, solve_kp2, solve_poisson, solve_zk, step_ep)
from disperlim.euler_poisson import EPIntegrator
from disperlim.limit_equations import LimitCoefficients, symbol_array
from disperlim.spectral import HalfOps, fft_c, half, irfft_c, rfft_c

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def grids(draw, ranks=(2, 3), points=(4, 16)):
    """Random even grids of 2*points[0] to 2*points[1] points per axis."""
    ndim = draw(st.sampled_from(ranks))
    dims = [2 * draw(st.integers(*points)) for _ in range(ndim)]
    lengths = [draw(st.floats(2.0, 40.0)) for _ in range(ndim)]
    return dl.build_grid(dims, lengths)


@settings(max_examples=30, deadline=None)
@given(grid=grids(ranks=(1, 2, 3)), seed=seeds)
def test_dealiasing_is_idempotent(grid, seed):
    x = np.random.default_rng(seed).standard_normal(grid.shape)
    once = dealias(SpectralField(grid, fft_c(x, grid)))
    assert np.array_equal(dealias(once).coeffs, once.coeffs)
    ops = HalfOps(grid)
    c = ops.mask * rfft_c(x, grid)
    assert np.array_equal(ops.mask * c, c)
    assert np.array_equal(ops.mask * ops.prod_c(c, c), ops.prod_c(c, c))


@settings(max_examples=30, deadline=None)
@given(grid=grids(ranks=(1, 2, 3)), V=st.floats(0.5, 3.0))
def test_limit_symbols_are_purely_imaginary(grid, V):
    equation = {1: "KdV", 2: "KP2", 3: "ZK"}[grid.ndim]
    sym = symbol_array(grid, LimitCoefficients.for_equation(equation, V), equation)
    assert np.all(np.isfinite(sym))
    assert np.all(sym.real == 0.0)


@settings(max_examples=20, deadline=None)
@given(grid=grids(points=(4, 8)), eps=st.floats(0.02, 0.5),
       ti=st.sampled_from([0.0, 1.0]), data=st.data())
def test_engine_eigenbasis_diagonalizes_the_linear_symbol(grid, eps, ti, data):
    d = grid.ndim
    if d == 2:
        ti = 1.0
    p = ScalingParams(epsilon=eps, ion_temperature=ti, dim=d)
    engine = EPIntegrator(grid, p, StepperConfig(dt=0.25 * eps * min(grid.spacings)))
    shape = engine.symbol.shape[1:]
    k = [np.broadcast_to(half(grid.wavenumber(a), grid), shape) for a in range(d)]
    # five random modes, every mode of the k1 = 0 plane and of the k_perp = 0 line
    picks = (k[0] == 0.0) | (sum(ka * ka for ka in k[1:]) == 0.0)
    for _ in range(5):
        picks[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = True
    for idx in zip(*np.nonzero(picks)):
        U = engine.basis[(slice(None), slice(None)) + idx]
        D = np.diag([engine.c[idx]] + [1.0] * d)
        F, T = np.linalg.inv(D) @ U, U.conj().T @ D
        target = linearized_symbol([float(ka[idx]) for ka in k], p) / eps
        got = F @ np.diag(engine.symbol[(slice(None),) + idx]) @ T
        assert np.max(np.abs(got - target)) <= 1e-12 * max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(F @ T - np.eye(d + 1))) <= 1e-12


def _random_density(rng, grid, amplitude):
    """1 + a smooth random perturbation with a nonzero mean."""
    kmax2 = max((np.pi * n / length) ** 2 for n, length in zip(grid.dims, grid.lengths))
    c = rfft_c(rng.standard_normal(grid.shape), grid)
    x = irfft_c(c * np.exp(HalfOps(grid).neg_ksq / (0.1 * kmax2)), grid)
    return 1.0 + 0.1 * amplitude + amplitude * x / np.max(np.abs(x))


@settings(max_examples=10, deadline=None)
@given(grid=grids(points=(4, 8)), seed=seeds, eps=st.floats(0.05, 0.5))
def test_one_ep_step_conserves_mass(grid, seed, eps):
    d = grid.ndim
    p = ScalingParams(epsilon=eps, ion_temperature=1.0 if d == 2 else 0.0, dim=d)
    rng = np.random.default_rng(seed)
    n = RealField(grid, _random_density(rng, grid, 0.1))
    u = tuple(RealField(grid, 0.05 * (_random_density(rng, grid, 1.0) - 1.0))
              for _ in range(d))
    state = EPState(n=n, u=u, phi=solve_poisson(n, p), time=0.0, params=p)
    new = step_ep(state, StepperConfig(dt=0.3 * eps * min(grid.spacings)))
    mass0 = float(np.mean(state.n.values)) * grid.volume
    mass1 = float(np.mean(new.n.values)) * grid.volume
    assert abs(mass1 - mass0) <= 1e-13 * grid.volume


@settings(max_examples=15, deadline=None)
@given(grid=grids(ranks=(1, 2, 3), points=(4, 12)), seed=seeds)
def test_one_limit_step_conserves_mass(grid, seed):
    equation, solve = {1: ("KdV", solve_kdv), 2: ("KP2", solve_kp2),
                       3: ("ZK", solve_zk)}[grid.ndim]
    c = rfft_c(_random_density(np.random.default_rng(seed), grid, 0.3) - 1.0, grid)
    if grid.ndim == 2:   # the 2D model keeps no streamwise mean but the global one
        mean = c[0, 0]
        c[0] = 0.0
        c[0, 0] = mean
    n0 = RealField(grid, irfft_c(c, grid))
    dt = 1e-3
    traj = solve(n0, LimitConfig(V=1.2, dt=dt, T=dt, equation=equation, snapshots=1))
    mass0, mass1 = (float(np.mean(s)) * grid.volume for s in traj.states)
    assert mass0 != 0.0
    assert abs(mass1 - mass0) <= 1e-13 * grid.volume
