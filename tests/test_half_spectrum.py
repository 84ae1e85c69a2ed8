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


def _smooth(rng, grid, k, keep=1.0):
    """A smooth random field: white noise under a Gaussian of a third of the
    largest wavenumber, times the spectral multiplier ``keep``."""
    kmax2 = max((np.pi * n / length) ** 2 for n, length in zip(grid.dims, grid.lengths))
    c = np.fft.fftn(rng.standard_normal(grid.shape))
    x = np.fft.ifftn(c * keep * np.exp(-sum(ka ** 2 for ka in k) / (0.1 * kmax2))).real
    return x / np.max(np.abs(x))


@settings(max_examples=25, deadline=None)
@given(grid=grids(), seed=seeds, eps=st.floats(0.05, 0.5),
       ti=st.sampled_from([0.0, 1.0]))
def test_tendency_matches_a_convective_full_layout_reference(grid, seed, eps, ti):
    # F of the convective form, every product dealiased, in numpy.fft's full
    # layout.  The velocities have content in every component and on the tail,
    # but none at |index| = n/3 (kept by the mask when 3 divides n), so the
    # masked velocity lies strictly inside the mask and the rotational form
    # the engine uses is exact; the density has its whole spectrum.
    d = grid.ndim
    p = ScalingParams(epsilon=eps, ion_temperature=ti, dim=d)
    k, mask, ik = _reference(grid)
    edge = np.ones(grid.shape, dtype=bool)
    for a, n in enumerate(grid.dims):
        index = np.abs(np.rint(np.fft.fftfreq(n) * n)).reshape(k[a].shape)
        edge &= ~((n % 3 == 0) & (index == n // 3))
    rng = np.random.default_rng(seed)
    n = 1.05 + 0.1 * _smooth(rng, grid, k)
    u = [0.1 * _smooth(rng, grid, k, keep=edge) for _ in range(d)]
    phi0 = solve_poisson(RealField(grid, n), p, tol=1e-13)
    cfg = StepperConfig(dt=1e-3, poisson_tol=1e-13)
    state = EPState(n=RealField(grid, n), u=[RealField(grid, c) for c in u],
                    phi=phi0, time=0.0, params=p)
    dn, du = ep_rhs(state, cfg)

    phi, _ = solve_poisson_values(n, grid, p, tol=1e-13, warm_start=phi0.values)
    w = [1.0] + [np.sqrt(eps) if d == 2 else 1.0] * (d - 1)
    nh, uh = np.fft.fftn(n), [np.fft.fftn(c) for c in u]
    real = lambda c: np.fft.ifftn(c).real
    # the symbol's raw-k terms leave non-Hermitian content on the Nyquist
    # planes: F is read back from its half, as the real-data layout reads it
    back = lambda c: np.fft.irfftn(c[..., :grid.dims[-1] // 2 + 1], s=grid.shape)
    nm, um = real(mask * nh), [real(mask * c) for c in uh]
    vk1 = 1j * p.wave_speed * k[0]
    ref = [back(vk1 * nh - sum(w[a] * ik(a, 1) * mask * np.fft.fftn(nm * um[a])
                               for a in range(d))) / eps]
    for j in range(d):
        adv = sum(w[a] * um[a] * real(ik(a, 1) * mask * uh[j]) for a in range(d))
        pressure = real(ik(j, 1) * mask * nh) / n
        ref.append(back(vk1 * uh[j] - mask * np.fft.fftn(adv)
                        - ti * w[j] * mask * np.fft.fftn(pressure)
                        - w[j] * ik(j, 1) * np.fft.fftn(phi)) / eps)
    if d == 3:
        ref[2], ref[3] = ref[2] + u[2] / np.sqrt(eps) / eps, ref[3] - u[1] / np.sqrt(eps) / eps
    for got, want in zip([dn, *du], ref):
        assert _close(got.values, want)


# -- the profile layer's operator set against a full-layout numpy.fft reference


def _reference(grid):
    """Full-layout wavenumbers, odd-order derivative factors and the
    two-thirds mask, built with numpy.fft alone."""
    k = [2 * np.pi * np.fft.fftfreq(n, d=length / n)
         for n, length in zip(grid.dims, grid.lengths)]
    k = [ka.reshape([-1 if a == b else 1 for b in range(grid.ndim)])
         for a, ka in enumerate(k)]
    idx = [np.abs(np.rint(np.fft.fftfreq(n) * n)) for n in grid.dims]
    mask = np.ones(grid.shape, dtype=bool)
    for a, ia in enumerate(idx):
        mask &= (ia <= grid.dims[a] / 3).reshape(k[a].shape)

    def ik(a, p):
        factor = (1j * k[a]) ** p
        nyquist = np.isclose(np.abs(k[a]), np.pi * grid.dims[a] / grid.lengths[a])
        return np.where(nyquist, 0.0, factor) if p % 2 else factor

    return k, mask, ik


def _close(got, ref):
    scale = max(np.max(np.abs(ref)), 1e-300)
    return np.max(np.abs(got - ref)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(grid=grids(), seed=seeds, axis=st.integers(0, 2), order=st.integers(1, 3))
def test_profile_operators_match_a_full_layout_reference(grid, seed, axis, order):
    from disperlim.profiles import _Ops

    axis = axis % grid.ndim
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2,) + grid.shape)
    k, mask, ik = _reference(grid)
    fa, fb = np.fft.fftn(a), np.fft.fftn(b)
    op = _Ops(grid)

    assert _close(op.d(a, axis, order), np.fft.ifftn(ik(axis, order) * fa).real)
    am = np.fft.ifftn(mask * fa).real
    bm = np.fft.ifftn(mask * fb).real
    assert _close(op.prod(a, b), np.fft.ifftn(mask * np.fft.fftn(am * bm)).real)
    ksq = sum(ka ** 2 for ka in k)
    assert _close(op.lap(a), np.fft.ifftn(-ksq * fa).real)
    # the antiderivative needs an empty k1 = 0 plane: drop each line's mean
    z = a - a.mean(axis=0, keepdims=True)
    ik1 = ik(0, 1)
    inv = np.where(ik1 == 0, 0.0, 1.0 / np.where(ik1 == 0, 1.0, ik1))
    assert _close(op.inv_d1(z), np.fft.ifftn(inv * np.fft.fftn(z)).real)
    coeffs = fa / grid.npoints
    for s in (0, 2, 4):
        ref = np.sqrt(grid.volume * np.sum((1 + ksq) ** s * np.abs(coeffs) ** 2))
        got = op.l2(a) if s == 0 else op.hs(a, s)
        assert abs(got - ref) <= 1e-12 * ref


@settings(max_examples=20, deadline=None)
@given(grid=grids(), seed=seeds)
def test_profile_tendencies_match_a_full_layout_reference(grid, seed):
    from disperlim.limit_equations import LimitCoefficients
    from disperlim.profiles import _Ops

    equation = "KP2" if grid.ndim == 2 else "ZK"
    co = LimitCoefficients.for_equation(equation, 1.3)
    n1, n2, g = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    k, mask, ik = _reference(grid)
    k1 = ik(0, 1).imag
    if equation == "KP2":
        safe = np.where(k1 == 0, 1.0, k1)
        sym = 1j * (co.dispersion_x * k1 ** 3
                    - co.transverse * np.where(k1 == 0, 0.0, k[1] ** 2 / safe))
    else:
        kperp2 = k[1] ** 2 + k[2] ** 2
        sym = 1j * (co.dispersion_x * k1 ** 3 + co.transverse * k1 * kperp2)
    f1, f2 = np.fft.fftn(n1), np.fft.fftn(n2)
    v1 = np.fft.ifftn(mask * f1).real
    v2 = np.fft.ifftn(mask * f2).real

    def flux(p):
        return ik(0, 1) * mask * np.fft.fftn(p)

    evolution = np.fft.ifftn(sym * f1 - 0.5 * co.nonlinear * flux(v1 * v1)).real
    linearized = np.fft.ifftn(sym * f2 - co.bilinear * flux(v1 * v2)).real + g
    op = _Ops(grid, co, equation)
    K, N, S = (op.spec(x) for x in (n1, n2, g))
    assert _close(irfft_c(op.evolution_c(K), grid), evolution)
    assert _close(irfft_c(op.linearized_c(N, K, S), grid), linearized)


# -- the norms against a full-layout numpy.fft reference


def _white_tailed(rng, grid, tail):
    """Random field below the top octave plus ``tail`` times white noise."""
    low = np.ones(grid.shape, dtype=bool)
    for a, n in enumerate(grid.dims):
        idx = np.abs(np.rint(np.fft.fftfreq(n) * n))
        low &= (idx < n // 4).reshape([-1 if a == b else 1 for b in range(grid.ndim)])
    smooth = np.fft.ifftn(low * np.fft.fftn(rng.standard_normal(grid.shape))).real
    return smooth + tail * rng.standard_normal(grid.shape)


def _hs_reference(x, grid, s):
    k, _, _ = _reference(grid)
    c = np.fft.fftn(x) / grid.npoints
    w = (1 + sum(ka ** 2 for ka in k)) ** s * np.abs(c) ** 2
    return np.sqrt(grid.volume * np.sum(w)), w


def _triple_reference(x, role, grid, eps, s):
    """The triple norm as the sum of H^s norms of the field, its anisotropic
    gradient and its anisotropic Laplacian, each taken in real space."""
    k, _, ik = _reference(grid)
    wts = [1.0] + [np.sqrt(eps) if grid.ndim == 2 else 1.0] * (grid.ndim - 1)
    c = np.fft.fftn(x)
    total = _hs_reference(x, grid, s)[0] ** 2
    if role != "density":
        for a in range(grid.ndim):
            g = wts[a] * np.fft.ifftn(ik(a, 1) * c).real
            total += eps * _hs_reference(g, grid, s)[0] ** 2
    if role == "potential":
        kw2 = sum(w * w * ka ** 2 for w, ka in zip(wts, k))
        total += eps ** 2 * _hs_reference(np.fft.ifftn(-kw2 * c).real, grid, s)[0] ** 2
    return np.sqrt(total)


def _tail_reference(w, grid):
    top = np.zeros(grid.shape, dtype=bool)
    for a, n in enumerate(grid.dims):
        idx = np.abs(np.rint(np.fft.fftfreq(n) * n))
        top |= (idx >= n // 4).reshape([-1 if a == b else 1 for b in range(grid.ndim)])
    total = np.sum(w)
    return np.sqrt(np.sum(w[top]) / total) if total else 0.0


tails = st.sampled_from([0.0, 1e-5, 1.0])


@settings(max_examples=30, deadline=None)
@given(grid=grids(), seed=seeds, eps=st.floats(0.02, 0.5), s=st.sampled_from([0, 2, 4]))
def test_sobolev_and_triple_norms_match_a_full_layout_reference(grid, seed, eps, s):
    from disperlim.spectral import sobolev_norm, triple_norm

    x = _white_tailed(np.random.default_rng(seed), grid, 1.0)
    f = RealField(grid, x)
    ref = _hs_reference(x, grid, s)[0]
    assert abs(sobolev_norm(f, s) - ref) <= 1e-12 * ref
    p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=grid.ndim)
    for role in ("density", "velocity", "potential"):
        ref = _triple_reference(x, role, grid, eps, s)
        assert abs(triple_norm(f, role, p, s) - ref) <= 1e-12 * ref


@settings(max_examples=25, deadline=None)
@given(grid=grids(), seed=seeds, eps=st.floats(0.02, 0.5),
       pressureless=st.booleans(), s_prime=st.sampled_from([4, 5]),
       tail=st.tuples(tails, tails, tails))
def test_remainder_report_matches_a_full_layout_reference(grid, seed, eps, pressureless,
                                                          s_prime, tail):
    from disperlim.study import RemainderState, StudyConfig, remainder_norm_report

    d = grid.ndim
    ti = 0.0 if pressureless and d == 3 else 1.0
    cfg = StudyConfig(d=d, ion_temperature=ti, epsilons=(0.2, 0.1, 0.05), tau0=0.1,
                      s_prime=s_prime, grid_dims=grid.dims, grid_lengths=grid.lengths)
    p = ScalingParams(epsilon=eps, ion_temperature=ti, dim=d)
    rng = np.random.default_rng(seed)
    n, phi = (_white_tailed(rng, grid, t) for t in tail[:2])
    u = [_white_tailed(rng, grid, tail[2]) for _ in range(d)]
    r = RemainderState(n_R=RealField(grid, n), u_R=tuple(RealField(grid, c) for c in u),
                       phi_R=RealField(grid, phi), epsilon=eps, time=0.0)
    rep = remainder_norm_report(r, cfg, p)

    warnings = []
    for name, x in [("n", n), ("phi", phi)] + [(f"u{j + 1}", c) for j, c in enumerate(u)]:
        share = _tail_reference(_hs_reference(x, grid, s_prime)[1], grid)
        if share > 1e-6:
            warnings.append(f"{name}: top-octave share {share:.2e} of the H^{s_prime} "
                            "norm; remainder may be under-resolved")
    if ti == 0.0:
        ref = {"n": _triple_reference(n, "density", grid, eps, s_prime),
               "u": np.sqrt(sum(_triple_reference(c, "velocity", grid, eps, s_prime) ** 2
                                for c in u)),
               "phi": _triple_reference(phi, "potential", grid, eps, s_prime)}
    else:
        ref = {"n": _hs_reference(n, grid, s_prime)[0],
               "u": np.sqrt(sum(_hs_reference(c, grid, s_prime)[0] ** 2 for c in u)),
               "phi": _hs_reference(phi, grid, s_prime)[0]}
    assert rep["norm_kind"] == ("triple" if ti == 0.0 else f"H{s_prime}")
    for key, value in ref.items():
        assert abs(rep[key] - value) <= 1e-12 * value
    assert rep["warnings"] == warnings


def test_a_triple_report_spends_one_batched_real_transform(monkeypatch):
    import types

    import scipy.fft

    from disperlim import spectral
    from disperlim.study import RemainderState, StudyConfig, remainder_norm_report

    calls = []

    def wrap(name):
        def counted(x, *args, **kwargs):
            calls.append((name, np.shape(x)))
            return getattr(scipy.fft, name)(x, *args, **kwargs)
        return counted

    names = ("fftn", "ifftn", "rfftn", "irfftn")
    monkeypatch.setattr(spectral, "_fft", types.SimpleNamespace(
        **{name: wrap(name) for name in names}))
    g = dl.build_grid([16, 16, 16], [20.0] * 3)
    x = np.random.default_rng(3).standard_normal((5,) + g.shape)
    fields = [RealField(g, v) for v in x]
    cfg = StudyConfig(d=3, ion_temperature=0.0, epsilons=(0.2, 0.1, 0.05), tau0=0.1,
                      grid_dims=g.dims, grid_lengths=g.lengths)
    r = RemainderState(n_R=fields[0], u_R=tuple(fields[2:]), phi_R=fields[1],
                       epsilon=0.1, time=0.0)
    assert remainder_norm_report(r, cfg)["norm_kind"] == "triple"
    assert calls == [("rfftn", (5, 16, 16, 16))]
