"""Transforms, spectral derivatives, weighted operators, dealiasing, norms.

Two layouts of the mean-normalized coefficients live here.

* The full layout (``fft_c`` / ``ifft_c``, every mode) serves the
  field-level API on :class:`RealField` / :class:`SpectralField`
  (transforms, derivatives, the anisotropic gradient and Laplacian,
  dealiasing), the initial-data band limit and the Euler-Poisson engine's
  stack contract.
* The half spectrum of a real transform (``rfft_c`` / ``irfft_c``, last axis
  ``0 .. n/2``; :func:`half` cuts a full-layout table down to it) serves
  every inner loop: the engine, the potential solve, the limit models, the
  profile layer through :class:`HalfOps`, and every norm.  ``l2_norm``,
  ``sobolev_norm`` and ``triple_norm`` are one weighted sum over one real
  transform (:meth:`HalfOps.norm_c`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft as _fft

from .errors import ConfigurationError, ConstraintError, NumericalError
from .grid import Grid, RealField, ScalingParams, SpectralField

__all__ = [
    "forward_transform",
    "inverse_transform",
    "spectral_derivative",
    "weighted_gradient",
    "weighted_laplacian",
    "dealias",
    "sobolev_norm",
    "triple_norm",
    "antiderivative_x1",
    "l2_norm",
    "weighted_ksq",
]

# ---------------------------------------------------------------------------
# raw-array layer


def _axes(grid: Grid) -> tuple:
    # the trailing grid axes, so a stack of fields transforms in one batch
    return tuple(range(-grid.ndim, 0))


def fft_c(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform of real samples, zero mode = mean."""
    return _fft.fftn(values, axes=_axes(grid), norm="forward")


def ifft_c(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples from mean-normalized coefficients."""
    return _fft.ifftn(coeffs, axes=_axes(grid), norm="forward").real


def rfft_c(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum forward transform, zero mode = mean."""
    return _fft.rfftn(values, s=grid.shape, axes=_axes(grid), norm="forward")


def irfft_c(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples from mean-normalized half-spectrum coefficients."""
    return _fft.irfftn(coeffs, s=grid.shape, axes=_axes(grid), norm="forward")


def half(table: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum part (last-axis indices ``0 .. n/2``) of a full-layout
    table or stack, contiguous; a table broadcast along the last axis passes
    unchanged.  The Nyquist wavenumber stays negative, so every symbol keeps
    its value."""
    return np.ascontiguousarray(table[..., :grid.dims[-1] // 2 + 1])


def deriv_factor(grid: Grid, axis: int, order: int) -> np.ndarray:
    """Multiplier ``(i k_axis)**order``, Nyquist zeroed for odd orders."""
    k = grid.wavenumber(axis)
    factor = (1j * k) ** order
    if order % 2 == 1:
        nyq = np.isclose(np.abs(k), np.pi * grid.dims[axis] / grid.lengths[axis])
        factor = np.where(nyq, 0.0, factor)
    return factor


def index_box(grid: Grid, limit) -> np.ndarray:
    """Full-layout mask of the modes whose |signed index| along every axis of
    n points is at most ``limit(n)``."""
    box = np.ones(grid.shape, dtype=bool)
    for a, (n, length) in enumerate(zip(grid.dims, grid.lengths)):
        box &= np.rint(np.abs(grid.wavenumber(a)) * length / (2 * np.pi)) <= limit(n)
    return box


def dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds-rule mask: keep modes with every |signed index| <= n/3."""
    return index_box(grid, lambda n: n / 3)


def weighted_ksq(grid: Grid, params: ScalingParams) -> np.ndarray:
    """Squared symbol of the anisotropic gradient: ``k1^2 + eps*k2^2`` in 2D,
    the plain ``|k|^2`` in 3D."""
    if grid.ndim != params.dim:
        raise ConfigurationError(
            f"grid rank {grid.ndim} does not match scaling dim {params.dim}")
    ksq = grid.wavenumber(0) ** 2
    for axis in range(1, grid.ndim):
        w = params.epsilon if params.dim == 2 else 1.0
        ksq = ksq + w * grid.wavenumber(axis) ** 2
    return ksq


class HalfOps:
    """Operator set of one grid on the half spectrum, built once per solve or
    call: tables cut with :func:`half` (dealias mask, ``(i k_a)^p``,
    ``-|k|^2``, the antiderivative factor with its k1 = 0 plane, Parseval
    weights) acting elementwise on half spectra or stacks of them.  A
    dealiased product sends its factors back in one batched inverse transform
    and comes forward in one."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.mask = half(dealias_mask(grid), grid)
        self.neg_ksq = half(-sum(grid.wavenumber(a) ** 2 for a in range(grid.ndim)), grid)
        self.plane = half(np.isclose(grid.wavenumber(0), 0.0), grid)
        # Parseval weights: last-axis columns 1 .. n/2-1 stand for a
        # conjugate pair and count twice
        self.weights = np.full(grid.dims[-1] // 2 + 1, 2.0)
        self.weights[[0, -1]] = 1.0
        self._ik = {}
        ik1 = self.ik(0)
        self.inv_ik1 = np.where(ik1 == 0.0, 0.0, 1.0 / np.where(ik1 == 0.0, 1.0, ik1))

    def ik(self, axis: int, order: int = 1) -> np.ndarray:
        if (axis, order) not in self._ik:
            self._ik[axis, order] = half(deriv_factor(self.grid, axis, order), self.grid)
        return self._ik[axis, order]

    def d_c(self, c: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        return c * self.ik(axis, order)

    def lap_c(self, c: np.ndarray) -> np.ndarray:
        return self.neg_ksq * c

    def norm_c(self, c: np.ndarray, s: int = 0) -> float:
        """Continuum H^s norm (L2 at s = 0) of a half spectrum, or of a whole
        stack of them."""
        w = self.weights if s == 0 else self.weights * (1.0 - self.neg_ksq) ** s
        return math.sqrt(self.grid.volume * float(np.sum(w * np.abs(c) ** 2)))

    def inv_d1_c(self, c: np.ndarray, ztol: float = None) -> np.ndarray:
        """Division by ``i k1``; the k1 = 0 planes must be empty up to ztol
        (default ``1e-8 * max(1, ||c||_L2)``)."""
        if ztol is None:
            ztol = 1e-8 * max(1.0, self.norm_c(c))
        offending = self.norm_c(c * self.plane)
        if offending > ztol:
            raise ConstraintError(
                "antiderivative along axis 0 needs zero streamwise mean; "
                f"k1=0 content has L2 norm {offending:.3e} (tolerance {ztol:.3e})",
                offending_norm=offending)
        return c * self.inv_ik1

    def prod_c(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dealiased product of two half spectra (the one product convention):
        the factors go back in one batched inverse transform."""
        if not (a.any() and b.any()):
            return np.zeros_like(a)
        views = irfft_c(self.mask * np.stack([a] if a is b else [a, b]), self.grid)
        return self.mask * rfft_c(views[0] * views[-1], self.grid)


_TRIPLE_ROLES = ("density", "velocity", "potential")


def _sobolev_index(s) -> int:
    if s < 0 or int(s) != s:
        raise ConfigurationError(f"Sobolev index must be a nonnegative integer, got {s}")
    return int(s)


def triple_root(ops: HalfOps, role: str, params: ScalingParams):
    """Square root of the per-mode multiplier of a triple-norm role: 1 for
    the density, ``1 + eps * sum_a w_a^2 |i k_a|^2`` for the velocity (w the
    weights of :func:`weighted_gradient`, odd-order Nyquist zeroed), and that
    plus ``eps^2 |k_w|^4`` for the potential."""
    if role not in _TRIPLE_ROLES:
        raise ConfigurationError(f"unknown triple-norm role {role!r}; "
                                 f"expected one of {_TRIPLE_ROLES}")
    if role == "density":
        return 1.0
    eps, grid = params.epsilon, ops.grid
    kw2 = half(weighted_ksq(grid, params), grid)    # also checks the grid rank
    m = 1.0 + eps * sum((eps if a and params.dim == 2 else 1.0) * np.abs(ops.ik(a)) ** 2
                        for a in range(grid.ndim))
    if role == "potential":
        m = m + eps ** 2 * kw2 ** 2
    return np.sqrt(m)


# ---------------------------------------------------------------------------
# field-level API


def forward_transform(f: RealField) -> SpectralField:
    """Fourier coefficients of a real field (zero mode = mean)."""
    if not np.all(np.isfinite(f.values)):
        raise NumericalError("cannot transform non-finite data")
    return SpectralField(f.grid, fft_c(f.values, f.grid))


def inverse_transform(F: SpectralField) -> RealField:
    """Real samples from coefficients (imaginary round-off discarded)."""
    if not np.all(np.isfinite(F.coeffs)):
        raise NumericalError("cannot transform non-finite data")
    return RealField(F.grid, ifft_c(F.coeffs, F.grid))


def spectral_derivative(f: RealField, axis: int, order: int = 1) -> RealField:
    """Exact derivative of a trigonometric interpolant along one axis."""
    if not 0 <= axis < f.grid.ndim:
        raise ConfigurationError(f"axis {axis} out of range for rank {f.grid.ndim}")
    if order < 1:
        raise ConfigurationError(f"derivative order must be >= 1, got {order}")
    c = fft_c(f.values, f.grid) * deriv_factor(f.grid, axis, order)
    return RealField(f.grid, ifft_c(c, f.grid))


def weighted_gradient(f: RealField, params: ScalingParams) -> list[RealField]:
    """Anisotropic gradient: ``(d1, sqrt(eps) d2)`` in 2D, plain gradient in 3D."""
    if f.grid.ndim != params.dim:
        raise ConfigurationError(
            f"grid rank {f.grid.ndim} does not match scaling dim {params.dim}")
    out = [spectral_derivative(f, 0)]
    for axis in range(1, params.dim):
        g = spectral_derivative(f, axis)
        if params.dim == 2:
            g = math.sqrt(params.epsilon) * g
        out.append(g)
    return out


def weighted_laplacian(f: RealField, params: ScalingParams) -> RealField:
    """Divergence of the anisotropic gradient: ``d11 + eps d22`` in 2D, the
    full Laplacian in 3D."""
    c = fft_c(f.values, f.grid)
    return RealField(f.grid, ifft_c(-weighted_ksq(f.grid, params) * c, f.grid))


def dealias(F: SpectralField) -> SpectralField:
    """Zero every coefficient with any |signed index| above one third of the
    axis size (idempotent)."""
    return SpectralField(F.grid, F.coeffs * dealias_mask(F.grid))


def l2_norm(f: RealField) -> float:
    """Continuum L2 norm via Parseval."""
    return sobolev_norm(f, 0)


def sobolev_norm(f: RealField, s: int) -> float:
    """H^s norm with multiplier ``(1+|k|^2)^s`` in continuum wavenumbers.

    ``s = 0`` is the L2 norm of the continuum field.
    """
    return HalfOps(f.grid).norm_c(rfft_c(f.values, f.grid), _sobolev_index(s))


def triple_norm(f: RealField, role: str, params: ScalingParams, s: int) -> float:
    """Epsilon-weighted norm used by the pressureless-limit estimates.

    density:   ||f||_{H^s}
    velocity:  (||f||^2 + eps ||grad_w f||^2)^(1/2)
    potential: (||f||^2 + eps ||grad_w f||^2 + eps^2 ||lap_w f||^2)^(1/2)

    with the anisotropic gradient/Laplacian of :func:`weighted_gradient`,
    taken as one multiplier per role (:func:`triple_root`).
    """
    ops = HalfOps(f.grid)
    root = triple_root(ops, role, params)
    return ops.norm_c(root * rfft_c(f.values, f.grid), _sobolev_index(s))


def antiderivative_x1(f: RealField, ztol: float = None) -> RealField:
    """Antiderivative along axis 0 with zero streamwise mean per line.

    The streamwise (k1=0) content of ``f`` must vanish up to ``ztol``
    (default ``1e-10 * ||f||_L2``); otherwise a :class:`ConstraintError`
    carrying the offending norm is raised.
    """
    ops = HalfOps(f.grid)
    c = rfft_c(f.values, f.grid)
    if ztol is None:
        ztol = 1e-10 * ops.norm_c(c)
    return RealField(f.grid, irfft_c(ops.inv_d1_c(c, ztol), f.grid))
