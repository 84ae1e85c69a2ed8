"""Named analytic families for first-order density profiles.

Every family satisfies the 2D streamwise-mean constraint by construction
(the gaussian family is a streamwise derivative, the packet uses only
nonzero streamwise modes, the soliton family is transverse-independent).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .fldio import from_section
from .grid import Grid, RealField
from .limit_equations import zero_mean_soliton
from .spectral import dealias_mask, fft_c, ifft_c

__all__ = ["gaussian_zero_mean", "mode_packet", "kdv_soliton_family",
           "build_family"]


def _band_limited(f: RealField) -> RealField:
    """Project onto the dealias band, so profile algebra closes exactly.

    The analytic formulas carry (tiny) content beyond two thirds of the
    spectrum; the solvers never evolve it, and residual bookkeeping is
    cleanest with it removed up front.
    """
    return RealField(f.grid, ifft_c(dealias_mask(f.grid) * fft_c(f.values, f.grid),
                                    f.grid))


def _wrapped_offsets(grid: Grid, center) -> list[np.ndarray]:
    out = []
    for axis in range(grid.ndim):
        L = grid.lengths[axis]
        x = grid.axis_coordinates(axis)
        out.append(np.mod(x - center[axis] + L / 2.0, L) - L / 2.0)
    return out


def gaussian_zero_mean(grid: Grid, amplitude: float = 0.3, width: float = None,
                       center: tuple[float, ...] = None) -> RealField:
    """Streamwise derivative of an isotropic gaussian bump, peak ~ amplitude.

    Being a perfect streamwise derivative it has zero streamwise mean on
    every transverse line (up to the gaussian tail at the periodic seam).
    """
    if width is None:
        width = min(grid.lengths) / 12.0
    if center is None:
        center = [L / 2.0 for L in grid.lengths]
    if len(center) != grid.ndim:
        raise ConfigurationError(f"center needs {grid.ndim} coordinates, got {center!r}")
    dx = _wrapped_offsets(grid, center)
    r2 = sum(d * d for d in dx)
    bump = np.exp(-r2 / width ** 2)
    # normalization puts the extremum of x*exp(-x^2/w^2) at ~amplitude
    values = -amplitude * math.sqrt(2.0 * math.e) * (dx[0] / width) * bump
    return _band_limited(RealField(grid, np.broadcast_to(values, grid.shape).copy()))


def mode_packet(grid: Grid, amplitude: float = 0.3, n_modes: int = 3,
                seed: int = 0) -> RealField:
    """A few low modes with nonzero streamwise index and seeded phases."""
    rng = np.random.default_rng(seed)
    x = grid.meshgrid()
    values = np.zeros(grid.shape)
    for j in range(n_modes):
        kidx = [j % 2 + 1] + [rng.integers(0, 3) for _ in range(grid.ndim - 1)]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * kidx[a] * x[a] / grid.lengths[a]
                  for a in range(grid.ndim)) + phase
        values += np.cos(arg) / (1.0 + j)
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return _band_limited(RealField(grid, values))


def kdv_soliton_family(grid: Grid, kappa: float = 0.5, V: float = 1.0) -> RealField:
    """Mean-subtracted transverse-independent soliton profile."""
    field, _ = zero_mean_soliton(kappa, V, grid)
    return _band_limited(field)


_FAMILIES = {"gaussian_zero_mean": gaussian_zero_mean, "mode_packet": mode_packet,
             "kdv_soliton": kdv_soliton_family}


def build_family(section: dict, grid: Grid, V: float = 1.0, seed: int = 0,
                 where: str = "family") -> RealField:
    """Build the family ``section["name"]`` (gaussian_zero_mean, the default,
    mode_packet or kdv_soliton) from its parameters but grid, V, seed in ``section``."""
    params = dict(section)
    name = params.pop("name", "gaussian_zero_mean")
    family = _FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ConfigurationError(f"{where}.name: unknown initial family {name!r}; "
                                 f"expected {', '.join(_FAMILIES)}")
    return from_section(family, params, where, grid=grid, V=V, seed=seed)
