"""Periodic Fourier grids, field containers, and the scaling parameter set.

Conventions fixed here and relied on everywhere else:

* A grid axis of ``n`` points over physical length ``L`` samples
  ``x_j = j * L / n``; the signed wavenumber of mode index ``m`` is
  ``2*pi*m_alias/L`` with ``m_alias`` in ``[-n/2, n/2)`` (Nyquist stored
  negative, FFT layout).
* Spectral coefficients are normalized so the zero mode equals the mean of
  the field.  With that choice, Parseval reads
  ``integral(f^2) = volume * sum(|f_hat|^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "ScalingParams",
    "build_grid",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with 1 to 3 axes and precomputed wavenumbers."""

    dims: tuple[int, ...]
    lengths: tuple[float, ...]
    # one signed-wavenumber table per axis, each broadcastable to the full shape
    wavenumbers: tuple[np.ndarray, ...] = field(repr=False, compare=False, default=())

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dims

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.dims))

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @property
    def npoints(self) -> int:
        return math.prod(self.dims)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis, broadcastable to the grid shape."""
        n = self.dims[axis]
        x = np.arange(n) * (self.lengths[axis] / n)
        shape = [1] * self.ndim
        shape[axis] = n
        return x.reshape(shape)

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis."""
        return [np.broadcast_to(self.axis_coordinates(a), self.dims).copy()
                for a in range(self.ndim)]

    def wavenumber(self, axis: int) -> np.ndarray:
        """Signed wavenumber table for one axis (broadcastable)."""
        return self.wavenumbers[axis]


def build_grid(dims: tuple[int, ...], lengths: tuple[float, ...]) -> Grid:
    """Build a periodic grid from per-axis sample counts and physical periods.

    Sample counts must be even and at least 8; one to three axes.
    """
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    lengths = tuple(float(length) for length in np.atleast_1d(lengths))
    if len(dims) != len(lengths):
        raise ConfigurationError(
            f"dims and lengths must have equal rank: got {len(dims)} and {len(lengths)}")
    if not 1 <= len(dims) <= 3:
        raise ConfigurationError(f"grids support 1-3 axes, got {len(dims)}")
    for d in dims:
        if d < 8 or d % 2 != 0:
            raise ConfigurationError(f"axis sample counts must be even and >= 8, got {d}")
    for length in lengths:
        if not (length > 0 and math.isfinite(length)):
            raise ConfigurationError(f"axis lengths must be positive, got {length}")

    tables = []
    for axis, (n, length) in enumerate(zip(dims, lengths)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        shape = [1] * len(dims)
        shape[axis] = n
        k = k.reshape(shape)
        k.flags.writeable = False
        tables.append(k)
    return Grid(dims=dims, lengths=lengths, wavenumbers=tuple(tables))


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RealField:
    """Real scalar samples on a :class:`Grid`, immutable after construction."""

    grid: Grid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        if values.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise NumericalError("real field contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: Grid) -> "RealField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "RealField":
        return cls(grid, np.full(grid.shape, float(value)))

    def __add__(self, other):
        if isinstance(other, RealField):
            return RealField(self.grid, self.values + other.values)
        return RealField(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, RealField):
            return RealField(self.grid, self.values - other.values)
        return RealField(self.grid, self.values - other)

    def __mul__(self, scalar):
        return RealField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real field, full complex FFT layout.

    Normalization: the coefficient at mode zero equals the mean of the field.
    Hermitian symmetry (coefficient at ``-k`` conjugate to the one at ``k``)
    is an invariant; it is produced structurally by the forward transform and
    preserved by every multiplier with even/odd symmetry.
    """

    grid: Grid
    coeffs: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        coeffs = _frozen(self.coeffs, np.complex128)
        if coeffs.shape != self.grid.shape:
            raise ConfigurationError(
                f"coefficient shape {coeffs.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    def hermitian_defect(self) -> float:
        """Max deviation from Hermitian symmetry (0 for a real field)."""
        c = self.coeffs
        flipped = c
        for axis in range(c.ndim):
            flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
        return float(np.max(np.abs(c - np.conj(flipped))))


@dataclass(frozen=True)
class ScalingParams:
    """Small parameter, ion temperature, and the derived wave speed.

    The wave speed is pinned to ``sqrt(ion_temperature + 1)``; a magnetic
    guide field is present exactly when ``dim == 3``.
    """

    epsilon: float
    ion_temperature: float
    dim: int
    wave_speed: float = None  # derived unless explicitly (consistently) given

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.ion_temperature < 0.0:
            raise ConfigurationError(
                f"ion temperature must be nonnegative, got {self.ion_temperature}")
        if self.dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {self.dim}")
        v = math.sqrt(self.ion_temperature + 1.0)
        if self.wave_speed is not None and self.wave_speed != v:
            raise ConfigurationError(
                f"wave speed {self.wave_speed} inconsistent with "
                f"sqrt(ion_temperature + 1) = {v}")
        object.__setattr__(self, "wave_speed", v)

    @property
    def magnetic(self) -> int:
        """Guide-field flag: 0 in 2D, 1 in 3D."""
        return 1 if self.dim == 3 else 0
