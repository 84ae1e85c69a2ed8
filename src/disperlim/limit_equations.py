"""Pseudospectral solvers for the long-wave limit models.

The first-order density profile obeys, in the wave frame,

* 2D: ``n_t + c_nl n n_x + c_x n_xxx + c_t dx^-1 n_yy = 0``  (transverse
  dispersion through the streamwise antiderivative; requires zero k1=0
  content away from the global mean), and
* 3D: ``n_t + c_nl n n_x + c_x n_xxx + c_t d_x lap_perp n = 0``.

With wave speed V the self-consistent coefficients are ``c_nl = V``,
``c_x = 1/(2V)``, and ``c_t = V/2`` (2D) resp. ``c_t = (1 + V^4)/(2V)``
(3D).  The 3D transverse coefficient folds the isotropic third-derivative
term of the electrostatic response into the perpendicular dispersion; the
widely quoted ``V^3/2`` keeps only the gyration part and is selectable for
auditing, but fails the hierarchy residual checks for every V.  Linearized
inhomogeneous variants share the linear symbol and carry the bilinear term
``c_bl d_x(n1 nk)`` with ``c_bl = c_nl``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ConstraintError
from .etdrk4 import DiagonalETDRK4, march, plan
from .grid import Grid, RealField
from .spectral import HalfOps, deriv_factor, half, irfft_c, rfft_c

__all__ = [
    "LimitCoefficients",
    "LimitConfig",
    "Trajectory",
    "LinearizedSource",
    "kp2_linear_symbol",
    "zk_linear_symbol",
    "solve_kp2",
    "solve_zk",
    "solve_kdv",
    "solve_linearized_kp",
    "solve_linearized_zk",
    "solve_coupled_order2",
    "kdv_line_soliton",
    "zero_mean_soliton",
    "conserved_quantities",
]

_EQUATIONS = ("KP2", "ZK", "KdV", "LinKP", "LinZK")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LimitCoefficients:
    """Coefficient set (c_nl, c_x, c_t, c_bl) of a limit model."""

    V: float
    nonlinear: float
    dispersion_x: float
    transverse: float
    bilinear: float

    @classmethod
    def for_equation(cls, equation: str, V: float, nonlinear: float = None,
                     transverse: float = None, bilinear: float = None):
        if V <= 0:
            raise ConfigurationError(f"wave speed must be positive, got {V}")
        c_nl = V if nonlinear is None else float(nonlinear)
        if equation in ("KP2", "LinKP"):
            c_t = V / 2.0 if transverse is None else float(transverse)
        elif equation in ("ZK", "LinZK"):
            c_t = (1.0 + V ** 4) / (2.0 * V) if transverse is None else float(transverse)
        elif equation == "KdV":
            c_t = 0.0
        else:
            raise ConfigurationError(f"unknown equation {equation!r}")
        c_bl = c_nl if bilinear is None else float(bilinear)
        return cls(V=V, nonlinear=c_nl, dispersion_x=1.0 / (2.0 * V),
                   transverse=c_t, bilinear=c_bl)


@dataclass(frozen=True)
class LimitConfig:
    """Solver configuration for a limit model run."""

    V: float
    dt: float
    T: float
    equation: str
    zk_nonlinear_coeff: float = None   # default: V
    zk_transverse_coeff: float = None  # default: (1+V^4)/(2V)
    lin_bilinear_coeff: float = None   # default: the nonlinear coefficient
    snapshots: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.V <= 0:
            raise ConfigurationError(f"V must be positive, got {self.V}")
        if self.T < 0:
            raise ConfigurationError(f"T must be nonnegative, got {self.T}")
        if self.equation not in _EQUATIONS:
            raise ConfigurationError(
                f"equation must be one of {_EQUATIONS}, got {self.equation!r}")

    def coefficients(self) -> LimitCoefficients:
        return LimitCoefficients.for_equation(
            self.equation, self.V, nonlinear=self.zk_nonlinear_coeff,
            transverse=self.zk_transverse_coeff, bilinear=self.lin_bilinear_coeff)


@dataclass
class Trajectory:
    """Stored snapshots of a limit-model run."""

    grid: Grid
    times: np.ndarray
    states: list[np.ndarray]
    config: LimitConfig

    def field(self, i: int) -> RealField:
        return RealField(self.grid, self.states[i])

    @property
    def final(self) -> RealField:
        return self.field(len(self.states) - 1)

    def sample(self, t: float) -> np.ndarray:
        """Linear interpolation between stored snapshots, held outside them."""
        times = self.times
        if t <= times[0]:
            return self.states[0]
        if t >= times[-1]:
            return self.states[-1]
        i = int(np.searchsorted(times, t)) - 1
        w = (t - times[i]) / (times[i + 1] - times[i])
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]


@dataclass
class LinearizedSource:
    """Background and inhomogeneity for a linearized limit solve.

    ``background(t)`` returns the first-order density samples at any stage
    time; ``source(t)`` returns the inhomogeneity (or is None for the
    homogeneous problem).  ``source_form`` states whether ``source`` is the
    streamwise-differentiated right side (2D convention; the solver applies
    the antiderivative) or already in evolution form.
    """

    grid: Grid
    background: object  # callable t -> ndarray
    source: object = None  # callable t -> ndarray, or None
    source_form: str = "differentiated"

    def __post_init__(self):
        if self.source_form not in ("differentiated", "evolution"):
            raise ConfigurationError(
                f"source_form must be 'differentiated' or 'evolution', "
                f"got {self.source_form!r}")

    @classmethod
    def homogeneous(cls, n1: RealField):
        values = n1.values
        return cls(grid=n1.grid, background=lambda t: values, source=None)

    @classmethod
    def from_trajectory(cls, traj: Trajectory, source=None,
                        source_form: str = "differentiated"):
        return cls(grid=traj.grid, background=traj.sample, source=source,
                   source_form=source_form)


# ---------------------------------------------------------------------------
# linear symbols


def kp2_linear_symbol(k, V: float) -> complex:
    """Evolution-form linear symbol of the 2D limit model at one wavenumber.

    Purely imaginary for every mode.  At ``k1 = 0`` the nonlocal transverse
    branch is defined as zero; the solver keeps those modes empty (the
    streamwise-mean constraint), so the value never acts on live content.
    """
    coeffs = LimitCoefficients.for_equation("KP2", V)
    return complex(_symbol(coeffs, "KP2", float(k[0]), float(k[1]) ** 2))


def zk_linear_symbol(k, V: float, transverse: float = None) -> complex:
    """Evolution-form linear symbol of the 3D limit model at one wavenumber."""
    coeffs = LimitCoefficients.for_equation("ZK", V, transverse=transverse)
    return complex(_symbol(coeffs, "ZK", float(k[0]), float(k[1]) ** 2 + float(k[2]) ** 2))


def _symbol(coeffs: LimitCoefficients, equation: str, k1, kt2):
    """Linear symbol from the streamwise wavenumber and the squared
    transverse one; the 2D nonlocal branch is zero at ``k1 = 0``."""
    if equation in ("KP2", "LinKP"):
        safe = np.where(k1 == 0.0, 1.0, k1)
        return 1j * (coeffs.dispersion_x * k1 ** 3
                     - coeffs.transverse * np.where(k1 == 0.0, 0.0, kt2 / safe))
    return 1j * (coeffs.dispersion_x * k1 ** 3 + coeffs.transverse * k1 * kt2)


# ---------------------------------------------------------------------------
# constraint handling


def _kp_live_mask(grid: Grid) -> np.ndarray:
    """Forbidden modes in 2D, on the half spectrum: k1 = 0 with nonzero
    transverse wavenumber.

    The global mean is exempt (it is conserved by the flow and carries a
    well-defined zero symbol), which keeps the streamwise-independent
    reduction consistent with the 1D dynamics.
    """
    dead = np.zeros(grid.shape[:-1] + (grid.dims[-1] // 2 + 1,), dtype=bool)
    dead[0] = True    # the k1 = 0 plane
    dead.flat[0] = False
    return dead


def _kp_projector(grid: Grid):
    """Zeroes the forbidden modes of a half spectrum (or of a stack of them)."""
    dead = _kp_live_mask(grid)

    def project(vhat):
        out = vhat.copy()
        out[..., dead] = 0.0
        return out

    return project


def check_kp_constraint(f: RealField, ztol: float = None) -> float:
    """Norm of the forbidden streamwise-mean content; raises above ztol."""
    return _kp_constraint_c(rfft_c(f.values, f.grid), HalfOps(f.grid), ztol)


def _kp_constraint_c(c: np.ndarray, ops: HalfOps, ztol: float = None) -> float:
    """:func:`check_kp_constraint` on the half spectrum ``c``."""
    norm = ops.norm_c(c * _kp_live_mask(ops.grid))
    if ztol is None:
        ztol = 1e-10 * max(ops.norm_c(c), 1e-300)
    if norm > ztol:
        raise ConstraintError(
            f"streamwise-mean (k1=0) content violates the 2D constraint: "
            f"L2 norm {norm:.3e} exceeds {ztol:.3e}", offending_norm=norm)
    return norm


# ---------------------------------------------------------------------------
# generic driver


def _run_diagonal(grid, v0_values, cfg: LimitConfig, symbol, nonlinear,
                  project=None) -> Trajectory:
    """March ``v_t = symbol*v + N(v)`` on the half spectrum from real samples
    (one field, or a stack of fields along a leading axis) through the
    shared step plan and march."""
    dt, marks = plan(cfg.T, cfg.dt, cfg.snapshots, _log)
    cfg_eff = cfg if dt == cfg.dt else replace(cfg, dt=dt)
    vhat = rfft_c(v0_values, grid)
    if project is not None:
        vhat = project(vhat)
    times = [0.0]
    states = [irfft_c(vhat, grid)]
    if not marks:
        return Trajectory(grid, np.array(times), states, cfg_eff)

    stepper = DiagonalETDRK4(symbol, dt, nonlinear)
    ops = HalfOps(grid)

    def advance(v, start, count):
        for step in range(start, start + count):
            v = stepper.step(v, step * dt)
            if project is not None:
                v = project(v)
        return v

    for time, vhat in march(advance, vhat, marks, dt, lambda v: ops.norm_c(v, 2)):
        times.append(time)
        states.append(irfft_c(vhat, grid))
    return Trajectory(grid, np.array(times), states, cfg_eff)


def _advection_c(ops: HalfOps, coeff: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``-coeff * d1(a b)`` on half spectra: the quadratic term of a limit
    model (coeff c_nl/2, a = b) and the bilinear one of its linearization
    (coeff c_bl, a the background)."""
    return (-coeff) * ops.ik(0) * ops.prod_c(a, b)


def _run_limit(n0: RealField, cfg: LimitConfig, equation: str, project=None,
               source: LinearizedSource = None) -> Trajectory:
    """Integrate the limit model ``equation``: the quadratic one, or with a
    ``source`` the linearized one about its background."""
    ops = HalfOps(n0.grid)
    coeffs = cfg.coefficients()
    if source is None:
        def nonlinear(vhat, t):
            return _advection_c(ops, 0.5 * coeffs.nonlinear, vhat, vhat)
    else:
        ztol = 1e-9 * max(1.0, ops.norm_c(rfft_c(source.background(0.0), n0.grid)))
        nonlinear = _linearized_nonlinearity(ops, coeffs, source, ztol)
    sym = half(symbol_array(n0.grid, coeffs, equation), n0.grid)
    traj = _run_diagonal(n0.grid, n0.values, cfg, sym, nonlinear, project=project)
    stored = getattr(source and source.background, "__self__", None)
    if isinstance(stored, Trajectory):  # Trajectory.sample: log it once a solve
        event = {"snapshot_spacing": float(np.max(np.diff(stored.times), initial=0.0)),
                 "dt": traj.config.dt,
                 "past_last_snapshot": bool(cfg.T > stored.times[-1] * (1.0 + 1e-9))}
        _log.info("background_interpolated: %s", event,
                  extra={"event": "background_interpolated", **event})
    return traj


def solve_kp2(n0: RealField, cfg: LimitConfig) -> Trajectory:
    """Integrate the 2D limit model; re-projects the streamwise-mean
    constraint after every step (the global mean is conserved and kept)."""
    if n0.grid.ndim != 2:
        raise ConfigurationError("the 2D limit model needs a rank-2 grid")
    check_kp_constraint(n0)
    return _run_limit(n0, cfg, "KP2", project=_kp_projector(n0.grid))


def solve_zk(n0: RealField, cfg: LimitConfig) -> Trajectory:
    """Integrate the 3D limit model (no nonlocal constraint)."""
    if n0.grid.ndim != 3:
        raise ConfigurationError("the 3D limit model needs a rank-3 grid")
    return _run_limit(n0, cfg, "ZK")


def solve_kdv(n0: RealField, cfg: LimitConfig) -> Trajectory:
    """One-dimensional reduction (no transverse dispersion); test oracle."""
    if n0.grid.ndim != 1:
        raise ConfigurationError("the 1D reduction needs a rank-1 grid")
    return _run_limit(n0, cfg, "KdV")


def _linearized_nonlinearity(ops: HalfOps, coeffs: LimitCoefficients,
                             source: LinearizedSource, ztol_scale: float):
    def nonlinear(vhat, t):
        n1 = rfft_c(source.background(t), ops.grid)
        out = _advection_c(ops, coeffs.bilinear, n1, vhat)
        if source.source is not None:
            g = rfft_c(source.source(t), ops.grid)
            if source.source_form == "differentiated":
                g = ops.inv_d1_c(g, ztol_scale)
            out = out + g
        return out

    return nonlinear


def solve_linearized_kp(source: LinearizedSource, nk0: RealField,
                        cfg: LimitConfig) -> Trajectory:
    """Linearized inhomogeneous 2D solve about the background in ``source``."""
    if nk0.grid.ndim != 2:
        raise ConfigurationError("the 2D linearized model needs a rank-2 grid")
    check_kp_constraint(nk0)
    return _run_limit(nk0, cfg, "LinKP", _kp_projector(nk0.grid), source)


def solve_linearized_zk(source: LinearizedSource, nk0: RealField,
                        cfg: LimitConfig) -> Trajectory:
    """Linearized inhomogeneous 3D solve about the background in ``source``."""
    if nk0.grid.ndim != 3:
        raise ConfigurationError("the 3D linearized model needs a rank-3 grid")
    return _run_limit(nk0, cfg, "LinZK", source=source)


def solve_coupled_order2(n10: RealField, n20: RealField, cfg: LimitConfig,
                         source_fn) -> tuple[Trajectory, Trajectory]:
    """Co-integrate the first-order profile and its linearized correction.

    ``source_fn(n1_values) -> evolution-form inhomogeneity`` is evaluated at
    every stage from the stage value of the first-order field, so the pair
    advances as one coupled ETDRK4 system with no interpolation error; it
    marches as one component-leading stack ``(n1, n2)``.  Returns the two
    trajectories on the shared time grid.
    """
    grid = n10.grid
    coeffs = cfg.coefficients()
    project = None
    if grid.ndim == 2:
        check_kp_constraint(n10)
        check_kp_constraint(n20)
        project = _kp_projector(grid)
    ops = HalfOps(grid)
    mask = ops.mask
    sym = half(symbol_array(grid, coeffs, "KP2" if grid.ndim == 2 else "ZK"), grid)
    factors = ops.ik(0) * np.array([-0.5 * coeffs.nonlinear, -coeffs.bilinear]
                                   ).reshape((2,) + (1,) * grid.ndim)

    def nonlinear(stack, t):
        v1, v2 = irfft_c(mask * stack, grid)
        out = factors * (mask * rfft_c(np.stack([v1 * v1, v1 * v2]), grid))
        out[1] += rfft_c(source_fn(v1), grid)
        return out

    traj = _run_diagonal(grid, np.stack([n10.values, n20.values]), cfg, sym,
                         nonlinear, project=project)
    return tuple(Trajectory(grid, traj.times, [s[j] for s in traj.states], traj.config)
                 for j in (0, 1))


# ---------------------------------------------------------------------------
# the linear symbol (shared with the profile constructions, so time
# derivatives of profiles match the solvers' tendencies exactly)


def symbol_array(grid: Grid, coeffs: LimitCoefficients, equation: str) -> np.ndarray:
    """Linear symbol of a limit model (full layout, Nyquist removed from the
    streamwise factor); the 1D reduction is the 3D form with no transverse
    axes."""
    if equation not in _EQUATIONS:
        raise ConfigurationError(f"unknown equation {equation!r}")
    kt2 = sum(grid.wavenumber(a) ** 2 for a in range(1, grid.ndim))
    return _symbol(coeffs, equation, deriv_factor(grid, 0, 1).imag, kt2)


# ---------------------------------------------------------------------------
# oracles


def kdv_line_soliton(kappa: float, V: float, grid: Grid, x0: float = None):
    """Closed-form line soliton of the 1D reduction and its frame speed.

    Profile ``(6 kappa^2 / V^2) sech^2(kappa (x1 - x0))`` travelling at
    ``2 kappa^2 / V``.  Verified by substitution in the test suite (symbolic
    and spectral residuals) before use as ground truth.  The profile must
    decay below 1e-10 inside the periodic domain.
    """
    if kappa < 0:
        raise ConfigurationError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        return RealField.zeros(grid), 0.0
    L = grid.lengths[0]
    amp = 6.0 * kappa ** 2 / V ** 2
    edge = amp / math.cosh(kappa * L / 2.0) ** 2
    if edge > 1e-10:
        raise ConfigurationError(
            f"soliton tail {edge:.3e} exceeds 1e-10 at the domain edge; "
            f"use a longer box or larger kappa")
    if x0 is None:
        x0 = L / 2.0
    x = grid.axis_coordinates(0)
    dx = np.mod(x - x0 + L / 2.0, L) - L / 2.0
    profile = amp / np.cosh(kappa * dx) ** 2
    values = np.broadcast_to(profile, grid.shape).copy()
    return RealField(grid, values), 2.0 * kappa ** 2 / V


def zero_mean_soliton(kappa: float, V: float, grid: Grid, x0: float = None):
    """Mean-subtracted periodic soliton and its exact torus frame speed.

    Removing the (conserved) mean b shifts the travelling speed by ``-V*b``;
    the returned speed accounts for that, so peak tracking on the torus can
    be compared against it directly.
    """
    field, speed = kdv_line_soliton(kappa, V, grid, x0=x0)
    mean = float(np.mean(field.values))
    return RealField(grid, field.values - mean), speed - V * mean


def conserved_quantities(f: RealField, equation: str, V: float,
                         c_N: float = None, transverse: float = None) -> dict:
    """Invariant functionals used as solver acceptance oracles.

    mass = integral(f), l2 = integral(f^2); for the 3D model additionally the
    energy functional combining streamwise/perpendicular dispersion with the
    cubic term.  Quadrature is the exact mean-times-volume rule.
    """
    if equation not in ("KP2", "ZK", "KdV"):
        raise ConfigurationError(f"no invariant set for equation {equation!r}")
    grid = f.grid
    vol = grid.volume
    out = {"mass": float(np.mean(f.values)) * vol,
           "l2": float(np.mean(f.values ** 2)) * vol}
    if equation == "ZK":
        coeffs = LimitCoefficients.for_equation("ZK", V, nonlinear=c_N,
                                                transverse=transverse)
        ops = HalfOps(grid)
        chat = rfft_c(f.values, grid)
        d1, *dperp = irfft_c(np.stack([ops.d_c(chat, a) for a in range(grid.ndim)]),
                             grid)
        perp = sum(g ** 2 for g in dperp)
        density = (0.5 * coeffs.dispersion_x * d1 ** 2
                   + 0.5 * coeffs.transverse * perp
                   - coeffs.nonlinear * f.values ** 3 / 6.0)
        out["hamiltonian"] = float(np.mean(density)) * vol
    return out
