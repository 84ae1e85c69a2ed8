"""Exponential integrator for the rescaled ion flow in the wave frame.

State: ion density ``n`` (near 1), velocity components ``u`` and the
potential ``phi`` (a diagnostic recomputed from ``n`` at every stage).  The
linearization about the uniform rest state, including the electrostatic
response and, in 3D, the fast gyration around the guide field, is integrated
exactly per Fourier mode; only the O(amplitude^2) nonlinear residual is
handled by Runge-Kutta stages (ETDRK4), which removes the stiff 1/eps terms
from the stability budget.

Per mode the linear matrix is similar, via scaling the density row by the
local sound factor ``c(k) = sqrt(T_i + 1/(1 + eps|k_w|^2))``, to i times a
Hermitian matrix -- so its eigensystem is computed by a batched Hermitian
eigendecomposition with perfectly conditioned (unitary) eigenvectors.

Every field is real, so the engine works on the half spectrum of a real
transform (last axis ``0 .. n/2``): its tables, eigenbasis and ETDRK4 weights
cover only those modes, and the tendency transforms with ``rfftn``/``irfftn``.
Stacks passed in and out are in the full layout; a run cuts them down once on
entry and rebuilds a Hermitian full stack once on exit.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, NumericalError
from .etdrk4 import DiagonalETDRK4, march, plan
from .grid import Grid, RealField, ScalingParams
from .poisson import poisson_residual, solve_poisson_values
from .spectral import (HalfOps, dealias_mask, deriv_factor, fft_c, half, ifft_c,
                       irfft_c, rfft_c, weighted_ksq)

__all__ = [
    "EPState",
    "StepperConfig",
    "DiagnosticsLog",
    "linearized_symbol",
    "ep_rhs",
    "step_ep",
    "run_ep",
    "EPIntegrator",
]

_MIN_DENSITY = 0.1

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepperConfig:
    """Time step, potential-solve tolerances, and optional tail damping."""

    dt: float
    poisson_tol: float = 1e-11
    max_newton: int = 25
    c_cfl: float = 0.5
    hyperviscosity: tuple[float, int] | None = None  # (nu, order)

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (0.0 < self.poisson_tol <= 1e-6):
            raise ConfigurationError(
                f"poisson_tol must lie in (0, 1e-6], got {self.poisson_tol}")
        if self.max_newton < 3:
            raise ConfigurationError(f"max_newton must be >= 3, got {self.max_newton}")
        if self.hyperviscosity is not None:
            nu, order = self.hyperviscosity
            if nu < 0 or order < 2:
                raise ConfigurationError(
                    f"hyperviscosity needs nu >= 0 and order >= 2, got {self.hyperviscosity}")


@dataclass(frozen=True)
class EPState:
    """Density, velocity components, potential, and the clock."""

    n: RealField
    u: tuple[RealField, ...]
    phi: RealField
    time: float
    params: ScalingParams

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        if len(self.u) != self.params.dim:
            raise ConfigurationError(
                f"expected {self.params.dim} velocity components, got {len(self.u)}")
        if self.n.grid.ndim != self.params.dim:
            raise ConfigurationError("state grid rank does not match scaling dim")
        if float(np.min(self.n.values)) <= _MIN_DENSITY:
            raise NumericalError(
                f"density fell to {float(np.min(self.n.values)):.3g} "
                f"(positivity floor {_MIN_DENSITY})")

    @property
    def grid(self) -> Grid:
        return self.n.grid

    def poisson_defect(self) -> float:
        """L2 residual of the electrostatic balance at the current state."""
        return poisson_residual(self.n.values, self.phi.values, self.grid, self.params)


@dataclass
class DiagnosticsLog:
    """Append-only per-snapshot records from a run."""

    records: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        self.records.append(record)

    def as_jsonable(self) -> list[dict]:
        return [dict(r) for r in self.records]


def linearized_symbol(kvec, params: ScalingParams) -> np.ndarray:
    """Per-mode linear matrix L(k) with eps * d/dt (n, u) = L(k) (n, u).

    The potential is eliminated through its linear response
    ``phi = n / (1 + eps*|k_w|^2)``; in 3D the gyration block couples the
    transverse velocities at rate ``1/sqrt(eps)``.
    """
    d = params.dim
    if len(kvec) != d:
        raise ConfigurationError(f"wavenumber has {len(kvec)} components, expected {d}")
    eps, ti, v = params.epsilon, params.ion_temperature, params.wave_speed
    k = [float(c) for c in kvec]
    kw2 = k[0] ** 2 + sum((eps if d == 2 else 1.0) * c ** 2 for c in k[1:])
    csq = ti + 1.0 / (1.0 + eps * kw2)
    weights = [1.0] + [math.sqrt(eps) if d == 2 else 1.0] * (d - 1)

    m = np.zeros((d + 1, d + 1), dtype=np.complex128)
    np.fill_diagonal(m, 1j * v * k[0])
    for j in range(d):
        m[0, 1 + j] = -1j * weights[j] * k[j]
        m[1 + j, 0] = -1j * weights[j] * k[j] * csq
    if params.magnetic:
        m[2, 3] += 1.0 / math.sqrt(eps)
        m[3, 2] -= 1.0 / math.sqrt(eps)
    return m


class EPIntegrator:
    """Bound ETDRK4 engine: grid + scaling + stepper tables.

    Takes and returns spectral stacks of shape ``(d+1, *dims)``, components
    ordered ``(n, u1, .., ud)``, mean-normalized coefficients in the full
    layout.  Internally it holds the half spectrum only (``tendency`` and
    ``nonlinear`` take half-spectrum stacks) and steps the eigen-coordinates
    ``w = U^H D v`` of the linear symbol, in which the linear part is the
    diagonal ``Lambda = (i/eps) * omega``: a run changes basis once on entry
    and once on exit, and each stage changes basis twice around the tendency.  The ETDRK4 stages themselves are
    :class:`~disperlim.etdrk4.DiagonalETDRK4`'s.
    """

    def __init__(self, grid: Grid, params: ScalingParams, cfg: StepperConfig):
        if grid.ndim != params.dim:
            raise ConfigurationError("grid rank does not match scaling dim")
        bound = cfg.c_cfl * params.epsilon * min(grid.spacings)
        if cfg.dt > bound * (1.0 + 1e-12):
            raise ConfigurationError(
                f"dt = {cfg.dt:.3e} exceeds the stability bound "
                f"c_cfl*eps*min_spacing = {bound:.3e}")
        self.grid = grid
        self.params = params
        self.cfg = cfg
        d = params.dim
        self.mask = half(dealias_mask(grid), grid)
        self.k = [half(grid.wavenumber(a), grid) for a in range(d)]
        self.ik = [half(deriv_factor(grid, a, 1), grid) for a in range(d)]
        self.sqeps = math.sqrt(params.epsilon)
        # transverse weights of the anisotropic derivatives
        self.wts = [1.0] + [self.sqeps if d == 2 else 1.0] * (d - 1)

        self._build_propagator()
        self._filter = self._build_filter()

    # -- linear algebra ----------------------------------------------------

    def _build_propagator(self):
        d, grid, params = self.params.dim, self.grid, self.params
        shape, m = self.mask.shape, d + 1
        # Hermitian representative H with L = (1/eps) * Dinv @ (iH) @ D,
        # D = diag(c, 1, .., 1), c the local sound factor
        ksq = half(weighted_ksq(grid, params), grid)
        c = np.sqrt(params.ion_temperature + 1.0 / (1.0 + params.epsilon * ksq))
        H = np.zeros(shape + (m, m), dtype=np.complex128)
        vk1 = params.wave_speed * self.k[0]
        for j in range(m):
            H[..., j, j] = vk1
        for j in range(d):
            coupling = -c * self.wts[j] * np.broadcast_to(self.k[j], shape)
            H[..., 0, 1 + j] = coupling
            H[..., 1 + j, 0] = coupling
        if params.magnetic:
            H[..., 2, 3] += -1j / self.sqeps
            H[..., 3, 2] += 1j / self.sqeps
        omega, basis = np.linalg.eigh(H)
        del H
        # per-mode basis changes D^-1 U and U^H D, stored component-leading
        # so a change is m*m contiguous elementwise multiply-adds
        to_eigen = np.conj(np.swapaxes(basis, -1, -2))
        to_eigen[..., :, 0] *= c[..., None]
        basis[..., 0, :] /= c[..., None]
        self.from_eigen = np.ascontiguousarray(np.moveaxis(basis, (-2, -1), (0, 1)))
        self.to_eigen = np.ascontiguousarray(np.moveaxis(to_eigen, (-2, -1), (0, 1)))
        del basis, to_eigen
        self.symbol = np.ascontiguousarray(
            np.moveaxis((1j / params.epsilon) * omega, -1, 0))
        self._warm = None
        # the stepper calls back through a weak proxy: no reference cycle, so
        # a dropped engine's tables are freed at once, not at the next gc
        engine = weakref.proxy(self)
        self.stepper = DiagonalETDRK4(self.symbol, self.cfg.dt,
                                      lambda w, t: engine.nonlinear(w, t))

    def _build_filter(self):
        if self.cfg.hyperviscosity is None:
            return None
        nu, order = self.cfg.hyperviscosity
        rho2 = np.zeros(self.mask.shape)
        for a in range(self.grid.ndim):
            kmax = np.pi * self.grid.dims[a] / self.grid.lengths[a]
            rho2 = rho2 + (self.k[a] / kmax) ** 2
        return np.exp(-nu * self.cfg.dt * rho2 ** (order / 2.0))

    # -- state conversion ----------------------------------------------------

    def to_stack(self, state: EPState) -> np.ndarray:
        return fft_c(np.stack([f.values for f in (state.n,) + state.u]), self.grid)

    def from_stack(self, stack: np.ndarray, phi: np.ndarray, time: float) -> EPState:
        n, *u = (RealField(self.grid, v) for v in ifft_c(stack, self.grid))
        return EPState(n=n, u=u, phi=RealField(self.grid, phi), time=time,
                       params=self.params)

    # -- physics -------------------------------------------------------------

    def tendency(self, stack: np.ndarray, phi_warm: np.ndarray):
        """Full tendency F (RHS divided by eps) of a half-spectrum stack, and
        the stage potential."""
        grid, params = self.grid, self.params
        d, eps, ti, v = params.dim, params.epsilon, params.ion_temperature, params.wave_speed
        mask, ik = self.mask, self.ik

        # one batched inverse transform: n, masked n/u, masked gradients
        spec = [stack[0], *(mask * stack)]
        for j in range(d):       # velocity gradients
            for a in range(d):
                spec.append(ik[a] * spec[2 + j])
        if ti != 0.0:             # masked density gradient (pressure term)
            spec.extend(ik[a] * spec[1] for a in range(d))
        real = irfft_c(np.stack(spec), grid)
        n = real[0]
        nm = real[1]
        um = [real[2 + j] for j in range(d)]
        grad_u = [[real[2 + d + j * d + a] for a in range(d)] for j in range(d)]
        grad_n = real[2 + d + d * d:]    # empty when T_i = 0

        if float(np.min(n)) <= _MIN_DENSITY:
            raise NumericalError(
                f"density fell to {float(np.min(n)):.3g} during a stage "
                f"(positivity floor {_MIN_DENSITY})")
        phi, _ = solve_poisson_values(n, grid, params, tol=self.cfg.poisson_tol,
                                      warm_start=phi_warm,
                                      max_newton=self.cfg.max_newton)

        # one batched forward transform: fluxes, advection, pressure, potential
        prods = [nm * um[a] for a in range(d)]
        for j in range(d):
            adv = um[0] * grad_u[j][0]
            for a in range(1, d):
                adv = adv + self.wts[a] * um[a] * grad_u[j][a]
            prods.append(adv)
        prods.extend(grad_n / n)
        prods.append(phi)
        hats = rfft_c(np.stack(prods), grid)

        out = np.empty_like(stack)
        vk1 = 1j * v * self.k[0]
        acc = vk1 * stack[0]
        for a in range(d):
            acc = acc - self.wts[a] * ik[a] * (mask * hats[a])
        out[0] = acc / eps

        phi_hat = hats[-1]
        for j in range(d):
            acc = vk1 * stack[1 + j] - mask * hats[d + j]
            if ti != 0.0:
                acc = acc - ti * self.wts[j] * (mask * hats[2 * d + j])
            acc = acc - self.wts[j] * ik[j] * phi_hat
            out[1 + j] = acc
        if params.magnetic:
            out[2] += stack[3] / self.sqeps
            out[3] -= stack[2] / self.sqeps
        out[1:] /= eps
        return out, phi

    def nonlinear(self, w: np.ndarray, _t: float) -> np.ndarray:
        """Nonlinear residual in eigen-coordinates, ``U^H D F(D^-1 U w) -
        Lambda w``; the stage potential is kept as the next stage's warm
        start."""
        tend, self._warm = self.tendency(_change_basis(self.from_eigen, w),
                                         self._warm)
        out = _change_basis(self.to_eigen, tend)
        out -= self.symbol * w
        return out

    # -- stepping ------------------------------------------------------------

    def _march(self, stack: np.ndarray, phi: np.ndarray, nsteps: int):
        """nsteps ETDRK4 steps in eigen-coordinates from a full-layout stack,
        then the consistency solve; returns the full-layout stack and its
        potential."""
        w = _change_basis(self.to_eigen, half(stack, self.grid))
        self._warm = phi
        for _ in range(nsteps):
            w = self.stepper.step(w, 0.0)
            if self._filter is not None:
                w *= self._filter
        # the last stage's potential warm-starts the consistency solve
        phi, self._warm = self._warm, None
        real = irfft_c(_change_basis(self.from_eigen, w), self.grid)
        if float(np.min(real[0])) <= _MIN_DENSITY:
            raise NumericalError(
                f"density fell to {float(np.min(real[0])):.3g} after a step")
        phi, _ = solve_poisson_values(real[0], self.grid, self.params,
                                      tol=self.cfg.poisson_tol, warm_start=phi,
                                      max_newton=self.cfg.max_newton)
        return fft_c(real, self.grid), phi

    def step_stack(self, stack: np.ndarray, phi: np.ndarray):
        """One step with the potential re-established at the new time."""
        return self._march(stack, phi, 1)

    def advance(self, stack: np.ndarray, phi: np.ndarray, nsteps: int):
        """nsteps raw steps, then one consistency solve at the final state.

        Intermediate states only ever feed the next stage (which re-solves
        the potential itself), so the per-step consistency solve is deferred
        to the returned state with no observable difference.
        """
        if nsteps <= 0:
            return stack, phi
        return self._march(stack, phi, nsteps)


def _change_basis(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per-mode matrix-vector product of a component-leading ``(m, m, *dims)``
    matrix field with an ``(m, *dims)`` stack."""
    out = np.empty_like(stack)
    for i in range(len(stack)):
        acc = mat[i, 0] * stack[0]
        for j in range(1, len(stack)):
            acc += mat[i, j] * stack[j]
        out[i] = acc
    return out


def ep_rhs(state: EPState, cfg: StepperConfig = None):
    """Full nonlinear tendency (d/dt of density and velocities), RHS/eps.

    Products are dealiased; the potential is re-solved from the density.
    """
    cfg = cfg or StepperConfig(dt=0.25 * state.params.epsilon
                               * min(state.grid.spacings))
    engine = EPIntegrator(state.grid, state.params, cfg)
    out, _ = engine.tendency(half(engine.to_stack(state), state.grid),
                             state.phi.values)
    dn, *du = (RealField(state.grid, r) for r in irfft_c(out, state.grid))
    return dn, du


def step_ep(state: EPState, cfg: StepperConfig) -> EPState:
    """Advance one time step; re-establishes the potential at the new time."""
    engine = EPIntegrator(state.grid, state.params, cfg)
    stack, phi = engine.step_stack(engine.to_stack(state), state.phi.values)
    return engine.from_stack(stack, phi, state.time + cfg.dt)


def run_ep(initial: EPState, T: float, cfg: StepperConfig,
           snapshots: int = 10, norm_orders=(0, 1, 2, 3, 4),
           tail_guard: float = 1e-8):
    """Integrate to rescaled time ``T``; returns (final state, diagnostics).

    Snapshots log mass, density minimum, potential-solve residual and the
    Sobolev norms of the density perturbation.  The run marches with
    :func:`~disperlim.etdrk4.march`, whose blow-up guard aborts when
    ``||n - 1||_{H^2}`` exceeds ten times its initial value.  If the spectral
    tail of the density ever exceeds ``tail_guard`` of its peak and no tail
    damping is configured, gentle fourth-order damping (one e-fold of the
    last octave per unit time) is switched on for the remainder of the run.

    Events logged on ``disperlim.euler_poisson``: ``dt_rounded``
    (``requested_dt``, ``effective_dt``) when dt is rounded to T/ceil(T/dt),
    and ``tail_damping_enabled`` (``time``, ``tail_fraction``) when the
    damping is switched on; that snapshot's record carries the same flag.
    """
    if T < 0:
        raise ConfigurationError(f"final time must be nonnegative, got {T}")
    dt, marks = plan(T, cfg.dt, snapshots, _log)
    if dt != cfg.dt:
        cfg = replace(cfg, dt=dt)
    log = DiagnosticsLog()
    engine = EPIntegrator(initial.grid, initial.params, cfg)
    ops = HalfOps(initial.grid)
    state = (engine.to_stack(initial), initial.phi.values)
    log.append(_snapshot_record(initial.time, state, engine, ops, norm_orders))
    if T == 0:
        return initial, log

    for time, state in march(lambda st, _start, count: engine.advance(*st, count),
                             state, marks, dt, density_h2(ops), initial.time):
        record = _snapshot_record(time, state, engine, ops, norm_orders)
        log.append(record)
        if engine._filter is None:
            pert = density_perturbation(state[0], ops.grid)
            peak = float(np.max(np.abs(pert)))
            tail = float(np.max(np.abs(pert[~ops.mask]))) / peak if peak else 0.0
            if tail > tail_guard:
                engine.cfg = replace(cfg, hyperviscosity=(2.0 ** 4, 4))
                engine._filter = engine._build_filter()
                record["tail_damping_enabled"] = True
                _log.info("tail_damping_enabled: at t = %.6g, tail fraction %.3e",
                          time, tail, extra={"event": "tail_damping_enabled",
                                             "time": time, "tail_fraction": tail})

    final = engine.from_stack(*state, initial.time + T)
    return final, log


def density_perturbation(stack: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum of ``n - 1`` from a full-layout stack."""
    pert = half(stack[0], grid).copy()
    pert.flat[0] -= 1.0
    return pert


def density_h2(ops: HalfOps):
    """The blow-up guard's size of a ``(stack, phi)`` march state:
    ``||n - 1||_{H^2}``."""
    return lambda state: ops.norm_c(density_perturbation(state[0], ops.grid), 2)


def _snapshot_record(time, state, engine: EPIntegrator, ops: HalfOps, norm_orders):
    grid, params = engine.grid, engine.params
    stack, phi = state
    pert = density_perturbation(stack, grid)
    n = 1.0 + irfft_c(pert, grid)
    return {
        "time": float(time),
        "mass": float(pert.flat[0].real * grid.volume),
        "min_n": float(np.min(n)),
        "poisson_residual": poisson_residual(n, phi, grid, params),
        "norms": {f"H{s}": ops.norm_c(pert, s) for s in norm_orders},
    }
