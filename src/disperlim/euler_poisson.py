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
eigendecomposition with perfectly conditioned (unitary) eigenvectors, run
once per symmetry orbit of modes (:meth:`EPIntegrator._build_propagator`).

A stage forms the nonlinear residual ``N = F - L v/eps`` term by term: one
batched inverse transform (n, the masked density perturbation, velocity and
vorticity, and the density gradient when T_i != 0), the potential solve,
whose final spectrum is reused, and one batched forward transform (the flux
of the perturbation, |u|^2/2, u x curl u, and the pressure when T_i != 0).
The rotational form of the advection is exact for factors strictly inside
the mask; on a grid of 3m points the mask keeps |index| = m, where products
alias, and there the two forms differ by the aliased part.

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
# spectral tail fraction of the density above which run_ep switches on damping
_TAIL_GUARD = 1e-8

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


# vorticity components of the anisotropic curl: pairs (j, a) standing for
# D_j u_a - D_a u_j, D_a = w_a d_a (one in 2D; curl_w u in 3D)
_CURL = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


class _Tendency:
    """The tendency F (RHS divided by eps) of one grid and scaling on the
    half spectrum, split into ``L v / eps`` (:func:`linearized_symbol` per
    mode) and the residual ``N = F - L v / eps``, formed term by term.  F
    masks the linear parts of the flux and the pressure and the symbol does
    not, so N keeps them on the tail ``1 - mask``; the potential enters N as
    ``phi_hat - n_hat / (1 + eps|k_w|^2)``; advection is in rotational form,
    ``u.grad_w u = grad_w(|u|^2/2) - u x curl_w u``."""

    def __init__(self, grid: Grid, params: ScalingParams, cfg: StepperConfig):
        self.grid, self.params, self.cfg = grid, params, cfg
        d, eps, ti = params.dim, params.epsilon, params.ion_temperature
        self.mask = half(dealias_mask(grid), grid)
        self.k = [half(grid.wavenumber(a), grid) for a in range(d)]
        self.sqeps = math.sqrt(eps)
        # weights w_a of the anisotropic derivatives
        self.wts = [1.0] + [self.sqeps if d == 2 else 1.0] * (d - 1)
        # the symbol's i w_a k_a, and D_a with the odd-order Nyquist zeroed
        self.iwk = [1j * w * k for w, k in zip(self.wts, self.k)]
        self.dw = [w * half(deriv_factor(grid, a, 1), grid)
                   for a, w in enumerate(self.wts)]
        self.tail = ~self.mask
        # the squared local sound factor: the linear response of the
        # potential, 1/(1 + eps|k_w|^2), plus T_i
        self.c2 = ti + 1.0 / (1.0 + eps * half(weighted_ksq(grid, params), grid))

    def linear(self, stack: np.ndarray) -> np.ndarray:
        """``L v / eps`` of a half-spectrum stack."""
        params = self.params
        out = (1j * params.wave_speed * self.k[0]) * stack
        for a, iwk in enumerate(self.iwk):
            out[0] -= iwk * stack[1 + a]
            out[1 + a] -= iwk * self.c2 * stack[0]
        if params.magnetic:
            out[2] += stack[3] / self.sqeps
            out[3] -= stack[2] / self.sqeps
        return out / params.epsilon

    def residual(self, stack: np.ndarray, phi_warm: np.ndarray):
        """``(N, phi, info)`` of a half-spectrum stack: the nonlinear
        residual, the stage potential and its solve's info."""
        grid, params = self.grid, self.params
        d, ti = params.dim, params.ion_temperature
        mask, dw, curl = self.mask, self.dw, _CURL[d]

        # one batched inverse transform: n, the masked perturbation of n,
        # masked u, its vorticity and (T_i != 0) the masked D_a n
        nv = 2 + d + len(curl)
        spec = np.empty((nv + (d if ti else 0),) + stack.shape[1:], stack.dtype)
        spec[0] = stack[0]
        np.multiply(mask, stack, out=spec[1:2 + d])
        spec[1].flat[0] -= 1.0
        um = spec[2:2 + d]
        for i, (j, a) in enumerate(curl):
            np.subtract(dw[j] * um[a], dw[a] * um[j], out=spec[2 + d + i])
        for a in range(d if ti else 0):
            np.multiply(dw[a], spec[1], out=spec[nv + a])
        real = irfft_c(spec, grid)
        n, dn, u, vort = real[0], real[1], real[2:2 + d], real[2 + d:nv]

        if float(np.min(n)) <= _MIN_DENSITY:
            raise NumericalError(
                f"density fell to {float(np.min(n)):.3g} during a stage "
                f"(positivity floor {_MIN_DENSITY})")
        phi, info = solve_poisson_values(n, grid, params, tol=self.cfg.poisson_tol,
                                         warm_start=phi_warm,
                                         max_newton=self.cfg.max_newton)

        # one batched forward transform: flux of the perturbation, |u|^2/2,
        # u x curl_w u and (T_i != 0) D_a n (1/n - 1)
        prods = np.empty((2 * d + 1 + (d if ti else 0),) + n.shape)
        np.multiply(dn, u, out=prods[:d])
        prods[d] = 0.5 * (u * u).sum(axis=0)
        cross = prods[d + 1:2 * d + 1]
        cross[...] = 0.0
        for w, (j, a) in zip(vort, curl):
            cross[j] += u[a] * w
            cross[a] -= u[j] * w
        if ti:
            np.multiply(real[nv:], (1.0 - n) / n, out=prods[2 * d + 1:])
        hats = rfft_c(prods, grid)

        out = np.empty_like(stack)
        out[0] = sum(iwk * (self.tail * stack[1 + a] - mask * hats[a])
                     for a, iwk in enumerate(self.iwk))
        # one gradient for |u|^2/2, the potential's linear response and the
        # pressure's linear part on the tail (c^2 - T_i mask)
        scalar = mask * (hats[d] + ti * stack[0]) - self.c2 * stack[0]
        force = hats[d + 1:2 * d + 1]
        if ti:
            force = force - ti * hats[2 * d + 1:]
        np.multiply(mask, force, out=out[1:])
        for j in range(d):
            out[1 + j] -= dw[j] * info["spectrum"] + self.iwk[j] * scalar
        out /= params.epsilon
        return out, phi, info


class EPIntegrator:
    """Bound ETDRK4 engine: grid + scaling + stepper tables.

    Takes and returns spectral stacks of shape ``(d+1, *dims)``, components
    ordered ``(n, u1, .., ud)``, mean-normalized coefficients in the full
    layout.  Internally it holds the half spectrum only (``tendency`` and
    ``nonlinear`` take half-spectrum stacks) and steps the eigen-coordinates
    ``w = U^H D v`` of the linear symbol, in which the linear part is the
    diagonal ``Lambda = (i/eps) * omega``: a run changes basis once on entry
    and once on exit.  Each stage of
    :class:`~disperlim.etdrk4.DiagonalETDRK4` calls ``nonlinear``:
    ``v = D^-1 U w``, then ``tendency`` (the residual N of v: 8 inverse and
    7 forward field transforms besides the potential solve's, in 3D at
    T_i = 0), then ``U^H D N``.  The one stored basis change is the unitary
    ``basis`` U with the sound factor ``c`` of ``D = diag(c, 1, ..)``.
    ``stats`` keeps the running totals of stages, Newton iterations and
    inner sweeps since the build.
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
        self.ops = _Tendency(grid, params, cfg)
        self.stats = dict.fromkeys(("stages", "newton_iterations", "inner_sweeps"), 0)
        self._build_propagator()
        self._filter = self._build_filter()

    # -- linear algebra ----------------------------------------------------

    def _build_propagator(self):
        """The eigensystem, one ``eigh`` per symmetry orbit.

        ``L = (1/eps) D^-1 (iH) D`` with ``D = diag(c, 1, ..)`` and the
        Hermitian ``H = V k1 I + A(q)``, ``q_a = -c w_a k_a`` the density row.
        ``A(q) = P A(|q1|, |q_perp|, 0, ..) P^T`` with the orthogonal
        ``P = diag(1, sign q1, R_perp)``, R_perp the transverse rotation
        taking the first transverse axis to ``q_perp / |q_perp|`` (a sign in
        2D; in 3D it commutes with the gyration block).  So ``eigh`` runs once
        per distinct key ``(|q1|, |q_perp|)``, and every mode gathers its
        key's eigenvectors and rotates their rows; keys that differ by
        roundoff are merely separate orbits.
        """
        ops, params = self.ops, self.params
        d, m, shape = params.dim, params.dim + 1, ops.mask.shape
        c = np.sqrt(ops.c2)
        q = [np.broadcast_to(-c * w * k, shape) for w, k in zip(ops.wts, ops.k)]
        q1 = np.abs(q[0])
        qperp = np.sqrt(sum(qa * qa for qa in q[1:]))
        keys, orbit = np.unique((q1 + 1j * qperp).ravel(), return_inverse=True)
        a0 = np.zeros((len(keys), m, m),
                      np.complex128 if params.magnetic else np.float64)
        a0[:, 0, 1] = a0[:, 1, 0] = keys.real
        a0[:, 0, 2] = a0[:, 2, 0] = keys.imag
        if params.magnetic:
            a0[:, 2, 3] = -1j / ops.sqeps
            a0[:, 3, 2] = 1j / ops.sqeps
        omega, basis = np.linalg.eigh(a0)
        del a0
        # every mode's unitary U = P U0, stored component-leading so a basis
        # change is m*m contiguous elementwise multiply-adds
        u = np.take(np.moveaxis(basis, 0, -1), orbit, axis=-1).reshape((m, m) + shape)
        del basis
        u[1] *= _direction(q[0], q1)
        cos = _direction(q[1], qperp)
        if d == 2:
            u[2] *= cos
        else:
            sin = q[2] / np.where(qperp > 0.0, qperp, 1.0)
            u[2], u[3] = cos * u[2] - sin * u[3], sin * u[2] + cos * u[3]
        self.basis, self.c = u, c
        omega = np.take(omega.T, orbit, axis=1).reshape((m,) + shape)
        self.symbol = (1j / params.epsilon) * (params.wave_speed * ops.k[0] + omega)
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
        rho2 = np.zeros(self.ops.mask.shape)
        for a in range(self.grid.ndim):
            kmax = np.pi * self.grid.dims[a] / self.grid.lengths[a]
            rho2 = rho2 + (self.ops.k[a] / kmax) ** 2
        return np.exp(-nu * self.cfg.dt * rho2 ** (order / 2.0))

    def _from_eigen(self, w: np.ndarray) -> np.ndarray:
        """``v = D^-1 U w``."""
        v = _change_basis(self.basis, w)
        v[0] /= self.c
        return v

    def _to_eigen(self, v: np.ndarray) -> np.ndarray:
        """``w = U^H D v``, taken as ``conj(U^T conj(D v))``."""
        y = np.conj(v)
        y[0] *= self.c
        w = _change_basis(self.basis, y, transpose=True)
        return np.conj(w, out=w)

    # -- state conversion ----------------------------------------------------

    def to_stack(self, state: EPState) -> np.ndarray:
        return fft_c(np.stack([f.values for f in (state.n,) + state.u]), self.grid)

    def from_stack(self, stack: np.ndarray, phi: np.ndarray, time: float) -> EPState:
        n, *u = (RealField(self.grid, v) for v in ifft_c(stack, self.grid))
        return EPState(n=n, u=u, phi=RealField(self.grid, phi), time=time,
                       params=self.params)

    # -- physics -------------------------------------------------------------

    def _count(self, info: dict, stages: int = 0) -> None:
        self.stats["stages"] += stages
        for key in ("newton_iterations", "inner_sweeps"):
            self.stats[key] += info[key]

    def tendency(self, stack: np.ndarray, phi_warm: np.ndarray):
        """Nonlinear residual ``N = F - L v / eps`` of a half-spectrum stack
        (F the RHS divided by eps), and the stage potential."""
        out, phi, info = self.ops.residual(stack, phi_warm)
        self._count(info, stages=1)
        return out, phi

    def nonlinear(self, w: np.ndarray, _t: float) -> np.ndarray:
        """Nonlinear residual in eigen-coordinates, ``U^H D N(D^-1 U w)``;
        the stage potential is kept as the next stage's warm start."""
        out, self._warm = self.tendency(self._from_eigen(w), self._warm)
        return self._to_eigen(out)

    # -- stepping ------------------------------------------------------------

    def _march(self, stack: np.ndarray, phi: np.ndarray, nsteps: int):
        """nsteps ETDRK4 steps in eigen-coordinates from a full-layout stack,
        then the consistency solve; returns the full-layout stack and its
        potential."""
        w = self._to_eigen(half(stack, self.grid))
        self._warm = phi
        for _ in range(nsteps):
            w = self.stepper.step(w, 0.0)
            if self._filter is not None:
                w *= self._filter
        # the last stage's potential warm-starts the consistency solve
        phi, self._warm = self._warm, None
        real = irfft_c(self._from_eigen(w), self.grid)
        if float(np.min(real[0])) <= _MIN_DENSITY:
            raise NumericalError(
                f"density fell to {float(np.min(real[0])):.3g} after a step")
        phi, info = solve_poisson_values(real[0], self.grid, self.params,
                                         tol=self.cfg.poisson_tol, warm_start=phi,
                                         max_newton=self.cfg.max_newton)
        self._count(info)
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


def _direction(x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """``x / norm``, and 1 where the norm is zero."""
    return np.where(norm > 0.0, x / np.where(norm > 0.0, norm, 1.0), 1.0)


def _change_basis(mat: np.ndarray, stack: np.ndarray,
                  transpose: bool = False) -> np.ndarray:
    """Per-mode matrix-vector product of a component-leading ``(m, m, *dims)``
    matrix field (or its transpose) with an ``(m, *dims)`` stack."""
    out = np.empty_like(stack)
    tmp = np.empty_like(stack[0])
    for i in range(len(stack)):
        row = mat[:, i] if transpose else mat[i]
        np.multiply(row[0], stack[0], out=out[i])
        for j in range(1, len(stack)):
            out[i] += np.multiply(row[j], stack[j], out=tmp)
    return out


def ep_rhs(state: EPState, cfg: StepperConfig = None):
    """Full nonlinear tendency (d/dt of density and velocities), RHS/eps.

    Products are dealiased; the potential is re-solved from the density
    with the solve settings of ``cfg`` (whose dt is not used), warm-started
    from the state's potential.  No eigenbasis or stepper is built.
    """
    grid = state.grid
    ops = _Tendency(grid, state.params, cfg or StepperConfig(dt=1.0))
    stack = rfft_c(np.stack([f.values for f in (state.n,) + state.u]), grid)
    out, _, _ = ops.residual(stack, state.phi.values)
    out += ops.linear(stack)
    dn, *du = (RealField(grid, r) for r in irfft_c(out, grid))
    return dn, du


def step_ep(state: EPState, cfg: StepperConfig) -> EPState:
    """Advance one time step; re-establishes the potential at the new time."""
    engine = EPIntegrator(state.grid, state.params, cfg)
    stack, phi = engine.step_stack(engine.to_stack(state), state.phi.values)
    return engine.from_stack(stack, phi, state.time + cfg.dt)


def run_ep(initial: EPState, T: float, cfg: StepperConfig, snapshots: int = 10):
    """Integrate to rescaled time ``T``; returns (final state, diagnostics).

    Snapshots log mass, density minimum, potential-solve residual, the
    Sobolev norms H0..H4 of the density perturbation, and the engine's work
    since the previous snapshot (``stages``, ``newton_iterations``,
    ``inner_sweeps``; 0 at the first).  The run marches with
    :func:`~disperlim.etdrk4.march`, whose blow-up guard aborts when
    ``||n - 1||_{H^2}`` exceeds ten times its initial value.  If the spectral
    tail of the density ever exceeds 1e-8 of its peak and no tail damping is
    configured, gentle fourth-order damping (one e-fold of the last octave
    per unit time) is switched on for the remainder of the run.

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
    counted = dict(engine.stats)
    log.append(_snapshot_record(initial.time, state, engine, ops, counted))
    if T == 0:
        return initial, log

    for time, state in march(lambda st, _start, count: engine.advance(*st, count),
                             state, marks, dt, density_h2(ops), initial.time):
        record = _snapshot_record(time, state, engine, ops, counted)
        counted = dict(engine.stats)
        log.append(record)
        if engine._filter is None:
            pert = density_perturbation(state[0], ops.grid)
            peak = float(np.max(np.abs(pert)))
            tail = float(np.max(np.abs(pert[~ops.mask]))) / peak if peak else 0.0
            if tail > _TAIL_GUARD:
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


def _snapshot_record(time, state, engine: EPIntegrator, ops: HalfOps, counted: dict):
    grid, params = engine.grid, engine.params
    stack, phi = state
    pert = density_perturbation(stack, grid)
    n = 1.0 + irfft_c(pert, grid)
    return {
        "time": float(time),
        "mass": float(pert.flat[0].real * grid.volume),
        "min_n": float(np.min(n)),
        "poisson_residual": poisson_residual(n, phi, grid, params),
        "norms": {f"H{s}": ops.norm_c(pert, s) for s in range(5)},
        **{key: total - counted[key] for key, total in engine.stats.items()},
    }
