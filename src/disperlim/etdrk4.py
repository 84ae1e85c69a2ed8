"""Fourth-order exponential time differencing (Cox-Matthews ETDRK4).

The stiff linear part is integrated exactly through ``exp`` and the phi
functions; only the nonlinear residual sees Runge-Kutta stages.  The phi
functions have removable singularities at the origin, so for small arguments
phi_3 is summed from its Taylor series by a fixed-length Horner scheme and
phi_2, phi_1 follow from the recurrence ``phi_k = 1/k! + z*phi_{k+1}``, which
is free of cancellation there; larger arguments use the closed form.

Every time-marching driver takes its step plan from :func:`plan` and steps
between the snapshot marks with :func:`march`, which holds the blow-up guard.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = ["phi_functions", "etdrk4_tables", "DiagonalETDRK4", "plan", "march"]

_SERIES_CUTOFF = 0.75
# Taylor coefficients 1/(j+1)! of phi_1, highest power first; below the
# cutoff the first term left out is under 1e-24 of phi_1 and of phi_3
_INV_FACT = tuple(1.0 / math.factorial(j + 1) for j in reversed(range(22)))


def _phis(z, count):
    """``[phi_1, .., phi_count]`` (count 1 or 3) of a flat complex array."""
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, z, 0.0)
    split = len(_INV_FACT) + 1 - count    # phi_count's coefficients end here
    top = np.full_like(zs, _INV_FACT[0])
    for c in _INV_FACT[1:split]:          # Horner for phi_count
        top *= zs
        top += c
    phis = [top]
    for c in _INV_FACT[split:]:           # phi_k = 1/k! + z*phi_{k+1}
        phis.insert(0, zs * phis[0] + c)
    if not small.all():
        zb = z[~small]
        closed = (np.exp(zb) - 1.0) / zb
        for k, p in enumerate(phis):
            p[~small] = closed
            closed = (closed - _INV_FACT[-1 - k]) / zb
    return phis


def phi_functions(z):
    """phi_1, phi_2, phi_3 evaluated elementwise on a complex array."""
    z = np.asarray(z, dtype=np.complex128)
    return tuple(p.reshape(z.shape) for p in _phis(z.ravel(), 3))


def etdrk4_tables(lin_dt):
    """Stage multipliers for one ETDRK4 step, from ``L*dt`` (elementwise).

    Returns ``(E, E2, Q, f1, f2, f3)``: full/half-step exponentials, the
    half-step phi_1 weight, and the three Cox-Matthews update weights, all
    scaled so that, once each weight is multiplied by dt, the update reads

        a = E2*u + Q*N(u)
        b = E2*u + Q*N(a)
        c = E2*a + Q*(2*N(b) - N(u))
        u' = E*u + f1*N(u) + 2*f2*(N(a) + N(b)) + f3*N(c)
    """
    z = np.asarray(lin_dt, dtype=np.complex128)
    E, E2 = np.exp(z), np.exp(0.5 * z)
    (Q,) = _phis(0.5 * z.ravel(), 1)
    Q *= 0.5
    p1, p2, p3 = _phis(z.ravel(), 3)
    f1 = p1 - 3.0 * p2 + 4.0 * p3
    f2 = p2 - 2.0 * p3
    f3 = 4.0 * p3 - p2
    return (E, E2) + tuple(a.reshape(z.shape) for a in (Q, f1, f2, f3))


class DiagonalETDRK4:
    """ETDRK4 stepper for a diagonal (per-mode) linear symbol.

    ``symbol`` is the elementwise linear operator L (tendency = L*v + N(v)),
    ``nonlinear`` maps ``(v_hat, t) -> N_hat``.  This is the one ETDRK4
    stage routine of the package: the limit models step their Fourier
    coefficients with it and the Euler-Poisson engine its eigen-coordinates.
    """

    def __init__(self, symbol, dt, nonlinear):
        self.dt = float(dt)
        self.nonlinear = nonlinear
        self.E, self.E2, self.Q, self.f1, self.f2, self.f3 = etdrk4_tables(
            symbol * self.dt)
        for weight in (self.Q, self.f1, self.f2, self.f3):
            weight *= self.dt

    def step(self, v, t):
        half = t + 0.5 * self.dt
        n1 = self.nonlinear(v, t)
        e2v = self.E2 * v
        a = e2v + self.Q * n1
        n2 = self.nonlinear(a, half)
        b = e2v + self.Q * n2
        n3 = self.nonlinear(b, half)
        c = self.E2 * a + self.Q * (2.0 * n3 - n1)
        n4 = self.nonlinear(c, t + self.dt)
        return (self.E * v + self.f1 * n1 + 2.0 * self.f2 * (n2 + n3)
                + self.f3 * n4)


def plan(T, dt, snapshots, logger):
    """``(dt, marks)`` of a march to ``T``: dt rounded to ``T/ceil(T/dt)``
    (a change is logged on ``logger`` as the event ``dt_rounded``), and the
    step counts of ``snapshots`` evenly spaced snapshots, the last at T."""
    nsteps = max(1, math.ceil(T / dt - 1e-9)) if T > 0 else 0
    if nsteps and abs(T / nsteps - dt) > 1e-12 * dt:
        logger.info("dt_rounded: requested dt %.17g, effective dt %.17g", dt,
                    T / nsteps, extra={"event": "dt_rounded", "requested_dt": dt,
                                       "effective_dt": T / nsteps})
        dt = T / nsteps
    snaps = max(1, int(snapshots))
    marks = sorted({round(nsteps * (i + 1) / snaps) for i in range(snaps)} - {0})
    return dt, marks


def march(advance, state, marks, dt, h2, t0=0.0):
    """Yield ``(time, state)`` at each step count in ``marks``, stepping with
    ``advance(state, start, count)``.  The blow-up guard: a non-finite
    ``h2(state)``, or one above ten times its initial value (above 1 when
    that is zero), raises :class:`NumericalError` naming the time."""
    size0 = h2(state)
    limit = 10.0 * size0 if size0 > 1e-14 else 1.0
    done = 0
    for mark in marks:
        state = advance(state, done, mark - done)
        done = mark
        time = t0 + done * dt
        size = h2(state)
        if not math.isfinite(size):
            raise NumericalError(f"non-finite state at t = {time:.6g}")
        if size > limit:
            raise NumericalError(
                f"blow-up guard tripped at t = {time:.6g}: "
                f"H2 = {size:.3e} exceeds 10x initial {size0:.3e}")
        yield time, state
