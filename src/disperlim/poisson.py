"""Newton solver for the semilinear electrostatic balance.

Solves ``eps * lap_w(phi) = exp(phi) - n`` for the potential, where
``lap_w`` is the anisotropic Laplacian of :func:`~disperlim.spectral.weighted_laplacian`.
The Jacobian systems ``(eps*lap_w - diag(w)) delta = -r``, ``w = exp(phi)``,
are solved by a Richardson iteration preconditioned with the
constant-coefficient symbol ``(eps*|k_w|^2 + wbar)^-1``, where ``wbar`` is the
midrange of ``w``.  It contracts by at most ``(max w - min w)/(max w + min w)
< 1`` per sweep for every positive ``w``, so the solve holds at any density
contrast.  The inner residual is available in closed form from the iteration
increment, so no extra transforms are spent on monitoring.  Every field is
real, so the transforms are real-data ones on the half spectrum
(:func:`~disperlim.spectral.rfft_c`), with the symbols cut down to it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalError
from .grid import Grid, RealField, ScalingParams
from .spectral import half, irfft_c, rfft_c, weighted_ksq

__all__ = ["solve_poisson", "poisson_residual"]


def _l2(values: np.ndarray, grid: Grid) -> float:
    return math.sqrt(grid.volume * float(np.mean(values * values)))


def poisson_residual(n: np.ndarray, phi: np.ndarray, grid: Grid,
                     params: ScalingParams) -> float:
    """L2 norm of ``eps*lap_w(phi) - exp(phi) + n``."""
    ksq = half(weighted_ksq(grid, params), grid)
    lap = irfft_c(-ksq * rfft_c(phi, grid), grid)
    return _l2(params.epsilon * lap - np.exp(phi) + n, grid)


def solve_poisson_values(n: np.ndarray, grid: Grid, params: ScalingParams,
                         tol: float = 1e-11, warm_start: np.ndarray = None,
                         max_newton: int = 25):
    """Raw-array Poisson solve; returns ``(phi, info)``.

    ``info`` carries ``residuals`` (Newton history, absolute L2),
    ``newton_iterations``, ``inner_sweeps`` and ``spectrum``, the
    :func:`~disperlim.spectral.rfft_c` of the returned ``phi``.
    """
    if np.min(n) <= 0.0:
        raise NumericalError("density must be positive for the potential solve")
    ksq = half(weighted_ksq(grid, params), grid)
    scale = _l2(n, grid)
    target = tol * scale

    if warm_start is not None:
        phi = np.array(warm_start, dtype=np.float64, copy=True)
    else:
        phi = np.full(grid.shape, math.log(float(np.mean(n))))

    residuals = []
    inner_total = 0
    for iteration in range(max_newton + 1):
        w = np.exp(phi)
        spectrum = rfft_c(phi, grid)
        r = params.epsilon * irfft_c(-ksq * spectrum, grid) - w + n
        rnorm = _l2(r, grid)
        if not math.isfinite(rnorm):
            raise NumericalError("potential solve produced a non-finite iterate "
                                 f"or residual at Newton iteration {iteration}")
        residuals.append(rnorm)
        if rnorm <= target:
            return phi, {"residuals": residuals, "newton_iterations": iteration,
                         "inner_sweeps": inner_total, "spectrum": spectrum}
        if iteration == max_newton:
            break
        del spectrum  # returned only with the converged phi; not held by the sweeps

        # inner: (eps*lap_w - diag(w)) delta = -r, preconditioned Richardson.
        # After an update, the inner residual equals
        # (w-wbar)*(delta_old-delta_new), so convergence is monitored without
        # extra transforms.
        wbar = 0.5 * (float(np.max(w)) + float(np.min(w)))
        precond = 1.0 / (params.epsilon * ksq + wbar)
        wdev = w - wbar
        wsup = float(np.max(np.abs(wdev)))
        # inexact Newton: inner accuracy tied to the predicted quadratic
        # decrease, floored well under the outer target
        inner_target = max(0.05 * target,
                           0.1 * rnorm * rnorm / max(scale, 1e-300))
        delta = np.zeros_like(phi)
        for sweep in range(200):
            inner_total += 1
            new = irfft_c(precond * rfft_c(r - wdev * delta, grid), grid)
            increment = _l2(new - delta, grid)
            delta = new
            # written so a non-finite update also stops; the residual check
            # of the next Newton iteration then raises
            if not wsup * increment > inner_target:
                break
        phi = phi + delta

    raise ConvergenceError(
        f"potential solve stagnated after {max_newton} Newton iterations; "
        f"last residual {residuals[-1]:.3e} (target {target:.3e})",
        residual=residuals[-1])


def solve_poisson(n: RealField, params: ScalingParams, tol: float = 1e-11,
                  warm_start: RealField = None, max_newton: int = 25,
                  return_info: bool = False):
    """Solve the electrostatic balance for the potential field.

    The result satisfies ``||eps*lap_w(phi) - exp(phi) + n||_L2 <= tol*||n||_L2``.
    ``warm_start`` seeds Newton; otherwise the constant ``log(mean(n))`` is used.
    """
    warm = warm_start.values if warm_start is not None else None
    phi, info = solve_poisson_values(n.values, n.grid, params, tol=tol,
                                     warm_start=warm, max_newton=max_newton)
    field = RealField(n.grid, phi)
    return (field, info) if return_info else field
