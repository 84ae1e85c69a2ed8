"""Correctness checks on the benchmark's outputs, computed apart from disperlim.

Every check either tests a property the method must have (mass conservation,
an observed convergence order, a residual bound) or compares against a
computation made here with plain numpy/scipy (FFTs, a per-mode matrix
exponential of the linearised equations).  A check returns a list of problem
strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np

MASS_DRIFT = 1e-10
ORDER_RANGE = (1.7, 2.3)
BAND_LIMIT = 3.0
LINEAR_FIDELITY = 1e-8
SOURCE_AGREEMENT = 1e-10
ORACLE_TOL = 1e-6


# ---------------------------------------------------------------------------
# helpers shared by the checks


def wavenumbers(dims, lengths):
    """Signed angular wavenumbers per axis, broadcastable to the grid."""
    out = []
    for axis, (n, length) in enumerate(zip(dims, lengths)):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        shape = [1] * len(dims)
        shape[axis] = n
        out.append(k.reshape(shape))
    return out


def weighted_ksq(dims, lengths, epsilon):
    """``k1^2 + eps*k2^2`` in 2D, ``|k|^2`` in 3D (the scaled Laplacian)."""
    ks = wavenumbers(dims, lengths)
    w = epsilon if len(dims) == 2 else 1.0
    return ks[0] ** 2 + sum(w * k ** 2 for k in ks[1:])


def l2(values, volume):
    return math.sqrt(volume * float(np.mean(values * values)))


def fitted_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    slope, _ = np.polyfit(np.log(np.asarray(xs, float)),
                          np.log(np.asarray(ys, float)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# the epsilon sweeps


def read_table_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        for key in ("epsilon", "time", "n", "u", "phi", "err1"):
            r[key] = float(r[key])
    return rows


def read_diagnostics(out_dir):
    """``{epsilon: diagnostics record}`` from a study's output directory."""
    found = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "diagnostics_eps_*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        found[float(record["epsilon"])] = record
    return found


def check_sweep(rows, diagnostics, epsilons, samples, volume, poisson_tol,
                norm_kind=None):
    """Checks on one sweep's table rows and per-epsilon diagnostics.

    - each epsilon has ``samples + 1`` rows;
    - every snapshot's mass equals its initial value within 1e-10;
    - every recorded Poisson residual is at most ``poisson_tol*||n||_L2``.
      ``||n||_L2`` is bounded below by ``(volume + mass)/sqrt(volume)``
      (Cauchy-Schwarz), so the bound used here is never looser;
    - the prepared ``phi_gap_l2`` fits an order in [1.7, 2.3] across epsilon;
    - the remainder band max/min over epsilon of the sup-in-time combined
      norm is below 3;
    - the sup-in-time first-order error decreases as epsilon decreases;
    - optionally, every row reports ``norm_kind``.
    """
    problems = []
    epsilons = [float(e) for e in epsilons]
    by_eps = {e: [r for r in rows if math.isclose(r["epsilon"], e)] for e in epsilons}
    for e, rs in by_eps.items():
        if len(rs) != samples + 1:
            problems.append(f"eps {e}: {len(rs)} rows, expected {samples + 1}")
    if set(diagnostics) != set(epsilons):
        problems.append(f"diagnostics for {sorted(diagnostics)}, expected {epsilons}")
        return problems
    if problems:
        return problems

    for e in epsilons:
        snaps = diagnostics[e]["snapshots"]
        mass0 = snaps[0]["mass"]
        for s in snaps:
            drift = abs(s["mass"] - mass0)
            if not drift <= MASS_DRIFT:
                problems.append(f"eps {e} t {s['time']}: mass drift {drift:.3e}")
            bound = poisson_tol * (volume + s["mass"]) / math.sqrt(volume)
            if not s["poisson_residual"] <= bound:
                problems.append(f"eps {e} t {s['time']}: Poisson residual "
                                f"{s['poisson_residual']:.3e} > {bound:.3e}")

    gaps = [diagnostics[e]["prepared"]["phi_gap_l2"] for e in epsilons]
    order = fitted_slope(epsilons, gaps)
    if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
        problems.append(f"phi_gap order {order:.3f} outside {ORDER_RANGE}")

    sups = [max(math.sqrt(r["n"] ** 2 + r["u"] ** 2 + r["phi"] ** 2)
                for r in by_eps[e]) for e in epsilons]
    band = max(sups) / min(sups)
    if not band < BAND_LIMIT:
        problems.append(f"remainder band {band:.3f} >= {BAND_LIMIT}")

    err1 = [max(r["err1"] for r in by_eps[e] if r["time"] > 0.0) for e in epsilons]
    # epsilons descend, so the errors must descend too
    if not all(a > b for a, b in zip(err1, err1[1:])):
        problems.append(f"err1 does not decrease with epsilon: {err1}")

    if norm_kind is not None:
        kinds = {r["norm_kind"] for r in rows}
        if kinds != {norm_kind}:
            problems.append(f"norm kinds {sorted(kinds)}, expected {norm_kind}")
    return problems


def linear_matrix(kvec, epsilon, ion_temperature):
    """Per-mode matrix M of the rescaled flow linearised about rest,
    ``eps * d/dt (n, u) = M (n, u)``, derived here from the equations.

    Wave frame ``d/dt -> d/dt - V d1``; the potential answers the density
    through ``phi = n / (1 + eps|k_w|^2)``; the transverse derivatives carry
    ``sqrt(eps)`` in 2D; in 3D the guide field along x1 turns (u2, u3) at
    rate ``1/sqrt(eps)``.
    """
    d = len(kvec)
    k = [float(c) for c in kvec]
    w = [1.0] + [math.sqrt(epsilon) if d == 2 else 1.0] * (d - 1)
    kw2 = sum((w[a] * k[a]) ** 2 for a in range(d))
    sound = ion_temperature + 1.0 / (1.0 + epsilon * kw2)
    m = np.diag(np.full(d + 1, 1j * math.sqrt(ion_temperature + 1.0) * k[0]))
    for a in range(d):
        m[0, 1 + a] = -1j * w[a] * k[a]
        m[1 + a, 0] = -1j * w[a] * k[a] * sound
    if d == 3:
        m[2, 3] += 1.0 / math.sqrt(epsilon)
        m[3, 2] -= 1.0 / math.sqrt(epsilon)
    return m


def expected_mode(kvec, epsilon, ion_temperature, x0, duration):
    """Mode amplitudes after ``duration`` from the matrix exponential."""
    from scipy.linalg import expm

    m = linear_matrix(kvec, epsilon, ion_temperature)
    return expm(m * (duration / epsilon)) @ np.asarray(x0, dtype=np.complex128)


def check_linear_fidelity(got, expected, amplitude, label=""):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(expected)))) / amplitude
    if not err <= LINEAR_FIDELITY:
        return [f"linear fidelity {label}: error {err:.3e} > {LINEAR_FIDELITY}"]
    return []


# ---------------------------------------------------------------------------
# the order-2 profile path


def check_conservation(states, volume, bound, label=""):
    """Mass and L2 of a limit-model trajectory, computed with plain numpy."""
    problems = []
    mass = [float(np.mean(s)) * volume for s in states]
    sq = [float(np.mean(s * s)) * volume for s in states]
    mass_drift = max(abs(m - mass[0]) for m in mass) / max(1.0, abs(mass[0]))
    l2_drift = max(abs(q - sq[0]) for q in sq) / sq[0]
    if not mass_drift <= bound:
        problems.append(f"{label}: mass drift {mass_drift:.3e} > {bound}")
    if not l2_drift <= bound:
        problems.append(f"{label}: L2 drift {l2_drift:.3e} > {bound}")
    return problems


def check_source_agreement(mechanical, closed_form):
    gap = float(np.linalg.norm(mechanical - closed_form))
    scale = float(np.linalg.norm(closed_form))
    if not gap <= SOURCE_AGREEMENT * scale:
        return [f"mechanical and closed-form sources differ: {gap:.3e} "
                f"vs scale {scale:.3e}"]
    return []


# ---------------------------------------------------------------------------
# the potential solve


def poisson_residual(n, phi, lengths, epsilon):
    """``||eps*lap_w(phi) - exp(phi) + n||_L2`` with numpy's own FFT."""
    ksq = weighted_ksq(n.shape, lengths, epsilon)
    lap = np.fft.ifftn(-ksq * np.fft.fftn(phi)).real
    return l2(epsilon * lap - np.exp(phi) + n, math.prod(lengths))


def check_poisson(n, phi, lengths, epsilon, tol, label=""):
    if not np.all(np.isfinite(phi)):
        return [f"{label}: non-finite potential"]
    volume = math.prod(lengths)
    res = poisson_residual(n, phi, lengths, epsilon)
    bound = tol * l2(n, volume)
    if not res <= bound:
        return [f"{label}: residual {res:.3e} > {bound:.3e}"]
    return []


def check_screened_response(phi, amplitude, mode, lengths, epsilon, label=""):
    """Tiny-amplitude rung against ``a*mode/(1 + eps|k_w|^2)``; ``mode`` is a
    unit single-mode field and its wavenumber is read from its spectrum."""
    spec = np.fft.fftn(mode)
    idx = np.unravel_index(int(np.argmax(np.abs(spec))), spec.shape)
    ksq = weighted_ksq(mode.shape, lengths, epsilon)[idx]
    oracle = amplitude * mode / (1.0 + epsilon * ksq)
    err = float(np.max(np.abs(phi - oracle))) / amplitude
    if not err <= ORACLE_TOL:
        return [f"{label}: screened-response error {err:.3e} > {ORACLE_TOL}"]
    return []
