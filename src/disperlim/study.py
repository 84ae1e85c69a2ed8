"""Remainder measurement and the epsilon-sweep convergence study.

The remainder is measured by direct subtraction of the weighted profile
aggregates from the full solution (never by integrating a remainder system):

    n_R = (n - 1 - eps*n_agg)/eps^2,  u_R = (u - eps*u_agg)/eps^2,
    phi_R = (phi - eps*phi_agg)/eps^2.

For a truncation-order-1 hierarchy the measured quantity is the first-order
defect, which the limit theory predicts to stay O(1) uniformly in eps; the
first-order approximation error ||n - 1 - eps*n1||_{H^s'} then scales as
eps^2.  A study sweeps eps, co-advances the (eps-independent) profiles with
the full system on one step plan (:func:`~disperlim.etdrk4.plan`, marched
with its blow-up guard), and fits the observed order.  Every norm is a
weighted sum on the half spectrum: a report takes its tail fractions, H^s and
triple norms from one batched transform of the remainder, and the first-order
error is the engine's density spectrum less the profile spectra.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .etdrk4 import march, plan
from .euler_poisson import (EPIntegrator, StepperConfig, density_h2,
                            density_perturbation)
from .fldio import from_section, write_json
from .grid import Grid, RealField, ScalingParams, build_grid
from .initial_data import build_family
from .limit_equations import (LimitConfig, Trajectory, solve_coupled_order2,
                              solve_kp2, solve_zk)
from .profiles import (ProfileHierarchy, assemble_initial_data,
                       assemble_lin_source_closed_form,
                       first_order_profiles_kp, first_order_profiles_zk,
                       second_order_profiles_kp, second_order_profiles_zk,
                       tilde_aggregates)
from .spectral import HalfOps, half, index_box, rfft_c, triple_root

__all__ = [
    "StudyConfig",
    "RemainderState",
    "ConvergenceTable",
    "compute_remainder",
    "remainder_norm_report",
    "run_convergence_study",
    "fit_order",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one epsilon-sweep study (schema_version 1)."""

    d: int
    ion_temperature: float
    epsilons: tuple[float, ...]
    tau0: float
    s_prime: int = 4
    truncation_order: int = 1
    grid_dims: tuple[int, ...] = None
    grid_lengths: tuple[float, ...] = None
    dt: float = 5e-4
    samples: int = 10
    family: dict = field(default_factory=lambda: {"name": "gaussian_zero_mean"})
    poisson_tol: float = 1e-11
    c_cfl: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ConfigurationError(f"d must be 2 or 3, got {self.d}")
        if self.ion_temperature < 0:
            raise ConfigurationError("ion_temperature must be nonnegative")
        if self.ion_temperature == 0 and self.d != 3:
            raise ConfigurationError(
                "the pressureless case (T_i = 0) is covered only in 3D")
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 3:
            raise ConfigurationError("need at least 3 epsilons for order fitting")
        if any(not (0.0 < e <= 0.5) for e in eps):
            raise ConfigurationError("epsilons must lie in (0, 0.5]")
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ConfigurationError("epsilons must be strictly descending")
        object.__setattr__(self, "epsilons", eps)
        if self.tau0 <= 0:
            raise ConfigurationError("tau0 must be positive")
        if self.s_prime < 4:
            raise ConfigurationError(f"s_prime must be >= 4, got {self.s_prime}")
        if self.truncation_order not in (1, 2):
            raise ConfigurationError("truncation_order must be 1 or 2")
        dims = self.grid_dims or ((128, 128) if self.d == 2 else (48, 48, 48))
        lengths = self.grid_lengths or ((40.0, 40.0) if self.d == 2
                                        else (20.0, 20.0, 20.0))
        object.__setattr__(self, "grid_dims", tuple(int(x) for x in dims))
        object.__setattr__(self, "grid_lengths", tuple(float(x) for x in lengths))
        if len(self.grid_dims) != self.d:
            raise ConfigurationError("grid rank must equal d")
        if self.samples < 1:
            raise ConfigurationError("samples must be >= 1")

    @property
    def wave_speed(self) -> float:
        return math.sqrt(self.ion_temperature + 1.0)

    @property
    def norm_kind(self) -> str:
        return "triple" if self.ion_temperature == 0.0 else f"H{self.s_prime}"

    def build_grid(self) -> Grid:
        return build_grid(self.grid_dims, self.grid_lengths)

    def as_jsonable(self) -> dict:
        obj = asdict(self)
        obj["grid"] = {"dims": obj.pop("grid_dims"), "lengths": obj.pop("grid_lengths")}
        return {"schema_version": 1, **obj}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "StudyConfig":
        """The inverse of :meth:`as_jsonable`; every other key is rejected."""
        if obj.get("schema_version") != 1:
            raise ConfigurationError(
                f"unsupported schema_version {obj.get('schema_version')!r}")
        direct = sorted(k for k in obj if k.startswith("grid_"))  # read as grid.* only
        if direct:
            raise ConfigurationError(f"unknown config keys: {', '.join(direct)}")
        return from_section(cls, {k: obj[k] for k in obj if k != "schema_version"}, "")


@dataclass(frozen=True)
class RemainderState:
    """Rescaled defect between the full solution and the truncated expansion."""

    n_R: RealField
    u_R: tuple
    phi_R: RealField
    epsilon: float
    time: float


@dataclass
class ConvergenceTable:
    """Rows of remainder norms plus the fitted order of the first-order error."""

    rows: list
    fit: dict
    uniformity: dict
    config: dict

    def to_csv(self, path) -> None:
        fmt = "%.17g"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epsilon,time,norm_kind,n,u,phi,err1\n")
            for r in self.rows:
                fh.write(",".join([
                    fmt % r["epsilon"], fmt % r["time"], r["norm_kind"],
                    fmt % r["n"], fmt % r["u"], fmt % r["phi"], fmt % r["err1"],
                ]) + "\n")

    def as_jsonable(self) -> dict:
        return asdict(self)


def compute_remainder(full, h: ProfileHierarchy, params: ScalingParams) -> RemainderState:
    """Direct-subtraction remainder at matching times.

    With a truncation matching the prepared data this vanishes at t = 0 up to
    the (separately logged) gap between the exact and profile potentials.
    """
    if abs(full.time - h.time) > 1e-9 * max(1.0, abs(full.time)):
        raise ConfigurationError(
            f"state time {full.time} does not match hierarchy time {h.time}")
    eps = params.epsilon
    agg = tilde_aggregates(h, eps)
    inv = 1.0 / eps ** 2
    grid = full.grid
    n_R = RealField(grid, (full.n.values - 1.0 - eps * agg["n"]) * inv)
    u_R = tuple(RealField(grid, (full.u[j].values - eps * agg["u"][j]) * inv)
                for j in range(params.dim))
    phi_R = RealField(grid, (full.phi.values - eps * agg["phi"]) * inv)
    return RemainderState(n_R=n_R, u_R=u_R, phi_R=phi_R, epsilon=eps,
                          time=full.time)


def remainder_norm_report(r: RemainderState, cfg: StudyConfig,
                          params: ScalingParams = None) -> dict:
    """Norms of the remainder components in the study's norm kind.

    For T_i > 0 the plain H^{s'} norms; for the pressureless 3D case the
    eps-weighted triple norms with the role split density/velocity/potential.
    A resolution warning is attached when the top-octave share of any
    component exceeds 1e-6.
    """
    params = params or ScalingParams(epsilon=r.epsilon,
                                     ion_temperature=cfg.ion_temperature,
                                     dim=cfg.d)
    s = cfg.s_prime
    grid = r.n_R.grid
    ops = HalfOps(grid)
    names = ("n", "phi") + tuple(f"u{j+1}" for j in range(len(r.u_R)))
    spec = rfft_c(np.stack([r.n_R.values, r.phi_R.values]
                           + [c.values for c in r.u_R]), grid)
    sobolev = ops.weights * (1.0 - ops.neg_ksq) ** s
    top = half(~index_box(grid, lambda n: n // 4 - 1), grid)  # any |index| >= n/4
    warnings = []
    for name, c in zip(names, spec):
        w = sobolev * np.abs(c) ** 2
        total = float(np.sum(w))
        tail = math.sqrt(float(np.sum(w[top])) / total) if total else 0.0
        if tail > 1e-6:
            warnings.append(
                f"{name}: top-octave share {tail:.2e} of the H^{s} norm; "
                "remainder may be under-resolved")
    n_hat, phi_hat, u_hat = spec[0], spec[1], spec[2:]
    if cfg.norm_kind == "triple":
        phi_hat = triple_root(ops, "potential", params) * phi_hat
        u_hat = triple_root(ops, "velocity", params) * u_hat
    value_n, value_u, value_phi = (ops.norm_c(c, s) for c in (n_hat, u_hat, phi_hat))
    combined = math.sqrt(value_n ** 2 + value_u ** 2 + value_phi ** 2)
    return {"norm_kind": cfg.norm_kind, "n": value_n, "u": value_u,
            "phi": value_phi, "combined": combined, "warnings": warnings}


def fit_order(points) -> dict:
    """Least-squares slope of log(error) against log(epsilon).

    Returns {order, intercept, r2}; errors must be positive.
    """
    points = [(float(e), float(v)) for e, v in points]
    if len(points) < 3:
        raise ConfigurationError("order fitting needs at least 3 points")
    if any(v <= 0.0 for _, v in points):
        raise ConfigurationError("order fit undefined: nonpositive error values")
    x = np.log([e for e, _ in points])
    y = np.log([v for _, v in points])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"order": float(slope), "intercept": float(intercept), "r2": r2}


# ---------------------------------------------------------------------------
# the study driver


def _profile_trajectories(cfg: StudyConfig, grid: Grid):
    """Epsilon-independent profile trajectories at the sample times."""
    V = cfg.wave_speed
    n10 = build_family(cfg.family, grid, V, cfg.seed)
    equation = "KP2" if cfg.d == 2 else "ZK"
    lim = LimitConfig(V=V, dt=cfg.dt, T=cfg.tau0, equation=equation,
                      snapshots=cfg.samples)
    if cfg.truncation_order == 1:
        return (solve_kp2 if cfg.d == 2 else solve_zk)(n10, lim), None
    coeffs = lim.coefficients()

    def source_fn(n1_values):
        return assemble_lin_source_closed_form(RealField(grid, n1_values),
                                               coeffs, equation)

    return solve_coupled_order2(n10, RealField.zeros(grid), lim, source_fn)


def _hierarchy_at(cfg: StudyConfig, traj1: Trajectory, traj2, i: int) -> ProfileHierarchy:
    t = float(traj1.times[i])
    if cfg.truncation_order == 1:
        build = first_order_profiles_kp if cfg.d == 2 else first_order_profiles_zk
        return build(traj1.field(i), cfg.wave_speed, time=t)
    build = second_order_profiles_kp if cfg.d == 2 else second_order_profiles_zk
    return build(traj1.field(i), traj2.field(i), cfg.wave_speed, time=t)


def _run_single_epsilon(cfg: StudyConfig, grid: Grid, eps: float,
                        hierarchies: list, marks: list, n1_hats: np.ndarray) -> dict:
    params = ScalingParams(epsilon=eps, ion_temperature=cfg.ion_temperature,
                           dim=cfg.d)
    stepper = StepperConfig(dt=cfg.dt, poisson_tol=cfg.poisson_tol,
                            c_cfl=cfg.c_cfl)
    initial, prep = assemble_initial_data(hierarchies[0], params,
                                          poisson_tol=cfg.poisson_tol,
                                          return_info=True)
    engine = EPIntegrator(grid, params, stepper)
    ops = HalfOps(grid)

    def measure(h, n1_hat, time, state):
        full = engine.from_stack(*state, time)
        report = remainder_norm_report(compute_remainder(full, h, params), cfg, params)
        # error of the plain first-order approximation n ~ 1 + eps*n1
        err1 = ops.norm_c(density_perturbation(state[0], grid) - eps * n1_hat, cfg.s_prime)
        row = {"epsilon": eps, "time": float(h.time), "norm_kind": report["norm_kind"],
               "n": report["n"], "u": report["u"], "phi": report["phi"], "err1": err1}
        diagnostic = {
            "time": float(h.time),
            "mass": float(np.mean(full.n.values - 1.0)) * grid.volume,
            "min_n": float(np.min(full.n.values)),
            "poisson_residual": full.poisson_defect(),
            "remainder": {k: report[k] for k in ("n", "u", "phi", "combined")},
            "warnings": report["warnings"],
        }
        return row, diagnostic, report["combined"]

    # the loop rebinds state: only the march holds the sample it steps from
    state = (engine.to_stack(initial), initial.phi.values)
    steps = march(lambda st, _start, count: engine.advance(*st, count), state, marks,
                  cfg.dt, density_h2(ops), initial.time)
    samples = [measure(hierarchies[0], n1_hats[0], initial.time, state)]
    for h, n1_hat, (time, state) in zip(hierarchies[1:], n1_hats[1:], steps):
        samples.append(measure(h, n1_hat, time, state))
    rows, diagnostics, combined = map(list, zip(*samples))
    return {"epsilon": eps, "rows": rows, "sup_combined": max(combined),
            "err1_sup": max(r["err1"] for r in rows[1:]) if len(rows) > 1
            else rows[0]["err1"],
            "prepared": prep, "diagnostics": diagnostics}


def run_convergence_study(cfg: StudyConfig, threads: int = 1,
                          out_dir=None) -> ConvergenceTable:
    """Sweep epsilon, measure remainders against co-advanced profiles, and
    fit the first-order error order.

    The profiles are computed once (they do not depend on epsilon) on the
    same time grid as the full solver; results are order-preserving over the
    sweep and bit-reproducible for a fixed config and platform.
    """
    dt, marks = plan(cfg.tau0, cfg.dt, cfg.samples, _log)
    if dt != cfg.dt:
        cfg = replace(cfg, dt=dt)
    grid = cfg.build_grid()
    traj1, traj2 = _profile_trajectories(cfg, grid)
    hierarchies = [_hierarchy_at(cfg, traj1, traj2, i)
                   for i in range(len(traj1.times))]
    n1_hats = rfft_c(np.stack([h.fields["n1"] for h in hierarchies]), grid)

    def work(eps):
        return _run_single_epsilon(cfg, grid, eps, hierarchies, marks, n1_hats)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, cfg.epsilons))
    else:
        results = [work(e) for e in cfg.epsilons]

    rows = [row for res in results for row in res["rows"]]
    errs = [(res["epsilon"], res["err1_sup"]) for res in results]
    try:
        fit = fit_order(errs)
    except ConfigurationError as exc:
        fit = {"order": None, "intercept": None, "r2": None,
               "undefined": str(exc)}
    sups = {res["epsilon"]: res["sup_combined"] for res in results}
    finite = [v for v in sups.values() if v > 0]
    uniformity = {
        "sup_by_epsilon": sups,
        "max_over_min": (max(finite) / min(finite)) if len(finite) == len(sups)
        and finite else None,
    }
    table = ConvergenceTable(rows=rows, fit=fit, uniformity=uniformity,
                             config=cfg.as_jsonable())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        table.to_csv(os.path.join(out_dir, "table.csv"))
        write_json(os.path.join(out_dir, "table.json"), table.as_jsonable())
        for res in results:
            write_json(os.path.join(out_dir,
                                    f"diagnostics_eps_{res['epsilon']:.6g}.json"),
                       {"epsilon": res["epsilon"], "prepared": res["prepared"],
                        "snapshots": res["diagnostics"]})
    return table
