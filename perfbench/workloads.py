"""The benchmark's four workloads over disperlim's public functions.

A workload builds its inputs from the seed in ``__init__`` (that is set-up
time), runs one round of its operations in ``run_round`` (that is timed), and
checks a round's outputs in ``check_round`` and, once per run, in
``check_once`` (neither is timed).  Every round attempts the same operations,
so the share of failed operations is the same in every run.

The program's functions are always looked up on their modules at call time
(``study.run_convergence_study``, not a local alias), so the traced run sees
every call through the bindings it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import warnings

import numpy as np

from disperlim import cli, errors, euler_poisson, limit_equations, poisson
from disperlim import profiles, study
from disperlim.grid import RealField, ScalingParams, build_grid
from disperlim.initial_data import gaussian_zero_mean

import checks

TWO_PI = 2.0 * math.pi


def _center(rng, lengths, shift):
    """Gaussian centre moved off the middle by up to ``shift`` per axis."""
    return [length / 2.0 + shift * float(rng.uniform(-1.0, 1.0)) for length in lengths]


def _linear_fidelity(dim, ion_temperature, epsilons, dt, phase, steps=40):
    """Amplitude-1e-6 single mode through ``EPIntegrator`` against the
    per-mode matrix exponential built in :mod:`checks`.

    Small grids (32^2, 16^3) keep this cheap; the time step and the scaling
    are the workload's own.
    """
    dims = (32, 32) if dim == 2 else (16, 16, 16)
    kidx = (1, 2) if dim == 2 else (1, 1, 2)
    grid = build_grid(dims, [TWO_PI] * dim)
    xs = grid.meshgrid()
    amp = 1e-6
    n = RealField(grid, 1.0 + amp * np.cos(sum(k * x for k, x in zip(kidx, xs)) + phase))
    zero = RealField.zeros(grid)
    x0 = np.zeros(dim + 1, dtype=np.complex128)
    x0[0] = 0.5 * amp * np.exp(1j * phase)
    problems = []
    for eps in epsilons:
        params = ScalingParams(epsilon=eps, ion_temperature=ion_temperature, dim=dim)
        phi = poisson.solve_poisson(n, params, tol=1e-13)
        state = euler_poisson.EPState(n=n, u=(zero,) * dim, phi=phi, time=0.0,
                                      params=params)
        engine = euler_poisson.EPIntegrator(
            grid, params, euler_poisson.StepperConfig(dt=dt, poisson_tol=1e-13))
        stack, _ = engine.advance(engine.to_stack(state), phi.values, steps)
        got = stack[(slice(None),) + kidx]
        want = checks.expected_mode(kidx, eps, ion_temperature, x0, steps * dt)
        problems += checks.check_linear_fidelity(got, want, amp, f"eps {eps}")
    return problems


class Workload:
    """Defaults: no once-per-run check and nothing extra to report."""

    def check_once(self):
        return []

    def info(self):
        return {}


class _Sweep(Workload):
    """Shared output checks of the two epsilon sweeps."""

    norm_kind = None

    def _check_outputs(self, out_dir, rows_expected):
        problems = []
        csv_path = os.path.join(out_dir, "table.csv")
        with open(csv_path, "rb") as fh:
            self.csv_hashes.append(hashlib.sha256(fh.read()).hexdigest())
        rows = checks.read_table_csv(csv_path)
        if len(rows) != rows_expected:
            problems.append(f"{len(rows)} table rows, expected {rows_expected}")
        diagnostics = checks.read_diagnostics(out_dir)
        problems += checks.check_sweep(
            rows, diagnostics, self.epsilons, self.samples, self.volume,
            self.poisson_tol, norm_kind=self.norm_kind)
        return problems

    def check_once(self):
        problems = []
        if len(set(self.csv_hashes)) > 1:
            problems.append(f"table.csv differs between rounds: {self.csv_hashes}")
        problems += _linear_fidelity(self.dim, self.ion_temperature, self.epsilons,
                                     self.dt, self.phase)
        return problems

    def info(self):
        return {"table_csv_sha256": self.csv_hashes[0] if self.csv_hashes else None}


class Converge2D(_Sweep):
    """CLI ``converge`` in-process on the criterion-7a set-up, fewer steps."""

    name = "converge-2d"
    dim = 2
    ion_temperature = 1.0
    epsilons = (0.2, 0.141, 0.1, 0.071, 0.05)
    dt = 5e-4
    samples = 2
    poisson_tol = 1e-11

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        lengths = (40.0, 40.0)
        self.volume = math.prod(lengths)
        self.config = {
            "schema_version": 1, "d": 2, "ion_temperature": self.ion_temperature,
            "epsilons": list(self.epsilons), "tau0": 0.01, "s_prime": 4,
            "truncation_order": 1,
            "grid": {"dims": [128, 128], "lengths": list(lengths)},
            "dt": self.dt, "samples": self.samples, "poisson_tol": self.poisson_tol,
            "family": {"name": "gaussian_zero_mean", "amplitude": 0.3,
                       "width": 3.0, "center": _center(rng, lengths, 2.0)},
        }
        self.phase = float(rng.uniform(0.0, TWO_PI))
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "converge-2d.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.rounds = 0
        self.csv_hashes = []

    def run_round(self):
        out = os.path.join(self.workdir, f"round{self.rounds}")
        self.rounds += 1
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.cli_main(["converge", "--config", self.config_path,
                                 "--out", out])
        return {"attempted": 1, "failed": 0 if code == 0 else 1,
                "out": out, "code": code, "printed": printed.getvalue()}

    def check_round(self, result):
        if result["code"] != 0:
            return [f"cli converge exited {result['code']}"]
        nrows = len(self.epsilons) * (self.samples + 1)
        problems = []
        if f"rows: {nrows};" not in result["printed"]:
            problems.append(f"cli output lacks 'rows: {nrows}': {result['printed']!r}")
        return problems + self._check_outputs(result["out"], nrows)


class Sweep3D(_Sweep):
    """``run_convergence_study`` on the criterion-7b set-up, fewer steps."""

    name = "sweep-3d"
    dim = 3
    ion_temperature = 0.0
    epsilons = (0.2, 0.1, 0.05)
    dt = 1e-3
    samples = 2
    poisson_tol = 1e-11
    norm_kind = "triple"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        lengths = (20.0, 20.0, 20.0)
        self.volume = math.prod(lengths)
        self.config = study.StudyConfig(
            d=3, ion_temperature=self.ion_temperature, epsilons=self.epsilons,
            tau0=0.002, s_prime=4, truncation_order=1, grid_dims=(48, 48, 48),
            grid_lengths=lengths, dt=self.dt, samples=self.samples,
            poisson_tol=self.poisson_tol,
            family={"name": "gaussian_zero_mean", "amplitude": 0.3, "width": 2.4,
                    "center": _center(rng, lengths, 0.5)})
        self.phase = float(rng.uniform(0.0, TWO_PI))
        self.workdir = workdir
        self.rounds = 0
        self.csv_hashes = []

    def run_round(self):
        out = os.path.join(self.workdir, f"round{self.rounds}")
        self.rounds += 1
        table = study.run_convergence_study(self.config, out_dir=out)
        return {"attempted": 1, "failed": 0, "out": out,
                "kinds": {r["norm_kind"] for r in table.rows}}

    def check_round(self, result):
        problems = []
        if result["kinds"] != {self.norm_kind}:
            problems.append(f"returned norm kinds {sorted(result['kinds'])}")
        nrows = len(self.epsilons) * (self.samples + 1)
        return problems + self._check_outputs(result["out"], nrows)


class Order2Profiles(Workload):
    """The order-2 profile path, with no full-flow run."""

    name = "order2-profiles"
    cases = (
        # dim, dims, lengths, V, dt, steps, amplitude, width, centre shift
        (2, (128, 128), (40.0, 40.0), math.sqrt(2.0), 5e-4, 4, 0.3, 3.0, 2.0),
        (3, (32, 32, 32), (20.0, 20.0, 20.0), 1.0, 1e-3, 2, 0.3, 2.4, 0.5),
    )
    conservation = {2: 1e-8, 3: 1e-6}   # the limit-solver invariant bounds
    epsilon = 0.1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for dim, dims, lengths, V, dt, steps, amp, width, shift in self.cases:
            grid = build_grid(dims, lengths)
            equation = "KP2" if dim == 2 else "ZK"
            lim = limit_equations.LimitConfig(V=V, dt=dt, T=steps * dt,
                                              equation=equation, snapshots=2)
            self.inputs.append({
                "dim": dim, "grid": grid, "V": V, "equation": equation, "lim": lim,
                "coeffs": lim.coefficients(),
                "n10": gaussian_zero_mean(grid, amplitude=amp, width=width,
                                          center=_center(rng, lengths, shift)),
                "n20": RealField.zeros(grid),
                "params": ScalingParams(epsilon=self.epsilon,
                                        ion_temperature=V * V - 1.0, dim=dim),
            })

    def run_round(self):
        attempted = 0
        out = []
        for case in self.inputs:
            grid, coeffs, equation = case["grid"], case["coeffs"], case["equation"]

            def source_fn(n1_values, grid=grid, coeffs=coeffs, equation=equation):
                return profiles.assemble_lin_source_closed_form(
                    RealField(grid, n1_values), coeffs, equation)

            traj1, traj2 = limit_equations.solve_coupled_order2(
                case["n10"], case["n20"], case["lim"], source_fn)
            attempted += 1
            build = (profiles.second_order_profiles_kp if case["dim"] == 2
                     else profiles.second_order_profiles_zk)
            reports = []
            for i, t in enumerate(traj1.times):
                h = build(traj1.field(i), traj2.field(i), case["V"], time=float(t))
                reports.append(profiles.residual_order_systems(h, case["params"]))
                attempted += 2
            record = {"dim": case["dim"], "n1": traj1.states,
                      "volume": grid.volume, "reports": reports}
            if case["dim"] == 2:
                final = traj1.final
                record["mechanical"] = profiles.assemble_lin_source_mechanical(
                    final, coeffs, equation)
                record["closed_form"] = profiles.assemble_lin_source_closed_form(
                    final, coeffs, equation)
                attempted += 2
            out.append(record)
        return {"attempted": attempted, "failed": 0, "cases": out}

    def check_round(self, result):
        problems = []
        for case in result["cases"]:
            label = f"{case['dim']}D"
            for i, rep in enumerate(case["reports"]):
                if not rep.all_pass:
                    problems.append(f"{label} hierarchy {i} fails {rep.failing()}")
            problems += checks.check_conservation(
                case["n1"], case["volume"], self.conservation[case["dim"]], label)
            if "mechanical" in case:
                problems += checks.check_source_agreement(case["mechanical"],
                                                          case["closed_form"])
        return problems


class PoissonLadder(Workload):
    """Cold solves over a ladder of density contrasts and warm re-solves
    along a drifting density, in 2D (128^2, eps 0.1) and 3D (32^3).

    Two 2D rungs with max n >= 1.8 fail with the current solver and are
    counted as failed; their densities do not depend on the seed.
    """

    name = "poisson-ladder"
    epsilon = 0.1
    tol = 1e-11
    oracle_amplitude = 1e-6
    oracle_tol = 1e-13
    ladder_2d = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    failing_2d = (0.8, 0.9)
    ladder_3d = (0.1, 0.3, 0.5, 0.7)
    warm_2d = 40
    warm_3d = 20
    drift = 0.01

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        phases = iter(rng.uniform(0.0, TWO_PI, size=16))
        g2 = build_grid((128, 128), (TWO_PI, TWO_PI))
        g3 = build_grid((32, 32, 32), (TWO_PI,) * 3)
        p2 = ScalingParams(epsilon=self.epsilon, ion_temperature=1.0, dim=2)
        p3 = ScalingParams(epsilon=self.epsilon, ion_temperature=0.0, dim=3)
        x, y = g2.meshgrid()
        xyz = sum(g3.meshgrid())
        self.mode = np.sin(y + next(phases))
        cold = [("oracle", g2, p2, 1.0 + self.oracle_amplitude * self.mode,
                 self.oracle_tol)]
        cold += [(f"2d a={a}", g2, p2, 1.0 + a * np.sin(y + next(phases)), self.tol)
                 for a in self.ladder_2d]
        cold += [(f"3d a={a}", g3, p3, 1.0 + a * np.sin(xyz + next(phases)), self.tol)
                 for a in self.ladder_3d]
        self.cold = [(label, p, RealField(g, n), tol) for label, g, p, n, tol in cold]
        # fixed, seed-free densities on which the preconditioned Richardson
        # iteration does not contract
        self.failing = [(f"2d failing a={a}", p2, RealField(g2, 1.0 + a * np.sin(y)))
                        for a in self.failing_2d]
        ph2, ph3 = next(phases), next(phases)
        self.warm = [
            ("2d warm", p2, [RealField(g2, 1.0 + 0.3 * np.sin(x + y - self.drift * j + ph2))
                             for j in range(self.warm_2d)]),
            ("3d warm", p3, [RealField(g3, 1.0 + 0.3 * np.sin(xyz - self.drift * j + ph3))
                             for j in range(self.warm_3d)]),
        ]

    def run_round(self):
        solved = []          # (label, n, phi, tol)
        failures = []        # (label, expected to fail, exception type, message)

        def attempt(label, n, params, tol, warm=None, expected=False):
            try:
                phi, _ = poisson.solve_poisson(n, params, tol=tol, warm_start=warm,
                                               return_info=True)
            except Exception as exc:  # recorded and judged in check_round
                # keep no reference to the exception: its traceback would hold
                # the solver's frames, and their arrays, until a cyclic collection
                failures.append((label, expected, type(exc), str(exc)))
                return None
            solved.append((label, n, phi, tol))
            return phi

        for label, params, n, tol in self.cold:
            attempt(label, n, params, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for label, params, n in self.failing:
                attempt(label, n, params, self.tol, expected=True)
        for label, params, chain in self.warm:
            phi = None
            for j, n in enumerate(chain):
                phi = attempt(f"{label} {j}", n, params, self.tol, warm=phi)
        attempted = (len(self.cold) + len(self.failing)
                     + sum(len(chain) for _, _, chain in self.warm))
        return {"attempted": attempted, "failed": len(failures),
                "solved": solved, "failures": failures}

    def check_round(self, result):
        problems = []
        for label, n, phi, tol in result["solved"]:
            lengths = n.grid.lengths
            problems += checks.check_poisson(n.values, phi.values, lengths,
                                             self.epsilon, tol, label)
            if label == "oracle":
                problems += checks.check_screened_response(
                    phi.values, self.oracle_amplitude, self.mode, lengths,
                    self.epsilon, label)
        for label, expected, kind, message in result["failures"]:
            if not expected:
                problems.append(f"{label}: unexpected {kind.__name__}: {message}")
            elif not issubclass(kind, errors.DisperlimError):
                problems.append(f"{label}: untyped {kind.__name__}: {message}")
        return problems


WORKLOADS = {w.name: w for w in (Converge2D, Sweep3D, Order2Profiles, PoissonLadder)}
