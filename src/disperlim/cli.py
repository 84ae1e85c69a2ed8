"""Command-line surface.

Subcommands: ep, kp, zk, lin-kp, lin-zk, profiles, residuals, converge,
soliton-test.  Every numerical subcommand reads a JSON config and writes into
--out.  Exit codes: 0 success, 1 validation problem, 2 numerical failure.

A config holds ``schema_version`` (1, the default) and the keys below; any
other key, a missing one or a value that does not convert is a validation
problem naming it.  A key left out takes the default, in brackets, of what it
configures or of the subcommand.  ``grid``: {dims, lengths} [build_grid].
``initial``: {file}, an FLD1 file, alone; or a family ``name``
[gaussian_zero_mean] plus that function's parameters but grid, V, seed.
``V``: the wave speed [sqrt(ion_temperature + 1), ion_temperature 0].

* ep: grid, ``params`` {epsilon, ion_temperature [0]} [ScalingParams],
  ``stepper`` {dt, poisson_tol, max_newton, c_cfl} [StepperConfig], initial,
  T, snapshots [10], truncation_order [1, the only value].
* kp, zk: grid, V, ion_temperature, initial, dt, T, snapshots,
  zk_nonlinear_coeff, zk_transverse_coeff, lin_bilinear_coeff [LimitConfig];
  lin-kp, lin-zk also ``background``, a trajectory directory on the grid [0].
* profiles: grid, V, ion_temperature, initial, order [1], and at order 2
  ``second``, an FLD1 file of the second-order density [0].
* residuals: hierarchy (a directory), epsilon [0.1].
* converge: the StudyConfig fields, grid_* as grid {dims, lengths}.
* soliton-test (config optional): V, ion_temperature, kappa [0.5], points
  [256], length [80], T [a quarter crossing time], dt [1e-3].
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

import numpy as np

from .errors import ConfigurationError, ConstraintError, DisperlimError
from .euler_poisson import StepperConfig, run_ep
from .fldio import (from_section, load_hierarchy, load_trajectory, read_fld,
                    read_json, save_hierarchy, save_trajectory, write_fld,
                    write_json)
from .grid import RealField, ScalingParams, build_grid
from .initial_data import build_family
from .limit_equations import (LimitConfig, LinearizedSource, solve_kdv,
                              solve_kp2, solve_linearized_kp,
                              solve_linearized_zk, solve_zk, zero_mean_soliton)
from .profiles import (assemble_initial_data, first_order_profiles_kp,
                       first_order_profiles_zk, residual_order_systems,
                       second_order_profiles_kp, second_order_profiles_zk)
from .study import StudyConfig, run_convergence_study

_SCHEMA = 1


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigurationError("this subcommand requires --config <path.json>")
    cfg = read_json(args.config)
    if not isinstance(cfg, dict) or cfg.pop("schema_version", _SCHEMA) != _SCHEMA:
        raise ConfigurationError(f"{args.config}: not a schema_version {_SCHEMA} object")
    return cfg


def _wave_speed(V: float, ion_temperature: float) -> float:
    return math.sqrt(ion_temperature + 1.0) if V is None else V


def _read_initial(file: str, grid) -> RealField:
    return read_fld(file, grid)[0]


def _initial_field(initial, grid, V: float, seed: int) -> RealField:
    if isinstance(initial, dict) and "file" in initial:
        return from_section(_read_initial, initial, "initial", grid=grid)
    return build_family(initial or {}, grid, V, seed, where="initial")


def _cmd_limit(args, equation: str) -> int:
    cfg = _load_config(args)
    own = ("grid", "initial", "V", "ion_temperature") + (
        ("background",) if equation in ("LinKP", "LinZK") else ())
    return from_section(_limit, {k: cfg.pop(k) for k in own if k in cfg}, "",
                        args=args, equation=equation, solver=cfg)


def _limit(args, equation: str, solver: dict, grid: dict = None, initial: dict = None,
           V: float = None, ion_temperature: float = 0.0, background: str = None) -> int:
    """A limit-model run; ``solver`` holds the config's LimitConfig keys."""
    grid = from_section(build_grid, grid, "grid")
    V = _wave_speed(V, ion_temperature)
    lim = from_section(LimitConfig, solver, "", V=V, equation=equation)
    n0 = _initial_field(initial, grid, V, args.seed)
    if equation in ("KP2", "ZK"):
        traj = (solve_kp2 if equation == "KP2" else solve_zk)(n0, lim)
    else:
        source = (LinearizedSource.homogeneous(RealField.zeros(grid)) if background is None
                  else LinearizedSource.from_trajectory(load_trajectory(background, grid)))
        solve = solve_linearized_kp if equation == "LinKP" else solve_linearized_zk
        traj = solve(source, n0, lim)
    save_trajectory(args.out, traj)
    print(f"wrote {len(traj.times)} snapshots to {args.out}")
    return 0


def _ep(args, *, T: float, grid: dict = None, params: dict = None,
        stepper: dict = None, initial: dict = None, snapshots: int = 10,
        truncation_order: int = 1) -> int:
    grid = from_section(build_grid, grid, "grid")
    params = from_section(partial(ScalingParams, ion_temperature=0.0), params,
                          "params", dim=grid.ndim, wave_speed=None)
    stepper = from_section(StepperConfig, stepper, "stepper", hyperviscosity=None)
    if truncation_order != 1:  # order 2 runs go through converge
        raise ConfigurationError(f"truncation_order must be 1, got {truncation_order!r}")
    n1 = _initial_field(initial, grid, params.wave_speed, args.seed)
    first = first_order_profiles_kp if grid.ndim == 2 else first_order_profiles_zk
    state = assemble_initial_data(first(n1, params.wave_speed), params,
                                  poisson_tol=stepper.poisson_tol)
    final, log = run_ep(state, T, stepper, snapshots=snapshots)
    os.makedirs(args.out, exist_ok=True)
    fields = [("n", final.n)] + [(f"u{j+1}", c) for j, c in enumerate(final.u)]
    for name, f in fields + [("phi", final.phi)]:
        write_fld(os.path.join(args.out, f"{name}_final.fld"), f, name=name)
    write_json(os.path.join(args.out, "diagnostics.json"), log.as_jsonable())
    print(f"integrated to t = {final.time:.6g}; diagnostics in {args.out}")
    return 0


def _profiles(args, grid: dict = None, initial: dict = None, order: int = 1,
              second: str = None, V: float = None, ion_temperature: float = 0.0) -> int:
    grid = from_section(build_grid, grid, "grid")
    V = _wave_speed(V, ion_temperature)
    if order not in (1, 2) or (order == 1 and second is not None):
        raise ConfigurationError(
            f"order must be 1 or 2, and second needs order 2; got order {order}")
    n1 = _initial_field(initial, grid, V, args.seed)
    if order == 1:
        h = (first_order_profiles_kp if grid.ndim == 2 else first_order_profiles_zk)(n1, V)
    else:
        n2 = RealField.zeros(grid) if second is None else read_fld(second, grid)[0]
        h = (second_order_profiles_kp if grid.ndim == 2
             else second_order_profiles_zk)(n1, n2, V)
    save_hierarchy(args.out, h)
    print(f"wrote order-{order} hierarchy ({len(h.fields)} fields, "
          f"{len(h.aux)} corrections) to {args.out}")
    return 0


def _residuals(hierarchy: str, epsilon: float = 0.1) -> int:
    h = load_hierarchy(hierarchy)
    report = residual_order_systems(h, ScalingParams(
        epsilon=epsilon, ion_temperature=h.ion_temperature, dim=h.d))
    print(report.summary())
    return 0 if report.all_pass else 2


def _cmd_converge(args) -> int:
    cfg = StudyConfig.from_jsonable({"schema_version": _SCHEMA, **_load_config(args)})
    table = run_convergence_study(cfg, threads=args.threads, out_dir=args.out)
    fit = table.fit
    print(f"rows: {len(table.rows)}; written to {args.out}")
    if fit.get("order") is None:
        print("fitted order: undefined (zero-error sweep)")
    else:
        print(f"fitted order of the first-order error: {fit['order']:.3f} "
              f"(r2 = {fit['r2']:.4f})")
    band = table.uniformity.get("max_over_min")
    if band is not None:
        print(f"remainder uniformity band (max/min over eps): {band:.3f}")
    return 0


def _soliton_test(V: float = None, ion_temperature: float = 0.0,
                  kappa: float = 0.5, points: int = 256, length: float = 80.0,
                  T: float = None, dt: float = 1e-3) -> int:
    V = _wave_speed(V, ion_temperature)
    if not kappa > 0:
        raise ConfigurationError(f"kappa must be positive, got {kappa}")
    T = length / (2.0 * kappa ** 2 / V) / 4.0 if T is None else T
    grid = build_grid([points], [length])
    field, speed = zero_mean_soliton(kappa, V, grid)
    traj = solve_kdv(field, LimitConfig(V=V, dt=dt, T=T, equation="KdV", snapshots=1))
    peak = grid.axis_coordinates(0).ravel()[int(np.argmax(traj.final.values))]
    expected = (length / 2.0 + speed * T) % length
    err = abs((peak - expected + length / 2.0) % length - length / 2.0)
    cell = length / points
    print(f"soliton speed {speed:.6g}; peak error {err:.3g} "
          f"({err / cell:.2f} cells after t = {T:.3g})")
    return 0 if err <= cell else 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser = argparse.ArgumentParser(
        prog="disperlim",
        parents=[common],
        description="Long-wave limit laboratory: rescaled ion-flow integration, "
                    "limit-model solvers, profile hierarchies, remainder studies.")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
            ("ep", "integrate the full rescaled flow"),
            ("kp", "run the 2D limit model"),
            ("zk", "run the 3D limit model"),
            ("lin-kp", "run the linearized 2D model"),
            ("lin-zk", "run the linearized 3D model"),
            ("profiles", "build and store a profile hierarchy"),
            ("residuals", "verify a stored hierarchy"),
            ("converge", "run an epsilon-sweep convergence study"),
            ("soliton-test", "validate against the soliton oracle")]:
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


_DISPATCH = {
    "ep": lambda a: from_section(_ep, _load_config(a), "", args=a),
    "kp": lambda a: _cmd_limit(a, "KP2"),
    "zk": lambda a: _cmd_limit(a, "ZK"),
    "lin-kp": lambda a: _cmd_limit(a, "LinKP"),
    "lin-zk": lambda a: _cmd_limit(a, "LinZK"),
    "profiles": lambda a: from_section(_profiles, _load_config(a), "", args=a),
    "residuals": lambda a: from_section(_residuals, _load_config(a), ""),
    "converge": _cmd_converge,
    "soliton-test": lambda a: from_section(_soliton_test,
                                           _load_config(a) if a.config else {}, ""),
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1
        return 0 if exc.code in (0, None) else 1
    if not args.command:
        parser.print_usage()
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (ConfigurationError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DisperlimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
