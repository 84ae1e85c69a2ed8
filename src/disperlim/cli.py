"""Command-line surface.

Subcommands: ep, kp, zk, lin-kp, lin-zk, profiles, residuals, converge,
soliton-test.  Every numerical subcommand reads a JSON config
(``schema_version: 1``) and writes into --out.  Exit codes: 0 success,
1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (ConfigurationError, ConstraintError, ConvergenceError,
                     DisperlimError, NumericalError)
from .euler_poisson import EPState, StepperConfig, run_ep
from .fldio import (load_hierarchy, read_fld, save_hierarchy, save_trajectory,
                    write_fld, write_json)
from .grid import RealField, ScalingParams, build_grid
from .initial_data import build_family
from .limit_equations import (LimitConfig, LinearizedSource, solve_kp2,
                              solve_linearized_kp, solve_linearized_zk,
                              solve_zk, zero_mean_soliton)
from .poisson import solve_poisson
from .profiles import (assemble_initial_data, first_order_profiles_kp,
                       first_order_profiles_zk, residual_order_systems,
                       second_order_profiles_kp, second_order_profiles_zk)
from .study import StudyConfig, run_convergence_study

_SCHEMA = 1


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigurationError("this subcommand requires --config <path.json>")
    if not os.path.exists(args.config):
        raise ConfigurationError(f"config file not found: {args.config}")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{args.config}: invalid JSON: {exc}") from exc
    version = cfg.get("schema_version", _SCHEMA)
    if version != _SCHEMA:
        raise ConfigurationError(f"unsupported schema_version {version!r}")
    return cfg


def _outdir(args) -> str:
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _grid_from(cfg: dict):
    g = cfg.get("grid")
    if not g:
        raise ConfigurationError("config needs a 'grid' section {dims, lengths}")
    return build_grid(g["dims"], g["lengths"])


def _wave_speed(cfg: dict) -> float:
    if "V" in cfg:
        return float(cfg["V"])
    return math.sqrt(float(cfg.get("ion_temperature", 0.0)) + 1.0)


def _initial_field(cfg: dict, grid, V: float, seed: int):
    init = cfg.get("initial", {"name": "gaussian_zero_mean"})
    if "file" in init:
        f, _ = read_fld(init["file"], grid)
        return f
    params = {k: v for k, v in init.items() if k != "name"}
    return build_family(init.get("name", "gaussian_zero_mean"), grid, V=V,
                        seed=seed, **params)


def _cmd_limit(args, equation: str) -> int:
    cfg = _load_config(args)
    grid = _grid_from(cfg)
    V = _wave_speed(cfg)
    lim = LimitConfig(V=V, dt=float(cfg["dt"]), T=float(cfg["T"]),
                      equation=equation,
                      snapshots=int(cfg.get("snapshots", 10)),
                      zk_nonlinear_coeff=cfg.get("zk_nonlinear_coeff"),
                      zk_transverse_coeff=cfg.get("zk_transverse_coeff"),
                      lin_bilinear_coeff=cfg.get("lin_bilinear_coeff"))
    out = _outdir(args)
    if equation in ("KP2", "ZK"):
        n0 = _initial_field(cfg, grid, V, args.seed)
        traj = (solve_kp2 if equation == "KP2" else solve_zk)(n0, lim)
    else:
        from .fldio import load_trajectory
        bgdir = cfg.get("background")
        if bgdir:
            background = load_trajectory(bgdir)
            source = LinearizedSource.from_trajectory(background)
        else:
            source = LinearizedSource(grid=grid,
                                      background=lambda t: np.zeros(grid.shape))
        nk0 = _initial_field(cfg, grid, V, args.seed)
        solver = solve_linearized_kp if equation == "LinKP" else solve_linearized_zk
        traj = solver(source, nk0, lim)
    save_trajectory(out, traj)
    print(f"wrote {len(traj.times)} snapshots to {out}")
    return 0


def _cmd_ep(args) -> int:
    cfg = _load_config(args)
    grid = _grid_from(cfg)
    p = cfg.get("params", {})
    params = ScalingParams(epsilon=float(p["epsilon"]),
                           ion_temperature=float(p.get("ion_temperature", 0.0)),
                           dim=grid.ndim)
    st = cfg.get("stepper", {})
    stepper = StepperConfig(dt=float(st["dt"]),
                            poisson_tol=float(st.get("poisson_tol", 1e-11)),
                            max_newton=int(st.get("max_newton", 25)),
                            c_cfl=float(st.get("c_cfl", 0.5)))
    if cfg.get("truncation_order", 1) != 1:
        raise ConfigurationError(
            "ep prepares first-order data only; truncation_order must be 1 "
            f"(order 2 runs go through converge), got {cfg['truncation_order']!r}")
    n1 = _initial_field(cfg, grid, params.wave_speed, args.seed)
    if grid.ndim == 2:
        h = first_order_profiles_kp(n1, params.wave_speed)
    else:
        h = first_order_profiles_zk(n1, params.wave_speed)
    state = assemble_initial_data(h, params,
                                  poisson_tol=stepper.poisson_tol)
    final, log = run_ep(state, float(cfg["T"]), stepper,
                        snapshots=int(cfg.get("snapshots", 10)))
    out = _outdir(args)
    write_fld(os.path.join(out, "n_final.fld"), final.n, name="n")
    for j, comp in enumerate(final.u):
        write_fld(os.path.join(out, f"u{j+1}_final.fld"), comp, name=f"u{j+1}")
    write_fld(os.path.join(out, "phi_final.fld"), final.phi, name="phi")
    write_json(os.path.join(out, "diagnostics.json"), log.as_jsonable())
    print(f"integrated to t = {final.time:.6g}; diagnostics in {out}")
    return 0


def _cmd_profiles(args) -> int:
    cfg = _load_config(args)
    grid = _grid_from(cfg)
    V = _wave_speed(cfg)
    n1 = _initial_field(cfg, grid, V, args.seed)
    order = int(cfg.get("order", 1))
    if grid.ndim == 2:
        if order == 1:
            h = first_order_profiles_kp(n1, V)
        else:
            n2 = RealField.zeros(grid) if "second" not in cfg else \
                read_fld(cfg["second"], grid)[0]
            h = second_order_profiles_kp(n1, n2, V)
    else:
        if order == 1:
            h = first_order_profiles_zk(n1, V)
        else:
            n2 = RealField.zeros(grid) if "second" not in cfg else \
                read_fld(cfg["second"], grid)[0]
            h = second_order_profiles_zk(n1, n2, V)
    out = _outdir(args)
    save_hierarchy(out, h)
    print(f"wrote order-{order} hierarchy ({len(h.fields)} fields, "
          f"{len(h.aux)} corrections) to {out}")
    return 0


def _cmd_residuals(args) -> int:
    cfg = _load_config(args)
    directory = cfg.get("hierarchy")
    if not directory:
        raise ConfigurationError("config needs 'hierarchy': <directory>")
    h = load_hierarchy(directory)
    params = ScalingParams(epsilon=float(cfg.get("epsilon", 0.1)),
                           ion_temperature=h.ion_temperature, dim=h.d)
    report = residual_order_systems(h, params)
    print(report.summary())
    return 0 if report.all_pass else 2


def _cmd_converge(args) -> int:
    cfg = StudyConfig.from_jsonable(_load_config(args))
    out = _outdir(args)
    table = run_convergence_study(cfg, threads=args.threads, out_dir=out)
    fit = table.fit
    print(f"rows: {len(table.rows)}; written to {out}")
    if fit.get("order") is None:
        print("fitted order: undefined (zero-error sweep)")
    else:
        print(f"fitted order of the first-order error: {fit['order']:.3f} "
              f"(r2 = {fit['r2']:.4f})")
    band = table.uniformity.get("max_over_min")
    if band is not None:
        print(f"remainder uniformity band (max/min over eps): {band:.3f}")
    return 0


def _cmd_soliton_test(args) -> int:
    cfg = _load_config(args) if args.config else {}
    V = _wave_speed(cfg) if cfg else 1.0
    kappa = float(cfg.get("kappa", 0.5))
    npts = int(cfg.get("points", 256))
    length = float(cfg.get("length", 80.0))
    T = float(cfg.get("T", length / (2.0 * kappa ** 2 / V) / 4.0))
    grid = build_grid([npts], [length])
    field, speed = zero_mean_soliton(kappa, V, grid)
    lim = LimitConfig(V=V, dt=float(cfg.get("dt", 1e-3)), T=T, equation="KdV",
                      snapshots=1)
    from .limit_equations import solve_kdv
    traj = solve_kdv(field, lim)
    x = grid.axis_coordinates(0).ravel()
    peak = x[int(np.argmax(traj.final.values))]
    x0 = length / 2.0
    expected = (x0 + speed * T) % length
    err = abs((peak - expected + length / 2.0) % length - length / 2.0)
    cell = length / npts
    print(f"soliton speed {speed:.6g}; peak error {err:.3g} "
          f"({err / cell:.2f} cells after t = {T:.3g})")
    return 0 if err <= cell else 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--threads", type=int,
                        default=int(os.environ.get("DISPERLIM_THREADS", "1")),
                        help="worker threads for sweeps (env DISPERLIM_THREADS)")
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
    "ep": _cmd_ep,
    "kp": lambda a: _cmd_limit(a, "KP2"),
    "zk": lambda a: _cmd_limit(a, "ZK"),
    "lin-kp": lambda a: _cmd_limit(a, "LinKP"),
    "lin-zk": lambda a: _cmd_limit(a, "LinZK"),
    "profiles": _cmd_profiles,
    "residuals": _cmd_residuals,
    "converge": _cmd_converge,
    "soliton-test": _cmd_soliton_test,
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
    handler = _DISPATCH[args.command]
    try:
        return handler(args)
    except (ConfigurationError, ConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ConvergenceError, DisperlimError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
