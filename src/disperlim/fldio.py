"""Field and trajectory serialization.

FLD1 layout: one UTF-8 JSON header line ``{"format": "FLD1", "dims": [...],
"lengths": [...], "name": "..."}`` terminated by a newline, followed by the
raw little-endian float64 samples in row-major order.  Readers validate the
payload length against the declared dims.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, RealField, build_grid

__all__ = ["write_fld", "read_fld", "write_json", "read_json"]

_FORMAT = "FLD1"


def write_fld(path, f: RealField, name: str = "field") -> None:
    header = {
        "format": _FORMAT,
        "dims": list(f.grid.dims),
        "lengths": list(f.grid.lengths),
        "name": str(name),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_fld(path, grid: Grid = None) -> tuple[RealField, str]:
    """Read an FLD1 file; returns the field and its stored name.

    If ``grid`` is given, the file must match it exactly.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: malformed FLD1 header: {exc}") from exc
    if header.get("format") != _FORMAT:
        raise ConfigurationError(f"{path}: not an FLD1 file")
    dims = tuple(int(d) for d in header["dims"])
    lengths = tuple(float(x) for x in header["lengths"])
    expected = 8 * int(np.prod(dims))
    if len(payload) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(dims)
    file_grid = build_grid(dims, lengths)
    if grid is not None:
        if grid.dims != dims or grid.lengths != lengths:
            raise ConfigurationError(
                f"{path}: grid {dims}x{lengths} does not match expected "
                f"{grid.dims}x{grid.lengths}")
        file_grid = grid
    return RealField(file_grid, values), header.get("name", "field")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    if not os.path.exists(path):
        raise ConfigurationError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# directory layouts: trajectories and hierarchies


def save_trajectory(directory, traj, name: str = "n") -> None:
    """Trajectory directory: FLD1 snapshots plus an index JSON."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for i, t in enumerate(traj.times):
        fname = f"{name}_{i:04d}.fld"
        write_fld(os.path.join(directory, fname),
                  RealField(traj.grid, traj.states[i]), name=f"{name}@{t:.9g}")
        files.append(fname)
    index = {
        "times": [float(t) for t in traj.times],
        "files": files,
        "config": asdict(traj.config),
    }
    write_json(os.path.join(directory, "index.json"), index)


def load_trajectory(directory):
    from .limit_equations import LimitConfig, Trajectory

    index = read_json(os.path.join(directory, "index.json"))
    states = []
    grid = None
    for fname in index["files"]:
        f, _ = read_fld(os.path.join(directory, fname), grid)
        grid = f.grid
        states.append(f.values)
    # indexes written before the coefficients were stored get the defaults
    cfg = LimitConfig(**index["config"])
    return Trajectory(grid, np.array(index["times"]), states, cfg)


def save_hierarchy(directory, h) -> None:
    """Hierarchy directory: one FLD1 per field plus a manifest JSON."""
    os.makedirs(directory, exist_ok=True)
    manifest_fields = {}
    for name, values in h.fields.items():
        fname = f"{name}.fld"
        write_fld(os.path.join(directory, fname), RealField(h.grid, values),
                  name=name)
        manifest_fields[name] = fname
    for name, values in h.aux.items():
        fname = f"aux_{name}.fld"
        write_fld(os.path.join(directory, fname), RealField(h.grid, values),
                  name=f"aux:{name}")
        manifest_fields[f"aux:{name}"] = fname
    if h.source_evolution is not None:
        write_fld(os.path.join(directory, "source_evolution.fld"),
                  RealField(h.grid, h.source_evolution), name="source_evolution")
        manifest_fields["source_evolution"] = "source_evolution.fld"
    write_json(os.path.join(directory, "manifest.json"), {
        "order": h.order, "d": h.d, "V": h.V, "time": h.time,
        "coeffs": {"nonlinear": h.coeffs.nonlinear,
                   "transverse": h.coeffs.transverse,
                   "bilinear": h.coeffs.bilinear},
        "epsilon_independent": True,
        "fields": manifest_fields,
    })


def load_hierarchy(directory):
    from .limit_equations import LimitCoefficients
    from .profiles import ProfileHierarchy

    manifest = read_json(os.path.join(directory, "manifest.json"))
    fields, aux, source = {}, {}, None
    grid = None
    for name, fname in manifest["fields"].items():
        f, _ = read_fld(os.path.join(directory, fname), grid)
        grid = f.grid
        if name == "source_evolution":
            source = f.values
        elif name.startswith("aux:"):
            aux[name[4:]] = f.values
        else:
            fields[name] = f.values
    d = int(manifest["d"])
    # manifests written before the coefficients were stored get the defaults
    coeffs = LimitCoefficients.for_equation("KP2" if d == 2 else "ZK",
                                            float(manifest["V"]),
                                            **manifest.get("coeffs", {}))
    return ProfileHierarchy(grid=grid, d=d, order=int(manifest["order"]),
                            time=float(manifest["time"]), coeffs=coeffs,
                            fields=fields, aux=aux, source_evolution=source)
