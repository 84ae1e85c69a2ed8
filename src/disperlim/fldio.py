"""The JSON config reader :func:`from_section`; field and trajectory files.

FLD1 layout: one UTF-8 JSON header line ``{"format": "FLD1", "dims": [...],
"lengths": [...], "name": "..."}`` terminated by a newline, followed by the
raw little-endian float64 samples in row-major order.  Readers validate the
payload length against the declared dims.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, RealField, build_grid

__all__ = ["from_section", "write_fld", "read_fld", "write_json", "read_json"]

_FORMAT = "FLD1"
_JSON = {"str": str, "dict": dict, "tuple": (list, tuple)}  # the types JSON gives


def _convert(annotation, value):
    """``value`` as the annotation int, float, str, dict or tuple[int|float, ...] asks."""
    kind, _, item = str(annotation).partition("[")
    if kind == "int" and (isinstance(value, bool) or int(value) != value):
        raise ValueError(f"{value!r} is not an integer")
    if kind in ("int", "float"):
        return int(value) if kind == "int" else float(value)
    if not isinstance(value, _JSON.get(kind, object)):
        raise TypeError(f"{value!r} is not a JSON {kind}")
    if kind == "tuple":
        return tuple(_convert(item.split(",")[0], v) for v in value)
    return dict(value) if kind == "dict" else value


def from_section(target, section, where: str, **fixed):
    """Call ``target`` (a config dataclass or a family function) on the JSON
    object ``section`` at ``where`` ("" at the top), plus the values ``fixed``
    by the caller that it takes.  Defaults come only from its signature, each
    value is converted to its parameter's annotation (None stays None where
    that is the default) and a nested object ``k`` fills the parameters
    ``k_*``.  A key the target does not take or the caller fixes, a missing
    key or a value that does not convert is a ConfigurationError naming it."""
    prefix = f"{where}." if where else ""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where or 'config'}: {section!r} is not a JSON object")
    params = inspect.signature(target).parameters
    items = []  # (parameter, key path, value)
    for key, value in section.items():
        if isinstance(value, dict) and any(n.startswith(f"{key}_") for n in params):
            items += [(f"{key}_{k}", f"{prefix}{key}.{k}", v) for k, v in value.items()]
        else:
            items.append((key, prefix + key, value))
    unknown = sorted(p for name, p, _ in items if name not in params or name in fixed)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {k: v for k, v in fixed.items() if k in params}
    for name, path, value in items:
        try:
            kwargs[name] = (None if value is None and params[name].default is None
                            else _convert(params[name].annotation, value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{path}: unusable value: {exc}") from exc
    missing = [prefix + n for n, p in params.items()
               if p.default is p.empty and n not in kwargs]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")
    return target(**kwargs)


def _entry(section: dict, key: str, where: str, kind: str):
    """``section[key]`` of the index or manifest at ``where``, converted to
    ``kind`` as :func:`from_section` converts; a missing key or a value that
    does not convert is a ConfigurationError naming it."""
    if key not in section:
        raise ConfigurationError(f"missing config keys: {where}:{key}")
    try:
        return _convert(kind, section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}:{key}: unusable value: {exc}") from exc


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
    if not os.path.isfile(path):
        raise ConfigurationError(f"file not found: {path}")
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
    if not os.path.isfile(path):
        raise ConfigurationError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


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


def load_trajectory(directory, grid: Grid = None):
    """Read a trajectory directory, whose grid must be ``grid`` if given."""
    from .limit_equations import LimitConfig, Trajectory

    path = os.path.join(directory, "index.json")
    index = read_json(path)
    times = _entry(index, "times", path, "tuple[float, ...]")
    config = _entry(index, "config", path, "dict")
    states = []
    for fname in _entry(index, "files", path, "tuple[str, ...]"):
        f, _ = read_fld(os.path.join(directory, fname), grid)
        grid = f.grid
        states.append(f.values)
    # indexes written before the coefficients were stored get the defaults
    cfg = from_section(LimitConfig, config, f"{path}:config")
    return Trajectory(grid, np.array(times), states, cfg)


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

    path = os.path.join(directory, "manifest.json")
    manifest = read_json(path)
    d, order = (_entry(manifest, key, path, "int") for key in ("d", "order"))
    V, time = (_entry(manifest, key, path, "float") for key in ("V", "time"))
    fields, aux, source = {}, {}, None
    grid = None
    for name, fname in _entry(manifest, "fields", path, "dict").items():
        f, _ = read_fld(os.path.join(directory, fname), grid)
        grid = f.grid
        if name == "source_evolution":
            source = f.values
        elif name.startswith("aux:"):
            aux[name[4:]] = f.values
        else:
            fields[name] = f.values
    # manifests written before the coefficients were stored get the defaults
    coeffs = from_section(LimitCoefficients.for_equation, manifest.get("coeffs", {}),
                          f"{path}:coeffs", equation="KP2" if d == 2 else "ZK", V=V)
    return ProfileHierarchy(grid=grid, d=d, order=order, time=time, coeffs=coeffs,
                            fields=fields, aux=aux, source_evolution=source)
