"""Layer trace taken from outside the program.

For a traced round the public entry points of each disperlim module are
replaced, at every module binding that refers to them, with timing wrappers;
afterwards the originals are put back.  Each call becomes a span (name,
start, end, parent, round) kept in memory and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
Nothing is wrapped in an untraced round.

Spans are nested per thread; the program runs its sweeps on one thread by
default, and a worker thread's outermost spans simply have no parent.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.fft

MIB = float(2 ** 20)

# span kind -> (module, function names); each is wrapped at every binding
FUNCTIONS = {
    "poisson": ("disperlim.poisson", ("solve_poisson_values",)),
    "etdrk4.tables": ("disperlim.etdrk4", ("etdrk4_tables",)),
    "limit.solve": ("disperlim.limit_equations", (
        "solve_kp2", "solve_zk", "solve_kdv", "solve_linearized_kp",
        "solve_linearized_zk", "solve_coupled_order2")),
    "profiles.hierarchy": ("disperlim.profiles", (
        "first_order_profiles_kp", "first_order_profiles_zk",
        "second_order_profiles_kp", "second_order_profiles_zk")),
    "profiles.source": ("disperlim.profiles", (
        "assemble_lin_source_mechanical", "assemble_lin_source_closed_form")),
    "profiles.residual": ("disperlim.profiles", ("residual_order_systems",)),
    "profiles.other": ("disperlim.profiles", (
        "second_order_sources_kp", "second_order_sources_zk",
        "assemble_initial_data", "tilde_aggregates")),
    "study.remainder": ("disperlim.study", ("compute_remainder",
                                            "remainder_norm_report")),
    "study.run": ("disperlim.study", ("run_convergence_study",)),
    "fldio.write": ("disperlim.fldio", ("write_fld", "write_json",
                                        "save_trajectory", "save_hierarchy")),
}
# span kind -> (module, class, method names); wrapped on the class
METHODS = {
    "ep.build": ("disperlim.euler_poisson", "EPIntegrator", ("__init__",)),
    "ep.tendency": ("disperlim.euler_poisson", "EPIntegrator", ("tendency",)),
    "ep.apply_op": ("disperlim.euler_poisson", "EPIntegrator", ("apply_op",)),
    "ep.advance": ("disperlim.euler_poisson", "EPIntegrator", ("advance",)),
    "ep.step_stack": ("disperlim.euler_poisson", "EPIntegrator", ("step_stack",)),
    "ep.other": ("disperlim.euler_poisson", "EPIntegrator", (
        "nonlinear", "apply_linear", "to_stack", "from_stack")),
    "etdrk4.step": ("disperlim.etdrk4", "DiagonalETDRK4", ("step",)),
}
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")

PER_LAYER = {
    # name: unit
    "spectral.transforms": "count",
    "spectral.fft_s": "s",
    "poisson.solves": "count",
    "poisson.solve_s": "s",
    "poisson.newton_iterations": "count",
    "poisson.inner_sweeps": "count",
    "euler_poisson.engine_build_s": "s",
    "euler_poisson.table_mb": "MB",
    "euler_poisson.steps": "count",
    "euler_poisson.step_ms": "ms",
    "euler_poisson.stages": "count",
    "euler_poisson.tendency_self_s": "s",
    "euler_poisson.apply_op_s": "s",
    "etdrk4.tables_s": "s",
    "etdrk4.tables_peak_mb": "MB",
    "etdrk4.diagonal_steps": "count",
    "limit_equations.solve_self_s": "s",
    "limit_equations.step_ms": "ms",
    "profiles.source_calls": "count",
    "profiles.source_s": "s",
    "profiles.source_transforms_per_call": "count",
    "profiles.residual_s": "s",
    "profiles.residual_transforms_per_call": "count",
    "profiles.hierarchy_s": "s",
    "study.remainder_s": "s",
    "study.self_s": "s",
    "fldio.write_s": "s",
    "fldio.bytes": "bytes",
}


class Span:
    __slots__ = ("name", "kind", "start", "end", "parent", "round", "value")

    def __init__(self, name, kind, parent, round_index):
        self.name, self.kind, self.parent, self.round = name, kind, parent, round_index
        self.start = self.end = 0.0
        self.value = None

    @property
    def duration(self):
        return self.end - self.start


# -- what each kind of span records besides its times ----------------------

def _fft_batch(args, kwargs, _out):
    """Field transforms in one call: the product of the untransformed axes."""
    shape = np.shape(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    if axes is None:
        axes = range(len(shape)) if s is None else range(len(shape) - len(s), len(shape))
    done = {a % len(shape) for a in axes}
    return math.prod(n for a, n in enumerate(shape) if a not in done)


def _poisson_counts(_args, _kwargs, out):
    info = out[1]
    return (int(info["newton_iterations"]), int(info["inner_sweeps"]))


def _engine_bytes(args, _kwargs, _out):
    """Bytes of every array a built engine holds, directly or in a container."""
    seen = {}
    for value in vars(args[0]).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else (value,))
        for item in items:
            if isinstance(item, np.ndarray):
                seen[id(item)] = item.nbytes
    return sum(seen.values())


def _advance_steps(args, kwargs, _out):
    return int(kwargs.get("nsteps", args[3] if len(args) > 3 else 0))


def _file_bytes(args, kwargs, _out):
    path = kwargs.get("path", args[0])
    return os.path.getsize(path) if os.path.isfile(path) else 0


NOTES = {
    "fft": _fft_batch,
    "poisson": _poisson_counts,
    "ep.build": _engine_bytes,
    "ep.advance": _advance_steps,
    "ep.step_stack": lambda *_: 1,
}
FILE_WRITERS = ("write_fld", "write_json")


class Tracer:
    """Installs and removes the wrappers and keeps the spans of every round."""

    def __init__(self):
        self.spans = []
        self.round = None
        self.missing = []
        self._local = threading.local()
        self._patches = []
        self._targets = self._resolve_targets()

    # -- installation --------------------------------------------------------

    def _resolve_targets(self):
        """(kind, name, owner, attribute, original) for every function and
        method, found on its defining module or class."""
        targets = []
        for kind, (modname, names) in FUNCTIONS.items():
            module = sys.modules.get(modname)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                targets.append((kind, f"{modname.split('.')[-1]}.{name}", None, name, fn))
        for kind, (modname, clsname, names) in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            for name in names:
                fn = vars(cls).get(name) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{clsname}.{name}")
                    continue
                targets.append((kind, f"{clsname}.{name}", cls, name, fn))
        for name in FFT_FUNCTIONS:
            targets.append(("fft", f"scipy.fft.{name}", None, name,
                            getattr(scipy.fft, name)))
        return targets

    def install(self, round_index):
        self.round = round_index
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "disperlim" or n.startswith("disperlim."))]
        modules.append(scipy.fft)
        for kind, name, cls, attr, fn in self._targets:
            wrapper = self._wrap(kind, name, fn)
            if cls is not None:
                self._patch(cls, attr, fn, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, binding, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.round = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, kind, name, fn):
        tracer = self
        note = NOTES.get(kind)
        if kind == "fldio.write" and name.split(".")[-1] in FILE_WRITERS:
            note = _file_bytes
        peak = kind == "etdrk4.tables"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, kind, stack[-1] if stack else None, tracer.round)
            tracer.spans.append(span)
            stack.append(span)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measure:
                    span.value = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if note is not None:
                span.value = note(args, kwargs, out)
            return out

        return traced

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Median over traced rounds of each per-layer metric."""
        by_round = defaultdict(list)
        for span in self.spans:
            by_round[span.round].append(span)
        per_round = [round_metrics(spans) for _, spans in sorted(by_round.items())]
        if not per_round:
            per_round = [round_metrics([])]
        out = {}
        for name, unit in PER_LAYER.items():
            value = statistics.median(m[name] for m in per_round)
            out[name] = value if unit in ("count", "bytes") else float(value)
        return out

    def write(self, path, header):
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        record = dict(header)
        record["missing_bindings"] = self.missing
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "round", "value"]
        record["spans"] = [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9),
             index.get(id(s.parent), -1), s.round,
             list(s.value) if isinstance(s.value, tuple) else s.value]
            for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _within(span, kinds):
    parent = span.parent
    while parent is not None:
        if parent.kind in kinds:
            return True
        parent = parent.parent
    return False


def round_metrics(spans):
    """Per-layer metrics of one traced round."""
    covered = defaultdict(float)
    of_kind = defaultdict(list)
    for s in spans:
        of_kind[s.kind].append(s)
        if s.parent is not None:
            covered[id(s.parent)] += s.duration

    def total(kind, only=None):
        return sum(s.duration for s in of_kind[kind] if only is None or only(s))

    def self_time(kind):
        return sum(max(0.0, s.duration - covered[id(s)]) for s in of_kind[kind])

    def transforms_within(kind):
        return sum(s.value for s in of_kind["fft"] if _within(s, (kind,)))

    def per_call(value, calls):
        return value / calls if calls else 0.0

    profile_kinds = ("profiles.hierarchy", "profiles.source", "profiles.residual",
                     "profiles.other")
    poisson_done = [s.value for s in of_kind["poisson"] if s.value is not None]
    steps = (sum(s.value for s in of_kind["ep.advance"])
             + len(of_kind["ep.step_stack"]))
    sources = len(of_kind["profiles.source"])
    residuals = len(of_kind["profiles.residual"])
    diagonal = of_kind["etdrk4.step"]
    writes = of_kind["fldio.write"]
    return {
        "spectral.transforms": sum(s.value for s in of_kind["fft"]),
        "spectral.fft_s": total("fft"),
        "poisson.solves": len(of_kind["poisson"]),
        "poisson.solve_s": total("poisson"),
        "poisson.newton_iterations": sum(v[0] for v in poisson_done),
        "poisson.inner_sweeps": sum(v[1] for v in poisson_done),
        "euler_poisson.engine_build_s": total("ep.build"),
        "euler_poisson.table_mb": max((s.value for s in of_kind["ep.build"]
                                       if s.value is not None), default=0) / MIB,
        "euler_poisson.steps": steps,
        "euler_poisson.step_ms": 1e3 * per_call(
            total("ep.advance") + total("ep.step_stack"), steps),
        "euler_poisson.stages": len(of_kind["ep.tendency"]),
        "euler_poisson.tendency_self_s": self_time("ep.tendency"),
        "euler_poisson.apply_op_s": total("ep.apply_op"),
        "etdrk4.tables_s": total("etdrk4.tables"),
        "etdrk4.tables_peak_mb": max((s.value for s in of_kind["etdrk4.tables"]
                                      if s.value is not None), default=0) / MIB,
        "etdrk4.diagonal_steps": len(diagonal),
        "limit_equations.solve_self_s": self_time("limit.solve"),
        "limit_equations.step_ms": 1e3 * per_call(sum(s.duration for s in diagonal),
                                                  len(diagonal)),
        "profiles.source_calls": sources,
        "profiles.source_s": total("profiles.source",
                                   lambda s: not _within(s, ("profiles.source",))),
        "profiles.source_transforms_per_call": per_call(
            transforms_within("profiles.source"), sources),
        "profiles.residual_s": total("profiles.residual"),
        "profiles.residual_transforms_per_call": per_call(
            transforms_within("profiles.residual"), residuals),
        "profiles.hierarchy_s": total("profiles.hierarchy",
                                      lambda s: not _within(s, profile_kinds)),
        "study.remainder_s": total("study.remainder"),
        "study.self_s": self_time("study.run"),
        "fldio.write_s": sum(s.duration for s in writes
                             if not _within(s, ("fldio.write",))),
        "fldio.bytes": sum(s.value for s in writes if s.value is not None),
    }
