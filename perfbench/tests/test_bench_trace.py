"""The layer trace wraps and restores the program's bindings, nests spans and
computes self times; the runner refuses a checkout without the package.

    python3 -m pytest perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.fft

import disperlim as dl
from disperlim import ScalingParams, euler_poisson, poisson, study

import layertrace

BENCH = Path(__file__).resolve().parent.parent


def _bindings():
    return (scipy.fft.fftn, poisson.solve_poisson_values,
            euler_poisson.solve_poisson_values, study.solve_kp2,
            study.remainder_norm_report, dl.residual_order_systems,
            vars(euler_poisson.EPIntegrator)["tendency"])


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install(0)
    try:
        during = _bindings()
        assert all(a is not b for a, b in zip(before, during))
        # one wrapper serves every binding of a function
        assert poisson.solve_poisson_values is euler_poisson.solve_poisson_values
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, _bindings()))
    assert tracer.missing == []


def test_spans_nest_and_count_work():
    g = dl.build_grid([32, 32], [2 * np.pi] * 2)
    x, _ = g.meshgrid()
    n = dl.RealField(g, 1.0 + 0.1 * np.sin(x))
    tracer = layertrace.Tracer()
    tracer.install(0)
    try:
        dl.solve_poisson(n, ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2))
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s.kind == "poisson"]
    ffts = [s for s in tracer.spans if s.kind == "fft"]
    assert len(solves) == 1 and ffts
    assert all(s.parent is solves[0] for s in ffts)
    m = layertrace.round_metrics(tracer.spans)
    assert m["poisson.solves"] == 1
    assert m["spectral.transforms"] == len(ffts)
    assert m["poisson.newton_iterations"] >= 1
    assert 0.0 < m["spectral.fft_s"] < m["poisson.solve_s"]


def test_fft_batch_counts_untransformed_axes():
    stack = np.zeros((5, 8, 8))
    assert layertrace._fft_batch((stack,), {"axes": (1, 2)}, None) == 5
    assert layertrace._fft_batch((stack[0],), {"axes": range(2)}, None) == 1
    assert layertrace._fft_batch((stack,), {}, None) == 1


def test_self_time_subtracts_children():
    def span(kind, start, end, parent=None):
        s = layertrace.Span(kind, kind, parent, 0)
        s.start, s.end = start, end
        return s

    parent = span("limit.solve", 0.0, 10.0)
    step = span("etdrk4.step", 2.0, 5.0, parent)
    fft = span("fft", 3.0, 4.0, step)
    fft.value = 3
    m = layertrace.round_metrics([parent, step, fft])
    assert m["limit_equations.solve_self_s"] == 7.0
    assert m["limit_equations.step_ms"] == 3000.0
    assert m["spectral.transforms"] == 3


def test_runner_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
