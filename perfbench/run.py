"""Run one benchmark workload and print its result record as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in.  The workload builds its inputs from the seed,
then runs whole rounds of its operations until ``--seconds`` have passed and
checks every round's outputs.

With ``--trace 0`` the record holds the end-to-end metrics: ``wall_s`` (median
wall time of one round), ``setup_s`` (process start to the first operation)
and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced rounds alternate,
the record holds the per-layer metrics (median over traced rounds) and
``trace.overhead_s`` (median traced minus median untraced round), and the
spans go to ``perfbench/.out/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOAD_NAMES = ("converge-2d", "sweep-3d", "order2-profiles", "poisson-ladder")


def process_age():
    """Seconds since this process started: its start time in /proc (clock
    ticks after boot) against the boot-time clock."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import disperlim from this checkout's ``src/``, or exit nonzero."""
    if not (SRC / "disperlim" / "__init__.py").is_file():
        print(f"error: no disperlim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    # the program runs with its defaults: no thread count from the environment
    os.environ.pop("DISPERLIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import disperlim

    if Path(disperlim.__file__).resolve().parent != (SRC / "disperlim").resolve():
        print(f"error: imported disperlim from {disperlim.__file__}", file=sys.stderr)
        sys.exit(2)


def measure(workload, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; returns per-round records.

    Untraced only without a tracer; with one, rounds alternate untraced and
    traced, starting untraced, and end after a traced round.
    """
    rounds = []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(len(rounds))
        try:
            t = time.perf_counter()
            result = workload.run_round()
            elapsed = time.perf_counter() - t
        finally:
            if traced:
                tracer.uninstall()
        problems = workload.check_round(result)
        rounds.append({"wall_s": elapsed, "traced": traced, "problems": problems,
                       "attempted": result["attempted"], "failed": result["failed"]})
        del result
        done = time.perf_counter() - began >= seconds
        if done and (tracer is None or traced):
            return rounds


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workdir = OUT / "runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = None
        if args.trace:
            from layertrace import Tracer
            tracer = Tracer()
        setup_s = process_age()
        rounds = measure(workload, args.seconds, tracer)
        final_problems = workload.check_once()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]] + final_problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        from layertrace import PER_LAYER
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "s"}
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(str(trace_path), {
            "workload": args.workload, "seed": args.seed,
            "rounds": [{k: r[k] for k in ("wall_s", "traced")} for r in rounds]})
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "round_wall_s": [round(r["wall_s"], 6) for r in rounds]}
    info.update(workload.info())
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
