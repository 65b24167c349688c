"""One workload in one process: set-up, then the op rotation, then a result.

    python3 perfbench/worker.py --workload NAME --seed N --rounds R --trace 0|1 [--setup-only]

Prints ``ready <cpu seconds>`` once set-up is done, then, unless
``--setup-only``, one JSON line with the op counts, the seconds of every
program call by op kind, their CPU and wall totals, the worst
error-to-tolerance ratio, peak RSS and, with ``--trace 1``, the layer
totals.  Checks run outside the timed calls.

Times are CPU seconds (user + system) of this process and of the
``sphtrans`` children it waited for.  Op times are also scaled to the
reference machine's speed by a reference kernel timed right after each
op (README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import workloads
from layers import Tracer

# workload -> (set-up, untimed warm-up round or None, op rotation)
IN_PROCESS = {
    "roundtrip-fresh": (workloads.setup_roundtrip, None, workloads.fresh_rounds),
    "roundtrip-shared": (workloads.setup_roundtrip, workloads.warm_shared, workloads.shared_rounds),
    "pointwise-adaptive": (workloads.setup_pointwise, None, workloads.pointwise_rounds),
}
WORKLOADS = tuple(IN_PROCESS) + ("cli-cold",)


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_s() -> float:
    """CPU seconds of this process since it started, plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# about the CPU seconds reference_kernel takes right after an op on the
# reference machine; op times are scaled to that speed
REFERENCE_S = 0.006


def reference_kernel():
    """Fixed work that does not touch sphtrans: a Python-level series loop
    over small and over long complex arrays, the two kinds of work phi's
    evaluators do (15- to 31-point calls, and blocks of thousands of t)."""
    for x, terms in ((np.linspace(0.01, 3.0, 31), 1500), (np.linspace(0.01, 3.0, 4096), 150)):
        acc = np.zeros(len(x), dtype=complex)
        term = np.ones(len(x), dtype=complex)
        for n in range(terms):
            term = term * ((0.5 + 0.1j + n % 7) / (n + 1.5)) * x
            acc += term
            if n % 50 == 0:
                term = np.ones(len(x), dtype=complex)
    return acc


def to_reference(seconds: float) -> float:
    """Scale CPU seconds just measured to the reference machine's speed.

    The kernel runs once per 50 ms measured, 1 to 9 times, and the median
    of its times is used, so that one blip does not scale a long op.
    """
    times = []
    for _ in range(min(9, max(1, round(seconds / 0.05)))):
        start = cpu_s()
        reference_kernel()
        times.append(cpu_s() - start)
    return seconds * REFERENCE_S / statistics.median(times)


def ready():
    print(f"ready {cpu_s()!r}", flush=True)


def run_ops(ops) -> dict:
    attempted = failed = wrong = 0
    per_label: dict[str, list[float]] = {}
    cpu = wall = 0.0
    worst = 0.0
    for op in ops:
        attempted += 1
        start, start_wall = cpu_s(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            print(f"op {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            spent = cpu_s() - start
            wall += time.perf_counter() - start_wall
            cpu += spent
            per_label.setdefault(op.label, []).append(to_reference(spent))
        try:
            ratio = op.check(out)
        except Exception as exc:
            ratio = math.inf
            print(f"op {op.label} check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        if ratio <= 1.0:
            worst = max(worst, ratio)
        elif op.known_fault:
            failed += 1
        else:
            wrong += 1
            print(f"op {op.label} wrong: error/tolerance {ratio:.3e}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "op_s": per_label, "op_cpu_s": cpu, "op_wall_s": wall,
            "worst_ratio": worst}


def in_process(args, rng, tracer) -> dict | None:
    setup, warm, make_ops = IN_PROCESS[args.workload]
    sphtrans = workloads.import_sphtrans()
    if tracer:
        tracer.install()
    state = setup(sphtrans)
    ready()
    if args.setup_only:
        return None

    def phi_points():
        return tracer.totals["spherical.phi.points"] if tracer else 0.0

    notes = {}
    if warm:
        # neither set-up nor timed: this round's cold transforms are what
        # roundtrip-fresh times
        before = phi_points()
        warm(sphtrans, state)
        notes["phi_points_warm_round"] = phi_points() - before
    ops = make_ops(sphtrans, state, args.rounds, rng)
    before = phi_points()
    summary = run_ops(ops)
    notes["phi_points_per_timed_round"] = (phi_points() - before) / args.rounds
    if warm and tracer:
        notes["phi_points_held_share"] = 1.0 - (
            notes["phi_points_per_timed_round"] / notes["phi_points_warm_round"])
    summary.update(peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF),
                   constants_ratio=float(state["constants_ratio"]), notes=notes)
    return summary


def cli_cold(args, rng, tracer) -> dict | None:
    state = workloads.setup_cli()
    ready()
    try:
        if args.setup_only:
            return None
        trace_dir = state["out"] / "trace" if tracer else None
        if trace_dir:
            trace_dir.mkdir()
        summary = run_ops(workloads.cli_rounds(state, args.rounds, rng, trace_dir))
        if trace_dir:
            for path in sorted(trace_dir.glob("*.json")):
                tracer.add(json.loads(path.read_text()))
    finally:
        shutil.rmtree(state["out"])
    summary.update(peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN),
                   constants_ratio=0.0, notes={})
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    run = cli_cold if args.workload == "cli-cold" else in_process
    summary = run(args, rng, tracer)
    if summary is None:
        return 0
    summary["correct"] = summary.pop("wrong") == 0 and summary["constants_ratio"] <= 1.0
    if tracer:
        summary["layers"] = dict(tracer.totals)
    else:
        del summary["notes"]  # phi point counts come from the wrappers
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
