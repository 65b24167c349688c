"""sphtrans benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sphtrans is imported from its ``src``.
With ``--trace 0`` the result holds the end-to-end metrics (``setup_s``,
``ops_per_s``, ``peak_rss_mb``); with ``--trace 1`` it holds the
per-layer metrics, each per completed op.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

# CPU seconds one round of each rotation takes on the reference machine
# (README.md).  A run does round(seconds / nominal) rounds, at least one,
# so the ops a run does never depend on the machine's speed or the seed.
NOMINAL_ROUND_S = {
    "roundtrip-fresh": 15.0,
    "roundtrip-shared": 0.0175,
    "pointwise-adaptive": 0.29,
    "cli-cold": 15.0,
}
# set-up is timed this many times per untraced run and the median is
# reported; cli-cold's set-up takes 0.2 s and is the noisiest
SETUP_SAMPLES = {"cli-cold": 9}
DEFAULT_SETUP_SAMPLES = 3
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170.0


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": int(BLAS_THREADS),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(args, rounds: int, setup_only: bool, deadline: float):
    """Start a worker; return ((CPU, wall) seconds to ready, result or None)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(rounds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        setup_wall = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready[:1] != ["ready"] or proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with code {proc.returncode}")
    setup = (float(ready[1]), setup_wall)
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sphtrans" / "__init__.py").is_file():
        print(f"no sphtrans source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))

    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES.get(args.workload, DEFAULT_SETUP_SAMPLES) - 1):
            samples.append(spawn_worker(args, rounds, True, deadline)[0])
    setup, res = spawn_worker(args, rounds, False, deadline)
    samples.append(setup)

    completed = res["attempted"] - res["failed"]
    # each op kind at its median repetition (README.md)
    round_s = sum(statistics.median(t) for t in res["op_s"].values())
    ops_per_s = completed / rounds / round_s
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.add(res["layers"])
        metrics = tracer.per_op(completed)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(cpu for cpu, _ in samples), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "machine": facts,
        "setup_cpu_s": [cpu for cpu, _ in samples], "setup_wall_s": [w for _, w in samples],
        "ops_per_s": ops_per_s, "ops_per_cpu_s": completed / res["op_cpu_s"],
        "ops_per_wall_s": completed / res["op_wall_s"], "op_s": res["op_s"],
        "worst_error_to_tolerance": res["worst_ratio"],
        "constants_error_to_tolerance": res["constants_ratio"],
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics,
    }
    if args.trace:
        record["layer_totals"] = res["layers"]
        record["notes"] = res["notes"]
    OUT.mkdir(exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} rounds {rounds} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"ops attempted {res['attempted']} failed {res['failed']} "
          f"worst error/tolerance {res['worst_ratio']:.3e}")
    print(f"ops_per_s {ops_per_s:.6g} (traced)" if args.trace else
          "setup CPU s " + " ".join(f"{cpu:.4f}" for cpu, _ in samples) +
          ", wall s " + " ".join(f"{w:.4f}" for _, w in samples))
    for key, value in record.get("notes", {}).items():
        print(f"{key} {value}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
