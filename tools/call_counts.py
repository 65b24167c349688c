"""Calls per op kind of one round of a workload: what a small call costs in work.

    python3 tools/call_counts.py [--workload pointwise-adaptive|roundtrip-shared|roundtrip-fresh]
                                 [--seed S]

Sets up the workload, pointwise-adaptive by default, runs its warm-up (roundtrip-shared's
``warm_shared``; the others have none) and makes the ops of two rounds from one generator
seeded with S (11 by default), each step as the benchmark's worker does it
(``perfbench/worker.py`` and ``perfbench/workloads.py``, imported, not changed).  The tool
runs the first round untimed, which builds the tables and fills the caches a timed run
finds held, then the second, each op under cProfile; the checks are not run.
roundtrip-fresh's second round is on grids that no earlier op used, as in a timed run.
Prints one line per op kind, in round order: the calls cProfile counts (Python functions
and builtins alike), then for each of ``spherical.phi``, ``spherical.c_log`` and
``spherical.log_gamma`` the calls, their rows (the first axis of ``lam`` or ``z``, 1 for a
scalar) and their entries (the values computed: rows times the points of ``t`` for
``phi``).  Those three are counted by wrappers bound in place of them in every loaded
sphtrans module; a wrapper makes no call that cProfile sees, and its own calls are taken
out of the count.  The counts depend only on the code, the workload and the seed, so two
runs print the same lines.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

COUNTED = ("phi", "c_log", "log_gamma")


def _shape_counts(name: str, args) -> tuple[int, int]:
    """(rows, entries) of one call of ``name`` with positional ``args``."""
    lead = np.asarray(args[0 if name == "log_gamma" else 1])
    rows = lead.shape[0] if lead.ndim else 1
    if name == "phi":
        return rows, rows * np.size(args[2])
    return rows, lead.size


def install(sphtrans) -> dict[str, list]:
    """Bind a recording wrapper in place of each function of ``COUNTED`` wherever a sphtrans
    module holds it by name; return the lists the wrappers append their arguments to."""
    seen = {name: [] for name in COUNTED}
    for name in COUNTED:
        original = getattr(sphtrans.spherical, name)

        def wrapper(*args, _calls=seen[name], _original=original, **kwargs):
            _calls += [args]  # an in-place add, not a call: cProfile records nothing
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "sphtrans"]:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
    return seen


# the workloads counted; the worker's table gives each one's set-up, warm-up and rounds
WORKLOADS = ("pointwise-adaptive", "roundtrip-shared", "roundtrip-fresh")


def counts(seed: int, workload: str = "pointwise-adaptive") -> list[str]:
    """One line per op kind of the second round of ``workload`` at ``seed``."""
    setup, warm, rounds = worker.IN_PROCESS[workload]
    sphtrans = workloads.import_sphtrans()
    state = setup(sphtrans)
    seen = install(sphtrans)
    if warm:
        warm(sphtrans, state)
    rng = np.random.default_rng(seed)
    for op in rounds(sphtrans, state, 1, rng):
        op.call()  # a round first, so that what a timed run finds held is held
    lines = []
    for op in rounds(sphtrans, state, 1, rng):
        for calls in seen.values():
            calls.clear()
        profile = cProfile.Profile()
        profile.runcall(op.call)
        stats = pstats.Stats(profile).stats
        total = sum(nc for (path, _, _), (_, nc, *_) in stats.items() if path != __file__)
        parts = [f"{op.label}: {total} calls"]
        for name, calls in seen.items():
            sizes = [_shape_counts(name, args) for args in calls]
            parts.append(f"{name} {len(calls)} calls, {sum(r for r, _ in sizes)} rows, "
                         f"{sum(e for _, e in sizes)} entries")
        lines.append("; ".join(parts))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="pointwise-adaptive")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    print("\n".join(counts(args.seed, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
