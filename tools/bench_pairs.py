"""Alternating base/head pairs of perfbench runs, summarised as one BENCH_<tag>.json.

    python3 tools/bench_pairs.py --base REV [--head REV] --tag N [--seed0 S]

Both sides are committed trees, exported with ``git archive`` into the sibling
directories ``base`` and ``head`` of one temporary directory, so that neither
side brings a ``__pycache__`` and both paths have the same length.  Without
``--head`` the head side is this repository's working tree as ``git stash
create`` records it (tracked files only, untracked ones are left out), or
HEAD when the tree is clean; ``--head`` equal to ``--base`` is an A/A run.
Pair i of 10 runs every workload of BENCHMARK.json once on each side with
seed ``seed0 + i``, base first in even pairs and head first in odd ones, each
as ``python3 perfbench/run.py --workload W --seed S --seconds X`` from the
side's root, where X is the benchmark's ``run_seconds``.  The summary goes to
BENCH_<tag>.json in this repository.  It holds both commit hashes; per
workload and end-to-end metric, each side's values, median and quartiles, the
head/base ratio of medians, the head/base ratio of each pair, the base's
quartiles over its median (the band to read an A/A ratio of medians against)
and the number of pairs the head won (ties count for neither); per workload
and op kind each side's median over runs of the run's median op time (from
its ``op_s``) and their ratio, which shows the ops that carry a change; per
workload the failed ops and the worst error/tolerance ratio of each side;
and the seeds, run length and machine facts.  After writing it, the script prints one
line per workload and end-to-end metric: both medians, their ratio, the base band and
the head's wins; then one line per workload with each op kind's head/base ratio of
median op time; then one line per workload with each side's failed ops per run.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_rev(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its full hash."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def working_tree() -> tuple[str, str]:
    """A commit of the working tree's tracked files, and what it is."""
    head = git("rev-parse", "HEAD")
    stash = git("stash", "create")
    if not stash:
        return head, "HEAD, a clean working tree"
    return stash, f"the working tree on {head}, by git stash create"


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; the result record it writes, plus its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((side / ".perfbench-out" /
                         f"result-{workload}-seed{seed}.json").read_text())
    record["metrics"] = summary["metrics"]
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def op_medians(records: list[dict]) -> dict:
    """Per op kind, the median over runs of each run's median op time."""
    return {label: statistics.median(statistics.median(r["op_s"][label]) for r in records)
            for label in records[0]["op_s"]}


def summarise(runs: dict, end_to_end: list[dict]) -> dict:
    """Per-metric spreads and wins for one workload; runs[side] lists records by pair."""
    base, head = runs["base"], runs["head"]
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        wins = sum(sign * (hv - bv) > 0 for bv, hv in zip(b, h))
        base_s, head_s = spread(b), spread(h)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "base": base_s, "head": head_s,
            "head_over_base": head_s["median"] / base_s["median"],
            "pair_ratios": [hv / bv for bv, hv in zip(b, h)],
            "base_band": [base_s["q1"] / base_s["median"], base_s["q3"] / base_s["median"]],
            "head_wins": wins, "pairs": len(b),
        }
    ops = {side: op_medians(rs) for side, rs in runs.items()}
    return {
        "metrics": metrics,
        "op_s_median": {
            label: {"base": base_s, "head": ops["head"][label],
                    "head_over_base": ops["head"][label] / base_s}
            for label, base_s in ops["base"].items()
        },
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "worst_error_to_tolerance": {
            side: max(r["worst_error_to_tolerance"] for r in rs) for side, rs in runs.items()
        },
    }


def report(workloads: dict) -> list[str]:
    """One line per workload and end-to-end metric of a summary's ``workloads``: the
    medians of both sides, their ratio, the base band and the pairs the head won."""
    return [
        f"{workload} {name}: base {m['base']['median']:.4g} -> head {m['head']['median']:.4g}"
        f" {m['unit']} ({m['head_over_base']:.3f}x, base band {m['base_band'][0]:.3f}-"
        f"{m['base_band'][1]:.3f}, head won {m['head_wins']} of {m['pairs']})"
        for workload, summary in workloads.items() for name, m in summary["metrics"].items()
    ]


def op_report(workloads: dict) -> list[str]:
    """One line per workload of a summary's ``workloads``: each op kind's head/base ratio of
    median op time, below 1 where the head is faster."""
    return [
        f"{workload} op time: " + ", ".join(f"{label} {op['head_over_base']:.3f}x"
                                            for label, op in summary["op_s_median"].items())
        for workload, summary in workloads.items()
    ]


def failed_report(workloads: dict) -> list[str]:
    """One line per workload of a summary's ``workloads``: each side's failed ops per run, in
    pair order."""
    return [
        f"{workload} failed ops per run: base {summary['failed']['base']}"
        f" -> head {summary['failed']['head']}"
        for workload, summary in workloads.items()
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--head", help="git revision of the head side (default: the working tree)")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--seed0", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [args.seed0 + i for i in range(PAIRS)]

    head_rev, head_source = (args.head, args.head) if args.head else working_tree()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        base_sha = export_rev(args.base, sides["base"])
        head_sha = export_rev(head_rev, sides["head"])
        runs = {w: {"base": [], "head": []} for w in workloads}
        machine = None
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    record = run_once(sides[side], workload, seed, seconds)
                    runs[workload][side].append(record)
                    machine = machine or record["machine"]
                    print(f"pair {i} seed {seed} {workload} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in record["metrics"].items()),
                        file=sys.stderr, flush=True)

    out = {
        "tag": args.tag,
        "base": base_sha,
        "head": head_sha,
        "head_source": head_source,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds X",
        "seconds": seconds,
        "seeds": seeds,
        "order": "base first in even pairs, head first in odd pairs",
        "machine": machine,
        "workloads": {w: summarise(runs[w], bench["end_to_end"]) for w in workloads},
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    lines = report(out["workloads"]) + op_report(out["workloads"])
    print("\n".join(lines + failed_report(out["workloads"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
