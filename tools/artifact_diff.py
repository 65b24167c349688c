"""Compare the CLI artifacts of a git revision with those of the working tree.

    python3 tools/artifact_diff.py --base REV

Both sides run the same 31 commands, each as ``python3 -m sphtrans.cli``
from the side's root with its own ``src`` first on PYTHONPATH: the ten
subcommands other than ``accept`` once for each of SL2R, H3 and CH2, and
``accept``.  A subcommand is given only the flags it reads: ``--preset``
to all but ``presets``, whose three commands are the same, and
``--lam 2.5`` to ``phi`` alone.  Every command writes its artifact with ``--out``, into a
file named for its form: ``.csv`` for the subcommands in ``CSV`` and
``.json`` for the others.  The base side is the
committed tree of REV, exported with ``git archive`` into a temporary
directory.  Per artifact the tool prints "identical", or the largest
absolute and relative difference between numbers at the same place, each
with its place: the line and column header of a CSV cell, the path of a JSON
leaf.  A relative difference is taken against the larger of the two magnitudes,
floored at machine epsilon times the largest finite magnitude on either side in
the same CSV column or at the same JSON key (the leaf's path without its list
indices), so a roundoff move of a value that is roundoff of zero reads as small.
A text difference, or one where either number is NaN or infinite, is named
at its first place, before them.  Fields
named ``runtime`` are left out of the comparison, and an artifact equal apart
from them is "identical (runtime ignored)".  Before the last line, one line gives
the largest resident set of each side's ``accept`` process (its ``ru_maxrss``,
from ``os.wait4`` on that child) and its CPU time (``ru_utime + ru_stime``).  A
command still running after 30 minutes is killed, and the tool stops with ``subprocess.TimeoutExpired``.  The last line counts
the artifacts: "N identical, M differing, K exit-code changes", where
differing is every artifact that is neither identical nor from a command
whose exit code changed.  It exits 1 when a
command's exit code differs between the sides or an artifact exists on one
side only, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import ROOT, export_rev

SUBCOMMANDS = ("presets", "phi", "cfun", "transform", "invert", "plancherel",
               "expansion", "seminorm", "membership", "roundtrip")
CSV = ("presets", "phi", "cfun", "transform", "invert")
PRESETS = ("SL2R", "H3", "CH2")
RUN_TIMEOUT_S = 1800
WORKERS = 2
EPS = sys.float_info.epsilon


def commands() -> dict[str, list[str]]:
    """Artifact file name -> the CLI arguments that write it (without --out)."""
    out = {}
    for sub in SUBCOMMANDS:
        form = "csv" if sub in CSV else "json"
        for preset in PRESETS:
            args = [sub] if sub == "presets" else [sub, "--preset", preset]
            out[f"{sub}-{preset}.{form}"] = args + ["--lam", "2.5"] if sub == "phi" else args
    out["accept.json"] = ["accept"]
    return out


def run_side(root: Path, out_dir: Path) -> tuple[dict[str, int], tuple[float, float]]:
    """Write every artifact of the side at ``root`` into ``out_dir``; exit code by
    artifact, and the ``accept`` process's largest resident set in MB and CPU time in s."""
    out_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    accept = []

    def run(item):
        name, args = item
        cmd = [sys.executable, "-m", "sphtrans.cli", *args, "--out", str(out_dir / name)]
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(RUN_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        start = time.monotonic()
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)  # reaped here, not by subprocess, for its rusage
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() - start >= RUN_TIMEOUT_S:
            raise subprocess.TimeoutExpired(cmd, RUN_TIMEOUT_S)
        if args == ["accept"]:
            accept.append((usage.ru_maxrss / 1024.0,  # KiB on Linux
                           usage.ru_utime + usage.ru_stime))
        return name, proc.returncode

    with ThreadPoolExecutor(WORKERS) as pool:
        codes = dict(pool.map(run, commands().items()))
    return codes, accept[0]


def leaves(path: Path) -> list[tuple[str, str, object]]:
    """(place, column, value) for every cell of a CSV or leaf of a JSON artifact, numbers as
    floats; a CSV cell's place is its line and its column's header, and its column that
    header; a JSON leaf's place is its path, and its column the path without list indices."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []

        def column(j):
            return header[j] if j < len(header) else str(j + 1)

        return [(f"line {i + 1} column {column(j)}", column(j), _number(cell))
                for i, line in enumerate(lines)
                for j, cell in enumerate(line.split(","))]
    out = []

    def walk(node, where):
        if isinstance(node, dict):
            for key, item in node.items():
                if key != "runtime":
                    walk(item, f"{where}.{key}" if where else key)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{where}[{i}]")
        else:
            out.append((where, re.sub(r"\[\d+\]", "[]", where),
                        float(node) if isinstance(node, (int, float))
                        and not isinstance(node, bool) else node))

    walk(json.loads(text), "")
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def compare(base: Path, head: Path) -> str:
    """'identical', or the largest differences between two artifacts of one command."""
    if base.read_bytes() == head.read_bytes():
        return "identical"
    a, b = leaves(base), leaves(head)
    if [p for p, _, _ in a] != [p for p, _, _ in b]:
        first = next((pa for (pa, _, _), (pb, _, _) in zip(a, b) if pa != pb), None)
        return (f"different shape, first at {first}" if first else
                f"different shape, {len(a)} vs {len(b)} values")
    scale = {}  # the largest finite magnitude in each column, on either side
    for _, column, x in a + b:
        if isinstance(x, float) and math.isfinite(x):
            scale[column] = max(scale.get(column, 0.0), abs(x))
    text, (worst_abs, at_abs), (worst_rel, at_rel) = None, (0.0, None), (0.0, None)
    for (where, column, x), (_, _, y) in zip(a, b):
        if _same(x, y):
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            text = text or f"different text at {where}: {x!r} vs {y!r}"
            continue
        if not (math.isfinite(x) and math.isfinite(y)):  # NaN or inf: no difference to rank
            text = text or f"different non-finite value at {where}: {x!r} vs {y!r}"
            continue
        diff = abs(x - y)
        rel = diff / max(abs(x), abs(y), EPS * scale[column])
        if diff > worst_abs:
            worst_abs, at_abs = diff, where
        if rel > worst_rel:
            worst_rel, at_rel = rel, where
    numbers = (f"max abs diff {worst_abs:.3g} at {at_abs}, "
               f"max rel diff {worst_rel:.3g} at {at_rel}") if worst_abs else None
    if text:
        return f"{text}; {numbers}" if numbers else text
    return numbers or "identical (runtime ignored)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "tree"
        base_sha = export_rev(args.base, base_root)
        (base_codes, (base_mb, base_cpu)), (head_codes, (head_mb, head_cpu)) = (
            run_side(base_root, tmp / "base"), run_side(ROOT, tmp / "head"))
        codes = {"base": base_codes, "head": head_codes}
        print(f"base {base_sha}, head: working tree of {ROOT}")
        failed = False
        tally = {"identical": 0, "differing": 0, "exit-code changes": 0}
        for name in commands():
            rc_base, rc_head = codes["base"][name], codes["head"][name]
            files = [tmp / side / name for side in ("base", "head")]
            present = [f.exists() for f in files]
            if rc_base != rc_head:
                verdict, failed = f"exit codes differ: base {rc_base}, head {rc_head}", True
            elif present[0] != present[1]:
                side = "base" if present[0] else "head"
                verdict, failed = f"artifact only on the {side} side", True
            elif not present[0]:
                verdict = "no artifact on either side"
            else:
                verdict = compare(*files)
            print(f"{name:<24} exit {rc_head}  {verdict}")
            kind = ("exit-code changes" if rc_base != rc_head else
                    "identical" if verdict.startswith("identical") else "differing")
            tally[kind] += 1
        print(f"accept max RSS: base {base_mb:.1f} MB, head {head_mb:.1f} MB; "
              f"CPU time: base {base_cpu:.2f} s, head {head_cpu:.2f} s")
        print(", ".join(f"{n} {kind}" for kind, n in tally.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
