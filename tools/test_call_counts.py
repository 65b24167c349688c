"""call_counts prints the same counts on every run, one line per op kind."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "call_counts.py"


def test_two_runs_print_identical_counts_per_op_kind():
    # each run in its own process, as the tool is meant to run
    runs = [subprocess.run([sys.executable, str(TOOL)], check=True, capture_output=True,
                           text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "hc_transform_at", "convolve_at_identity", "expansion_ladder", "tube_extension_check"]
    for line in lines:
        assert " calls; phi " in line and "; c_log " in line and "; log_gamma " in line
    # a pointwise transform is one phi call of one row on the 124 nodes of four K31 panels
    assert "; phi 1 calls, 1 rows, 124 entries;" in lines[0]


def test_a_held_round_trip_round_builds_no_table():
    runs = [subprocess.run([sys.executable, str(TOOL), "--workload", "roundtrip-shared"],
                           check=True, capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    sys.path.insert(0, str(TOOL.parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    lines = runs[0].splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{name}@{preset}" for name, preset in workloads.ROUNDTRIP_ROTATION]
    # after the warm-up and one round every phi table a round reads is held
    for line in lines:
        assert "; phi 0 calls, 0 rows, 0 entries;" in line


def test_a_fresh_round_trip_makes_one_phi_call_of_its_grids_rows():
    runs = [subprocess.run([sys.executable, str(TOOL), "--workload", "roundtrip-fresh"],
                           check=True, capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert len(lines) == 6
    # the packet and the transform read one table of the fresh grid's 241 |lam| rows
    for line in lines:
        assert "; phi 1 calls, 241 rows, " in line
