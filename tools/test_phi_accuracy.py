"""phi_accuracy prints the same figures on every run, H3's phi reads below 1e-13 up to |lam| 215,
and H3's c-function below 1e-15."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "phi_accuracy.py"


def test_two_runs_print_identical_figures_and_h3_is_within_1e_13_up_to_lam_215():
    # each run in its own process, as the tool is meant to run; the last cell, the time per
    # row or call, is the only one that differs from run to run
    runs = [subprocess.run([sys.executable, str(TOOL)], check=True, capture_output=True,
                           text=True).stdout for _ in range(2)]
    tables = [[[line.split(" | ")[:-1] for line in part.splitlines()[2:]]
               for part in run.split("\n\n")] for run in runs]
    assert tables[0] == tables[1]
    rows, c_rows = tables[0]
    # 8 lam bands (7 real, 1 complex), each as single rows and as a block, times 4 t bands
    assert len(rows) == 8 * 2 * 4
    # past |lam| = 192 the Pfaff series runs to t = 0.05, where it loses digits
    below = [cells for cells in rows if cells[1] != "215-370"]
    assert len(below) == 7 * 2 * 4 and all(float(cells[3]) < 1e-13 for cells in below), runs[0]
    # one c-function row per preset; on H3 c = 1/(i lam), with no Gamma quotient left to cancel
    assert [cells[0] for cells in c_rows] == ["| SL2R", "| SL2C", "| H3", "| H4", "| CH2"]
    assert float({cells[0]: cells[1] for cells in c_rows}["| H3"]) < 1e-15, runs[0]
