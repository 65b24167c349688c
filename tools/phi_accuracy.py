"""The accuracy of phi against a closed form, band by band in lam and t, with its time per row,
then that of the c-function against an mpmath Gamma quotient, preset by preset.

    python3 tools/phi_accuracy.py

On H3 (multiplicities (2, 0), as SL2C, whose phi is the same) phi_lam(t) =
sin(lam t) / (lam sinh t) and Xi(t) = t / sinh t.  The tool evaluates rows lam in the real
|lam| bands 0-1e-3, 1e-3-1, 1-12, 12-60, 60-150, 150-215 and 215-370, and complex rows with
|Im lam| <= rho + 1 and |lam| <= 12, on t = [0] and 400 geometric points of [1e-4, 64].  Each
band's rows are ``ROWS`` evenly spaced points up to its top, one ``phi`` call each; then one
call of a block of ``BLOCK`` rows spaced the same way, which a real band takes t <= 1.2 of
from phi's Chebyshev band in |lam|.  The complex rows are pseudo-random with a fixed seed,
plus rows at and near i and 2i, where phi takes a Cauchy circle.

Prints a Markdown table, one row per way of calling, lam band and t band (0-0.2, 0.2-1.2,
1.2-12, 12-64): the worst error |phi - closed form| / (e^{|Im lam| t} Xi(t)), the lam and t
where it sits, and the wall time per row of the band's calls, the only figure that differs
from run to run.  A call that raises prints its error in place of the figures.

A second table follows a blank line: for each preset, the worst relative error of
``c_function`` against the unreduced Gamma quotient at 30 digits (mpmath) on a fixed sample
(``c_sample``: real bands, a strip, and the Cauchy circles about 0 and i that phi's rows
take), the lam where it sits, and the time of one ``c_function`` call of the whole sample, the best of
``C_REPEAT``, again the only figure that differs from run to run.  No gate: the tables are
for reading.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from sphtrans.cfunction import c_function  # noqa: E402
from sphtrans.errors import SphtransError  # noqa: E402
from sphtrans.groups import PRESET_NAMES, preset  # noqa: E402
from sphtrans.spherical import _CIRCLE, phi  # noqa: E402

REAL_BANDS = ((0.0, 1e-3), (1e-3, 1.0), (1.0, 12.0), (12.0, 60.0), (60.0, 150.0), (150.0, 215.0),
              (215.0, 370.0))
T_BANDS = ((0.0, 0.2), (0.2, 1.2), (1.2, 12.0), (12.0, 64.0))
T = np.concatenate([[0.0], np.geomspace(1e-4, 64.0, 400)])
# single rows per lam band, and the rows of a block: enough for phi's band in |lam| on every
# real band
ROWS, BLOCK = 16, 400
# rows at and near i*Z, where the two terms of the exponential series cancel
NEAR_IZ = (1j, 2j, 1j + 1e-9, 2j - 1e-6, 1e-3 + 1j, 0.05 - 2j)
# the c-function's calls whose best time a row prints
C_REPEAT = 20


def closed_form(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sin(lam t) / (lam sinh t), with its limits at t = 0 and lam t = 0."""
    lt = lam[:, None] * t
    small = np.abs(lt) < 1e-8
    sinc = np.where(small, 1.0 - lt**2 / 6.0, np.sin(lt) / np.where(small, 1.0, lt))
    return sinc * xi(t)


def xi(t: np.ndarray) -> np.ndarray:
    return np.where(t == 0.0, 1.0, t / np.where(t == 0.0, 1.0, np.sinh(t)))


def complex_rows(rho: float, n: int) -> np.ndarray:
    """n pseudo-random rows with |Im lam| <= rho + 1 and |lam| <= 12, then ``NEAR_IZ``."""
    rng = np.random.default_rng(17)
    rows = rng.uniform(-12.0, 12.0, 4 * n) + 1j * rng.uniform(-rho - 1.0, rho + 1.0, 4 * n)
    return np.concatenate([rows[np.abs(rows) <= 12.0][:n], NEAR_IZ])


def bands(rho: float):
    """(label, single rows, block rows) per lam band."""
    for lo, hi in REAL_BANDS:
        yield f"{lo:g}-{hi:g}", np.linspace(lo, hi, ROWS + 1)[1:], np.linspace(lo, hi, BLOCK + 1)[1:]
    yield f"complex, Im in +-{rho + 1.0:g}", complex_rows(rho, ROWS), complex_rows(rho, BLOCK)


def measure(G, lams: np.ndarray, single: bool):
    """(values, seconds per row) of ``lams`` on ``T``: one phi call per row, or one block."""
    start = time.perf_counter()
    vals = np.array([phi(G, lam, T) for lam in lams]) if single else phi(G, lams, T)
    return vals, (time.perf_counter() - start) / len(lams)


def table() -> list[str]:
    """The Markdown table's lines."""
    G = preset("H3")
    lines = ["| call | lam | t | worst err / e^(abs(Im lam) t) Xi | at lam | at t | us per row |",
             "|---" * 7 + "|"]
    for label, rows, block in bands(G.rho):
        for call, lams in (("single", rows), ("block", block)):
            try:
                vals, per_row = measure(G, lams, call == "single")
            except SphtransError as exc:
                lines.append(f"| {call} | {label} | all | {type(exc).__name__}: {exc} | | | |")
                continue
            err = np.abs(vals - closed_form(lams, T))
            err /= np.exp(np.abs(lams.imag)[:, None] * T) * xi(T)
            for lo, hi in T_BANDS:
                cols = np.flatnonzero((T >= lo) & (T <= hi))
                i, j = np.unravel_index(np.argmax(err[:, cols]), (len(lams), len(cols)))
                lam = lams[i]
                cells = [call, label, f"{lo:g}-{hi:g}", f"{err[i, cols[j]]:.1e}",
                         f"{lam.real:.6g}" if lam.imag == 0.0 else f"{lam:.6g}",
                         f"{T[cols[j]]:.4g}", f"{1e6 * per_row:.0f}"]
                lines.append("| " + " | ".join(cells) + " |")
    return lines


def c_sample(rho: float) -> np.ndarray:
    """The c-function's lam: real |lam| from 1e-3 to 2e3 and their negatives, 12 points of the
    strip Im lam = rho/2, and the Cauchy circles of radius 0.64/152 about 0 and i."""
    real, circle = np.geomspace(1e-3, 2e3, 40), 0.64 / 152 * _CIRCLE
    strip = np.linspace(0.5, 20.0, 12) + 0.5j * rho
    return np.concatenate([real, -real, strip, circle, 1j + circle])


def mp_c(G, lam: complex) -> complex:
    """c(lam) = 2^(rho - i lam) Gamma(alpha + 1) Gamma(i lam)
    / [Gamma((rho + i lam)/2) Gamma((alpha - beta + 1 + i lam)/2)] at 30 digits."""
    with mpmath.workdps(30):
        il = 1j * mpmath.mpc(lam)
        num = mpmath.mpf(2) ** (G.rho - il) * mpmath.gamma(G.jacobi_alpha + 1) * mpmath.gamma(il)
        den = mpmath.gamma((G.rho + il) / 2) * mpmath.gamma(
            (G.jacobi_alpha - G.jacobi_beta + 1 + il) / 2)
        return complex(num / den)


def c_table() -> list[str]:
    """The c-function table's lines."""
    lines = [f"| preset | c: worst rel err vs mpmath | at lam | us per call of "
             f"{len(c_sample(0.0))} lam |", "|---" * 4 + "|"]
    for name in PRESET_NAMES:
        G = preset(name)
        lams = c_sample(G.rho)
        best = np.inf
        for _ in range(C_REPEAT):
            start = time.perf_counter()
            got = c_function(G, lams)
            best = min(best, time.perf_counter() - start)
        exact = np.array([mp_c(G, lam) for lam in lams])
        rel = np.abs(got - exact) / np.abs(exact)
        i = int(np.argmax(rel))
        lam = lams[i].real if lams[i].imag == 0.0 else lams[i]
        lines.append(f"| {name} | {rel[i]:.1e} | {lam:.6g} | {1e6 * best:.0f} |")
    return lines


if __name__ == "__main__":
    print("\n".join(table() + [""] + c_table()))
