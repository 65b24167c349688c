"""The four workloads: set-up, op rotation, and the check of every op.

An op is a call into sphtrans (timed) and a check of its output against
``oracles`` (not timed).  A check returns the worst error-to-tolerance
ratio; above 1 the op is wrong.  Which ops a run does, and how many of
each, depend only on the workload and the round count: the seed moves
input values inside ranges chosen so that the cost of an op does not
depend on them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent

# symbol k runs on preset k mod 3: every symbol once, every multiplicity
# class (m_alpha, m_2alpha) = (1, 0), (2, 0), (2, 1) twice per round
ROUNDTRIP_ROTATION = (
    ("gauss", "SL2R"),
    ("x2gauss", "H3"),
    ("wide", "CH2"),
    ("poly", "SL2R"),
    ("quartic", "H3"),
    ("flat4", "CH2"),
)
ROUNDTRIP_PRESETS = ("SL2R", "H3", "CH2")
GRID_COUNT = 481
# roundtrip-fresh grid half-width: ceil(L / 0.75) = 16 spectral panels for
# every L in this range, as for the default L = 12, so the seed moves
# values and not cost
FRESH_HALF_WIDTH = (11.3, 11.95)
SYMBOL_POWER = 8.0
# image_membership verdict on a round-tripped symbol: the round trip is the
# identity, so the verdict is that of the symbol.  flat4 fails the default
# decay budget, sup |a| (1 + |lam|)^6 = 2.0e3 > 1e3 on the 481-point grid;
# the other five pass it (test_oracles.py)
MEMBERSHIP_FAILS = ("flat4",)

# pointwise-adaptive: fixed widths on H3; seeded lam ranges in which the
# adaptive rule needs the same number of panels and the expansion ladder
# errors fall by a factor of 3 or more per halving of eps
POINTWISE_WIDTH = 1.0
CONVOLUTION_WIDTHS = (1.0, 0.5)
AT_LAM_RANGE = (1.0, 3.0)
LADDER_LAM_RANGE = (0.5, 2.5)
LADDER_EPS = (0.4, 0.2, 0.1)
TUBE_EPSILON = 0.1

# criterion A1 tolerance factors, and the default QuadratureSpec targets
A1_FACTOR = {"SL2R": 1e-6, "H3": 1e-5, "CH2": 1e-5}
REL_TOL = 1e-10
ABS_TOL = 1e-12
# envelope-relative error allowed for phi and the wave packet
ENVELOPE_TOL = 1e-10
DENSITY_REL_TOL = 1e-12

CLI_PHI_LAM_RANGE = (0.5, 8.0)
CLI_FAULT_LAM = 500.0
CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], float]
    # the op fails every time because of a named program fault
    known_fault: bool = False


def quadrature_tol(exact) -> np.ndarray:
    return np.maximum(ABS_TOL, REL_TOL * np.abs(exact))


def _ratio(err, tol) -> float:
    return float(np.max(np.asarray(err) / np.asarray(tol)))


def import_sphtrans():
    """Import sphtrans from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sphtrans
    import sphtrans.profiles  # noqa: F401  (the package does not import it)

    if Path(sphtrans.__file__).resolve().parent != src / "sphtrans":
        raise ImportError(f"sphtrans imported from {sphtrans.__file__}, not {src}")
    return sphtrans


def check_constants(sphtrans, G: dict) -> float:
    """plancherel_constant = 1/(2 pi) on every preset, to 1e-12 relative."""
    return max(
        abs(g.plancherel_constant / oracles.PLANCHEREL_CONSTANT - 1.0) / 1e-12
        for g in G.values()
    )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def _symbol(tr, name: str, grid: np.ndarray):
    """The CLI's symbol sampled on ``grid`` with a measured envelope."""
    fn = oracles.SYMBOLS[name]
    coeff = 1.1 * float(np.max(np.abs(fn(grid)) * (1.0 + np.abs(grid)) ** SYMBOL_POWER))
    decay = tr.SpectralDecay(coeff=coeff + 1e-300, power=SYMBOL_POWER)
    return tr.SpectralFunction.from_function(fn, grid, decay, label=name)


def _roundtrip_check(preset: str, name: str, grid: np.ndarray):
    target = oracles.SYMBOLS[name](grid)
    tol = A1_FACTOR[preset] * (1.0 + float(np.max(np.abs(target))))

    def check(out) -> float:
        result, membership = out
        if not np.array_equal(result.spectral.grid, grid):
            return math.inf
        ratio = _ratio(np.abs(result.spectral.values - target), tol)
        if membership is not None and membership.passed == (name in MEMBERSHIP_FAILS):
            return math.inf
        return ratio

    return check


def _roundtrip_op(sphtrans, G, preset: str, name: str, grid: np.ndarray, membership: bool) -> Op:
    tr, schwartz = sphtrans.transform, sphtrans.schwartz

    def call():
        psi = tr.wave_packet(G[preset], _symbol(tr, name, grid))
        result = tr.hc_transform(G[preset], psi, grid)
        report = schwartz.image_membership(G[preset], result.spectral) if membership else None
        return result, report

    return Op(f"{name}@{preset}", call, _roundtrip_check(preset, name, grid))


def setup_roundtrip(sphtrans) -> dict:
    G = {p: sphtrans.preset(p) for p in ROUNDTRIP_PRESETS}
    return {"G": G, "constants_ratio": check_constants(sphtrans, G)}


def warm_shared(sphtrans, state):
    """Build the phi tables every later op reads: one unchecked round."""
    for op in shared_round(sphtrans, state):
        op.call()


def fresh_rounds(sphtrans, state, rounds: int, rng) -> list[Op]:
    ops = []
    for _ in range(rounds):
        for name, preset in ROUNDTRIP_ROTATION:
            half = rng.uniform(*FRESH_HALF_WIDTH)
            grid = np.linspace(-half, half, GRID_COUNT)
            ops.append(_roundtrip_op(sphtrans, state["G"], preset, name, grid, False))
    return ops


def shared_round(sphtrans, state) -> list[Op]:
    grid = sphtrans.transform.default_spectral_grid()
    return [
        _roundtrip_op(sphtrans, state["G"], preset, name, grid, True)
        for name, preset in ROUNDTRIP_ROTATION
    ]


def shared_rounds(sphtrans, state, rounds: int, rng) -> list[Op]:
    return [op for _ in range(rounds) for op in shared_round(sphtrans, state)]


# ---------------------------------------------------------------------------
# pointwise adaptive quadrature on H3
# ---------------------------------------------------------------------------

def setup_pointwise(sphtrans) -> dict:
    G = sphtrans.preset("H3")
    gp = sphtrans.profiles.gaussian_profile
    f = gp(G, width=POINTWISE_WIDTH)
    state = {
        "G": G,
        "f": f,
        "conv": [gp(G, width=w) for w in CONVOLUTION_WIDTHS],
        "tube": sphtrans.schwartz.TubeSpec.for_group(G, TUBE_EPSILON),
        "constants_ratio": check_constants(sphtrans, {"H3": G}),
    }
    # expansion_term keeps the sampled transform of f per profile; build it now
    sphtrans.transform.expansion_term(G, "split", f, 1.0, LADDER_EPS[0])
    return state


def pointwise_rounds(sphtrans, state, rounds: int, rng) -> list[Op]:
    tr, schwartz = sphtrans.transform, sphtrans.schwartz
    G, f = state["G"], state["f"]
    w = POINTWISE_WIDTH
    ops = []
    for _ in range(rounds):
        lam_at = rng.uniform(*AT_LAM_RANGE)
        lam_ladder = rng.uniform(*LADDER_LAM_RANGE)

        def at_check(v, lam=lam_at):
            exact = oracles.gauss_transform_h3(lam, w)
            return _ratio(abs(v - exact), quadrature_tol(exact))

        def conv_check(v):
            exact = oracles.gauss_convolution_h3(*CONVOLUTION_WIDTHS)
            return _ratio(abs(v - exact), quadrature_tol(exact))

        def ladder_call(lam=lam_ladder):
            return [tr.expansion_term(G, "split", f, lam, eps) for eps in LADDER_EPS]

        def ladder_check(values, lam=lam_ladder):
            # the error against Hf(lam) must strictly fall as eps halves:
            # each rung's error is the tolerance of the next
            errs = np.abs(np.asarray(values) - oracles.gauss_transform_h3(lam, w))
            return float(np.max(errs[1:] / errs[:-1]))

        def tube_check(report):
            xs, ys = np.meshgrid(report.xs, report.ys)
            exact = oracles.gauss_transform_h3(xs + 1j * ys, w)
            if report.values.shape != exact.shape or not report.finite:
                return math.inf
            return _ratio(np.abs(report.values - exact), quadrature_tol(exact))

        ops += [
            Op("hc_transform_at", lambda lam=lam_at: tr.hc_transform_at(G, f, lam), at_check),
            Op("convolve_at_identity",
               lambda: tr.convolve_at_identity(G, *state["conv"]), conv_check),
            Op("expansion_ladder", ladder_call, ladder_check),
            Op("tube_extension_check",
               lambda: schwartz.tube_extension_check(G, f, state["tube"]), tube_check),
        ]
    return ops


# ---------------------------------------------------------------------------
# cold CLI processes
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def _default_radial_grid():
    return np.linspace(0.0, 12.0, GRID_COUNT)


def _default_spectral_grid():
    return np.linspace(-12.0, 12.0, GRID_COUNT)


def _check_roundtrip_json(path: Path) -> float:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lams = np.array([s["lambda"] for s in doc["per_sample"]])
    got = np.array([complex(s["recovered"]["re"], s["recovered"]["im"]) for s in doc["per_sample"]])
    if not np.allclose(lams, _default_spectral_grid(), rtol=0, atol=1e-12):
        return math.inf
    target = oracles.SYMBOLS["gauss"](lams)
    tol = A1_FACTOR["SL2R"] * (1.0 + float(np.max(np.abs(target))))
    return _ratio(np.abs(got - target), tol)


def _check_invert_csv(path: Path) -> float:
    cols = _read_csv(path)
    t = cols["t"]
    if not np.allclose(t, _default_radial_grid(), rtol=0, atol=1e-12):
        return math.inf
    got = cols["re_psi"] + 1j * cols["im_psi"]
    exact = oracles.wide_packet_h3(t)
    return _ratio(np.abs(got - exact), ENVELOPE_TOL * float(np.max(np.abs(exact))))


def _check_transform_csv(path: Path) -> float:
    cols = _read_csv(path)
    lam = cols["lambda"]
    if not np.allclose(lam, _default_spectral_grid(), rtol=0, atol=1e-12):
        return math.inf
    exact = oracles.gauss_transform_h3(lam, 1.0)
    got = cols["re"] + 1j * cols["im"]
    return _ratio(np.abs(got - exact), quadrature_tol(exact))


def _check_cfun_csv(path: Path) -> float:
    cols = _read_csv(path)
    lam = cols["lambda"]
    if not np.allclose(lam, _default_spectral_grid(), rtol=0, atol=1e-12):
        return math.inf
    dens = cols["density"]
    exact = oracles.density_sl2r(lam)
    pole = lam == 0.0
    # c has its pole at lam = 0, written as nan; the density is 0 there
    if not (np.all(np.isnan(cols["re_c"][pole])) and np.all(dens[pole] == 0.0)):
        return math.inf
    c_sq = cols["re_c"][~pole] ** 2 + cols["im_c"][~pole] ** 2
    tol = DENSITY_REL_TOL * exact[~pole]
    return max(
        _ratio(np.abs(dens[~pole] - exact[~pole]), tol),
        _ratio(np.abs(1.0 / c_sq - exact[~pole]), tol),
    )


def _phi_check(lam: float):
    def check(path: Path) -> float:
        cols = _read_csv(path)
        t = cols["t"]
        if not np.allclose(t, _default_radial_grid(), rtol=0, atol=1e-12):
            return math.inf
        got = cols["re_phi"] + 1j * cols["im_phi"]
        err = np.abs(got - oracles.phi_h3(lam, t))
        return _ratio(err, ENVELOPE_TOL * oracles.xi_h3(t))

    return check


def setup_cli() -> dict:
    out = ROOT / ".perfbench-out" / f"cli-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    return {"out": out}


def cli_rounds(state, rounds: int, rng, trace_dir: Path | None) -> list[Op]:
    out: Path = state["out"]
    ops = []
    for r in range(rounds):
        lam = float(rng.uniform(*CLI_PHI_LAM_RANGE))
        specs = [
            ("roundtrip", ["roundtrip", "--preset", "SL2R", "--symbol", "gauss"], "json",
             _check_roundtrip_json, False),
            ("invert", ["invert", "--preset", "H3", "--symbol", "wide"], "csv",
             _check_invert_csv, False),
            ("transform", ["transform", "--preset", "H3", "--profile", "gaussian"], "csv",
             _check_transform_csv, False),
            ("cfun", ["cfun", "--preset", "SL2R"], "csv", _check_cfun_csv, False),
            ("phi", ["phi", "--preset", "H3", "--lam", repr(lam)], "csv",
             _phi_check(lam), False),
            ("phi-500", ["phi", "--preset", "H3", "--lam", repr(CLI_FAULT_LAM)], "csv",
             _phi_check(CLI_FAULT_LAM), True),
        ]
        for k, (label, argv, ext, check, fault) in enumerate(specs):
            path = out / f"{r}-{k}-{label}.{ext}"
            trace_out = trace_dir / f"{r}-{k}.json" if trace_dir else None
            ops.append(Op(label, _cli_call(argv + ["--out", str(path)], path, trace_out),
                          _cli_check(check), fault))
    return ops


def _cli_call(argv: list[str], path: Path, trace_out: Path | None):
    child = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
             str(trace_out) if trace_out else "-"] + argv

    def call():
        proc = subprocess.run(child, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=CLI_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"sphtrans {argv[0]} exited with code {proc.returncode}")
        return path

    return call


def _cli_check(check):
    def run(path: Path) -> float:
        try:
            return check(path)
        finally:
            path.unlink(missing_ok=True)

    return run
