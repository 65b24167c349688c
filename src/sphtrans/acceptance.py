"""Acceptance suite: the end-to-end checks that gate a build.

Each criterion function returns a CriterionOutcome with the measured
error, its tolerance, and pass/fail; ``timed`` runs one and records its
wall time.  ``run_all`` times the whole suite for the CLI ``accept``
subcommand, and the acceptance tests time each criterion alike.
Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import profiles, schwartz, transform as tr
from .cfunction import asymptotic_c_oracle, c_function
from .groups import preset
from .spherical import phi
from .transform import SpectralDecay, SpectralFunction, default_spectral_grid

__all__ = ["CriterionOutcome", "run_all", "timed", "CRITERIA"]


@dataclass
class CriterionOutcome:
    name: str
    passed: bool
    measured: float
    tolerance: float
    runtime: float = 0.0  # seconds, set by ``timed``
    detail: str = ""

    def __post_init__(self):
        # criteria compare numpy values; json and dataclasses.asdict need a bool
        self.passed = bool(self.passed)

    def row(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<38} {flag}  measured={self.measured:.3e}  "
            f"tol={self.tolerance:.3e}  ({self.runtime:.1f}s)  {self.detail}"
        )


# the five inversion symbols (all Weyl-even, rapidly decaying)
INVERSION_SYMBOLS = {
    "exp(-x^2)": lambda x: np.exp(-(x**2)),
    "x^2 exp(-x^2)": lambda x: x**2 * np.exp(-(x**2)),
    "exp(-x^2/4)": lambda x: np.exp(-(x**2) / 4.0),
    "(1+x^2) exp(-x^2)": lambda x: (1.0 + x**2) * np.exp(-(x**2)),
    "exp(-x^4/8)": lambda x: np.exp(-(x**4) / 8.0),
}

# flat-top symbols used for the expansion ladder (small mollifier bias)
EXPANSION_SCALES = (2.8, 3.2, 4.0)


def flat_top(s: float):
    """The flat-top symbol exp(-(x/s)^4)."""
    return lambda x: np.exp(-((x / s) ** 4))


_SYMBOL_POWER = 8.0


def make_symbol(fn, label: str) -> SpectralFunction:
    """Sample a symbol on the default grid with a measured decay envelope."""
    grid = default_spectral_grid()
    values = np.asarray(fn(grid))
    coeff = 1.1 * float(np.max(np.abs(values) * (1.0 + np.abs(grid)) ** _SYMBOL_POWER))
    decay = SpectralDecay(coeff=coeff + 1e-300, power=_SYMBOL_POWER)
    return SpectralFunction.from_function(fn, grid, decay, label=label)


# spectral functions outside the image: Weyl-odd, slowly decaying, not smooth
COUNTEREXAMPLES = {
    "odd": (lambda x: x * np.exp(-(x**2)), SpectralDecay(270.0, 8.0)),
    "slow": (lambda x: 1.0 / (1.0 + x**2), SpectralDecay(2.0, 2.0)),
    "rough": (lambda x: np.exp(-np.abs(x)), SpectralDecay(13.0, 4.0)),
}


def counterexample(name: str, grid: np.ndarray) -> SpectralFunction:
    """The counterexample ``name`` sampled on ``grid``."""
    fn, decay = COUNTEREXAMPLES[name]
    return SpectralFunction(grid, fn(grid), decay, label=name)


def _inversion(preset_name: str, tol_factor: float) -> CriterionOutcome:
    G = preset(preset_name)
    out_grid = np.linspace(-6.0, 6.0, 241)
    worst = 0.0
    worst_tol = tol_factor
    worst_ratio = -1.0
    detail = []
    passed = True
    for label, fn in INVERSION_SYMBOLS.items():
        a = make_symbol(fn, label)
        psi = tr.wave_packet(G, a)
        res = tr.hc_transform(G, psi, out_grid)
        err = float(np.max(np.abs(res.spectral.values - fn(out_grid))))
        tol = tol_factor * (1.0 + float(np.max(np.abs(fn(out_grid)))))
        passed &= err <= tol
        if err / tol > worst_ratio:
            worst, worst_tol, worst_ratio = err, tol, err / tol
        detail.append(f"{label}:{err:.1e}")
    return CriterionOutcome(
        name=f"A1 inversion ({preset_name})",
        passed=passed,
        measured=worst,
        tolerance=worst_tol,
        detail=" ".join(detail),
    )


def a1_inversion_sl2r() -> CriterionOutcome:
    return _inversion("SL2R", 1e-6)


def a1_inversion_h3() -> CriterionOutcome:
    return _inversion("H3", 1e-5)


def a2_plancherel() -> CriterionOutcome:
    G = preset("SL2R")
    names = ["exp(-x^2)", "x^2 exp(-x^2)", "exp(-x^2/4)"]
    packs = {}
    hats = {}
    for n in names:
        a = make_symbol(INVERSION_SYMBOLS[n], n)
        packs[n] = tr.wave_packet(G, a)
        hats[n] = tr.hc_transform(G, packs[n]).spectral
    worst = 0.0
    passed = True
    for na in names:
        for nb in names:
            pair = tr.plancherel_pairing(G, hats[na], hats[nb])
            conv = tr.convolve_at_identity(G, packs[na], packs[nb])
            rel = abs(pair - conv) / (1.0 + abs(conv))
            worst = max(worst, rel)
            passed &= rel <= 1e-5
    return CriterionOutcome(
        name="A2 Plancherel pairing (SL2R 3x3)",
        passed=passed,
        measured=worst,
        tolerance=1e-5,
    )


def a3_weyl() -> CriterionOutcome:
    defect = 0.0
    for preset_name in ("SL2R", "H3"):
        G = preset(preset_name)
        for label in ("exp(-x^2)", "x^2 exp(-x^2)", "exp(-x^4/8)"):
            psi = tr.wave_packet(G, make_symbol(INVERSION_SYMBOLS[label], label))
            res = tr.hc_transform(G, psi)
            defect = max(defect, schwartz.weyl_symmetry_defect(res.spectral))
    G = preset("SL2R")
    lam_grid = np.linspace(0.25, 9.75, 20)
    t_grid = np.linspace(0.05, 6.0, 20)
    phi_defect = float(np.max(np.abs(phi(G, lam_grid, t_grid) - phi(G, -lam_grid, t_grid))))
    passed = defect <= 1e-10 and phi_defect <= 1e-11
    return CriterionOutcome(
        name="A3 Weyl functional equation",
        passed=passed,
        measured=max(defect, phi_defect),
        tolerance=1e-10,
        detail=f"transform defect {defect:.1e}, phi defect {phi_defect:.1e}",
    )


def a4_casimir() -> CriterionOutcome:
    G = preset("SL2R")
    a = make_symbol(INVERSION_SYMBOLS["exp(-x^2)"], "gauss")
    psi = tr.wave_packet(G, a)
    multiplied = tr.spectral_multiplier(a, lambda x: -(x**2 + G.rho**2), degree=2)
    psi_m = tr.wave_packet(G, multiplied)
    ts = np.linspace(0.5, 5.0, 46)
    lhs = tr.casimir_radial(G, psi, ts)
    rhs = psi_m(ts)
    sup = float(np.max(np.abs(rhs)))
    err = float(np.max(np.abs(lhs - rhs)))
    tol = 1e-5 * (1.0 + sup)
    return CriterionOutcome(
        name="A4 Casimir homomorphism",
        passed=err <= tol,
        measured=err,
        tolerance=tol,
    )


def a5_expansion() -> CriterionOutcome:
    G = preset("SL2R")
    passed = True
    worst_final = 0.0
    detail = []
    for s in EXPANSION_SCALES:
        a = make_symbol(flat_top(s), f"flat4({s})")
        psi = tr.wave_packet(G, a)
        hf = tr.hc_transform(G, psi).spectral
        for lam in (0.5, 1.0, 2.0):
            ref = complex(hf(np.array([lam]))[0])
            errs = []
            for eps in (0.4, 0.2, 0.1):
                total = tr.expansion_term(G, "split", psi, lam, eps) + tr.expansion_term(
                    G, "compact", psi, lam, eps
                )
                errs.append(abs(total - ref))
            ladder_ok = errs[0] > errs[1] > errs[2] and errs[2] < 5e-3
            passed &= ladder_ok
            worst_final = max(worst_final, errs[2])
            if not ladder_ok:
                detail.append(f"s={s},lam={lam}:{errs}")
    return CriterionOutcome(
        name="A5 expansion convergence",
        passed=passed,
        measured=worst_final,
        tolerance=5e-3,
        detail=" ".join(detail),
    )


def a6_stability() -> CriterionOutcome:
    G = preset("SL2R")
    base = make_symbol(INVERSION_SYMBOLS["x^2 exp(-x^2)"], "base")
    psi0 = tr.wave_packet(G, base)
    ts = np.linspace(0.0, 8.0, 81)
    ref = psi0(ts)
    worst_ratio = 0.0
    for delta in (1e-2, 1e-4):
        pert = make_symbol(
            lambda x, d=delta: x**2 * np.exp(-(x**2)) + d * np.exp(-(x**2)),
            "perturbed",
        )
        sup = float(np.max(np.abs(tr.wave_packet(G, pert)(ts) - ref)))
        worst_ratio = max(worst_ratio, sup / delta)
    return CriterionOutcome(
        name="A6 stability (perturbation gain)",
        passed=worst_ratio <= 10.0,
        measured=worst_ratio,
        tolerance=10.0,
    )


def a7_c_oracle() -> CriterionOutcome:
    worst = 0.0
    passed = True
    for name, T in (("SL2R", 25.0), ("H3", 12.0)):
        G = preset(name)
        for lam in (0.5, 1.0, 2.0, 4.0):
            fit = asymptotic_c_oracle(G, lam, T)
            ref = c_function(G, lam)
            rel = abs(fit.c_plus - ref) / abs(ref)
            worst = max(worst, rel)
            passed &= rel <= 1e-4
    return CriterionOutcome(
        name="A7 c-function cross-validation",
        passed=passed,
        measured=worst,
        tolerance=1e-4,
    )


def a8_eigenfunction_identity() -> CriterionOutcome:
    G = preset("SL2R")
    family = [
        profiles.gaussian_profile(G, width=1.0),
        profiles.gaussian_profile(G, width=0.6, scale=0.8),
        profiles.cosh_profile(G),
    ]
    grid = default_spectral_grid()
    worst = 0.0
    passed = True
    for f in family:
        res = tr.hc_transform(G, f)
        for lam in (0.7, 1.5, 3.0):
            k = int(np.argmin(np.abs(grid - lam)))
            direct = tr.hc_transform_at(G, f, grid[k])
            err = abs(direct - res.spectral.values[k])
            tol = 1e-8 * (1.0 + abs(direct))
            worst = max(worst, err)
            passed &= err <= tol
    return CriterionOutcome(
        name="A8 eigenfunction/transform identity",
        passed=passed,
        measured=worst,
        tolerance=1e-8,
    )


def a9_membership() -> CriterionOutcome:
    G = preset("SL2R")
    passed = True
    detail = []
    shipped = {label: tr.wave_packet(G, make_symbol(fn, label))
               for label, fn in INVERSION_SYMBOLS.items()}
    shipped["gaussian profile"] = profiles.gaussian_profile(G)
    shipped["cosh profile"] = profiles.cosh_profile(G)
    for label, f in shipped.items():
        hf = tr.hc_transform(G, f).spectral
        rep = schwartz.image_membership(G, hf)
        passed &= rep.passed
        if not rep.passed:
            detail.append(f"unexpected fail on {label}")
    for label in COUNTEREXAMPLES:
        rep = schwartz.image_membership(G, counterexample(label, default_spectral_grid()))
        passed &= not rep.passed
        if rep.passed:
            detail.append(f"counterexample {label} passed unexpectedly")
    return CriterionOutcome(
        name="A9 image membership suite",
        passed=passed,
        measured=0.0 if passed else 1.0,
        tolerance=0.0,
        detail=" ".join(detail),
    )


CRITERIA = (
    a1_inversion_sl2r,
    a1_inversion_h3,
    a2_plancherel,
    a3_weyl,
    a4_casimir,
    a5_expansion,
    a6_stability,
    a7_c_oracle,
    a8_eigenfunction_identity,
    a9_membership,
)


def timed(criterion) -> CriterionOutcome:
    """Run one criterion and record its wall time in the outcome's ``runtime``."""
    t0 = time.time()
    outcome = criterion()
    outcome.runtime = time.time() - t0
    return outcome


def run_all(echo=print) -> list[CriterionOutcome]:
    outcomes = []
    for criterion in CRITERIA:
        outcome = timed(criterion)
        outcomes.append(outcome)
        if echo is not None:
            echo(outcome.row())
    return outcomes
