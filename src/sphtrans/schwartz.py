"""Schwartz-class diagnostics: seminorms, Weyl defect, image membership,
and evaluation of the transform on a spectral tube.

The seminorm estimator realizes sup_t |f^(k)(t)| Xi(t)^-1 (1+t)^r over a
log-dense radial grid with saturation tracking: when the supremum sits
at the far end of the grid the window is extended (up to a cap) and the
report flags the boundary saturation that remains.  Derivatives are
reduced to radial ones of order <= 2, which is what the radial Casimir
needs.  The tube check probes the forward transform at lam = x + i y for
|y| <= epsilon * rho, the symmetric spectral tube degenerating to the
real axis at epsilon = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .groups import GroupDatum
from .specfun import DEFAULT_QUAD, QuadratureSpec
from .spherical import RadialProfile, xi
from .transform import (
    SpectralFunction,
    _require_schwartz,
    _require_symmetric,
    hc_transform,
    hc_transform_at,
)

__all__ = [
    "SeminormReport",
    "TubeSpec",
    "MembershipBudget",
    "MembershipReport",
    "TubeReport",
    "schwartz_seminorm",
    "weyl_symmetry_defect",
    "image_membership",
    "tube_extension_check",
]

_T_MAX_DEFAULT = 40.0
_T_MAX_CAP = 60.0


@dataclass(frozen=True)
class SeminormReport:
    r: float
    deriv_order: int
    value: float
    grid_spec: tuple[float, int]  # (t_max actually scanned, number of points)
    saturated_at: float
    boundary_saturated: bool


def _log_dense_grid(t_max: float, n: int = 420) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-3, t_max, n - 1)])


def schwartz_seminorm(
    G: GroupDatum, f: RadialProfile, r: float, k: int = 0
) -> SeminormReport:
    """Estimate sup_t |f^(k)(t)| Xi(t)^(-1) (1 + t)^r on [0, T].

    Starts from T = 40 and extends by 25% steps (cap 60) while the argmax
    saturates the boundary; a report that still saturates is flagged.
    """
    if r < 0:
        raise DomainError("polynomial weight exponent r must be >= 0")
    if k not in (0, 1, 2):
        raise DomainError("derivative order k must be 0, 1 or 2")
    t_max = _T_MAX_DEFAULT
    while True:
        ts = _log_dense_grid(t_max)
        samples = np.abs(np.asarray(f.deriv(ts, k), dtype=complex))
        weight = (1.0 + ts) ** r / xi(G, ts)
        vals = samples * weight
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise EvaluationError(
                f"non-finite seminorm sample at t = {ts[bad]} for {f.label!r}"
            )
        arg = int(np.argmax(vals))
        boundary = ts[arg] > 0.95 * t_max
        if boundary and t_max < _T_MAX_CAP:
            t_max = min(_T_MAX_CAP, 1.25 * t_max)
            continue
        return SeminormReport(
            r=float(r),
            deriv_order=k,
            value=float(vals[arg]),
            grid_spec=(t_max, len(ts)),
            saturated_at=float(ts[arg]),
            boundary_saturated=bool(boundary),
        )


def weyl_symmetry_defect(A: SpectralFunction) -> float:
    """sup over the grid of |A(lam) - A(-lam)|; the grid must be symmetric."""
    _require_symmetric(A.grid, "weyl_symmetry_defect needs a symmetric grid")
    return A.weyl_defect()


# ---------------------------------------------------------------------------
# image membership (the transform-side Schwartz test)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipBudget:
    weyl_tol: float = 1e-8
    decay_powers: tuple[int, ...] = (2, 4, 6)
    decay_bound: float = 1e3
    smooth_order: int = 4
    smooth_bound: float = 50.0


@dataclass(frozen=True)
class CriterionResult:
    passed: bool
    value: float
    witness: float  # grid location where the criterion is tightest


@dataclass(frozen=True)
class MembershipReport:
    weyl: CriterionResult
    decay: dict
    smoothness: CriterionResult
    passed: bool


def _divided_differences(grid: np.ndarray, values: np.ndarray, order: int):
    dd = values.astype(complex)
    for j in range(1, order + 1):
        dd = (dd[1:] - dd[:-1]) / (grid[j:] - grid[: len(grid) - j])
        yield j, dd


def image_membership(
    G: GroupDatum, A: SpectralFunction, budget: MembershipBudget = MembershipBudget()
) -> MembershipReport:
    """Diagnostic membership test for the transform image algebra.

    Checks (i) Weyl evenness, (ii) rapid decay through polynomially
    weighted sups, (iii) a smoothness proxy through divided differences
    up to order 4.  Pure diagnostic: never raises on failure.
    """
    defect = weyl_symmetry_defect(A)
    k = int(np.argmax(np.abs(A.values - A.values[::-1])))
    weyl = CriterionResult(defect <= budget.weyl_tol, defect, float(A.grid[k]))

    decay = {}
    for N in budget.decay_powers:
        weighted = np.abs(A.values) * (1.0 + np.abs(A.grid)) ** N
        j = int(np.argmax(weighted))
        decay[N] = CriterionResult(
            float(weighted[j]) <= budget.decay_bound, float(weighted[j]), float(A.grid[j])
        )

    worst = 0.0
    worst_at = 0.0
    for order, dd in _divided_differences(A.grid, A.values, budget.smooth_order):
        mags = np.abs(dd)
        j = int(np.argmax(mags))
        if mags[j] > worst:
            worst = float(mags[j])
            worst_at = float(A.grid[j])
    smooth = CriterionResult(worst <= budget.smooth_bound, worst, worst_at)

    passed = weyl.passed and smooth.passed and all(c.passed for c in decay.values())
    return MembershipReport(weyl=weyl, decay=decay, smoothness=smooth, passed=passed)


# ---------------------------------------------------------------------------
# tube evaluation (spectral strip |Im lam| <= epsilon * rho)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeSpec:
    """Symmetric spectral tube |Im lam| <= half_width = epsilon * rho."""

    epsilon: float
    half_width: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise DomainError("tube epsilon must lie in [0, 1]")
        if self.half_width < 0:
            raise DomainError("tube half_width must be >= 0")

    @classmethod
    def for_group(cls, G: GroupDatum, epsilon: float) -> "TubeSpec":
        return cls(epsilon=epsilon, half_width=epsilon * G.rho)


@dataclass(frozen=True)
class TubeReport:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # shape (len(ys), len(xs))
    max_modulus: float
    finite: bool
    conjugation_defect: float  # max |H f(x - iy) - conj(H f(x + iy))|


def tube_extension_check(
    G: GroupDatum,
    f: RadialProfile,
    tube: TubeSpec,
    q: QuadratureSpec = DEFAULT_QUAD,
    xs: np.ndarray | None = None,
) -> TubeReport:
    """Evaluate Hf on a small grid of the spectral tube and sanity-check it.

    Requires decay strictly stronger than e^{-(1+eps) rho t} (1+t)^-2 so
    every strip integral converges absolutely.  The row y = 0 is the
    forward transform on the real grid; with epsilon = 0 it is the only row.
    """
    _require_schwartz(f, (1.0 + tube.epsilon) * G.rho, "tube-check profile")
    if xs is None:
        xs = np.linspace(-3.0, 3.0, 7)
    xs = np.asarray(xs, dtype=float)
    _require_symmetric(xs, "tube grid must be symmetric in x")
    axis = hc_transform(G, f, xs, q)
    steps = [0.0] if tube.half_width == 0.0 else [-1.0, -0.5, 0.0, 0.5, 1.0]
    ys = np.array(steps) * tube.half_width
    values = np.empty((len(ys), len(xs)), dtype=complex)
    for i, y in enumerate(ys):
        if y == 0.0:
            values[i] = axis.spectral.values
        else:
            values[i] = [hc_transform_at(G, f, complex(x, y), q) for x in xs]
    return TubeReport(
        xs=xs,
        ys=ys,
        values=values,
        max_modulus=float(np.max(np.abs(values))),
        finite=bool(np.all(np.isfinite(values))),
        conjugation_defect=float(np.max(np.abs(values - np.conj(values[::-1])))),
    )
