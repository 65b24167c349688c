"""Schwartz-class diagnostics: seminorms, Weyl defect, image membership,
and evaluation of the transform on a spectral tube.

The seminorm estimator realizes sup_t |f^(k)(t)| Xi(t)^-1 (1+t)^r over a
log-dense radial grid with saturation tracking: when the supremum sits
at the far end of the grid the window is extended (up to a cap) and the
report flags the boundary saturation that remains.  Derivatives are
reduced to radial ones of order <= 2, which is what the radial Casimir
needs.  The tube check probes the forward transform at lam = x + i y for
|y| <= half_width = epsilon * rho, the symmetric spectral tube degenerating
to the real axis at epsilon = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, GridContractError
from .groups import GroupDatum, _real_scalar
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


def schwartz_seminorm(
    G: GroupDatum, f: RadialProfile, r: float, k: int = 0
) -> SeminormReport:
    """Estimate sup_t |f^(k)(t)| Xi(t)^(-1) (1 + t)^r on [0, T].

    Starts from T = 40 and extends by 25% steps (cap 60) while the argmax
    saturates the boundary; a report that still saturates is flagged.
    """
    _real_scalar(r, "schwartz_seminorm", "r")
    if not 0.0 <= r < math.inf:  # NaN fails too
        raise DomainError(f"polynomial weight exponent r must be finite and >= 0, got r = {r!r}")
    if isinstance(k, bool) or k not in (0, 1, 2):
        raise DomainError(f"derivative order k must be 0, 1 or 2, got k = {k!r}")
    t_max = _T_MAX_DEFAULT
    while True:
        ts = np.concatenate([[0.0], np.geomspace(1e-3, t_max, 419)])  # 420 points, log-dense
        samples = np.abs(np.asarray(f.deriv(ts, k), dtype=complex))
        if not np.all(np.isfinite(samples)):
            bad = int(np.argmax(~np.isfinite(samples)))
            raise EvaluationError(
                f"non-finite seminorm sample at t = {ts[bad]} for {f.label!r}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # past float range: named below
            vals = samples * ((1.0 + ts) ** r / xi(G, ts))
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise DomainError(f"seminorm weight (1 + t)^r / Xi(t) leaves float range at "
                              f"t = {ts[bad]} for r = {r!r}")
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

# the membership budget: Weyl defect, sup (1+|lam|)^N |A| for each N, and the
# largest divided difference up to the smoothness order
_WEYL_TOL = 1e-8
_DECAY_POWERS = (2, 4, 6)
_DECAY_BOUND = 1e3
_SMOOTH_ORDER = 4
_SMOOTH_BOUND = 50.0


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
    """(dd, starts): the divided differences of ``values`` on ``grid`` of orders 1 to ``order``
    back to back in ``dd``, order j's from ``starts[j - 1]`` on, its i-th on grid[i:i + j + 1]."""
    n, starts = len(grid), [0]
    dd = np.empty(order * n - order * (order + 1) // 2, dtype=complex)
    for j in range(1, order + 1):
        values = np.divide(values[1:] - values[:-1], grid[j:] - grid[:n - j],
                           out=dd[starts[-1]:starts[-1] + n - j])
        starts.append(starts[-1] + n - j)
    return dd, starts[:-1]


@np.errstate(invalid="ignore", over="ignore")  # a non-finite entry fails, with no warning
def image_membership(G: GroupDatum, A: SpectralFunction) -> MembershipReport:
    """Diagnostic membership test for the transform image algebra.

    Checks (i) Weyl evenness, (ii) rapid decay through polynomially
    weighted sups, (iii) a smoothness proxy through divided differences
    up to order 4, which fails at the first NaN difference.  Pure diagnostic: never raises
    or warns on failure, infinite entries included, but a grid of fewer than 5 points,
    which has no differences of order 4, raises GridContractError.
    """
    if len(A.grid) <= _SMOOTH_ORDER:
        raise GridContractError(f"image membership's divided differences of order {_SMOOTH_ORDER} "
                                f"need {_SMOOTH_ORDER + 1} grid points; the grid has {len(A.grid)}")
    _require_symmetric(A.grid, "image_membership needs a symmetric grid")
    odd = np.abs(A.values - A.values[::-1])
    k = int(odd.argmax())  # the first NaN, if there is one
    defect = float(odd[k])
    weyl = CriterionResult(defect <= _WEYL_TOL, defect, float(A.grid[k]))

    decay = {}
    mags, base = np.abs(A.values), 1.0 + np.abs(A.grid)
    for N in _DECAY_POWERS:
        weighted = mags * base ** N
        j = int(weighted.argmax())
        decay[N] = CriterionResult(
            float(weighted[j]) <= _DECAY_BOUND, float(weighted[j]), float(A.grid[j])
        )

    # the largest modulus, of the lowest order and point at a tie, or the first NaN; its
    # witness is the difference's lowest grid point, 0 when every difference is 0
    dd, starts = _divided_differences(A.grid, A.values, _SMOOTH_ORDER)
    mags = np.abs(dd)
    p = int(mags.argmax())
    worst = float(mags[p])
    worst_at = float(A.grid[p - max(s for s in starts if s <= p)]) if worst != 0.0 else 0.0
    smooth = CriterionResult(worst <= _SMOOTH_BOUND, worst, worst_at)

    passed = weyl.passed and smooth.passed and all(c.passed for c in decay.values())
    return MembershipReport(weyl=weyl, decay=decay, smoothness=smooth, passed=passed)


# ---------------------------------------------------------------------------
# tube evaluation (spectral strip |Im lam| <= half_width)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeSpec:
    """Symmetric spectral tube |Im lam| <= half_width."""

    half_width: float

    def __post_init__(self):
        _real_scalar(self.half_width, "TubeSpec", "half_width")
        if not (0.0 <= self.half_width < math.inf):
            raise DomainError(f"tube half_width must be finite and >= 0, got {self.half_width}")

    @classmethod
    def for_group(cls, G: GroupDatum, epsilon: float) -> "TubeSpec":
        """The tube of half_width = epsilon * rho, epsilon in [0, 1]."""
        _real_scalar(epsilon, "TubeSpec.for_group", "epsilon")
        if not (0.0 <= epsilon <= 1.0):  # NaN fails
            raise DomainError(f"tube epsilon must lie in [0, 1], got {epsilon!r}")
        return cls(half_width=epsilon * G.rho)


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
) -> TubeReport:
    """Evaluate Hf on the grid x = -3, -2, ..., 3 of the spectral tube and sanity-check it.

    Requires decay strictly stronger than e^{-(rho + half_width) t} (1+t)^-2 so
    every strip integral converges absolutely.  The row y = 0 is the
    forward transform on the real grid; with half_width = 0 it is the only row.
    The off-axis points are one :func:`hc_transform_at` call on one panel
    tree, each point to its own tolerance.
    """
    _require_schwartz(f, G.rho + tube.half_width, "tube-check profile")
    axis = hc_transform(G, f, np.linspace(-3.0, 3.0, 7), q)
    xs = axis.spectral.grid
    steps = [0.0] if tube.half_width == 0.0 else [-1.0, -0.5, 0.0, 0.5, 1.0]
    ys = np.array(steps) * tube.half_width
    off = ys != 0.0
    values = np.empty((len(ys), len(xs)), dtype=complex)
    values[~off] = axis.spectral.values
    lams = (xs[None, :] + 1j * ys[off, None]).ravel()
    values[off] = hc_transform_at(G, f, lams, q).reshape(-1, len(xs))
    return TubeReport(
        xs=xs,
        ys=ys,
        values=values,
        max_modulus=float(np.abs(values).max()),
        finite=bool(np.isfinite(values).all()),
        conjugation_defect=float(np.abs(values - values[::-1].conj()).max()),
    )
