"""Deterministic quadrature.

Integration is adaptive composite Gauss-Legendre on intervals,
with an explicit decay-driven truncation rule for half-line integrals.
Nothing here is randomized, so downstream tolerances are stable run over run.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureSpec",
    "ExpDecay",
    "integrate_interval",
    "truncation_point",
    "gauss_legendre_rule",
    "composite_gl_nodes",
]


# ---------------------------------------------------------------------------
# quadrature policy types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecay:
    """Envelope bound |f(t)| <= coeff * (1+t)^degree * exp(-rate * t).

    ``degree`` may be negative; ``rate`` must be positive for half-line
    truncation to make sense.
    """

    coeff: float
    rate: float
    degree: int = 0

    def bound(self, t):
        t = np.asarray(t, dtype=float)
        return self.coeff * (1.0 + t) ** self.degree * np.exp(-self.rate * t)

    def tail_integral(self, T: float) -> float:
        """Upper bound for the integral of the envelope over [T, oo)."""
        if self.rate <= 0:
            return math.inf
        if self.degree <= 0:
            return self.coeff * (1.0 + T) ** self.degree * math.exp(-self.rate * T) / self.rate
        # integrate (1+t)^d e^{-rt} exactly for integer d > 0
        total = 0.0
        term = 1.0 / self.rate
        for j in range(self.degree + 1):
            total += term * (1.0 + T) ** (self.degree - j)
            term *= (self.degree - j) / self.rate
        return self.coeff * math.exp(-self.rate * T) * total

    def stronger_than(self, other: "ExpDecay") -> bool:
        """True when this envelope decays strictly faster than ``other``."""
        if self.rate > other.rate:
            return True
        return self.rate == other.rate and self.degree < other.degree


def truncation_point(decay: ExpDecay, abs_tol: float) -> float:
    """Smallest T (within a factor) with tail_integral(T) <= abs_tol / 4."""
    if decay.rate <= 0:
        raise DomainError("half-line truncation needs a positive decay rate")
    target = max(abs_tol, 1e-300) / 4.0
    T = max(1.0, 5.0 / decay.rate)
    while decay.tail_integral(T) > target:
        T *= 1.5
        if T > 1e6:
            raise DomainError("truncation point exceeds 1e6; decay hint too weak")
    return T


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget policy for every integral in the package.

    Half-line integrals stop at :func:`truncation_point` of their decay
    envelope and ``abs_tol``.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 4096

    def __post_init__(self):
        # written so that NaN fails: a NaN tolerance would pass every error check
        if not 1e-14 <= self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and at least 1e-14, got {self.rel_tol}")
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (0 < self.max_subdivisions <= 2**20):
            raise DomainError("max_subdivisions must lie in (0, 2^20]")

    def tolerance(self, value_scale):
        """max(abs_tol, rel_tol |value_scale|), elementwise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * abs(value_scale))


DEFAULT_QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def composite_gl_nodes(lo: float, hi: float, n_panels: int, order: int):
    """Nodes and weights of a composite GL rule with equal panels on [lo, hi], and
    their panel split (mid, offsets): node P * order + j is mid[P] + offsets[j]."""
    x, w = gauss_legendre_rule(order)
    half = 0.5 * (hi - lo) / n_panels
    mid = lo + half * np.arange(1.0, 2.0 * n_panels, 2.0)
    return (mid[:, None] + half * x).ravel(), np.tile(half * w, n_panels), (mid, half * x)


# the first estimate of integrate_interval is on this many equal panels, in one call
_START_PANELS = 4
# bounds below half the largest float keep every panel sum a + b finite
_MAX_BOUND = 0.5 * np.finfo(float).max


def _panel_estimates(f, edges) -> list:
    """(coarse, fine) GL estimates of the integral of f over each panel between
    consecutive ``edges``, one per component when f returns an (n_comp, n_t)
    array; f is called once, on the 15 coarse nodes and then the 31 fine ones
    of each panel in turn."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x1, w1 = gauss_legendre_rule(15)
    x2, w2 = gauss_legendre_rule(31)
    values = np.asarray(f((mid[:, None] + half[:, None] * np.concatenate([x1, x2])).ravel()))
    if not np.all(np.isfinite(values)):
        raise DomainError(f"integrand returned non-finite values on [{edges[0]}, {edges[-1]}]")
    values = values.reshape(values.shape[:-1] + (len(half), -1))
    coarse = half * np.sum(w1 * values[..., :15], axis=-1)
    fine = half * np.sum(w2 * values[..., 15:], axis=-1)
    return [(coarse[..., i], fine[..., i]) for i in range(len(half))]


def integrate_interval(f, lo: float, hi: float, q: QuadratureSpec = DEFAULT_QUAD):
    """Adaptive composite Gauss-Legendre on [lo, hi], for one integrand or a vector
    of them on one panel tree.

    ``f`` maps an ndarray ``t`` of shape (n_t,) to values of shape (n_t,) or
    (n_comp, n_t).  Returns (value, err_est), scalars or arrays of shape
    (n_comp,), with err_est_k <= max(abs_tol, rel_tol*|value_k|) for every
    component k; raises AccuracyError with the partial values attached
    when the subdivision budget runs out.  The panel split next is the one
    with the worst err_k / s_k, where s_k is the tolerance of component k's
    first estimate; a scalar integrand is the one-component case.  ``f`` is
    called once on the nodes of _START_PANELS equal panels of [lo, hi], which
    give that first estimate, and once per split, on the nodes of both halves.
    """
    lo = float(lo)
    hi = float(hi)
    # a panel sum a + b near a bound must stay finite; NaN fails the test too
    if not (abs(lo) < _MAX_BOUND and abs(hi) < _MAX_BOUND):
        raise DomainError(f"need finite bounds below {_MAX_BOUND:.4g} in magnitude, "
                          f"got lo = {lo!r}, hi = {hi!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got lo = {lo!r}, hi = {hi!r}")
    edges = np.linspace(lo, hi, _START_PANELS + 1).tolist()
    estimates = _panel_estimates(f, edges)
    scale = q.tolerance(sum(fine for _, fine in estimates))

    def panel(a, b, coarse, fine):
        # builtin abs: on a numpy scalar it is the scalar hypot, from which the
        # array ufunc np.abs can differ in the last bit
        err = abs(fine - coarse)
        # rounding ties of the worst ratio break on the worst error, so a scalar
        # integrand splits in the order of its errors, then on the interval
        return (-np.max(err / scale), -np.max(err), a, b, fine, err)

    heap = [panel(a, b, *est) for a, b, est in zip(edges[:-1], edges[1:], estimates)]
    heapq.heapify(heap)
    # running totals steer; near a decision, or once some err_k fell 1000-fold
    # (to keep their drift relative), the heap sums replace them and decide
    total = sum(item[4] for item in heap)
    err = sum(item[5] for item in heap)
    synced, n_splits = err, 0
    while True:
        done = n_splits >= q.max_subdivisions
        if (done or np.all(err <= 1.01 * q.tolerance(total))
                or np.any(err < 1e-3 * synced)):
            total = sum(item[4] for item in heap)
            err = synced = sum(item[5] for item in heap)
            if np.all(err <= q.tolerance(total)):
                return total, err
            if done:
                raise AccuracyError(
                    f"subdivision budget {q.max_subdivisions} exhausted "
                    f"(value ~{total}, err_est ~{np.max(err):.3e})",
                    value=total,
                    err_est=err,
                )
        _, _, a, b, value, value_err = heapq.heappop(heap)
        total, err = total - value, err - value_err
        m = 0.5 * (a + b)
        for lo_p, hi_p, estimates in zip((a, m), (m, b), _panel_estimates(f, (a, m, b))):
            item = panel(lo_p, hi_p, *estimates)
            heapq.heappush(heap, item)
            total, err = total + item[4], err + item[5]
        n_splits += 1
