"""Complex log-Gamma and deterministic quadrature.

Complex log-Gamma is scipy's ``loggamma`` with this package's typed
errors.  Integration is adaptive composite Gauss-Legendre on intervals,
with an explicit decay-driven truncation rule for half-line integrals.
Nothing here is randomized, so downstream tolerances are stable run over run.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import loggamma

from .errors import AccuracyError, DomainError, PoleError

__all__ = [
    "QuadratureSpec",
    "ExpDecay",
    "log_gamma",
    "integrate_interval",
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


def _default_truncation(decay: ExpDecay, abs_tol: float) -> float:
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
    """Tolerance and budget policy for every integral in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 4096
    truncation_policy: Callable[[ExpDecay, float], float] = field(
        default=_default_truncation, repr=False
    )

    def __post_init__(self):
        if self.rel_tol < 1e-14:
            raise DomainError("rel_tol below 1e-14 is not supported")
        if self.abs_tol <= 0:
            raise DomainError("abs_tol must be positive")
        if not (0 < self.max_subdivisions <= 2**20):
            raise DomainError("max_subdivisions must lie in (0, 2^20]")

    def tolerance(self, value_scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value_scale))


DEFAULT_QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# complex log-Gamma: scipy.special.loggamma with typed errors
# ---------------------------------------------------------------------------

def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z) for complex z (``scipy.special.loggamma``).

    Raises DomainError for non-finite z and PoleError at nonpositive
    integers; exp(log_gamma) is within 1e-13 relative of Gamma on the
    strips used by the c-function.  :func:`sphtrans.spherical.c_log`
    calls ``loggamma`` on whole arrays.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma requires finite z, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"log_gamma pole at z = {int(z.real)}", pole=int(z.real))
    return complex(loggamma(z))


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def composite_gl_nodes(lo: float, hi: float, n_panels: int, order: int):
    """Nodes and weights of a composite GL rule with equal panels on [lo, hi]."""
    x, w = gauss_legendre_rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panel_estimates(f, lo: float, hi: float):
    """(coarse, fine) GL estimates of the integral of f over one panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x1, w1 = gauss_legendre_rule(15)
    x2, w2 = gauss_legendre_rule(31)
    f1 = np.asarray(f(mid + half * x1))
    f2 = np.asarray(f(mid + half * x2))
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        raise DomainError(f"integrand returned non-finite values on [{lo}, {hi}]")
    return half * np.sum(w1 * f1), half * np.sum(w2 * f2)


def integrate_interval(f, lo: float, hi: float, q: QuadratureSpec = DEFAULT_QUAD):
    """Adaptive composite Gauss-Legendre on [lo, hi].

    ``f`` must accept ndarray arguments.  Returns (value, err_est) with
    err_est <= max(abs_tol, rel_tol*|value|); raises AccuracyError with
    the partial value attached when the subdivision budget runs out.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    coarse, fine = _panel_estimates(f, lo, hi)
    # heap of (-error, left, right, fine_value); tie-break on the interval
    heap = [(-abs(fine - coarse), lo, hi, fine)]
    # running totals steer; near a decision, or once err fell 1000-fold (to
    # keep their drift relative), the heap sums replace them and decide
    total, err = fine, abs(fine - coarse)
    synced, n_splits = err, 0
    while True:
        done = n_splits >= q.max_subdivisions
        if done or err <= 1.01 * q.tolerance(abs(total)) or err < 1e-3 * synced:
            total = sum(item[3] for item in heap)
            err = synced = sum(-item[0] for item in heap)
            if err <= q.tolerance(abs(total)):
                return total, err
            if done:
                raise AccuracyError(
                    f"subdivision budget {q.max_subdivisions} exhausted "
                    f"(value ~{total}, err_est ~{err:.3e})",
                    value=total,
                    err_est=err,
                )
        neg_err, a, b, value = heapq.heappop(heap)
        total, err = total - value, err + neg_err
        m = 0.5 * (a + b)
        for panel in ((a, m), (m, b)):
            c_est, f_est = _panel_estimates(f, *panel)
            heapq.heappush(heap, (-abs(f_est - c_est), panel[0], panel[1], f_est))
            total, err = total + f_est, err + abs(f_est - c_est)
        n_splits += 1
