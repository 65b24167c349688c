"""Deterministic quadrature.

Integration is adaptive composite Gauss-Kronrod K31 on intervals, with an
explicit decay-driven truncation rule for half-line integrals.
The fixed-grid transforms take their Gauss-Legendre and Gauss-Kronrod
rules, and the composite rules built from them, from here too.
Nothing here is randomized, so downstream tolerances are stable run over run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .groups import _real_scalar

__all__ = [
    "QuadratureSpec",
    "ExpDecay",
    "integrate_interval",
    "truncation_point",
    "gauss_legendre_rule",
    "gauss_kronrod_rule",
    "composite_nodes",
]


# ---------------------------------------------------------------------------
# quadrature policy types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecay:
    """Envelope bound |f(t)| <= coeff * (1+t)^degree * exp(-rate * t).

    ``degree`` may be negative or fractional, a fractional one bounded by its ceiling
    in the tail; ``rate`` must be positive for half-line truncation to make sense.
    """

    coeff: float
    rate: float
    degree: float = 0

    def bound(self, t):
        t = np.asarray(t, dtype=float)
        return self.coeff * (1.0 + t) ** self.degree * np.exp(-self.rate * t)

    def tail_integral(self, T: float) -> float:
        """Upper bound for the integral of the envelope over [T, oo)."""
        if self.rate <= 0:
            return math.inf
        if self.degree <= 0:
            return self.coeff * (1.0 + T) ** self.degree * math.exp(-self.rate * T) / self.rate
        # integrate (1+t)^d e^{-rt} exactly, d = ceil(degree): (1+t)^d >= (1+t)^degree for t >= 0
        d = math.ceil(self.degree)
        total = 0.0
        term = 1.0 / self.rate
        for j in range(d + 1):
            total += term * (1.0 + T) ** (d - j)
            term *= (d - j) / self.rate
        return self.coeff * math.exp(-self.rate * T) * total

    def stronger_than(self, other: "ExpDecay") -> bool:
        """True when this envelope decays strictly faster than ``other``."""
        if self.rate > other.rate:
            return True
        return self.rate == other.rate and self.degree < other.degree


def truncation_point(decay: ExpDecay, abs_tol: float) -> float:
    """Smallest T (within a factor 1.5) with tail_integral(T) <= abs_tol / 4, from
    T = max(1, 5 / rate) up; DomainError for an envelope or tolerance it cannot use, or
    past T = 1e6."""
    # written so that NaN fails: a NaN envelope or tolerance ends the search at its first T
    if not (0 < decay.rate < math.inf and 0 <= decay.coeff < math.inf
            and abs(decay.degree) < math.inf and 0 < abs_tol < math.inf):
        raise DomainError(f"truncation needs 0 < rate < inf, 0 <= coeff < inf, a finite degree "
                          f"and 0 < abs_tol < inf, got rate = {decay.rate!r}, coeff = "
                          f"{decay.coeff!r}, degree = {decay.degree!r}, abs_tol = {abs_tol!r}")
    target = abs_tol / 4.0
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
        _real_scalar(self.rel_tol, "QuadratureSpec", "rel_tol")
        _real_scalar(self.abs_tol, "QuadratureSpec", "abs_tol")
        # written so that NaN fails: a NaN tolerance would pass every error check
        if not 1e-14 <= self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and at least 1e-14, got {self.rel_tol}")
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (isinstance(self.max_subdivisions, (int, np.integer))
                and 0 < self.max_subdivisions <= 2**20):
            raise DomainError("max_subdivisions must be an integer in (0, 2^20]")

    def tolerance(self, value_scale):
        """max(abs_tol, rel_tol |value_scale|), elementwise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * abs(value_scale))


DEFAULT_QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# Gauss-Legendre and Gauss-Kronrod rules
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: Golub-Welsch nodes, one
    Newton step on P_n (three-term recurrence), and weights 2 / ((1 - x^2) P_n'(x)^2) there."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))  # the lower triangle
    for newton in (True, False):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp if newton else x
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])  # symmetric about 0, exactly


@functools.lru_cache(maxsize=64)
def gauss_kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the (2n + 1)-point Gauss-Kronrod rule on [-1, 1]: ascending
    nodes, of which those at odd positions are the n Gauss-Legendre nodes, and weights
    shaped (2n + 1, 2), the Kronrod rule and the embedded Gauss rule (zero at the other
    nodes).

    Laurie's algorithm (Math. Comp. 66, 1997) extends the Legendre recurrence
    b_k = k^2 / (4 k^2 - 1) to the Jacobi-Kronrod matrix, whose eigenvalues are the
    nodes and whose first eigenvector components give the weights (Golub-Welsch).
    """
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1:len(k) + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            i = m - k
            u += (a[k + n + 1] - a[i]) * t[k + 1] + b[k + n + 1] * s[k] - b[i] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            i, j = m - k, n - 1 - m + k
            u -= (a[k + n + 1] - a[i]) * t[j + 1] + b[k + n + 1] * s[j + 1] - b[i] * s[j + 2]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * v[0] ** 2
    weights = np.zeros((2 * n + 1, 2))
    # the rule is symmetric about 0: its nodes and weights are made so exactly
    weights[:, 0] = 0.5 * (w + w[::-1])
    weights[1::2, 1] = gauss_legendre_rule(n)[1]
    return 0.5 * (x - x[::-1]), weights


def composite_nodes(lo: float, hi: float, n_panels: int, rule: tuple[np.ndarray, np.ndarray]):
    """Nodes and weights of the composite ``rule`` (nodes and weights on [-1, 1], the
    weights possibly one column per estimate) with equal panels on [lo, hi], and their
    panel split (mid, offsets): node P * len(offsets) + j is mid[P] + offsets[j]."""
    x, w = rule
    half = 0.5 * (hi - lo) / n_panels
    mid = lo + half * np.arange(1.0, 2.0 * n_panels, 2.0)
    weights = np.tile(half * w, (n_panels,) + (1,) * (w.ndim - 1))
    return (mid[:, None] + half * x).ravel(), weights, (mid, half * x)


# the first estimate of integrate_interval is on this many equal panels, in one call
_START_PANELS = 4
# bounds below half the largest float keep every panel sum a + b finite
_MAX_BOUND = 0.5 * np.finfo(float).max


def _panel_estimates(f, a, b):
    """K31 estimates of the integral of f over each panel [a_i, b_i] and their errors
    |K31 - G15|, stacked as an array shaped (2, n_panels), or (2, n_comp, n_panels) when
    f returns an (n_comp, n_t) array; f is called once, on the 31 Kronrod nodes of each
    panel in turn, which hold the 15 Gauss nodes."""
    x, w = gauss_kronrod_rule(15)
    half = 0.5 * (b - a)
    t = (0.5 * (a + b)[:, None] + half[:, None] * x).ravel()
    values = np.asarray(f(t))
    if not (values.ndim in (1, 2) and values.shape[-1] == len(t)):
        raise DomainError(f"integrand must return values shaped ({len(t)},) or "
                          f"(n_comp, {len(t)}) on {len(t)} nodes, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DomainError(f"integrand returned non-finite values on [{a.min()}, {b.max()}]")
    # the estimate's axis first
    est = half * (values.reshape(values.shape[:-1] + (len(half), len(x))) @ w).transpose(
        -1, *range(values.ndim))
    est[1] = np.abs(est[0] - est[1])
    return est


def integrate_interval(f, lo: float, hi: float, q: QuadratureSpec = DEFAULT_QUAD):
    """Adaptive composite Gauss-Kronrod K31 on [lo, hi], each panel's error estimated
    by |K31 - G15|, for one integrand or a vector of them on one panel tree.

    ``f`` maps an ndarray ``t`` of shape (n_t,) to values of shape (n_t,) or
    (n_comp, n_t).  Returns (value, err_est), scalars or arrays of shape
    (n_comp,), with err_est_k <= max(abs_tol, rel_tol*|value_k|) for every
    component k; raises AccuracyError with the partial values attached once
    ``max_subdivisions`` panels were split.  ``f`` is called once on the nodes
    of _START_PANELS equal panels of [lo, hi], and then once per round, on the
    halves of every panel it splits: the fewest with the worst err_k / s_k (s_k
    the tolerance of component k's first estimate) that leave the others' errors
    within every tolerance, or all the budget allows when none do.
    """
    lo, hi = float(lo), float(hi)
    # a panel sum a + b near a bound must stay finite; NaN fails the test too
    if not (abs(lo) < _MAX_BOUND and abs(hi) < _MAX_BOUND):
        raise DomainError(f"need finite bounds below {_MAX_BOUND:.4g} in magnitude, "
                          f"got lo = {lo!r}, hi = {hi!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got lo = {lo!r}, hi = {hi!r}")
    budget = q.max_subdivisions
    edges = np.arange(_START_PANELS + 1.0) * ((hi - lo) / _START_PANELS) + lo  # np.linspace's
    edges[-1] = hi
    a, b = edges[:-1], edges[1:]
    est = _panel_estimates(f, a, b)
    scale = q.tolerance(est[0].sum(axis=-1))
    while True:
        # running sums in panel order; np.sum would pair the terms up and move the last bit
        value, value_err = est.cumsum(axis=-1)[..., -1]
        err, value_err = est[1].real, value_err.real  # held as complex for a complex f
        tol = q.tolerance(value)
        if (value_err <= tol).all():
            return value, value_err
        if budget == 0:
            raise AccuracyError(f"subdivision budget {q.max_subdivisions} exhausted "
                                f"(value ~{value}, err_est ~{np.max(value_err):.3e})",
                                value=value, err_est=value_err)
        worst = np.argsort(-np.atleast_2d(err / scale[..., None]).max(axis=0), kind="stable")
        # rest[k - 1]: the error left on the panels after the worst k are split, none after all
        rest = np.cumsum(err[..., worst[:0:-1]], axis=-1)[..., ::-1]
        fits = np.append(np.all(np.atleast_2d(rest <= tol[..., None]), axis=0), True)
        split, keep = np.split(worst, [min(1 + int(np.argmax(fits)), budget)])
        m = 0.5 * (a[split] + b[split])
        a = np.concatenate([a[keep], a[split], m])
        b = np.concatenate([b[keep], m, b[split]])
        halves = _panel_estimates(f, a[len(keep):], b[len(keep):])
        est = np.concatenate([est[..., keep], halves], axis=-1)
        budget -= len(split)
