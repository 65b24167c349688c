"""Elementary spherical functions on the rank-one presets.

Conventions (fixed once, used by every module):

* radial coordinate t >= 0 from the Cartan decomposition, with Haar
  weight Delta(t) = (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha;
* spherical function in the hypergeometric normalization

      phi_lam(t) = 2F1((rho + i*lam)/2, (rho - i*lam)/2;
                       jacobi_alpha + 1; -sinh^2 t),

  i.e. both convention scalings are 1 (no rescaling of lam or t).  This
  pairs with Delta above: phi_lam is the unique smooth even solution of

      phi'' + (Delta'/Delta) phi' + (lam^2 + rho^2) phi = 0,  phi(0) = 1.

Evaluation strategy.  ``phi`` evaluates a whole block of rows lam_i and
columns t_j per call.  Small t sums the defining 2F1 through the Pfaff
map u = tanh^2 t; larger t uses the exponential-series representation

    phi_lam = c(lam) Phi_lam + c(-lam) Phi_{-lam},
    Phi_lam(t) = e^{(i*lam - rho) t} * sum_k  a_k(lam) e^{-2kt},

with recursive coefficients and the Gamma-quotient c(lam) (see
:mod:`sphtrans.cfunction`).  Each series is one product of a coefficient
matrix (a row per lam) with a matrix of powers (a column per t).  For
real lam the block is real: phi = 2 Re(c(lam) Phi_lam), one side summed.
The switch point shrinks with |lam| to keep the Pfaff series free of
cancellation; past the spectral windows used here the lost digits are
measured and raise AccuracyError.  Near lam = i*k (integer k), where the
two terms cancel, phi_lam is entire in lam (Koornwinder 1984): such a row
is the trapezoid-rule Cauchy integral over a small circle about ik
(Trefethen & Weideman 2014), whose points are ordinary rows of the same
exponential-series product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import loggamma

from .errors import AccuracyError, DomainError
from .groups import GroupDatum, haar_log_derivative
from .specfun import ExpDecay

__all__ = [
    "RadialProfile",
    "phi",
    "phi_d1",
    "phi_d2",
    "xi",
]

# finite-difference step used whenever a profile has no analytic derivative
FD_STEP = 1e-4

_MAX_HC_TERMS = 500
_HC_CHUNK = 25
_SERIES_CHUNK = 128
# the Pfaff series fails once roundoff times its largest term passes 1e-10 Xi(t),
# and c_log once roundoff on its five log terms passes 1e-10
_LOST_DIGITS_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_LOG_2 = math.log(2.0)
# below this t (for |lam| <= 8) phi is the Pfaff series
_PFAFF_T = 1.2
# the N = 16 points of the Cauchy circle about i*k: Re > 0 for j < N/2, z_{j+N/2} = -z_j
_CIRCLE = np.exp(1j * np.pi * (np.arange(8) - 3.5) / 8)
_CIRCLE = np.concatenate([_CIRCLE, -_CIRCLE])
# row chunks of a block keep every temporary below this many entries
_BLOCK_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# radial profiles (K-biinvariant functions as functions of t)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RadialProfile:
    """A radial (even) function of t >= 0 with decay metadata.

    ``eval`` must accept float ndarrays.  Evaluation at negative t is
    reflected to |t|, which realizes the evenness of K-biinvariant
    functions.  ``decay`` is an actual envelope bound, spot-checkable
    via :meth:`check_decay`.  Derivatives of order 1 and 2 come from
    ``d1`` and ``d2`` when given, else from central differences.
    """

    eval: Callable
    decay: ExpDecay
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    label: str = ""

    def __call__(self, t):
        t_arr = np.abs(np.asarray(t, dtype=float))
        out = self.eval(t_arr)
        if np.isscalar(t) or np.ndim(t) == 0:
            return complex(np.asarray(out).reshape(()))
        return np.asarray(out)

    def deriv(self, t, k: int):
        """k-th derivative at t (k <= 2); central differences as fallback."""
        if k == 0:
            return self(t)
        if k == 1:
            if self.d1 is not None:
                return self._signed(self.d1, t)
            return (self(np.asarray(t) + FD_STEP) - self(np.asarray(t) - FD_STEP)) / (2 * FD_STEP)
        if k == 2:
            if self.d2 is not None:
                out = self.d2(np.abs(np.asarray(t, dtype=float)))
                return out if np.ndim(t) else complex(np.asarray(out).reshape(()))
            t_arr = np.asarray(t, dtype=float)
            return (self(t_arr + FD_STEP) - 2 * self(t_arr) + self(t_arr - FD_STEP)) / FD_STEP**2
        raise DomainError("only derivative orders 0, 1, 2 are supported")

    def _signed(self, fn, t):
        # odd continuation of the first derivative of an even function
        t_arr = np.asarray(t, dtype=float)
        out = np.sign(t_arr) * np.asarray(fn(np.abs(t_arr)))
        return out if np.ndim(t) else complex(np.asarray(out).reshape(()))

    def check_decay(self, ts) -> float:
        """Max ratio |f(t)| / envelope(t) over the given grid (should be <= 1)."""
        ts = np.asarray(ts, dtype=float)
        vals = np.abs(self(ts))
        env = self.decay.bound(ts)
        return float(np.max(vals / env))


# ---------------------------------------------------------------------------
# the two series branches: coefficient rows times a matrix of powers
# ---------------------------------------------------------------------------

def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^0, z^1, ..., z^n by repeated multiplication."""
    return np.cumprod(np.vstack([np.ones_like(z), np.broadcast_to(z, (n, len(z)))]), axis=0)


def _times_real(blocks, powers: np.ndarray):
    """(Re, Im) of B @ powers for each complex B, in one real matrix product."""
    prod = np.concatenate([part for B in blocks for part in (B.real, B.imag)]) @ powers
    return prod.reshape(len(blocks), 2, len(blocks[0]), -1)


def _lam_text(lam: complex) -> str:
    return repr(float(lam.real)) if lam.imag == 0.0 else repr(complex(lam))


def _truncate(coef: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Zero each row after its first stopping index (pair[:, k] stops at k + 6)."""
    stop = np.argmax(pair, axis=1) + 6
    coef = coef[:, : stop.max() + 1]
    coef[np.arange(coef.shape[1]) > stop[:, None]] = 0.0
    return coef


def _pfaff_series(G: GroupDatum, lam: np.ndarray, t: np.ndarray, own, want_d1: bool):
    """phi (and phi') on lam x t by the Pfaff series in u = tanh^2 t.

    Row i is summed for its own columns ``own[i]`` (all when None); its
    other entries are not meaningful.  It stops at the first n >= 6 where
    the term bound |C_n| u^n times the tail factor 1 + u/(1 - u), at its
    largest own u, is below 1e-17 for two consecutive n.  Roundoff times
    the largest term is what cancellation costs; past 1e-10 of the bound
    on |phi|, the row raises AccuracyError.
    """
    t_star = np.full(len(lam), t.max()) if own is None else np.where(own, t, 0.0).max(axis=1)
    u_max = np.tanh(t_star) ** 2
    a = 0.5 * (G.rho + 1j * lam)[:, None]
    q = 0.5 * (G.jacobi_alpha - G.jacobi_beta + 1.0 + 1j * lam)[:, None]
    coef = np.ones((len(lam), 1), dtype=complex)
    bound = np.empty((len(lam), 0))  # bound[:, k] belongs to n = k + 1
    while True:
        n = np.arange(coef.shape[1] - 1, coef.shape[1] + _SERIES_CHUNK - 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = (a + n) * (q + n) / ((G.jacobi_alpha + 1.0 + n) * (n + 1.0))
            new = np.cumprod(np.hstack([coef[:, -1:], ratio]), axis=1)[:, 1:]
            bound = np.hstack([bound, np.abs(new) * u_max[:, None] ** (n + 1.0)])
        coef = np.hstack([coef, new])
        below = bound * (1.0 + u_max / (1.0 - u_max))[:, None] < 1e-17
        pair = below[:, 5:] & below[:, 4:-1]
        if pair.any(axis=1).all() or not np.isfinite(bound).all():
            break
    # |phi_lam(t)| <= e^{|Im lam| t} Xi(t) and Xi(t) >= e^{-rho t}: only
    # rows past the cheap bound need Xi itself
    env = np.exp(np.abs(lam.imag) * t_star)
    peak = np.nan_to_num(bound, nan=np.inf).max(axis=1)
    lost = _EPS * peak * np.cosh(t_star) ** (lam.imag - G.rho) / env
    for i in np.flatnonzero(~(lost <= _LOST_DIGITS_TOL * np.exp(-G.rho * t_star))):
        xi_t = _pfaff_series(G, np.zeros(1), t_star[i:i + 1], None, False)[0].real[0, 0]
        if not lost[i] <= _LOST_DIGITS_TOL * xi_t:
            raise AccuracyError(
                f"Pfaff series for phi loses too many digits at lam = {_lam_text(lam[i])}, "
                f"t = {float(t_star[i])!r}: roundoff {lost[i] * env[i]:.2e} exceeds "
                f"{_LOST_DIGITS_TOL:g} of the bound e^(|Im lam| t) Xi(t) = {env[i] * xi_t:.2e}",
                err_est=lost[i] * env[i],
            )
    coef = _truncate(coef, pair)
    blocks = [coef]
    if want_d1:
        blocks.append(np.hstack([coef[:, 1:] * np.arange(1, coef.shape[1]), 0.0 * coef[:, :1]]))
    th = np.tanh(t)
    sums = [re + 1j * im for re, im in _times_real(blocks, _powers(th * th, coef.shape[1] - 1))]
    s = (G.rho + 1j * lam)[:, None]
    pref = np.exp(-s * np.log(np.cosh(t)))
    if not want_d1:
        return [pref * sums[0]]
    return [pref * sums[0], pref * (-s * th * sums[0] + sums[1] * 2.0 * th * (1.0 - th * th))]


def _hc_series(G: GroupDatum, sides: np.ndarray, t: np.ndarray, t_min: np.ndarray,
               want_d1: bool, weight: np.ndarray, real: bool):
    """weight g(s), g(s) = c(s) Phi_s (and its t-derivative) on sides x t, one
    side s per row, where

        Phi_lam(t) = e^{mu t} sum_k a_k e^{-2kt},   mu = i lam - rho,
        4 k (k - i lam) a_k = - sum_{j=1}^{k} b_j a_{k-j} (mu - 2(k-j)),  a_0 = 1,
        b_j = 2 m_alpha + 4 m_2alpha [j even]

    from the radial equation.  b_j depends only on the parity of j, so
    running sums of d_m = a_m (mu - 2m) over all m and over each parity
    make a step O(1).  Row i stops at the first k >= 6 where |a_k| x^k and
    |a_{k-1}| x^{k-1} are below 1e-19 max(1, |a_1|, ..., |a_k|), with
    x = e^{-2 t_min[i]}.  ``real`` keeps the real part only: phi = 2 Re g(lam)
    for real lam.
    """
    x = np.exp(-2.0 * t_min)
    mu = 1j * sides - G.rho
    total = mu.copy()  # sum of d_m over m < k
    parity = [mu.copy(), np.zeros_like(mu)]  # over even, odd m
    cols = [np.ones_like(mu)]
    while True:
        ks = np.arange(len(cols), len(cols) + _HC_CHUNK, dtype=float)
        inv = (-1.0 / (4.0 * ks * (ks - 1j * sides[:, None]))).T
        shift = (mu[:, None] - 2.0 * ks).T
        for j, k in enumerate(ks.astype(int)):
            a = (2.0 * G.m_alpha * total + 4.0 * G.m_2alpha * parity[k % 2]) * inv[j]
            d = a * shift[j]
            total += d
            parity[k % 2] += d
            cols.append(a)
        A = np.array(cols).T
        mag = np.abs(A)
        scale = 1e-19 * np.maximum.accumulate(np.maximum(mag, 1.0), axis=1)[:, 6:]
        term = mag * x[:, None] ** np.arange(A.shape[1])
        pair = (term[:, 6:] < scale) & (term[:, 5:-1] < scale)
        if pair.any(axis=1).all():
            break
        if A.shape[1] > _MAX_HC_TERMS:
            i = int(np.argmin(pair.any(axis=1)))
            raise AccuracyError(
                f"exponential series for phi did not settle within {_MAX_HC_TERMS} terms "
                f"at lam = {_lam_text(sides[i])}, t = {-0.5 * math.log(x[i])!r}"
            )
    coef = _truncate(A, pair) * (weight * c_value(G, sides))[:, None]
    blocks = [coef]
    if want_d1:
        blocks.append(coef * (mu[:, None] - 2.0 * np.arange(coef.shape[1])))
    # e^{mu t} = e^{-rho t} e^{i s t}; the first factor rides on the powers
    sums = _times_real(blocks, _powers(np.exp(-2.0 * t), coef.shape[1] - 1) * np.exp(-G.rho * t))
    if not real:
        front = np.exp(1j * np.outer(sides, t))
        return [front * (re + 1j * im) for re, im in sums]
    phase = np.outer(sides.real, t)
    vals = [np.cos(phase) * re - np.sin(phase) * im for re, im in sums]
    off = np.flatnonzero(sides.imag)
    if off.size:  # |e^{i s t}| = e^{-Im s t}
        damp = np.exp(-np.outer(sides.imag[off], t))
        for v in vals:
            v[off] *= damp
    return vals


# ---------------------------------------------------------------------------
# Gamma-quotient c(lam) shared with the cfunction module
# ---------------------------------------------------------------------------

def c_log(G: GroupDatum, lam: np.ndarray) -> np.ndarray:
    """log of the rank-one c-function in this normalization, on a finite 1-D ``lam`` array.

    c(lam) = 2^(rho - i lam) Gamma(alpha+1) Gamma(i lam)
             / [Gamma((rho + i lam)/2) Gamma((alpha - beta + 1 + i lam)/2)]

    The three Gamma arguments of every element go through one
    ``scipy.special.loggamma`` call.  The entry is +inf at a pole of c
    (lam in i*Z>=0) and -inf at a zero (a denominator pole; where both
    meet the zero wins).  The five log terms grow like |lam| log|lam| and
    cancel; once roundoff on their sum passes 1e-10 (from |lam| about
    2.1e4) the result has no digits to spare and AccuracyError names the
    first such lam.
    """
    lam = np.asarray(lam, dtype=complex)
    # rows: i lam, (rho + i lam)/2, (alpha - beta + 1 + i lam)/2
    args = np.array([[0.0], [G.rho], [G.jacobi_alpha - G.jacobi_beta + 1.0]]) + 1j * lam
    args[1:] *= 0.5
    terms = np.empty((4, len(lam)), dtype=complex)
    terms[0] = (G.rho - args[0]) * _LOG_2
    loggamma(args, out=terms[1:])
    b = math.lgamma(G.jacobi_alpha + 1.0)
    log_c = terms[0] + b + terms[1] - (terms[2] + terms[3])
    lost = _EPS * (np.abs(terms.view(float)).reshape(4, -1, 2).sum(axis=(0, 2)) + abs(b))
    if not np.all(lost <= _LOST_DIGITS_TOL):  # too large, or NaN at a Gamma pole
        pole = (args.imag == 0.0) & (args.real <= 0.0) & (args.real == np.floor(args.real))
        log_c[pole[0]] = np.inf
        log_c[pole[1:].any(axis=0)] = -np.inf
        bad = ~(pole.any(axis=0) | (lost <= _LOST_DIGITS_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(
                f"c-function loses too many digits at lam = {_lam_text(lam[i])}: roundoff "
                f"{lost[i]:.2e} on log c exceeds {_LOST_DIGITS_TOL:g}", err_est=float(lost[i])
            )
    return log_c


def c_value(G: GroupDatum, lam: np.ndarray) -> np.ndarray:
    """c(lam) on a finite 1-D ``lam`` array; 0 at the denominator poles."""
    return np.exp(c_log(G, lam))


# ---------------------------------------------------------------------------
# block evaluator and public functions
# ---------------------------------------------------------------------------

def _exp_sides(far: np.ndarray, near: np.ndarray, t_min: np.ndarray, radius: float, real: bool):
    """One-sided rows s for the exponential series of the rows far, then near,
    with weights W and the t_min of each side, such that

        phi_lam = sum over its sides of W g(s)  (of Re W g(s) when ``real``),

    g(s) = c(s) Phi_s.  A row off i*Z is g(lam) + g(-lam), or 2 Re g(lam) for
    real lam.  A row ``near`` i*k, where those two terms cancel, is the N-point
    trapezoid rule for Cauchy's integral over the circle of ``radius`` about ik,

        phi_lam = sum_j phi_{z_j} (z_j - ik) / (N (z_j - lam)),

    accurate to about (|lam - ik| / radius)^N.  About 0, phi_{-z} = phi_z and
    g(-conj z) = conj(g(z)) leave the N/2 sides with Re z > 0 for real lam.
    """
    if real:
        sides, weight, t_side = far, np.full(len(far), 2.0), t_min[:len(far)]
    else:
        sides, weight = np.column_stack([far, -far]).ravel(), np.ones(2 * len(far))
        t_side = np.repeat(t_min[:len(far)], 2)
    if not len(near):
        return sides, weight, t_side
    z = 1j * np.round(near.imag)[:, None] + radius * _CIRCLE
    w = radius * _CIRCLE / (len(_CIRCLE) * (z - near[:, None]))
    half = len(_CIRCLE) // 2
    if real:  # z_{j+N/2} = -z_j
        z, w = z[:, :half], 2.0 * (w[:, :half] + w[:, half:])
    else:
        z, w = np.hstack([z, -z]), np.hstack([w, w])
    return (np.concatenate([sides, z.ravel()]), np.concatenate([weight, w.ravel()]),
            np.concatenate([t_side, np.repeat(t_min[len(far):], z.shape[1])]))


def _phi_rows(G: GroupDatum, lam: np.ndarray, t: np.ndarray, want_d1: bool, real: bool):
    """[phi] or [phi, phi'] on the block of complex rows lam x t, float64 when ``real``.

    A row leaves the Pfaff series at max(0.19, 9.6/|lam|) (1.2 for
    |lam| <= 8) for the exponential series, which a row within a tenth of
    the circle radius of i*Z takes from a Cauchy circle of ordinary rows
    (see :func:`_exp_sides`).  The radius is small enough that the Taylor
    coefficients of phi in lam, of size t^n / n!, alias below roundoff, and
    large enough that the one-sided rows, of size 1 / radius, keep their
    digits.  Row chunks keep temporaries small.
    """
    val = np.empty((len(lam), len(t)), dtype=float if real else complex)
    outs = [val, np.empty_like(val)] if want_d1 else [val]
    mod = np.abs(lam)
    switch = np.where(mod <= 8.0, _PFAFF_T, np.maximum(0.19, 9.6 / np.maximum(mod, 8.0)))
    radius = 0.64 / max(t.max(initial=0.0), 64.0)
    near = np.abs(lam - 1j * np.round(lam.imag)) < 0.1 * radius
    step = max(1, _BLOCK_ENTRIES // max(len(t), 1))
    for r in range(0, len(lam), step):
        rows = slice(r, r + step)
        cols = np.flatnonzero(t > switch[rows].min())
        if cols.size:
            far, on = r + np.flatnonzero(~near[rows]), r + np.flatnonzero(near[rows])
            order = np.concatenate([far, on])
            t_min = np.where(t[cols] > switch[order, None], t[cols], np.inf).min(axis=1)
            sides, weight, t_min = _exp_sides(lam[far], lam[on], t_min, radius, real)
            parts = _hc_series(G, sides, t[cols], t_min, want_d1, weight, real)
            n = len(far) if real else 2 * len(far)
            for out, part in zip(outs, parts):
                out[np.ix_(far, cols)] = part[:n] if real else part[:n:2] + part[1:n:2]
                if on.size:
                    out[np.ix_(on, cols)] = part[n:].reshape(len(on), -1, len(cols)).sum(axis=1)
        cols = np.flatnonzero(t <= switch[rows].max())
        if cols.size:
            own = t[cols] <= switch[rows, None]
            for out, part in zip(outs, _pfaff_series(G, lam[rows], t[cols], own, want_d1)):
                out[rows, cols] = np.where(own, part.real if real else part, out[rows, cols])
    return outs


def _evaluate(G: GroupDatum, lam, t, order: int):
    lam_arr, t_arr = np.asarray(lam), np.asarray(t, dtype=float)
    if lam_arr.ndim > 1:
        raise DomainError("lam must be a scalar or a 1-D array")
    for name, arr in (("lam", lam_arr), ("t", t_arr)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"phi requires finite {name}, got {arr!r}")
    if np.any(t_arr < 0):
        raise DomainError("phi requires t >= 0")
    rows = np.atleast_1d(lam_arr).astype(complex)
    real = not np.any(rows.imag)
    ts = t_arr.ravel()
    outs = _phi_rows(G, rows, ts, order > 0, real)
    out = outs[min(order, 1)]
    if order == 2:  # phi'' = -(Delta'/Delta) phi' - (lam^2 + rho^2) phi
        val, der = outs
        ev = (rows.real**2 if real else rows * rows)[:, None] + G.rho * G.rho
        out = -ev * val
        far = ts > 1e-3
        out[:, far] -= haar_log_derivative(G, ts[far]) * der[:, far]
        out[:, ~far] = -ev / (2.0 * (G.jacobi_alpha + 1.0))
    if lam_arr.ndim == 0:
        out = out[0].astype(complex)
        return complex(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)
    if np.iscomplexobj(lam_arr):
        out = out.astype(complex, copy=False)
    return out.reshape((len(rows),) + t_arr.shape)


def phi(G: GroupDatum, lam, t):
    """Spherical function phi_lam(t) at t >= 0: complex, shaped like ``t``, for a
    scalar ``lam``; the block [phi_{lam[i]}(t)] for a 1-D ``lam``, float64 if real."""
    return _evaluate(G, lam, t, 0)


def phi_d1(G: GroupDatum, lam, t):
    """d/dt of phi_lam at t >= 0 (odd in t, so phi_d1(0) = 0); shapes as in :func:`phi`."""
    return _evaluate(G, lam, t, 1)


def phi_d2(G: GroupDatum, lam, t):
    """Second radial derivative of phi_lam, from the radial equation (t > 1e-3)
    or its exact limit -(lam^2 + rho^2)/(2 (alpha + 1)) at 0; shapes as in :func:`phi`."""
    return _evaluate(G, lam, t, 2)


def xi(G: GroupDatum, t):
    """Reference spherical function Xi(t) = phi_0(t); real, in (0, 1]."""
    out = phi(G, 0.0, t).real
    return float(out) if np.ndim(t) == 0 else out
