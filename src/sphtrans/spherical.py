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

with coefficients from a three-term recurrence (:func:`_hc_coefficients`) and the
Gamma-quotient c(lam) (see :mod:`sphtrans.cfunction`).  Each series is one product of a
coefficient matrix (a row per lam) with powers (a column per t), times e^{(i*lam - rho) t},
once per block: its factors at mid_P and at o_q on the nodes mid_P + o_q of a radial rule,
recognised by their values (:func:`_rule_panels`), whoever asks.  For real lam the block
is real: phi = 2 Re(c(lam) Phi_lam), one side summed.  A row leaves the Pfaff series at
9.6/|lam| (1.2 for |lam| <= 8), where its terms stay below e^9.6 and so cancel no more than
roundoff times that, but not before t = 0.05, past the 0.0439 from which every exponential
series settles within ``_MAX_HC_TERMS`` terms.  The Pfaff series at a fixed t estimates its
lost digits and raises AccuracyError naming lam past 1e-10 of e^{-rho t}, Xi's lower bound
(from |lam| of about 371.5 on H3).
phi_lam is entire in lam (Koornwinder 1984).  Near lam = i*k (integer k), where the two
terms cancel, a row is the trapezoid-rule Cauchy integral over a small circle about ik
(Trefethen & Weideman 2014), whose points are ordinary rows of the same product.  A real
block with more rows than Chebyshev points in |lam| (32 on [0, 12]; the end rounded up to a
multiple of 4, rows held per preset on a rule's nodes) takes t <= 1.2 from them, to roundoff
of Xi, not bit for bit a scalar call (:func:`_band`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError
from .groups import GroupDatum, _array, _real_array, haar_log_derivative
from .specfun import ExpDecay, composite_nodes, gauss_kronrod_rule

__all__ = [
    "RadialProfile",
    "phi",
    "phi_d1",
    "phi_d2",
    "xi",
]

_MAX_HC_TERMS = 500
# a series grows by this many terms past its first chunk
_CHUNK = 25
# the Pfaff series fails once roundoff times its largest term passes 1e-10 e^{-rho t},
# and c_log once roundoff on its five log terms passes 1e-10
_LOST_DIGITS_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_LOG_2 = math.log(2.0)
# below this t (for |lam| <= 8) phi is the Pfaff series
_PFAFF_T = 1.2
# the N = 16 points of the Cauchy circle about i*k: Re > 0 for j < N/2, z_{j+N/2} = -z_j
_CIRCLE = np.exp(1j * np.pi * (np.arange(8) - 3.5) / 8)
_CIRCLE = np.concatenate([_CIRCLE, -_CIRCLE])
# the circle's radius is 0.64 / max(largest t, _CIRCLE_T): one radius for all t up to it
_CIRCLE_T = 64.0
# plain columns are panels of one node, at offset 0 from their mid
_NO_OFFSET = np.zeros(1)
# an exponential-series group of whole panels holds about this many entries: one 51-node
# panel for 161 to 321 sides, as for the 241 rows of a table on the default 481-point grid
_GROUP_ENTRIES = 1 << 14
# radial panels divide every cutoff T (a multiple of 4), so rules share their first nodes
_T_PANEL = 2.0
# the radial rule is the Kronrod extension of this Gauss order: K51 (exact to degree
# 77, as GL39) over its embedded G25, 25.5 nodes per unit of t
_T_GAUSS_ORDER = 25


# ---------------------------------------------------------------------------
# radial profiles (K-biinvariant functions as functions of t)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RadialProfile:
    """A radial (even) function of t >= 0 with decay metadata.

    ``eval`` must accept float ndarrays.  Evaluation at negative t is
    reflected to |t|, which realizes the evenness of K-biinvariant
    functions.  ``decay`` is an envelope bound: of the function itself for
    the shipped profiles, and for a wave packet of the exact packet, which
    the evaluated one matches to its roundoff floor (see
    :func:`sphtrans.transform.wave_packet`).  The derivative of order
    k = 1 or 2 comes from ``derivs(t, k)``, evaluated at t >= 0.
    """

    eval: Callable
    decay: ExpDecay
    derivs: Callable
    label: str = ""

    def __call__(self, t):
        t_arr = np.abs(_real_array(t, "a radial profile"))
        out = self.eval(t_arr)
        if t_arr.ndim == 0:
            return complex(np.asarray(out).reshape(()))
        return np.asarray(out)

    def deriv(self, t, k: int):
        """k-th derivative at t (k <= 2): order 1 continued oddly, order 2 evenly."""
        if k == 0:
            return self(t)
        if k not in (1, 2):
            raise DomainError("only derivative orders 0, 1, 2 are supported")
        t_arr = _real_array(t, "a radial profile")
        out = np.asarray(self.derivs(np.abs(t_arr), k))
        out = np.sign(t_arr) * out if k == 1 else out
        return out if np.ndim(t) else complex(out.reshape(()))


# ---------------------------------------------------------------------------
# the two series branches: coefficient rows times a matrix of powers
# ---------------------------------------------------------------------------

def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^0, z^1, ..., z^n by repeated multiplication, in Fortran order (a column's powers
    are adjacent), which is how BLAS has always been given them."""
    return np.vander(z, n + 1, increasing=True).T


def _real_rows(blocks) -> np.ndarray:
    """Re B and Im B of each complex B as the rows of one real matrix."""
    return np.concatenate([part for B in blocks for part in (B.real, B.imag)])


def _lam_text(lam: complex) -> str:
    return repr(float(lam.real)) if lam.imag == 0.0 else repr(complex(lam))


def _grow(fill, n: int, tol: float, r: float):
    """Coefficients C_k (row k, C_0 = 1) of n series in a buffer that doubles, filled by
    ``fill(C, k0, k1)``, which writes rows k0 to k1 - 1 and returns their terms' moduli and
    scales.  The first chunk ends 2 terms past the k where r^k < tol, later ones are
    ``_CHUNK`` long.  Series i stops at the first k >= 6 where terms k - 1 and k are below the
    scale of k; filling ends once all have stopped, at a non-finite term or past term
    ``_MAX_HC_TERMS``.  Returns C through the last stop, 0 past each series' own, and the stops
    (-1: none, which the caller raises on)."""
    # r is clipped from 0 (t_min > 372, or u_max = 0 at t = 0) and 1 (tanh^2 t rounds to 1 from
    # t of about 19.06), and the chunk to the cap, before the buffer is allocated
    r = min(max(r, 1e-300), 1.0 - _EPS)
    chunk = math.ceil(min(math.log(tol) / math.log(r), _MAX_HC_TERMS)) + 2
    C = np.ones((max(chunk, _CHUNK) + 1, n), dtype=complex)
    stop, last, k0 = np.full(n, -1), np.full(n, np.inf), 1
    while True:
        k1, chunk = min(k0 + chunk, _MAX_HC_TERMS + 1), _CHUNK
        if k1 > len(C):  # a chunk is shorter than the buffer
            C = np.concatenate([C, np.empty_like(C)])
        term, scale = fill(C, k0, k1)
        pair = (term < scale) & (np.concatenate([last[None], term[:-1]]) < scale)
        pair[:max(6 - k0, 0)] = False
        stop = np.where((stop < 0) & pair.any(axis=0), k0 + pair.argmax(axis=0), stop)
        last, k0 = term[-1], k1
        if (stop >= 0).all() or k1 > _MAX_HC_TERMS or not np.isfinite(term).all():
            break
    C = C[:stop.max(initial=0) + 1]
    C[np.arange(len(C))[:, None] > stop] = 0.0
    return C, stop


def _pfaff_series(G: GroupDatum, lam: np.ndarray, t: np.ndarray, own, want_d1: bool):
    """phi (and phi') on lam x t by the Pfaff series in u = tanh^2 t.

    Row i is summed for its own columns ``own[i]`` (all when None); its other entries are
    not meaningful.  Its terms for :func:`_grow` are |C_n| u^n times the tail factor
    1 + u/(1 - u) at its largest own u, read against 1e-17 (the first chunk is sized for
    1e-21: |C_n| reaches 1e3 at |lam| = 8).  Roundoff times the largest term is what
    cancellation costs; past 1e-10 of e^{|Im lam| t} e^{-rho t}, below the bound
    e^{|Im lam| t} Xi(t) on |phi| as Xi(t) >= e^{-rho t}, or unsettled after ``_MAX_HC_TERMS``
    terms (from t of about 1.9), the row raises AccuracyError.
    """
    t_star = np.full(len(lam), t.max()) if own is None else np.where(own, t, 0.0).max(axis=1)
    u_max = np.tanh(t_star) ** 2
    a, q = 0.5 * (G.rho + 1j * lam), 0.5 * (G.jacobi_alpha - G.jacobi_beta + 1.0 + 1j * lam)
    last, peak = np.ones(len(lam), dtype=complex), np.zeros(len(lam))  # C_n u_max^n, n = k0 - 1
    def fill(C, k0, k1):
        nonlocal last, peak
        n = np.arange(k0 - 1, k1 - 1, dtype=float)[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            C[k0:k1] = (a + n) * (q + n) / ((G.jacobi_alpha + 1.0 + n) * (n + 1.0))
            # C_n alone overflows for large |lam| where C_n u_max^n need not (u_max = 0 at t = 0)
            term = np.concatenate([last[None], C[k0:k1] * u_max]).cumprod(axis=0)[1:]
            C[k0 - 1:k1].cumprod(axis=0, out=C[k0 - 1:k1])
            last, bound = term[-1], np.abs(term)
            peak = np.maximum(peak, bound.max(axis=0))  # NaN stays, and fails the guard
            return bound * (1.0 + u_max / (1.0 - u_max)), 1e-17  # inf at u_max = 1: unsettled

    coef, stop = _grow(fill, len(lam), 1e-21, float(u_max.max(initial=0.0)))
    coef = np.ascontiguousarray(coef.T)  # C-contiguous: BLAS rounds a transposed operand otherwise
    # |phi_lam(t)| <= e^{|Im lam| t} Xi(t), read against Xi's lower bound e^{-rho t}
    env = np.exp(np.abs(lam.imag) * t_star)
    lost = _EPS * peak * np.cosh(t_star) ** (lam.imag - G.rho) / env
    floor = np.exp(-G.rho * t_star)
    for i in (~(lost <= _LOST_DIGITS_TOL * floor)).nonzero()[0][:1]:
        raise AccuracyError(
            f"Pfaff series for phi loses too many digits at lam = {_lam_text(lam[i])}, "
            f"t = {float(t_star[i])!r}: roundoff {lost[i] * env[i]:.2e} exceeds "
            f"{_LOST_DIGITS_TOL:g} of e^(|Im lam| t) e^(-rho t) = {env[i] * floor[i]:.2e}, "
            f"the lower bound of e^(|Im lam| t) Xi(t)",
            err_est=lost[i] * env[i],
        )
    for i in (stop < 0).nonzero()[0][:1]:
        raise AccuracyError(f"Pfaff series for phi did not settle within {_MAX_HC_TERMS} terms "
                            f"at lam = {_lam_text(lam[i])}, t = {float(t_star[i])!r}")
    blocks = [coef]
    if want_d1:
        blocks.append(np.hstack([coef[:, 1:] * np.arange(1, coef.shape[1]), 0.0 * coef[:, :1]]))
    th = np.tanh(t)
    prod = _real_rows(blocks) @ _powers(th * th, coef.shape[1] - 1)
    sums = [re + 1j * im for re, im in prod.reshape(len(blocks), 2, len(lam), len(t))]
    s = (G.rho + 1j * lam)[:, None]
    pref = np.exp(-s * np.log(np.cosh(t)))
    return [pref * sums[0]] + [pref * (-s * th * sums[0] + d1 * 2.0 * th * (1.0 - th * th))
                               for d1 in sums[1:]]


def _hc_coefficients(G: GroupDatum, sides: np.ndarray, x: np.ndarray, names: np.ndarray):
    """Coefficients a_k of Phi_s(t) = e^{mu t} sum_k a_k e^{-2kt}, mu = i s - rho, one
    side s per row, from the radial equation times 1 - e^{-4t}, whose Haar term
    (m_alpha coth t + 2 m_2alpha coth 2t)(1 - e^{-4t}) = 2 rho + 2 m_alpha e^{-2t} + 2 rho e^{-4t}
    leaves three terms in the coefficient of e^{(mu - 2k)t}:

        4 k (k - i s) a_k = 2 m_alpha (2(k-1) + rho - i s) a_{k-1}
                            + 4 (k-2+rho) (k-2+rho - i s) a_{k-2},   a_0 = 1,  a_{-1} = 0.

    Row i stops (see :func:`_grow`) on its terms |a_k| x_i^k read against
    1e-19 max(1, |a_1|, ..., |a_k|); its later entries are 0.
    Past ``_MAX_HC_TERMS`` AccuracyError names the row's entry of ``names``.
    """
    peak, i_sides = np.ones(len(sides)), 1j * sides  # max(1, |a_j|) so far
    def fill(A, k0, k1):
        nonlocal peak
        ks = np.arange(k0, k1)[:, None]
        step = 4.0 * ks * (ks - i_sides)  # 4 k (k - i s), then the a_{k-1} factor over it
        # the a_{k-2} factor in the rows a_k, which the loop reads before it overwrites them
        A[k0:k1] = ks - 2.0 + G.rho - i_sides
        A[k0:k1] *= 4.0 * (ks - 2.0 + G.rho)
        A[k0:k1] /= step
        np.divide(2.0 * G.m_alpha * (2.0 * (ks - 1.0) + G.rho) - 2j * G.m_alpha * sides, step,
                  out=step)
        rows = list(A[:k1])  # a view per row, made once
        # a_{-1} = 0; not in place: numpy's in-place complex multiply rounds a lone side otherwise
        for k, s_k in zip(range(k0, k1), step):
            np.add(s_k * rows[k - 1], rows[k] * rows[k - 2] if k > 1 else 0.0, out=rows[k])
        mag = np.abs(A[k0:k1])
        peaks = np.maximum(mag, peak)
        np.maximum.accumulate(peaks, axis=0, out=peaks)  # a running max by rows
        peak = peaks[-1]
        return mag * x ** ks, 1e-19 * peaks

    # the first chunk covers the largest x: t_min past a row's switch point, x < e^-0.1
    A, stop = _grow(fill, len(sides), 1e-19, float(np.max(x, initial=0.0)))
    for i in (stop < 0).nonzero()[0][:1]:  # the first side that did not settle
        raise AccuracyError(f"exponential series for phi did not settle within {_MAX_HC_TERMS} "
                            f"terms at lam = {_lam_text(names[i])}, t = {-0.5 * math.log(x[i])!r}")
    return A.T


def _hc_series(G: GroupDatum, sides: np.ndarray, panels, lo: int, t_min: np.ndarray,
               want_d1: bool, weight: np.ndarray, real: bool, names: np.ndarray):
    """weight g(s), g(s) = c(s) Phi_s (and its t-derivative) on sides x t, one
    side s per row, with the coefficients of :func:`_hc_coefficients` for
    x = e^{-2 t_min[i]} on row i.  The columns are t = mid[P] + offsets[j] from
    the ``lo``-th on, so e^{mu t} is e^{mu mid} e^{mu offsets}.  ``real`` keeps
    the real part only: phi = 2 Re g(lam) for real lam.  Errors name the
    caller's lam of each side, ``names``.  Yields (cols, parts), each order's values
    on the column slice ``cols`` of a group of whole panels of about ``_GROUP_ENTRIES``
    entries, in buffers that the next group reuses: the caller copies them out first.
    """
    mid, offsets = panels
    width = len(offsets)
    weighted_c = weight * c_value(G, sides, names)  # first: it names a lam too large for any digits
    mu = 1j * sides - G.rho
    coef = _hc_coefficients(G, sides, np.exp(-2.0 * t_min), names) * weighted_c[:, None]
    blocks = [coef]
    if want_d1:
        blocks.append(coef * (mu[:, None] - 2.0 * np.arange(coef.shape[1])))
    stacked = _real_rows(blocks)
    powers = _powers(np.exp(-2.0 * (mid[:, None] + offsets).ravel()[lo:]), coef.shape[1] - 1)
    # e^{mu t} in one exponent, in range while phi is (e^{i s t} alone need not be);
    # plain columns are their mid
    e_offsets = np.exp(np.multiply.outer(mu, offsets))[:, None]
    # panels per group, no more than the block has
    per = max(1, min(_GROUP_ENTRIES // (len(sides) * width), len(mid) - lo // width))
    work = np.empty(len(stacked) * per * width)
    phase = np.empty(len(sides) * per * width, dtype=complex) if width > 1 else None
    for p in range(lo // width, len(mid), per):
        q = min(p + per, len(mid))
        a, b = max(lo, p * width), q * width  # the group's columns, from the lo-th on
        sums = np.matmul(stacked, powers[:, a - lo:b - lo],
                         out=work[:len(stacked) * (b - a)].reshape(-1, b - a))
        front = np.exp(np.multiply.outer(mu, mid[p:q]))
        if width > 1:
            front = np.multiply(front[:, :, None], e_offsets, out=phase[:front.size * width]
                                .reshape(len(sides), q - p, width))
        front = front.reshape(len(sides), -1)[:, a - p * width:]
        re, im = sums.reshape(len(blocks), 2, len(sides), b - a).swapaxes(0, 1)
        if real:  # Re(front (re + i im)), written over re
            re *= front.real
            im *= front.imag
            re -= im
        yield slice(a, b), list(re) if real else [front * (r + 1j * i) for r, i in zip(re, im)]


# ---------------------------------------------------------------------------
# Gamma-quotient c(lam) shared with the cfunction module
# ---------------------------------------------------------------------------

_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)) for k = 8, ..., 1: the Stirling series in 1/w^2 (DLMF 5.11.1)
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)
# (-1)^k zeta(k) / k for k = 23, ..., 2, then -gamma: log Gamma(1 + x) = sum_k of them
# times x^k (DLMF 5.7.3), as a column
_TAYLOR = np.array([-0.04347826605304026, 0.04545455629320467, -0.047619070330142226,
                    0.05000004769810169, -0.05263167937961666, 0.055555767627403614,
                    -0.058823978658684585, 0.06250095514121304, -0.06666870588242046,
                    0.07143294629536133, -0.0769325164113522, 0.083353840546109,
                    -0.09095401714582904, 0.1000994575127818, -0.11133426586956469,
                    0.12550966952474304, -0.1440498967688461, 0.1695571769974082,
                    -0.20738555102867398, 0.27058080842778454, -0.40068563438653143,
                    0.8224670334241132, -0.5772156649015329])[:, None]


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    # numpy's in-place complex multiply rounds a 1-element array differently
    # from a longer one, which would make an entry depend on the array's length
    acc = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        acc = acc * x + c
    return acc


def log_gamma(z) -> np.ndarray:
    """log Gamma(z) modulo 2 pi i, elementwise on a finite complex array; NaN at
    the poles z in Z<=0.

    Hare's scheme (J. Algorithms 25, 1997), on Im z >= 0 by conjugation: z with
    Re z < 0.1 and Im z <= 7 is reflected,
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), with log sin(pi z)
    taken through expm1(2 pi i (z - k)), k = round(Re z), which keeps its digits
    near the poles and cannot overflow.  Then w = z or 1 - z.  On the discs
    |w - 1| <= 0.2 and |w - 2| <= 0.2, where log Gamma has its zeros, w is the
    Taylor series about 1 (after log Gamma(w) = log(w - 1) + log Gamma(w - 1) on
    the second); elsewhere it is the Stirling series at w + n, where n = 0 if
    Re w > 7 or |Im w| > 7, else the least n with Re(w + n) > 7.  No entry's
    value depends on the other entries.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    lower = z.imag < 0.0  # log Gamma(conj z) = conj log Gamma(z)
    z = np.where(lower, z.conj(), z)
    left = (z.real < 0.1) & (z.imag <= 7.0)  # every pole among them
    w = np.where(left, 1.0 - z, z)
    small = (w.real <= 7.0) & (z.imag <= 7.0)  # |Im w| = Im z
    center = np.minimum(np.maximum(np.rint(w.real), 1.0), 2.0)
    taylor = small & (np.abs(w - center) <= 0.2)
    shift = small & ~taylor
    n = np.where(shift, np.floor(7.0 - w.real) + 1.0, 0.0)
    v = w + n
    r = 1.0 / v
    out = (v - 0.5) * np.log(v) - v + _HALF_LOG_2PI + r * _horner(_STIRLING, r * r)
    if shift.any():  # log Gamma(w) = log Gamma(w + n) - log of the product of w + j, j < n
        j = np.arange(7)[:, None]
        factors = np.where(j < n[shift], w[shift] + j, 1.0)
        prod = factors[0]
        # not np.prod: over axis 1 it is slow, over axis 0 its rounding depends on the length
        for f in factors[1:]:
            prod = prod * f
        out[shift] -= np.log(prod)
    if taylor.any():
        x = w[taylor] - center[taylor]
        # its terms added from the smallest, by a running sum: np.sum pairs a lone entry's terms
        series = np.cumsum(_TAYLOR * _powers(x, len(_TAYLOR) - 1)[::-1], axis=0)[-1]
        out[taylor] = x * series + np.where(center[taylor] == 2.0, np.log1p(x), 0.0)
    if left.any():
        zl = z[left]
        k = np.rint(zl.real)
        x = zl - k
        pole = x == 0.0  # z = k <= 0; any regular x keeps the warnings away
        x[pole] = 0.5
        # sin(pi z) = (-1)^k e^(-i pi x) (1 - e^(2 pi i x)) i / 2, |e^(2 pi i x)| <= 1
        log_sin = np.log(-np.expm1(2j * np.pi * x)) - 1j * np.pi * (x - 0.5 - k % 2.0) - _LOG_2
        out[left] = np.where(pole, np.nan, _LOG_PI - log_sin - out[left])
    return np.where(lower, out.conj(), out).reshape(shape)


def c_log(G: GroupDatum, lam: np.ndarray, names=None) -> np.ndarray:
    """log of the rank-one c-function in this normalization, on a finite 1-D ``lam`` array.

    c(lam) = 2^(rho - i lam) Gamma(alpha+1) Gamma(i lam)
             / [Gamma((rho + i lam)/2) Gamma((alpha - beta + 1 + i lam)/2)]

    The three Gamma arguments of every element go through one
    :func:`log_gamma` call.  The entry is +inf at a pole of c
    (lam in i*Z>=0) and -inf at a zero (a denominator pole; where both
    meet the zero wins).  The five log terms grow like |lam| log|lam| and
    cancel; once roundoff on their sum passes 1e-10 (from |lam| about
    2.1e4) the result has no digits to spare and AccuracyError names the
    first such lam, or its entry of ``names`` when given.
    """
    lam = np.asarray(lam, dtype=complex)
    # rows: i lam, (rho + i lam)/2, (alpha - beta + 1 + i lam)/2
    args = np.array([[0.0], [G.rho], [G.jacobi_alpha - G.jacobi_beta + 1.0]]) + 1j * lam
    args[1:] *= 0.5
    terms = np.empty((4, len(lam)), dtype=complex)
    terms[0] = (G.rho - args[0]) * _LOG_2
    b = math.lgamma(G.jacobi_alpha + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms fail the guard
        terms[1:] = log_gamma(args)
        log_c = terms[0] + b + terms[1] - (terms[2] + terms[3])
        lost = _EPS * (np.abs(terms.view(float)).reshape(4, -1, 2).sum(axis=(0, 2)) + abs(b))
    if not (lost <= _LOST_DIGITS_TOL).all():  # too large, or NaN at a Gamma pole
        pole = (args.imag == 0.0) & (args.real <= 0.0) & (args.real == np.floor(args.real))
        log_c[pole[0]] = np.inf
        log_c[pole[1:].any(axis=0)] = -np.inf
        bad = ~(pole.any(axis=0) | (lost <= _LOST_DIGITS_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(
                f"c-function loses too many digits at lam = "
                f"{_lam_text((lam if names is None else names)[i])}: roundoff "
                f"{lost[i]:.2e} on log c exceeds {_LOST_DIGITS_TOL:g}", err_est=float(lost[i])
            )
    return log_c


def c_value(G: GroupDatum, lam: np.ndarray, names=None) -> np.ndarray:
    """c(lam) on a finite 1-D ``lam`` array; 0 at the denominator poles."""
    return np.exp(c_log(G, lam, names))


# ---------------------------------------------------------------------------
# block evaluator and public functions
# ---------------------------------------------------------------------------

def _exp_sides(lam: np.ndarray, far: np.ndarray, near: np.ndarray, radius: float, real: bool):
    """One-sided rows s for the exponential series of the rows lam[far], then
    lam[near], with weights W and the row of lam each side belongs to, such that

        phi_lam = sum over its sides of W g(s)  (of Re W g(s) when ``real``),

    g(s) = c(s) Phi_s.  A row off i*Z is g(lam) + g(-lam), or 2 Re g(lam) for
    real lam.  A row ``near`` i*k, where those two terms cancel, is the N-point
    trapezoid rule for Cauchy's integral over the circle of ``radius`` about ik,

        phi_lam = sum_j phi_{z_j} (z_j - ik) / (N (z_j - lam)),

    accurate to about (|lam - ik| / radius)^N.  About 0, phi_{-z} = phi_z and
    g(-conj z) = conj(g(z)) leave the N/2 sides with Re z > 0 for real lam.
    """
    if real:
        sides, weight, owner = lam[far], np.full(len(far), 2.0), far
    else:
        sides = np.concatenate([lam[far, None], -lam[far, None]], axis=1).ravel()
        weight, owner = np.ones(2 * len(far)), far.repeat(2)
    if not len(near):
        return sides, weight, owner
    z = 1j * np.round(lam[near].imag)[:, None] + radius * _CIRCLE
    w = radius * _CIRCLE / (len(_CIRCLE) * (z - lam[near, None]))
    half = len(_CIRCLE) // 2
    if real:  # z_{j+N/2} = -z_j
        z, w = z[:, :half], 2.0 * (w[:, :half] + w[:, half:])
    else:
        z, w = np.hstack([z, -z]), np.hstack([w, w])
    return (np.concatenate([sides, z.ravel()]), np.concatenate([weight, w.ravel()]),
            np.concatenate([owner, np.repeat(near, z.shape[1])]))


@functools.lru_cache(maxsize=64)
def _rule_nodes(n: int):
    """The radial rule of n panels, composite K51 on [0, n * _T_PANEL] and the only one built:
    its nodes, its weights shaped (51 n, 2), K51 and the embedded G25 (zero at the Kronrod
    nodes), and its split (mid, offsets); held, and not to be written."""
    return composite_nodes(0.0, n * _T_PANEL, n, gauss_kronrod_rule(_T_GAUSS_ORDER))


def _rule_panels(t: np.ndarray):
    """(mid, offsets) when ``t`` is, bit for bit, a radial rule's nodes mid[P] + offsets[j]:
    K51 on n panels of ``_T_PANEL`` from 0, the first 51 n entries of one sequence; else None."""
    n, rest = divmod(len(t), 2 * _T_GAUSS_ORDER + 1)
    nodes, _, panels = _rule_nodes(n) if n and not rest else (None, None, None)
    return panels if panels and t.tobytes() == nodes.tobytes() else None


@functools.lru_cache(maxsize=64)
def _band_points(G: GroupDatum, top: float, n: int, t_bytes: bytes, want_d1: bool):
    """:func:`_band`'s n + 1 points on [0, top] and their rows at the t of ``t_bytes``, held per
    preset and not to be written; no rows if a point's row fails (the block names its own lam)."""
    nodes = top * np.sin(0.5 * np.pi * np.arange(n + 1) / n) ** 2
    try:
        return nodes, _phi_rows(G, nodes.astype(complex), np.frombuffer(t_bytes), want_d1, True)
    except AccuracyError:
        return nodes, None


# the s on which _band minimises its bound
_BAND_S = np.linspace(0.05, 8.0, 160)


def _band(G: GroupDatum, mod: np.ndarray, t: np.ndarray, outs, want_d1: bool) -> int:
    """Fill the columns t <= _PFAFF_T of ``outs`` (real rows of modulus ``mod``) by barycentric
    interpolation in |lam| from n + 1 Chebyshev points of the second kind on [0, L], L = max mod
    rounded up to a multiple of 4 (:func:`_band_points`, held only when ``t`` is a radial rule's
    nodes, as a plain grid's rows can have any width); return their count, or 0 if
    the rows are no more than the points or a point's row fails.  On the Bernstein ellipse e^s
    about [0, L], |phi_lam(t)| <= M Xi(t), M = e^{(L/2) sinh(s) t} (times |lam| + rho for phi'):
    n is the least with 4 M e^{-ns} / (e^s - 1) below roundoff (Trefethen, ATAP Thm 8.2);
    np.einsum sums."""
    nb, s = int(t.searchsorted(_PFAFF_T, side="right")), _BAND_S
    h = 2.0 * np.ceil(0.25 * mod.max(initial=0.0))
    if not (nb and h > 0.0 and len(mod) > 1):  # the cheap tests first: one row has no band
        return 0
    log_m = h * np.sinh(s) * t[:nb].max(initial=0.0) + math.log(4.0 / _EPS)
    log_m += np.log(h + h * np.cosh(s) + G.rho) if want_d1 else 0.0
    n = np.ceil(((log_m - np.log(np.expm1(s))) / s).min())
    if not n + 1 < len(mod):  # n is inf where the bound overflows
        return 0
    points = _band_points if _rule_panels(t) else _band_points.__wrapped__
    nodes, at_nodes = points(G, 2.0 * h, int(n), t[:nb].tobytes(), want_d1)
    if at_nodes is None:
        return 0
    hit = mod[:, None] == nodes
    w = np.where(np.arange(n + 1) % 2, -1.0, 1.0) * np.where(np.arange(n + 1) % n, 1.0, 0.5)
    c = np.where(hit.any(axis=1)[:, None], hit, w / np.where(hit, 1.0, mod[:, None] - nodes))
    for out, F in zip(outs, at_nodes):  # numerators and denominator in one sum
        sums = np.einsum("ij,jk->ik", c, np.column_stack([F, np.ones(len(F))]))
        out[:, :nb] = sums[:, :-1] / sums[:, -1:]
    return nb


def _phi_rows(G: GroupDatum, lam: np.ndarray, t: np.ndarray, want_d1: bool, real: bool):
    """[phi] or [phi, phi'] on complex rows lam x ascending columns t, real if ``real``: on a
    radial rule's nodes t = mid[P] + offsets[j] (:func:`_rule_panels`), else one panel per t.

    A real block takes t <= 1.2 from :func:`_band` when it can.  Otherwise a row leaves the
    Pfaff series at 9.6/|lam| (1.2 for |lam| <= 8), or at 0.05 past |lam| = 192, for
    the exponential series, which a row within a tenth of the circle radius of i*Z takes from
    a Cauchy circle of ordinary rows (see :func:`_exp_sides`).  The radius is small enough
    that the Taylor coefficients of phi in lam, of size t^n / n!, alias below roundoff, and
    large enough that the one-sided rows, of size 1 / radius, keep their digits.  Each branch
    is one pass.
    """
    panels = _rule_panels(t) or (t, _NO_OFFSET)
    val = np.empty((len(lam), len(t)), dtype=float if real else complex)
    outs = [val, np.empty_like(val)] if want_d1 else [val]
    mod = np.abs(lam)
    nb = _band(G, mod, t, outs, want_d1) if real else 0
    # all series start past a band, else at 9.6/|lam| (1.2 = _PFAFF_T, exactly, for |lam| <= 8)
    # but not before t = 0.05.  Every exponential series settles within _MAX_HC_TERMS terms
    # from t = ln(1e19) / (2 (_MAX_HC_TERMS - 2)) = 0.0439 on (see _hc_coefficients); 0.05
    # keeps the default grid's t = 0.05 of `phi --lam 500` on H3 on the Pfaff series, whose
    # guard fires there, until the term cap grows with |lam| (ROADMAP item 1)
    switch = np.full(len(lam), _PFAFF_T) if nb else np.maximum(9.6 / np.maximum(mod, 8.0), 0.05)
    radius = 0.64 / max(t.max(initial=0.0), _CIRCLE_T)
    near = np.abs(lam - 1j * np.rint(lam.imag)) < 0.1 * radius
    lo = int(t.searchsorted(switch.min(initial=np.inf), side="right"))
    if lo < len(t):
        far, on = (~near).nonzero()[0], near.nonzero()[0]
        sides, weight, owner = _exp_sides(lam, far, on, radius, real)
        # each side's first column past its row's switch point
        t_min = np.concatenate([t, [np.inf]])[t.searchsorted(switch[owner], side="right")]
        n = len(far) if real else 2 * len(far)
        for cols, parts in _hc_series(G, sides, panels, lo, t_min, want_d1, weight, real,
                                      lam[owner]):
            for out, part in zip(outs, parts):
                out[far, cols] = part[:n] if real else part[:n:2] + part[1:n:2]
                if on.size:
                    out[on, cols] = part[n:].reshape(len(on), -1, part.shape[1]).sum(axis=1)
    hi = int(t.searchsorted(switch.max(initial=0.0), side="right"))
    if hi > nb:
        own = t[:hi] <= switch[:, None]
        for out, part in zip(outs, _pfaff_series(G, lam, t[:hi], own, want_d1)):
            out[:, :hi] = np.where(own, part.real if real else part, out[:, :hi])
    return outs


def _finite_array(x, kinds: str, what: str) -> np.ndarray:
    """``x`` as an array; DomainError ``what`` (and ``x``) unless its entries are finite numbers
    of a dtype kind in ``kinds``: "biuf" for real ones, "biufc" for complex ones too (a ragged
    nesting is neither)."""
    arr = _array(x)
    if arr.dtype.kind not in kinds or not np.isfinite(arr).all():
        raise DomainError(f"{what}, got {x!r}")
    return arr


def _evaluate(G: GroupDatum, lam, t, order: int):
    """phi, or its t-derivative of ``order`` 1 or 2, shaped as in :func:`phi`.  On a radial
    rule's nodes mid[P] + offsets[j], recognised by their values, every order factors e^{mu t}
    per panel (see :func:`_hc_series`); other ``t`` are one panel per column."""
    lam_arr = _finite_array(lam, "biufc", "phi requires finite lam")
    t_arr = _finite_array(t, "biuf", "phi requires finite real t").astype(float, copy=False)
    if lam_arr.ndim > 1:
        raise DomainError("lam must be a scalar or a 1-D array")
    if (t_arr < 0).any():
        raise DomainError("phi requires t >= 0")
    rows = lam_arr.reshape(-1).astype(complex)
    real = not rows.imag.any()
    ts = t_arr.ravel()
    perm = None if (ts[1:] >= ts[:-1]).all() else np.argsort(ts, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # a value past float range is named below
        outs = _phi_rows(G, rows, ts if perm is None else ts[perm], order > 0, real)
    if perm is not None:  # the branches fill column ranges of ascending t
        outs = [o[:, np.argsort(perm)] for o in outs]
    for part in outs[1:] if order == 1 else outs:  # the values the result is made of
        if not np.isfinite(part).all():
            i, j = np.unravel_index(np.argmax(~np.isfinite(part)), part.shape)
            raise EvaluationError(f"{('phi', 'phi_d1', 'phi_d2')[order]} leaves float range at "
                                  f"lam = {_lam_text(rows[i])}, t = {float(ts[j])!r}")
    out = outs[min(order, 1)]
    if order == 2:  # phi'' = -(Delta'/Delta) phi' - (lam^2 + rho^2) phi
        val, der = outs
        ev = (rows.real**2 if real else rows * rows)[:, None] + G.rho * G.rho
        # the t = 0 limit, only where its O(t^2 (lam^2 + rho^2)) remainder is below roundoff
        at0 = ts * ts * np.abs(ev) <= _EPS
        out = -ev * val
        far = ~at0.all(axis=0)
        out[:, far] -= haar_log_derivative(G, ts[far]) * der[:, far]
        out = np.where(at0, -ev / (2.0 * (G.jacobi_alpha + 1.0)), out)
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
    """Second radial derivative of phi_lam, from the radial equation, or its exact
    limit -(lam^2 + rho^2)/(2 (alpha + 1)) at 0 where t^2 |lam^2 + rho^2| is below
    roundoff; shapes as in :func:`phi`."""
    return _evaluate(G, lam, t, 2)


def xi(G: GroupDatum, t):
    """Reference spherical function Xi(t) = phi_0(t); real, in (0, 1]."""
    out = phi(G, 0.0, t).real
    return float(out) if np.ndim(t) == 0 else out
