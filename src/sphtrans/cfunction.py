"""Harish-Chandra c-function, Plancherel density, and an asymptotic-fit oracle.

The c-function is the Gamma quotient fixed by the large-t behaviour of
the spherical functions in this package's normalization (see
:mod:`sphtrans.spherical` for the conventions):

    phi_lam(t) * e^{rho t}  ->  c(lam) e^{i lam t} + c(-lam) e^{-i lam t}.

The quotient is reduced once per preset by Legendre's duplication formula
and integer shifts (:func:`sphtrans.spherical._c_reduction`): c(lam) = 1/(i lam)
on H3 and SL2C, and a ratio of two Gammas times elementary factors on SL2R,
H4 and CH2.  Everything is computed in log space and exponentiated once, so
Gamma ratios never overflow on the spectral windows used here.  The oracle
recovers c(lam) directly from that asymptotic relation by propagating
the radial differential equation out of the small-t region and fitting
the two exponentials, which keeps it independent of the Gamma quotient.
The ODE is the oracle's own: ``phi`` never solves it.  It is seeded at
t = 1.2 by the Pfaff series and solved in numpy alone, in Greengard's
Chebyshev integral form on unit steps with 25 points each (see
:func:`_ode_solution`); ``numpy.polynomial`` is imported only when the
oracle runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, EvaluationError, PoleError
from .groups import GroupDatum, haar_log_derivative
from .spherical import _c_from_log, _finite_array, _lam_text, _pfaff_series, c_log

__all__ = [
    "CFit",
    "c_function",
    "plancherel_density",
    "asymptotic_c_oracle",
]


def c_function(G: GroupDatum, lam):
    """c(lam) as a Gamma quotient for complex lam, a scalar or an array as in
    :func:`plancherel_density`, each entry bit-equal to the scalar call.  PoleError names the
    first lam at a pole of c (in i*Z>=0, see :func:`sphtrans.spherical._c_reduction`),
    EvaluationError the first whose c is past float range (next to a pole), and DomainError a
    lam that is not finite or not a number."""
    lam_arr = _finite_array(lam, "biufc", "c_function requires finite lam").astype(complex)
    flat = lam_arr.ravel()
    log_c = c_log(G, flat)
    for i in np.flatnonzero(log_c.real == np.inf)[:1]:
        raise PoleError(f"c-function pole at lam = {flat[i]} (i lam = {-int(flat[i].imag)})",
                        pole=-int(flat[i].imag))
    with np.errstate(over="ignore", invalid="ignore"):  # inf times i^k: NaN and inf parts
        out = _in_float_range(_c_from_log(log_c), flat, "c_function")
    return complex(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


def plancherel_density(G: GroupDatum, lam):
    """|c(lam)|^(-2) for real lam; even, nonnegative, and 0 at lam = 0.  Accepts scalars or
    arrays; EvaluationError names the first lam whose density is past float range."""
    if np.iscomplexobj(lam):
        raise DomainError(f"plancherel_density requires real lam, got {lam!r}")
    lam_arr = _finite_array(lam, "biuf", "plancherel_density requires finite lam").astype(float)
    flat = lam_arr.ravel()
    with np.errstate(over="ignore"):
        out = _in_float_range(np.exp(-2.0 * c_log(G, flat).real), flat, "plancherel_density")
    return float(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


def _in_float_range(out: np.ndarray, lam: np.ndarray, who: str) -> np.ndarray:
    """``out``; EvaluationError naming the first entry of ``lam`` whose entry of out is infinite."""
    for i in np.flatnonzero(np.isinf(out))[:1]:
        raise EvaluationError(f"{who} leaves float range at lam = {_lam_text(lam[i])}")
    return out


_ODE_T0 = 1.2  # the oracle's ODE starts from the Pfaff series here
_ODE_N = 25  # Chebyshev points on each unit step of the oracle's ODE
_FIT_SAMPLES = 161  # points of the oracle's least-squares fit on [T, T + 10]


def _ode_solution(G: GroupDatum, lam: complex, ts: np.ndarray) -> np.ndarray:
    """w = e^{rho t} phi_lam(t) at the array ``ts`` (NaN where t < 1.2), from the radial ODE

        w'' + g w' + (lam^2 - rho g) w = 0,   g = Delta'/Delta - 2 rho,

    seeded at t = 1.2 with w and w' from the Pfaff series.  It is solved in Greengard's
    integral form on unit steps from 1.2: on each, the unknown is w'' as a Chebyshev series
    of degree 24 collocated at the step's 25 Chebyshev-Lobatto points, and w' and w are its
    integrals from the step's start, so a step is one 25 x 25 linear solve.  Each t reads
    the series of w on its own step."""
    from numpy.polynomial import chebyshev as C  # costs start-up time; only this oracle needs it

    x = -np.cos(np.pi * np.arange(_ODE_N) / (_ODE_N - 1))  # the nodes on [-1, 1], t = t0 + (x+1)/2
    # the m-th t-integral from the step's start, at the nodes, of each Chebyshev basis term
    ints = [C.chebvander(x, _ODE_N - 1 + m) @ C.chebint(np.eye(_ODE_N), m, lbnd=-1, scl=0.5)
            for m in range(3)]
    seed = _pfaff_series(G, np.array([lam]), np.array([_ODE_T0]), None, True)
    w, dw = (complex(z[0, 0]) * cmath.exp(G.rho * _ODE_T0) for z in seed)  # e^{rho t} phi, phi'
    dw += G.rho * w
    step = np.floor(ts - _ODE_T0)
    out = np.full(ts.shape, np.nan, dtype=complex)
    for k in range(int(step.max(initial=-1.0)) + 1):
        g = haar_log_derivative(G, _ODE_T0 + k + (x + 1.0) / 2.0) - 2.0 * G.rho
        q = lam * lam - G.rho * g
        coef = np.linalg.solve(ints[0] + g[:, None] * ints[1] + q[:, None] * ints[2],
                               -g * dw - q * (w + dw * (x + 1.0) / 2.0))
        d_series = C.chebint(coef, 1, k=dw, lbnd=-1, scl=0.5)
        w_series = C.chebint(d_series, 1, k=w, lbnd=-1, scl=0.5)
        out[step == k] = C.chebval(2.0 * (ts[step == k] - _ODE_T0 - k) - 1.0, w_series)
        w, dw = w_series.sum(), d_series.sum()  # the values at x = 1, the next step's start
    return out


@dataclass(frozen=True)
class CFit:
    """Result of the asymptotic two-exponential fit.

    c_plus is the oracle value of c(lam); c_minus approximates c(-lam).
    """

    c_plus: complex
    c_minus: complex
    residual: float
    window: tuple[float, float]


def asymptotic_c_oracle(G: GroupDatum, lam: float, T: float) -> CFit:
    """Independent determination of c(lam) from the large-t wave field.

    Propagates w(t) = e^{rho t} phi_lam(t) with the radial ODE from the
    small-t region (where the hypergeometric series is unconditionally
    accurate) into [T, T+10], then least-squares fits

        w(t) ~ c_plus e^{i lam t} + c_minus e^{-i lam t}.

    Never touches the Gamma-quotient route, so agreement between the two
    is a genuine cross-validation.
    """
    lam = float(lam)
    if lam == 0.0:
        raise DomainError("asymptotic oracle requires lam != 0")
    if abs(lam) < 0.02:
        raise ConditioningError(
            f"two-exponential fit ill-conditioned for |lam| = {abs(lam)} < 0.02"
        )
    if math.exp(-2.0 * G.rho * T) >= 1e-10:
        raise DomainError(
            f"window start T = {T} too small: need exp(-2 rho T) < 1e-10"
        )
    t_hi = T + 10.0
    ts = np.linspace(T, t_hi, _FIT_SAMPLES)
    w = _ode_solution(G, complex(lam), ts)
    design = np.column_stack([np.exp(1j * lam * ts), np.exp(-1j * lam * ts)])
    coeffs, _, _, sv = np.linalg.lstsq(design, w, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if cond > 1e8:
        raise ConditioningError(f"fit condition number {cond:.2e} too large")
    resid = float(np.linalg.norm(design @ coeffs - w) / max(np.linalg.norm(w), 1e-300))
    if resid >= 1e-6:
        raise AccuracyError(
            f"asymptotic fit residual {resid:.3e} exceeds 1e-6", err_est=resid
        )
    return CFit(
        c_plus=complex(coeffs[0]),
        c_minus=complex(coeffs[1]),
        residual=resid,
        window=(T, t_hi),
    )
