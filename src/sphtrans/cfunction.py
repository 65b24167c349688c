"""Harish-Chandra c-function, Plancherel density, and an asymptotic-fit oracle.

The c-function is the Gamma quotient fixed by the large-t behaviour of
the spherical functions in this package's normalization (see
:mod:`sphtrans.spherical` for the conventions):

    phi_lam(t) * e^{rho t}  ->  c(lam) e^{i lam t} + c(-lam) e^{-i lam t}.

Everything is computed in log space and exponentiated once, so Gamma
ratios never overflow on the spectral windows used here.  The oracle
recovers c(lam) directly from that asymptotic relation by propagating
the radial differential equation out of the small-t region and fitting
the two exponentials, which keeps it independent of the Gamma quotient.
The ODE is the oracle's own: ``phi`` never solves it, and
``scipy.integrate`` is imported only when the oracle runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, PoleError
from .groups import GroupDatum
from .spherical import _finite_array, _pfaff_series, c_log, c_value

__all__ = [
    "CFit",
    "c_function",
    "plancherel_density",
    "asymptotic_c_oracle",
]


def c_function(G: GroupDatum, lam):
    """c(lam) as a Gamma quotient for complex lam, a scalar or an array as in
    :func:`plancherel_density`, each entry bit-equal to the scalar call.  PoleError
    names the first lam in i*Z>=0 (a pole of Gamma(i lam)), DomainError a lam that is not
    finite or not a number."""
    lam_arr = _finite_array(lam, "biufc", "c_function requires finite lam").astype(complex)
    flat = lam_arr.ravel()
    pole = (flat.real == 0.0) & (flat.imag >= 0.0) & (flat.imag == np.floor(flat.imag))
    if pole.any():
        z = complex(flat[np.argmax(pole)])
        raise PoleError(f"c-function pole at lam = {z} (Gamma(i*lam) pole)", pole=-int(z.imag))
    out = c_value(G, flat)
    return complex(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


def plancherel_density(G: GroupDatum, lam):
    """|c(lam)|^(-2) for real lam; even, nonnegative, and 0 at lam = 0.

    Accepts scalars or arrays.
    """
    if np.iscomplexobj(lam):
        raise DomainError(f"plancherel_density requires real lam, got {lam!r}")
    lam_arr = _finite_array(lam, "biuf", "plancherel_density requires finite lam").astype(float)
    out = np.exp(-2.0 * c_log(G, lam_arr.ravel()).real)
    return float(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


_ODE_T0 = 1.2  # the oracle's ODE starts from the Pfaff series here
_FIT_SAMPLES = 161  # points of the oracle's least-squares fit on [T, T + 10]


def _g_remainder(G: GroupDatum, t):
    """Delta'/Delta - 2 rho, exponentially small for large t."""
    g = G.m_alpha * (-2.0 * np.exp(-2.0 * t) / np.expm1(-2.0 * t))
    return g + 2.0 * G.m_2alpha * (-2.0 * np.exp(-4.0 * t) / np.expm1(-4.0 * t)) if G.m_2alpha else g


def _ode_solution(G: GroupDatum, lam: complex, t_max: float):
    """Dense solution (Re w, Im w, Re w', Im w') of the radial ODE for
    w = e^{rho t} phi_lam on [1.2, max(t_max + 1, 8)], seeded by the Pfaff series."""
    from scipy.integrate import solve_ivp  # costs start-up time; only this oracle needs it

    lam2 = lam * lam
    rho = G.rho

    def rhs(s, y):
        g = float(_g_remainder(G, s))
        acc = -g * complex(y[2], y[3]) - (lam2 - rho * g) * complex(y[0], y[1])
        return [y[2], y[3], acc.real, acc.imag]

    seed = _pfaff_series(G, np.array([lam]), np.array([_ODE_T0]), None, True)
    v0, d0 = (complex(z[0, 0]) for z in seed)
    w0 = cmath.exp(rho * _ODE_T0) * v0
    w0p = cmath.exp(rho * _ODE_T0) * (d0 + rho * v0)
    sol = solve_ivp(rhs, (_ODE_T0, max(t_max + 1.0, 8.0)), [w0.real, w0.imag, w0p.real, w0p.imag],
                    method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    if not sol.success:
        raise AccuracyError(f"radial ODE propagation failed: {sol.message}")
    return sol


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
    sol = _ode_solution(G, complex(lam), t_hi)
    ts = np.linspace(T, t_hi, _FIT_SAMPLES)
    y = sol.sol(ts)
    w = y[0] + 1j * y[1]
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
