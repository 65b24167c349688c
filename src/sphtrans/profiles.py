"""Shipped radial test-function family.

Analytic evaluators with closed-form first and second derivatives, so
seminorm and Casimir checks never depend on differencing noise.  Decay
metadata is a genuine global envelope in every case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .groups import GroupDatum, _real_scalar
from .specfun import ExpDecay
from .spherical import RadialProfile, phi_d1, phi_d2, xi

_LOG_MAX = math.log(np.finfo(float).max)  # e^x overflows past it


def gaussian_profile(G: GroupDatum, width: float = 1.0, scale: float = 1.0) -> RadialProfile:
    """f(t) = scale * exp(-width t^2); decays faster than any shipped rate.

    The envelope rate 2*rho + 2 keeps the profile admissible for every
    forward-transform and tube precondition.
    """
    _real_scalar(width, "gaussian_profile", "width")
    _real_scalar(np.real(scale), "gaussian_profile", "scale")  # a complex scale is allowed
    rate = 2.0 * G.rho + 2.0
    if not (0.0 < width < math.inf and rate * rate / (4.0 * width) < _LOG_MAX):  # NaN fails
        raise DomainError(f"gaussian_profile: width = {width!r} must be positive, with "
                          f"e^({rate}^2 / (4 width)) finite")
    coeff = abs(scale) * float(np.exp(rate * rate / (4.0 * width)))
    if not math.isfinite(coeff):
        raise DomainError(f"gaussian_profile: scale = {scale!r} gives envelope coefficient {coeff}")

    def f(t):
        return scale * np.exp(-width * t * t)

    def derivs(t, k):
        return (-2.0 * width * t if k == 1 else 4.0 * width * width * t * t - 2.0 * width) * f(t)

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=coeff, rate=rate, degree=0),
        derivs=derivs,
        label=f"gauss(w={width})",
    )


def cosh_profile(G: GroupDatum, power: float | None = None) -> RadialProfile:
    """f(t) = cosh(t)^(-q) with q defaulting to 2*rho + 3."""
    q = (float(_real_scalar(power, "cosh_profile", "power")) if power is not None
         else 2.0 * G.rho + 3.0)
    if not 2.0 * G.rho < q < 1024.0:  # NaN fails; the coefficient 2^q overflows at 1024
        raise DomainError(f"cosh_profile: power = {q!r} must lie in (2 rho, 1024) = "
                          f"({2.0 * G.rho}, 1024) for Schwartz-class use")

    def f(t):
        return np.cosh(t) ** (-q)

    def derivs(t, k):
        th = np.tanh(t)
        return (-q * th if k == 1 else q * q * th * th - q * (1.0 - th * th)) * f(t)

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=2.0**q, rate=q, degree=0),
        derivs=derivs,
        label=f"cosh^-{q}",
    )


def xi_poly_profile(G: GroupDatum, p: int = 3) -> RadialProfile:
    """f(t) = Xi(t) (1 + t)^(-p): borderline Schwartz behaviour by design.

    Decays exactly like e^{-rho t} (1+t)^(1-p), so for p = 3 the r <= 3
    seminorms are finite while larger weights saturate the grid boundary.
    Not admissible for the forward transform (decay not strictly
    stronger than the Haar growth), which is also by design.
    """
    _real_scalar(p, "xi_poly_profile", "p")
    if not 1 <= p < math.inf:
        raise DomainError(f"xi_poly_profile: p = {p!r} must be finite and at least 1")

    def f(t):
        return xi(G, t) * (1.0 + t) ** (-p)

    def derivs(t, k):
        if k == 1:
            return (np.real(phi_d1(G, 0.0, t)) * (1.0 + t) ** (-p)
                    - p * xi(G, t) * (1.0 + t) ** (-p - 1))
        return (
            np.real(phi_d2(G, 0.0, t)) * (1.0 + t) ** (-p)
            - 2.0 * p * np.real(phi_d1(G, 0.0, t)) * (1.0 + t) ** (-p - 1)
            + p * (p + 1) * xi(G, t) * (1.0 + t) ** (-p - 2)
        )

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=2.0, rate=G.rho, degree=1 - p),
        derivs=derivs,
        label=f"xi*(1+t)^-{p}",
    )

