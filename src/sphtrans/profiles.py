"""Shipped radial test-function family.

Analytic evaluators with closed-form first and second derivatives, so
seminorm and Casimir checks never depend on differencing noise.  Decay
metadata is a genuine global envelope in every case.
"""

from __future__ import annotations

import numpy as np

from .groups import GroupDatum
from .specfun import ExpDecay
from .spherical import RadialProfile, phi_d1, phi_d2, xi


def gaussian_profile(G: GroupDatum, width: float = 1.0, scale: float = 1.0) -> RadialProfile:
    """f(t) = scale * exp(-width t^2); decays faster than any shipped rate.

    The envelope rate 2*rho + 2 keeps the profile admissible for every
    forward-transform and tube precondition.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    rate = 2.0 * G.rho + 2.0
    coeff = abs(scale) * np.exp(rate * rate / (4.0 * width))

    def f(t):
        return scale * np.exp(-width * t * t)

    def d1(t):
        return -2.0 * width * t * f(t)

    def d2(t):
        return (4.0 * width * width * t * t - 2.0 * width) * f(t)

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=float(coeff), rate=rate, degree=0),
        d1=d1,
        d2=d2,
        label=f"gauss(w={width})",
    )


def cosh_profile(G: GroupDatum, power: float | None = None) -> RadialProfile:
    """f(t) = cosh(t)^(-q) with q defaulting to 2*rho + 3."""
    q = float(power) if power is not None else 2.0 * G.rho + 3.0
    if q <= 2.0 * G.rho:
        raise ValueError("cosh power too small for Schwartz-class use")

    def f(t):
        return np.cosh(t) ** (-q)

    def d1(t):
        return -q * np.tanh(t) * f(t)

    def d2(t):
        th = np.tanh(t)
        return (q * q * th * th - q * (1.0 - th * th)) * f(t)

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=2.0**q, rate=q, degree=0),
        d1=d1,
        d2=d2,
        label=f"cosh^-{q}",
    )


def xi_poly_profile(G: GroupDatum, p: int = 3) -> RadialProfile:
    """f(t) = Xi(t) (1 + t)^(-p): borderline Schwartz behaviour by design.

    Decays exactly like e^{-rho t} (1+t)^(1-p), so for p = 3 the r <= 3
    seminorms are finite while larger weights saturate the grid boundary.
    Not admissible for the forward transform (decay not strictly
    stronger than the Haar growth), which is also by design.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")

    def f(t):
        return xi(G, t) * (1.0 + t) ** (-p)

    def d1(t):
        return np.real(phi_d1(G, 0.0, t)) * (1.0 + t) ** (-p) - p * xi(G, t) * (1.0 + t) ** (
            -p - 1
        )

    def d2(t):
        return (
            np.real(phi_d2(G, 0.0, t)) * (1.0 + t) ** (-p)
            - 2.0 * p * np.real(phi_d1(G, 0.0, t)) * (1.0 + t) ** (-p - 1)
            + p * (p + 1) * xi(G, t) * (1.0 + t) ** (-p - 2)
        )

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=2.0, rate=G.rho, degree=1 - p),
        d1=d1,
        d2=d2,
        label=f"xi*(1+t)^-{p}",
    )


def zero_profile(G: GroupDatum) -> RadialProfile:
    def f(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return RadialProfile(
        eval=f,
        decay=ExpDecay(coeff=1e-300, rate=2.0 * G.rho + 2.0, degree=0),
        d1=f,
        d2=f,
        label="zero",
    )
