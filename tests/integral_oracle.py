"""Oracles independent of the series in :func:`sphtrans.spherical.phi`:
phi_lam(t) by an integral representation, and the H3 transform of a Gaussian
in closed form; the tests hold phi and the transforms to them."""

import math

import numpy as np

from sphtrans.errors import DomainError
from sphtrans.groups import GroupDatum
from sphtrans.specfun import DEFAULT_QUAD, QuadratureSpec, integrate_interval


def phi_integral_oracle(G: GroupDatum, lam, t, q: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """phi_lam(t) via the classical sphere average

        phi_lam(t) = c_n * int_0^pi (cosh t - sinh t cos(th))^(-(i lam + rho))
                                     sin(th)^(n-2) dth,   n = m_alpha + 1,

    valid for the presets without a double root.  Entirely independent of
    the series machinery in :func:`phi`.
    """
    if G.m_2alpha != 0:
        raise DomainError(
            f"integral representation unavailable for preset {G.name} (m_2alpha != 0)"
        )
    lam = complex(lam)
    t = float(t)
    if t < 0:
        raise DomainError("oracle requires t >= 0")
    if t == 0.0:
        return 1.0 + 0.0j
    n = G.m_alpha + 1
    cn = math.exp(math.lgamma(0.5 * n) - 0.5 * math.log(math.pi) - math.lgamma(0.5 * (n - 1)))
    ch, sh = math.cosh(t), math.sinh(t)
    expo = -(1j * lam + G.rho)

    def integrand(theta):
        base = ch - sh * np.cos(theta)
        vals = np.exp(expo * np.log(base))
        if n > 2:
            vals = vals * np.sin(theta) ** (n - 2)
        return vals

    value, _ = integrate_interval(integrand, 0.0, math.pi, q)
    return cn * value


def gauss_transform_h3(lam, w=1.0):
    """(Hf)(lam) for f = exp(-w t^2) on H3, where phi_lam = sin(lam t)/(lam sinh t) and
    Delta = 4 sinh^2 t: (4/lam) int e^{-w t^2} sin(lam t) sinh t dt, by the Gaussian
    cosine transform at lam -+ i."""
    scale = math.sqrt(math.pi / w) * np.exp((1.0 - lam * lam) / (4.0 * w))
    return (2.0 / lam) * scale * np.sin(lam / (2.0 * w))
