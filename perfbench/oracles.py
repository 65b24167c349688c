"""Closed forms the benchmark checks sphtrans against.

Nothing here imports sphtrans: every value comes from a formula that
holds in the package's normalization (Koornwinder's Jacobi-function
normalization, "Jacobi functions and analysis on noncompact semisimple
Lie groups", 1984).  On H3, rho = 1, Delta(t) = 4 sinh^2 t and
c_P = 1/(2 pi).  ``test_oracles.py`` checks each formula against direct
quadrature.
"""

from __future__ import annotations

import math

import numpy as np

PLANCHEREL_CONSTANT = 1.0 / (2.0 * math.pi)

# The six spectral symbols of the ``sphtrans`` CLI, written out again so
# that a round trip is checked against the mathematical symbol and not
# against the program's own copy of it.
SYMBOLS = {
    "gauss": lambda x: np.exp(-(x**2)),
    "x2gauss": lambda x: x**2 * np.exp(-(x**2)),
    "wide": lambda x: np.exp(-(x**2) / 4.0),
    "poly": lambda x: (1.0 + x**2) * np.exp(-(x**2)),
    "quartic": lambda x: np.exp(-(x**4) / 8.0),
    "flat4": lambda x: np.exp(-((x / 3.2) ** 4)),
}


def _sinc(z):
    """sin(z)/z for real or complex z, 1 at z = 0."""
    return np.sinc(np.asarray(z) / np.pi)


def phi_h3(lam: float, t) -> np.ndarray:
    """phi_lam(t) = sin(lam t) / (lam sinh t) on H3, for real lam."""
    t = np.asarray(t, dtype=float)
    return _sinc(lam * t) * xi_h3(t)


def xi_h3(t) -> np.ndarray:
    """Xi(t) = phi_0(t) = t / sinh t on H3; |phi_lam(t)| <= Xi(t) for real lam."""
    t = np.asarray(t, dtype=float)
    return 1.0 / _sinc(1j * t).real  # sinh(t)/t = sinc(i t)


def density_h3(lam) -> np.ndarray:
    """|c(lam)|^-2 = lam^2 on H3."""
    lam = np.asarray(lam, dtype=float)
    return lam * lam


def density_sl2r(lam) -> np.ndarray:
    """|c(lam)|^-2 = pi lam tanh(pi lam) on SL2R."""
    lam = np.asarray(lam, dtype=float)
    return math.pi * lam * np.tanh(math.pi * lam)


def gauss_transform_h3(lam, w: float) -> np.ndarray:
    """(Hf)(lam) for f(t) = exp(-w t^2) on H3; lam may be complex.

    (2/lam) sqrt(pi/w) exp((1 - lam^2)/(4w)) sin(lam/(2w)), written with
    sinc so that lam = 0 is covered.
    """
    lam = np.asarray(lam, dtype=complex)
    return (
        (1.0 / w)
        * math.sqrt(math.pi / w)
        * np.exp((1.0 - lam * lam) / (4.0 * w))
        * _sinc(lam / (2.0 * w))
    )


def gauss_convolution_h3(w1: float, w2: float) -> float:
    """(f_w1 * f_w2)(1) = sqrt(pi/W) (exp(1/W) - 1) on H3, W = w1 + w2."""
    W = w1 + w2
    return math.sqrt(math.pi / W) * math.expm1(1.0 / W)


def wide_packet_h3(t) -> np.ndarray:
    """psi_a(t) for a(nu) = exp(-nu^2/4) on H3: t exp(-t^2) / (sqrt(pi) sinh t)."""
    t = np.asarray(t, dtype=float)
    return xi_h3(t) * np.exp(-t * t) / math.sqrt(math.pi)
