"""Rank-one group presets and the radial Haar weight.

A rank-one space is fixed by its pair of restricted-root multiplicities
(m_alpha, m_2alpha) on the half-line radial coordinate t >= 0 coming from
the Cartan decomposition.  A :class:`GroupDatum` is built from that pair
alone; every structural constant derives from it:

    rho          = (m_alpha + 2*m_2alpha) / 2
    jacobi_alpha = (m_alpha + m_2alpha - 1) / 2
    jacobi_beta  = (m_2alpha - 1) / 2

Two data with equal multiplicities compare and hash equal whatever their
names, so every table cache keyed on a datum serves both (SL2C and H3
share theirs).

The radial Haar weight is normalized once and for all as

    Delta(t) = (2 sinh t)^m_alpha * (2 sinh 2t)^m_2alpha

so that Delta(t) <= exp(2*rho*t) for every t >= 0 with equality in the
limit t -> oo.  Since 2 sinh 2t = (2 sinh t)(2 cosh t), this is the Jacobi
weight (2 sinh t)^(2 alpha + 1) (2 cosh t)^(2 beta + 1), and with the 2F1
normalization of phi and the Gamma-quotient c(lam) used here the Jacobi
inversion constant is exactly c_P = 1/(2 pi) (Koornwinder, "Jacobi
functions and analysis on noncompact semisimple Lie groups", 1984).  Every
datum carries it as the constant ``plancherel_constant``; the tests check
it against the forward/inverse round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError, UnknownPresetError

# name -> (m_alpha, m_2alpha)
_PRESET_MULTIPLICITIES = {
    "SL2R": (1, 0),
    "SL2C": (2, 0),
    "H3": (2, 0),
    "H4": (3, 0),
    "CH2": (2, 1),
}

PRESET_NAMES = tuple(_PRESET_MULTIPLICITIES)

# Jacobi inversion constant c_P for this weight and c-function normalization
PLANCHEREL_CONSTANT = 1.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class GroupDatum:
    """Structural constants of a rank-one space, derived from (m_alpha, m_2alpha).

    ``name`` is a label only: equality and hashing see the multiplicities.
    ``rho`` and the Jacobi parameters are set from them and cannot be
    passed in.  Immutable after construction; safe to share across threads.
    """

    name: str = field(compare=False)
    m_alpha: int
    m_2alpha: int
    rho: float = field(init=False, compare=False)
    jacobi_alpha: float = field(init=False, compare=False)
    jacobi_beta: float = field(init=False, compare=False)

    plancherel_constant: ClassVar[float] = PLANCHEREL_CONSTANT
    weyl_order: ClassVar[int] = 2  # rank one

    def __post_init__(self):
        m1, m2 = self.m_alpha, self.m_2alpha
        object.__setattr__(self, "rho", (m1 + 2 * m2) / 2.0)
        object.__setattr__(self, "jacobi_alpha", (m1 + m2 - 1) / 2.0)
        object.__setattr__(self, "jacobi_beta", (m2 - 1) / 2.0)
        if self.rho <= 0:
            raise DomainError(f"rho must be positive, got {self.rho} from ({m1}, {m2})")
        if not (self.jacobi_alpha >= self.jacobi_beta >= -0.5):
            raise DomainError(
                "need jacobi_alpha >= jacobi_beta >= -1/2, got "
                f"({self.jacobi_alpha}, {self.jacobi_beta}) from ({m1}, {m2})"
            )


def preset(name: str) -> GroupDatum:
    """Return the group datum for ``name``, with c_P = :data:`PLANCHEREL_CONSTANT`."""
    try:
        return GroupDatum(name, *_PRESET_MULTIPLICITIES[name])
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        ) from None


def _array(x) -> np.ndarray:
    """``x`` as an array; a ragged nesting, which numpy refuses, as an empty one of objects."""
    try:
        return np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        return np.empty(0, dtype=object)


def _real_array(x, who: str, name: str = "t") -> np.ndarray:
    """``x`` as a float array; DomainError naming ``name`` unless its entries are real numbers
    (not complex, text, objects or ragged nesting).  Non-finite ones pass."""
    arr = _array(x)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{who} requires real {name}, got {name} = {x!r}")
    return arr.astype(float, copy=False)


def _real_scalar(x, who: str, name: str):
    """``x`` itself, bits and type kept, when it is one real number (a 0-d array too);
    DomainError naming ``name`` for several numbers, or for complex or text ones."""
    if _real_array(x, who, name).ndim != 0:
        raise DomainError(f"{who} requires one real {name}, got {name} = {x!r}")
    return x


def haar_density(G: GroupDatum, t):
    """Radial Haar weight Delta(t) = (2 sinh t)^m_alpha (2 sinh 2t)^m_2alpha.

    Accepts scalars or arrays; t must be nonnegative.
    """
    t_arr = _real_array(t, "haar_density")
    if (t_arr < 0).any():
        raise DomainError("haar_density requires t >= 0")
    out = (2.0 * np.sinh(t_arr)) ** G.m_alpha
    if G.m_2alpha:
        out = out * (2.0 * np.sinh(2.0 * t_arr)) ** G.m_2alpha
    if t_arr.ndim == 0:
        return float(out)
    return out


def haar_log_derivative(G: GroupDatum, t):
    """Delta'(t)/Delta(t) = m_alpha coth t + 2 m_2alpha coth 2t (t > 0)."""
    t_arr = _real_array(t, "haar_log_derivative")
    if (t_arr <= 0).any():
        raise DomainError("haar_log_derivative requires t > 0")
    out = G.m_alpha / np.tanh(t_arr)
    if G.m_2alpha:
        out = out + 2.0 * G.m_2alpha / np.tanh(2.0 * t_arr)
    if t_arr.ndim == 0:
        return float(out)
    return out
