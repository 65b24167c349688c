"""Numerical spherical transform engine for rank-one noncompact symmetric spaces.

Forward transform, Plancherel density, wave-packet inversion and
Schwartz-class diagnostics, all tied to one measure constant per group
preset: the Jacobi inversion constant c_P = 1/(2 pi) (Koornwinder 1984),
which the tests check against the forward/inverse round trip.
"""

from .groups import (
    GroupDatum,
    PRESET_NAMES,
    haar_density,
    haar_log_derivative,
    preset,
)
from .specfun import (
    ExpDecay,
    QuadratureSpec,
    integrate_interval,
)
from .spherical import RadialProfile, phi, phi_d1, phi_d2, xi
from .cfunction import (
    CFit,
    asymptotic_c_oracle,
    c_function,
    plancherel_density,
)
from .transform import (
    SpectralDecay,
    SpectralFunction,
    TransformResult,
    casimir_radial,
    convolve_at_identity,
    default_spectral_grid,
    expansion_term,
    hc_transform,
    hc_transform_at,
    plancherel_pairing,
    spectral_multiplier,
    wave_packet,
)
from .schwartz import (
    TubeSpec,
    image_membership,
    schwartz_seminorm,
    tube_extension_check,
    weyl_symmetry_defect,
)

__version__ = "0.1.0"

__all__ = [
    "GroupDatum",
    "PRESET_NAMES",
    "preset",
    "haar_density",
    "haar_log_derivative",
    "QuadratureSpec",
    "ExpDecay",
    "integrate_interval",
    "RadialProfile",
    "phi",
    "phi_d1",
    "phi_d2",
    "xi",
    "CFit",
    "c_function",
    "plancherel_density",
    "asymptotic_c_oracle",
    "SpectralDecay",
    "SpectralFunction",
    "TransformResult",
    "default_spectral_grid",
    "hc_transform",
    "hc_transform_at",
    "convolve_at_identity",
    "wave_packet",
    "plancherel_pairing",
    "expansion_term",
    "casimir_radial",
    "spectral_multiplier",
    "TubeSpec",
    "schwartz_seminorm",
    "weyl_symmetry_defect",
    "image_membership",
    "tube_extension_check",
]
