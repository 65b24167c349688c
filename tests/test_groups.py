import dataclasses
import math

import numpy as np
import pytest

from sphtrans.errors import DomainError, UnknownPresetError
from sphtrans.groups import (
    GroupDatum,
    PRESET_NAMES,
    haar_density,
    haar_log_derivative,
    preset,
)


def test_preset_sl2r_constants():
    G = preset("SL2R")
    assert G.m_alpha == 1 and G.m_2alpha == 0
    assert G.rho == 0.5
    assert G.jacobi_alpha == 0.0
    assert G.jacobi_beta == -0.5
    assert G.weyl_order == 2


def test_preset_h3_constants():
    G = preset("H3")
    assert G.m_alpha == 2 and G.m_2alpha == 0
    assert G.rho == 1.0


def test_preset_hn_family_and_ch2():
    assert preset("H4").m_alpha == 3 and preset("H4").rho == 1.5
    G = preset("CH2")
    assert (G.m_alpha, G.m_2alpha) == (2, 1)
    assert G.rho == 2.0 and G.jacobi_alpha == 1.0 and G.jacobi_beta == 0.0


def test_unknown_preset_lists_valid_names():
    with pytest.raises(UnknownPresetError) as err:
        preset("XYZ")
    assert "unknown preset" in str(err.value)
    for name in PRESET_NAMES:
        assert name in str(err.value)


def test_preset_invariants():
    for name in PRESET_NAMES:
        G = preset(name)
        assert G.rho > 0
        assert G.jacobi_alpha >= G.jacobi_beta >= -0.5
        assert G.plancherel_constant > 0
        # constant frozen: a second build returns the identical value
        assert preset(name).plancherel_constant == G.plancherel_constant


def test_haar_density_values():
    G = preset("SL2R")
    assert haar_density(G, 0.0) == 0.0
    np.testing.assert_allclose(haar_density(G, 1.0), 2.0 * math.sinh(1.0), rtol=1e-14)
    # (2 sinh t)^2 for H3 matches the square of the SL2R value
    H3 = preset("H3")
    t = 1.7
    np.testing.assert_allclose(haar_density(H3, t), haar_density(G, t) ** 2, rtol=1e-14)


def test_haar_density_positive_and_domain():
    for name in PRESET_NAMES:
        G = preset(name)
        ts = np.linspace(0.05, 30.0, 77)
        assert np.all(haar_density(G, ts) > 0)
    with pytest.raises(DomainError):
        haar_density(preset("SL2R"), -0.5)


def test_haar_log_asymptote_settles():
    for name in PRESET_NAMES:
        G = preset(name)
        offs = [math.log(haar_density(G, t)) - 2.0 * G.rho * t for t in (10.0, 20.0, 30.0)]
        assert abs(offs[1] - offs[0]) < 1e-8
        assert abs(offs[2] - offs[1]) < 1e-8


def test_haar_tail_bound_is_global():
    for name in PRESET_NAMES:
        G = preset(name)
        ts = np.linspace(0.01, 40.0, 301)
        assert np.all(haar_density(G, ts) <= np.exp(2.0 * G.rho * ts) * (1 + 1e-12))


def test_haar_log_derivative_limit():
    G = preset("CH2")
    assert abs(haar_log_derivative(G, 25.0) - 2.0 * G.rho) < 1e-12


def test_haar_log_derivative_refuses_the_pole_at_zero():
    with pytest.raises(DomainError, match="requires t > 0"):
        haar_log_derivative(preset("H3"), 0.0)


def test_datum_validation():
    with pytest.raises(DomainError, match="rho must be positive"):
        GroupDatum("bad", 0, 0)
    with pytest.raises(DomainError, match="jacobi_alpha >= jacobi_beta"):
        GroupDatum("bad", -1, 1)


def test_derived_constants_cannot_be_set():
    G = preset("H3")
    with pytest.raises(ValueError):
        dataclasses.replace(G, rho=1.5)
    with pytest.raises(TypeError):
        GroupDatum("H3", 2, 0, 1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.jacobi_alpha = 0.0
    # a new multiplicity rederives every constant
    assert dataclasses.replace(G, m_alpha=3) == preset("H4")
    assert dataclasses.replace(G, m_alpha=3).rho == 1.5


def test_datum_identity_is_its_multiplicities():
    assert preset("SL2C") == preset("H3")
    assert hash(preset("SL2C")) == hash(preset("H3"))
    assert (preset("SL2C").name, preset("H3").name) == ("SL2C", "H3")
    assert GroupDatum("H3", 3, 0) == preset("H4")
    assert GroupDatum("H3", 3, 0) != preset("H3")
    assert len({preset(name) for name in PRESET_NAMES}) == 4

