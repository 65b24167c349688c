import json
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


def test_json_round_trip_identity():
    for name in PRESET_NAMES:
        G = preset(name)
        again = GroupDatum.from_json(G.to_json())
        assert again == G


def test_json_rejects_unknown_and_missing_fields():
    G = preset("SL2R")
    doc = json.loads(G.to_json())
    doc["extra"] = 1
    with pytest.raises(DomainError):
        GroupDatum.from_json(json.dumps(doc))
    del doc["extra"]
    del doc["rho"]
    with pytest.raises(DomainError):
        GroupDatum.from_json(json.dumps(doc))


def test_datum_validation():
    with pytest.raises(DomainError):
        GroupDatum("bad", 1, 0, -1.0, 0.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        GroupDatum("bad", 1, 0, 0.5, -0.8, -0.5, 1.0)
    with pytest.raises(DomainError):
        GroupDatum("bad", 1, 0, 0.5, 0.0, -0.5, 1.0, weyl_order=4)

