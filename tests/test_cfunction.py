import re

import mpmath
import numpy as np
import pytest

from sphtrans.cfunction import (
    _ode_solution,
    asymptotic_c_oracle,
    c_function,
    plancherel_density,
)
from sphtrans.errors import (
    AccuracyError,
    ConditioningError,
    DomainError,
    EvaluationError,
    PoleError,
)
from sphtrans.groups import PRESET_NAMES, GroupDatum, preset
from sphtrans.spherical import _CIRCLE, phi

PRESETS = ("SL2R", "H3", "H4", "CH2")
_WINDOW = {"SL2R": 25.0, "SL2C": 12.0, "H3": 12.0, "H4": 10.0, "CH2": 8.0}


def test_c_modulus_symmetry():
    for name in PRESETS:
        G = preset(name)
        for lam in (0.5, 1.7, 4.0):
            assert abs(abs(c_function(G, lam)) - abs(c_function(G, -lam))) <= 1e-12


def test_c_pole_at_origin():
    with pytest.raises(PoleError):
        c_function(preset("SL2R"), 0.0)


def test_mutual_validation_with_asymptotic_oracle():
    # the Gamma quotient and the ODE-propagated fit must agree to 1e-4
    for name in PRESETS:
        G = preset(name)
        T = _WINDOW[name]
        for lam in (0.5, 1.0, 2.0, 4.0):
            fit = asymptotic_c_oracle(G, lam, T)
            ref = c_function(G, lam)
            assert abs(fit.c_plus - ref) / abs(ref) <= 1e-4
            assert fit.residual < 1e-6


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_oracle_ode_matches_the_h3_closed_form(lam):
    # on H3, w = e^t phi_lam(t) = e^t sin(lam t) / (lam sinh t) exactly
    ts = np.linspace(1.2, 36.0, 1353)
    w = _ode_solution(preset("H3"), complex(lam), ts)
    exact = np.exp(ts) * np.sin(lam * ts) / (lam * np.sinh(ts))
    assert np.max(np.abs(w - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_oracle_window_independence():
    G = preset("SL2R")
    a = asymptotic_c_oracle(G, 2.0, 25.0).c_plus
    b = asymptotic_c_oracle(G, 2.0, 30.0).c_plus
    assert abs(a - b) / abs(a) <= 1e-5


def test_oracle_minus_branch():
    G = preset("H3")
    fit = asymptotic_c_oracle(G, 1.5, 12.0)
    swapped = asymptotic_c_oracle(G, -1.5, 12.0)
    assert abs(fit.c_minus - swapped.c_plus) / abs(fit.c_minus) <= 1e-5


def test_oracle_preconditions():
    G = preset("SL2R")
    with pytest.raises(DomainError):
        asymptotic_c_oracle(G, 0.0, 25.0)
    with pytest.raises(ConditioningError):
        asymptotic_c_oracle(G, 0.01, 25.0)
    with pytest.raises(DomainError):
        asymptotic_c_oracle(G, 1.0, 5.0)  # exp(-2 rho T) not small enough


def test_c_flatness_at_large_lambda():
    # |c|^2 lam^m_alpha stays bounded on [10, 100]
    for name in PRESETS:
        G = preset(name)
        lams = np.linspace(10.0, 100.0, 46)
        vals = np.array([abs(c_function(G, l)) ** 2 * l**G.m_alpha for l in lams])
        assert vals.max() < 1e3 * max(vals.min(), 1e-300)
        assert np.all(np.isfinite(vals))


def test_density_zero_at_origin_by_limit():
    for name in PRESETS:
        G = preset(name)
        assert plancherel_density(G, 0.0) == 0.0
        samples = [plancherel_density(G, x) for x in (1e-2, 1e-3, 1e-4)]
        assert samples[0] > samples[1] > samples[2] > 0.0


def test_density_evenness_and_nonnegativity():
    for name in PRESETS:
        G = preset(name)
        assert abs(plancherel_density(G, 1.7) - plancherel_density(G, -1.7)) <= 1e-12
        grid = np.linspace(-20.0, 20.0, 1000)
        assert np.all(plancherel_density(G, grid) >= 0.0)


def test_sl2r_density_shape():
    # density(lam) / (lam tanh(pi lam)) is constant
    G = preset("SL2R")
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    ratios = plancherel_density(G, lams) / (lams * np.tanh(np.pi * lams))
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-6


def test_density_polynomial_growth_bound():
    for name in PRESETS:
        G = preset(name)
        lams = np.linspace(0.1, 100.0, 500)
        weighted = plancherel_density(G, lams) / (1.0 + lams) ** (G.m_alpha + G.m_2alpha + 1)
        assert np.all(np.isfinite(weighted))
        assert weighted.max() < 1e3


def test_density_continuity_near_origin():
    for name in ("SL2R", "CH2"):
        G = preset(name)
        grid = np.arange(-0.05, 0.0501, 1e-3)
        vals = plancherel_density(G, grid)
        diffs = np.abs(np.diff(vals)) / 1e-3
        assert np.all(np.isfinite(diffs))
        assert diffs.max() < 1e2


# ---------------------------------------------------------------------------
# the array c-function from its reduced Gamma quotient
# ---------------------------------------------------------------------------

# the presets, and two data whose reduction keeps the most: Gamma(z) / Gamma(z/2 + 3/4)^2 on
# (1, 1), and on (4, 3) Gamma(z + 4) over three factors and Gamma(z/2 + 5/2)^2, z = i lam
DATA = [preset(name) for name in PRESET_NAMES] + [GroupDatum("(1, 1)", 1, 1),
                                                  GroupDatum("(4, 3)", 4, 3)]


def _mp_c(G, lam):
    """c(lam) as the unreduced Gamma quotient, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        il = 1j * mpmath.mpc(lam)
        num = mpmath.mpf(2) ** (G.rho - il) * mpmath.gamma(G.jacobi_alpha + 1) * mpmath.gamma(il)
        den = mpmath.gamma((G.rho + il) / 2) * mpmath.gamma(
            (G.jacobi_alpha - G.jacobi_beta + 1 + il) / 2)
        return complex(num / den)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_c_block_matches_mpmath_gamma_quotient(name):
    G = preset(name)
    rng = np.random.default_rng(17)
    real = np.geomspace(1e-3, 2e4, 60)
    strip = rng.uniform(0.05, 50.0, 30) + 1j * rng.uniform(-G.rho, G.rho, 30)
    lam = np.concatenate([real, -real, strip])
    exact = np.array([_mp_c(G, z) for z in lam])
    rel = np.abs(c_function(G, lam) - exact) / np.abs(exact)
    # the lost-digits guard admits up to 1e-10 on log c near |lam| = 2e4
    assert rel.max() <= 1e-10
    assert rel[np.abs(lam) <= 50.0].max() <= 1e-12
    assert c_function(G, 2.5) == c_function(G, np.array([2.5]))[0]


@pytest.mark.parametrize("G", DATA, ids=lambda G: G.name)
def test_reduced_c_meets_the_gamma_quotient_at_30_digits(G):
    # real bands up to 2e3, a strip, and the Cauchy circles of radius 0.64 / 152 about 0 and i
    # that phi's rows take on t up to 152; log Gamma's roundoff grows like |lam| log|lam|
    circle = 0.64 / 152 * _CIRCLE
    real = np.geomspace(1e-3, 2e3, 40)
    lam = np.concatenate([real, -real, np.linspace(0.5, 20.0, 12) + 0.5j * G.rho, circle,
                          1j + circle])
    exact = np.array([_mp_c(G, z) for z in lam])
    rel = np.abs(c_function(G, lam) - exact) / np.abs(exact)
    assert np.all(rel <= 1e-14 + 2.5e-15 * np.abs(lam))
    if (G.m_alpha, G.m_2alpha) == (2, 0):  # H3 and SL2C: c = 1/(i lam), no Gamma left
        assert rel.max() <= 1e-15
        # imaginary on the real axis, as phi's two sides at lam = 1e-3 need to cancel 1e3-fold
        assert np.all(c_function(G, np.concatenate([real, -real])).real == 0.0)


# the poles and zeros of c on lam = i k / 2, k = 0, ..., 12, as i lam; mpmath finds the same
TRUE_POLES = {"SL2R": (range(7), np.arange(0.5, 6.0)), "SL2C": ([0], []), "H3": ([0], []),
              "H4": (range(7), np.arange(1.5, 6.0)), "CH2": ([0, 1, 3, 5], [2, 4, 6])}


@pytest.mark.parametrize("G", DATA, ids=lambda G: G.name)
def test_c_is_zero_at_denominator_poles_and_raises_at_numerator_poles(G):
    # the poles of the reduced quotient's numerator and denominator, against mpmath's limit of
    # the unreduced one along lam + 1e-20: past 1e12 at a pole of c, below 1e-12 at a zero;
    # the poles of Gamma(i lam) that its denominator cancels are neither
    poles, zeros = [], []
    for k in range(13):
        lam = 0.5j * k
        ref = _mp_c(G, lam + 1e-20)
        if abs(ref) > 1e12:
            poles.append(k / 2)
            text = re.escape(f"c-function pole at lam = {lam} ")
            with pytest.raises(PoleError, match=text) as err:
                c_function(G, lam)
            assert err.value.pole == -k // 2
        elif abs(ref) < 1e-12:
            zeros.append(k / 2)
            assert c_function(G, lam) == 0.0
        else:
            assert abs(c_function(G, lam) - ref) <= 1e-14 * abs(ref)
    if G.name in TRUE_POLES:
        assert (poles, zeros) == tuple(list(map(float, ks)) for ks in TRUE_POLES[G.name])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_density_block_is_bit_equal_to_pointwise_calls(name):
    G = preset(name)
    lam = np.concatenate([np.linspace(-30.0, 30.0, 241), np.geomspace(1e-3, 2e4, 40)])
    assert plancherel_density(G, lam).tolist() == [plancherel_density(G, x) for x in lam]
    assert plancherel_density(G, np.array([])).shape == (0,)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_c_block_is_bit_equal_to_pointwise_calls(name):
    G = preset(name)
    real = np.linspace(-30.0, 30.0, 241)
    lam = np.concatenate([real[real != 0.0], np.geomspace(1e-3, 2e4, 40),
                          np.linspace(0.1, 8.0, 20) + 0.5j * G.rho])
    assert c_function(G, lam).tolist() == [c_function(G, x) for x in lam]
    assert c_function(G, np.array([])).shape == (0,)


@pytest.mark.parametrize("lam, text, pole", [
    (np.array([1.0, 0.0, 2.0, 3j]), "lam = 0j", 0),
    (np.array([0.5, 2j, 1j]), "lam = 2j", -2),
])
def test_c_block_raises_at_its_first_pole(lam, text, pole):
    # on SL2R, whose c has a pole at every i k; on H3 c(i k) = -1/k for k >= 1
    with pytest.raises(PoleError, match=f"c-function pole at {text} ") as err:
        c_function(preset("SL2R"), lam)
    assert err.value.pole == pole


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_guard_names_the_large_lam_in_a_block(name):
    # from |lam| = 2.136e4 where a Gamma ratio is left; H3 and SL2C keep c = 1/(i lam)
    G = preset(name)
    block = np.array([0.5, 1.0, 3e4, 2.0, 5e4])
    if (G.m_alpha, G.m_2alpha) == (2, 0):
        np.testing.assert_allclose(plancherel_density(G, block), block**2, rtol=1e-15)
        return
    for fn in (plancherel_density, c_function):
        with pytest.raises(AccuracyError, match=r"c-function loses too many digits at lam = 30000\.0:"):
            fn(G, block)


@pytest.mark.parametrize("lam", [1e306, 1.7e308, -1e306])
def test_huge_lam_raises_accuracy_error_not_a_warning(lam):
    # Tier-1 turns warnings into errors: an overflow inside log Gamma would fail here; on
    # SL2R, whose Gamma ratio has no digits left there
    G = preset("SL2R")
    text = f"lam = {lam!r}:"
    for call in (lambda: phi(G, lam, 1.0), lambda: c_function(G, lam),
                 lambda: plancherel_density(G, lam),
                 lambda: plancherel_density(G, np.array([2.0, lam]))):
        with pytest.raises(AccuracyError, match=text.replace("+", r"\+")) as err:
            call()
        assert not re.search(r"\b(nan|inf)\b", str(err.value))  # a number, past float range


@pytest.mark.parametrize("lam", [1e306, 1.7e308, -1e306])
def test_huge_lam_on_h3_has_its_c_and_a_typed_error_for_its_density(lam):
    # c = 1/(i lam) cancels nothing, and keeps all but exp's roundoff on log c, about -705,
    # that is 705 eps; the density lam^2 is past float range, named, and not a warning
    G = preset("H3")
    assert abs(c_function(G, lam) - 1.0 / (1j * lam)) <= 2e-13 * abs(1.0 / lam)
    for arg in (lam, np.array([2.0, lam])):
        with pytest.raises(EvaluationError, match=re.escape(f"float range at lam = {lam!r}")):
            plancherel_density(G, arg)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_c_past_float_range_next_to_its_pole_is_named(name):
    # c(lam) ~ 1/(i lam) times a constant near the pole at 0 on every preset: past float range
    # at 1e-310, a typed error, where numpy warned of an overflow in exp
    with pytest.raises(EvaluationError, match=re.escape(
            "c_function leaves float range at lam = 1e-310")):
        c_function(preset(name), np.array([1.0, 1e-310]))


@pytest.mark.parametrize("lam", [2.0 + 1.0j, 3.0 + 0.0j, np.array([1.0, 2.0 + 0.5j])])
def test_density_rejects_complex_lam(lam):
    with pytest.raises(DomainError, match="plancherel_density requires real lam"):
        plancherel_density(preset("H3"), lam)
