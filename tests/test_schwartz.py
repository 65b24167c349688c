import math
import re

import numpy as np
import pytest

from sphtrans import schwartz
from sphtrans.errors import DomainError, EvaluationError, GridContractError, PreconditionError
from sphtrans.groups import haar_density, preset
from sphtrans.profiles import cosh_profile, gaussian_profile, xi_poly_profile
from sphtrans.schwartz import (
    TubeSpec,
    image_membership,
    schwartz_seminorm,
    tube_extension_check,
    weyl_symmetry_defect,
)
from sphtrans.spherical import RadialProfile, phi
from sphtrans.specfun import DEFAULT_QUAD, ExpDecay, integrate_interval, truncation_point
from sphtrans.transform import (
    SpectralDecay,
    SpectralFunction,
    default_spectral_grid,
    hc_transform,
    hc_transform_at,
    wave_packet,
)

from integral_oracle import gauss_transform_h3


def gauss_symbol():
    return SpectralFunction.from_function(
        lambda x: np.exp(-x**2),
        default_spectral_grid(),
        SpectralDecay(180.0, 8.0),  # 1.1 * sup (1+lam)^8 exp(-lam^2)
        label="gauss",
    )


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def test_seminorm_zero_profile():
    G = preset("SL2R")

    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    f = RadialProfile(eval=zero, decay=ExpDecay(1e-300, 4.0, 0), derivs=lambda t, k: zero(t))
    rep = schwartz_seminorm(G, f, 2.0, 0)
    assert rep.value == 0.0


def test_seminorm_scaling_homogeneity():
    G = preset("SL2R")
    f1 = gaussian_profile(G, scale=1.0)
    f2 = gaussian_profile(G, scale=2.0)
    r1 = schwartz_seminorm(G, f1, 2.0, 0)
    r2 = schwartz_seminorm(G, f2, 2.0, 0)
    np.testing.assert_allclose(r2.value, 2.0 * r1.value, rtol=1e-12)


def test_seminorm_xi_poly_boundary_behaviour():
    # f = Xi (1+t)^-3: finite sup for r <= 3 - delta, boundary growth at r = 5
    G = preset("SL2R")
    f = xi_poly_profile(G, p=3)
    fin = schwartz_seminorm(G, f, 2.5, 0)
    assert not fin.boundary_saturated
    assert fin.value < 10.0
    sat = schwartz_seminorm(G, f, 5.0, 0)
    assert sat.boundary_saturated
    assert sat.saturated_at > 0.9 * sat.grid_spec[0]


def test_seminorm_finite_for_shipped_family():
    for name in ("SL2R", "CH2"):
        G = preset(name)
        family = [gaussian_profile(G), cosh_profile(G), wave_packet(G, gauss_symbol())]
        for f in family:
            for r in (0.0, 2.0, 4.0):
                for k in (0, 1, 2):
                    rep = schwartz_seminorm(G, f, r, k)
                    assert np.isfinite(rep.value)
                    assert not rep.boundary_saturated


def test_seminorm_argument_validation():
    G = preset("SL2R")
    f = gaussian_profile(G)
    with pytest.raises(DomainError):
        schwartz_seminorm(G, f, -1.0, 0)
    with pytest.raises(DomainError):
        schwartz_seminorm(G, f, 1.0, 3)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_seminorm_refuses_a_non_finite_weight_exponent(r):
    G = preset("SL2R")
    with pytest.raises(DomainError, match=re.escape(f"r = {r!r}")):
        schwartz_seminorm(G, gaussian_profile(G), r, 0)


@pytest.mark.parametrize("r", [400.0, 1e308])
def test_seminorm_weight_past_float_range_names_r(r):
    # (1 + t)^r / Xi(t) overflows on the grid: at t = 4.9 for r = 400, at every t > 0
    # for r = 1e308; the profile's samples are all finite
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape(f"for r = {r!r}")):
        schwartz_seminorm(G, gaussian_profile(G, 1.0), r, 0)


def test_seminorm_refuses_a_bool_derivative_order():
    G = preset("SL2R")
    with pytest.raises(DomainError, match="k = True"):
        schwartz_seminorm(G, gaussian_profile(G), 1.0, True)


def test_seminorm_nonfinite_sample_reporting():
    G = preset("SL2R")

    def bad(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-t * t)
        return np.where(np.abs(t - 2.0) < 0.05, np.nan, out)

    gauss = gaussian_profile(G)  # exp(-t^2) away from the NaN patch
    f = RadialProfile(eval=bad, decay=ExpDecay(10.0, 3.0, 0), derivs=gauss.derivs, label="bad")
    with pytest.raises(EvaluationError) as err:
        schwartz_seminorm(G, f, 1.0, 0)
    assert "t = " in str(err.value)


# ---------------------------------------------------------------------------
# Weyl defect
# ---------------------------------------------------------------------------

def test_weyl_defect_even_and_odd():
    grid = default_spectral_grid()
    even = SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(10, 6))
    # limited only by the float antisymmetry of the linspace grid itself
    assert weyl_symmetry_defect(even) <= 1e-13
    odd = SpectralFunction(grid, grid.astype(complex), SpectralDecay(4e5, 4))
    assert weyl_symmetry_defect(odd) == pytest.approx(2.0 * grid[-1])


def test_weyl_defect_asymmetric_grid_contract():
    grid = default_spectral_grid()
    A = SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(30, 6))
    A.grid = A.grid + 0.01  # break the contract after construction
    with pytest.raises(GridContractError):
        weyl_symmetry_defect(A)


def test_transform_output_weyl_defect_small():
    G = preset("SL2R")
    res = hc_transform(G, wave_packet(G, gauss_symbol()))
    assert weyl_symmetry_defect(res.spectral) <= 1e-10


# ---------------------------------------------------------------------------
# image membership
# ---------------------------------------------------------------------------

def test_membership_pass_on_gaussian_transform():
    G = preset("SL2R")
    hf = hc_transform(G, wave_packet(G, gauss_symbol())).spectral
    rep = image_membership(G, hf)
    assert rep.passed
    assert rep.weyl.passed and rep.smoothness.passed
    assert all(c.passed for c in rep.decay.values())


def test_membership_counterexamples():
    G = preset("SL2R")
    grid = default_spectral_grid()
    odd = SpectralFunction(grid, grid * np.exp(-grid**2), SpectralDecay(60, 6))
    rep = image_membership(G, odd)
    assert not rep.passed and not rep.weyl.passed

    slow = SpectralFunction(grid, 1.0 / (1.0 + grid**2), SpectralDecay(2.0, 2.0))
    rep = image_membership(G, slow)
    assert not rep.passed
    assert not rep.decay[6].passed  # N = 6 budget broken by rational decay

    rough = SpectralFunction(grid, np.exp(-np.abs(grid)), SpectralDecay(13.0, 4.0))
    rep = image_membership(G, rough)
    assert not rep.passed and not rep.smoothness.passed


@pytest.mark.parametrize("spoil, witness", [
    pytest.param(lambda v: v.__setitem__([200, 280], np.nan), 199, id="one-nan-pair"),
    pytest.param(lambda v: v.fill(np.nan), 0, id="all-nan"),
    pytest.param(lambda v: v.__setitem__(100, np.inf), None, id="one-infinite-entry"),
    pytest.param(lambda v: v.__setitem__([100, 380], np.inf), None, id="one-infinite-pair"),
])
def test_membership_smoothness_fails_on_a_nan_difference(spoil, witness):
    # a NaN difference fails at its lowest grid point, with value NaN; an infinite entry
    # fails too (the complex division of its differences makes NaN, and an infinite pair's
    # Weyl difference is NaN), with no numpy warning, which this suite turns into an error
    grid = default_spectral_grid()
    values = np.exp(-grid**2).astype(complex)
    spoil(values)
    A = SpectralFunction(grid, values, SpectralDecay(10.0, 6.0))
    rep = image_membership(preset("H3"), A)
    assert not rep.smoothness.passed and not rep.passed
    assert not math.isfinite(rep.smoothness.value)
    if witness is not None:
        assert math.isnan(rep.smoothness.value) and rep.smoothness.witness == grid[witness]


def test_membership_values_are_their_definitions_on_a_round_trip():
    G = preset("SL2R")
    A = hc_transform(G, wave_packet(G, gauss_symbol())).spectral
    rep = image_membership(G, A)
    grid, values = A.grid, A.values
    odd = np.abs(values - values[::-1])
    k = np.argmax(odd)
    assert (rep.weyl.value, rep.weyl.witness) == (odd[k], grid[k])
    for N in (2, 4, 6):
        weighted = np.abs(values) * (1.0 + np.abs(grid)) ** N
        j = np.argmax(weighted)
        assert (rep.decay[N].value, rep.decay[N].witness) == (weighted[j], grid[j])
    # the largest modulus of a divided difference of order 1 to 4, the lowest order's at a
    # tie, and the lowest grid point of the first difference that reaches it
    worst = at = 0.0
    dd = values
    for order in range(1, 5):
        dd = (dd[1:] - dd[:-1]) / (grid[order:] - grid[:len(grid) - order])
        mags = np.abs(dd)
        j = np.argmax(mags)
        if mags[j] > worst:
            worst, at = mags[j], grid[j]
    assert worst > 0.0 and (rep.smoothness.value, rep.smoothness.witness) == (worst, at)


@pytest.mark.parametrize("count", [3, 4])
def test_membership_on_a_grid_too_short_for_order_4_differences_raises(count):
    grid = np.linspace(-1.0, 1.0, count)
    A = SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(2.0, 8.0))
    with pytest.raises(GridContractError, match=f"need 5 grid points; the grid has {count}"):
        image_membership(preset("H3"), A)


def test_membership_budget_is_respected(monkeypatch):
    G = preset("SL2R")
    grid = default_spectral_grid()
    slow = SpectralFunction(grid, 1.0 / (1.0 + grid**2), SpectralDecay(2.0, 2.0))
    monkeypatch.setattr(schwartz, "_DECAY_BOUND", 1e9)
    monkeypatch.setattr(schwartz, "_SMOOTH_BOUND", 1e9)
    assert image_membership(G, slow).passed


# ---------------------------------------------------------------------------
# tube evaluation
# ---------------------------------------------------------------------------

def test_tube_spec_validation():
    G = preset("H3")
    for epsilon in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match="epsilon"):
            TubeSpec.for_group(G, epsilon)
    with pytest.raises(DomainError, match="half_width"):
        TubeSpec(half_width=-0.1)
    assert TubeSpec.for_group(G, 0.5) == TubeSpec(half_width=0.5 * G.rho)


def test_tube_epsilon_zero_reduces_to_transform():
    G = preset("SL2R")
    f = gaussian_profile(G)
    xs = np.linspace(-3.0, 3.0, 7)
    rep = tube_extension_check(G, f, TubeSpec.for_group(G, 0.0))
    ref = hc_transform(G, f, xs)
    np.testing.assert_array_equal(rep.values[0], ref.spectral.values)
    assert rep.ys.tolist() == [0.0] and rep.values.shape == (1, len(xs))
    assert rep.conjugation_defect == 0.0


def test_tube_gaussian_packet_finite_and_conjugate_symmetric():
    G = preset("SL2R")
    psi = wave_packet(G, gauss_symbol())
    rep = tube_extension_check(G, psi, TubeSpec.for_group(G, 0.5))
    assert rep.finite
    assert np.isfinite(rep.max_modulus)
    scale = 1.0 + rep.max_modulus
    assert rep.conjugation_defect <= 1e-10 * scale


def _strip_reference(G, f, lam):
    """The tube's former own pointwise transform, kept as a reference for the
    shared hc_transform_at: same envelope, truncation and integrand."""
    env = ExpDecay(f.decay.coeff * 2.0, f.decay.rate - G.rho - abs(lam.imag), f.decay.degree + 1)
    T = truncation_point(env, DEFAULT_QUAD.abs_tol)

    def integrand(t):
        return np.asarray(f(t), dtype=complex) * phi(G, lam, t) * haar_density(G, t)

    return complex(integrate_interval(integrand, 0.0, T)[0])


def test_tube_values_meet_h3_closed_form_and_former_strip_transform():
    # the off-axis points share one panel tree, so they match the former
    # point-by-point integrals to roundoff, not bit for bit; every point, the real axis
    # too, is within 1e-13 of the closed form (2.4e-14 measured)
    G = preset("H3")
    f = gaussian_profile(G, width=1.0)
    rep = tube_extension_check(G, f, TubeSpec.for_group(G, 0.1))
    assert rep.values.shape == (5, 7)
    for i, y in enumerate(rep.ys):
        for j, x in enumerate(rep.xs):
            lam = complex(x, y)
            # the lam -> 0 limit of the closed form, which divides by lam
            exact = math.sqrt(math.pi) * math.exp(0.25) if lam == 0 else gauss_transform_h3(lam)
            assert abs(rep.values[i, j] - exact) <= 1e-13
            if y != 0.0:
                assert abs(rep.values[i, j] - _strip_reference(G, f, lam)) <= 1e-13
    # on the real axis the pointwise transform is unchanged bit for bit
    for lam in (0.0, 1.7, -2.5):
        assert hc_transform_at(G, f, lam) == _strip_reference(G, f, complex(lam))


def test_tube_rejects_non_finite_half_width():
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="half_width"):
            TubeSpec(half_width=bad)


def test_tube_precondition_on_decay():
    G = preset("SL2R")
    weak = RadialProfile(
        eval=lambda t: np.exp(-0.6 * np.asarray(t, dtype=float)),
        decay=ExpDecay(1.0, 0.6, 0),
        derivs=lambda t, k: (-0.6) ** k * np.exp(-0.6 * np.asarray(t, dtype=float)),
        label="weak",
    )
    # e^(-0.6 t) decays faster than Xi, but not than e^(-(rho + half_width) t), rho = 0.5
    with pytest.raises(PreconditionError, match=r"than e\^\(-0\.75 t\)"):
        tube_extension_check(G, weak, TubeSpec.for_group(G, 0.5))
