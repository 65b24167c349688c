import numpy as np
import pytest

from sphtrans.errors import DomainError, EvaluationError, GridContractError, PreconditionError
from sphtrans.groups import haar_density, preset
from sphtrans.profiles import cosh_profile, gaussian_profile, xi_poly_profile, zero_profile
from sphtrans.schwartz import (
    MembershipBudget,
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
    rep = schwartz_seminorm(G, zero_profile(G), 2.0, 0)
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


def test_seminorm_nonfinite_sample_reporting():
    G = preset("SL2R")

    def bad(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-t * t)
        return np.where(np.abs(t - 2.0) < 0.05, np.nan, out)

    f = RadialProfile(eval=bad, decay=ExpDecay(10.0, 3.0, 0), label="bad")
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


def test_membership_budget_is_respected():
    G = preset("SL2R")
    grid = default_spectral_grid()
    slow = SpectralFunction(grid, 1.0 / (1.0 + grid**2), SpectralDecay(2.0, 2.0))
    lenient = MembershipBudget(decay_bound=1e9, smooth_bound=1e9)
    assert image_membership(G, slow, lenient).passed


# ---------------------------------------------------------------------------
# tube evaluation
# ---------------------------------------------------------------------------

def test_tube_spec_validation():
    with pytest.raises(DomainError):
        TubeSpec(epsilon=1.5, half_width=0.1)
    with pytest.raises(DomainError):
        TubeSpec(epsilon=0.5, half_width=-0.1)
    G = preset("H3")
    tube = TubeSpec.for_group(G, 0.5)
    assert tube.half_width == pytest.approx(0.5 * G.rho)


def test_tube_epsilon_zero_reduces_to_transform():
    G = preset("SL2R")
    f = gaussian_profile(G)
    xs = np.linspace(-3.0, 3.0, 7)
    rep = tube_extension_check(G, f, TubeSpec.for_group(G, 0.0), xs=xs)
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


def test_tube_values_match_former_strip_transform_bitwise():
    G = preset("H3")
    f = gaussian_profile(G, width=1.0)
    rep = tube_extension_check(G, f, TubeSpec.for_group(G, 0.1))
    for i, y in enumerate(rep.ys):
        for j, x in enumerate(rep.xs):
            if y != 0.0:
                assert rep.values[i, j] == _strip_reference(G, f, complex(x, y))
    # on the real axis the pointwise transform is unchanged as well
    for lam in (0.0, 1.7, -2.5):
        assert hc_transform_at(G, f, lam) == _strip_reference(G, f, complex(lam))


def test_tube_grid_symmetry_has_no_relative_slack():
    G = preset("SL2R")
    xs = np.linspace(-3.0, 3.0, 7)
    xs[-1] += 2e-5
    with pytest.raises(GridContractError, match="symmetric"):
        tube_extension_check(G, gaussian_profile(G), TubeSpec.for_group(G, 0.5), xs=xs)


def test_tube_precondition_on_decay():
    G = preset("SL2R")
    weak = RadialProfile(
        eval=lambda t: np.exp(-0.6 * np.asarray(t, dtype=float)),
        decay=ExpDecay(1.0, 0.6, 0),
        label="weak",
    )
    with pytest.raises(PreconditionError):
        tube_extension_check(G, weak, TubeSpec.for_group(G, 0.5))
