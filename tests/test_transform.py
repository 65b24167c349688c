import math

import mpmath
import numpy as np
import pytest

from sphtrans import transform
from sphtrans.cfunction import plancherel_density
from sphtrans.errors import (
    DomainError,
    GridContractError,
    PreconditionError,
    SingularPointError,
)
from sphtrans.groups import PRESET_NAMES, GroupDatum, haar_density, preset
from sphtrans.profiles import cosh_profile, gaussian_profile, xi_poly_profile, zero_profile
from sphtrans.specfun import ExpDecay, gauss_legendre_rule, integrate_interval
from sphtrans.spherical import phi
from sphtrans.transform import (
    SpectralDecay,
    SpectralFunction,
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


def make_symbol(fn, label=""):
    grid = default_spectral_grid()
    coeff = 1.1 * float(np.max(np.abs(fn(grid)) * (1.0 + np.abs(grid)) ** 8))
    return SpectralFunction.from_function(
        fn, grid, SpectralDecay(coeff + 1e-300, 8.0), label=label
    )


def gauss_symbol(scale=1.0):
    return make_symbol(lambda x: np.exp(-scale * x**2), label=f"gauss{scale}")


# ---------------------------------------------------------------------------
# SpectralFunction contract
# ---------------------------------------------------------------------------

def test_spectral_function_grid_validation():
    with pytest.raises(GridContractError):
        SpectralFunction(np.array([0.0, 1.0, 2.0]), np.zeros(3), SpectralDecay(1, 4))
    with pytest.raises(GridContractError):
        SpectralFunction(np.array([-1.0, 0.0, 0.5]), np.zeros(3), SpectralDecay(1, 4))
    with pytest.raises(GridContractError):
        SpectralFunction(np.array([1.0, 0.0, -1.0]), np.zeros(3), SpectralDecay(1, 4))


def test_spectral_grid_symmetry_has_no_relative_slack():
    # one point 2e-5 off its mirror: within numpy's default rtol, outside 1e-12
    grid = default_spectral_grid()
    grid[np.argmin(np.abs(grid - 3.0))] += 2e-5
    with pytest.raises(GridContractError, match="symmetric"):
        SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(165.0, 8.0))


def test_spectral_function_interpolation_accuracy():
    grid = default_spectral_grid()
    a = SpectralFunction(grid, np.exp(-grid**2) * np.cos(grid), SpectralDecay(40.0, 6.0))
    xs = np.linspace(-5.0, 5.0, 401)
    exact = np.exp(-xs**2) * np.cos(xs)
    err = np.max(np.abs(a(xs) - exact))
    assert err < 1e-7  # order-6 local interpolation on a 0.05 grid


def test_spectral_function_interpolation_rejects_far_outside():
    a = gauss_symbol()
    with pytest.raises(DomainError):
        b = SpectralFunction(a.grid, a.values, a.decay)  # no fn: interpolation path
        b(np.array([14.0]))


def test_weyl_defect_and_even_part():
    grid = default_spectral_grid()
    odd = SpectralFunction(grid, grid.astype(complex), SpectralDecay(4e5, 4.0))
    assert odd.weyl_defect() == pytest.approx(2.0 * grid[-1])
    assert np.max(np.abs(odd.even_values())) < 1e-14


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def test_hc_transform_zero_is_zero():
    G = preset("SL2R")
    res = hc_transform(G, zero_profile(G))
    assert np.max(np.abs(res.spectral.values)) == 0.0


def test_hc_transform_output_contracts():
    G = preset("H3")
    res = hc_transform(G, gaussian_profile(G))
    # Weyl-even values, real up to residue, err_est within spec tolerance
    assert res.spectral.weyl_defect() <= 1e-10
    assert np.max(np.abs(res.spectral.values.imag)) <= 1e-10
    assert np.all(np.isfinite(res.err_est))
    assert res.group == G


def test_hc_transform_rejects_weak_decay():
    G = preset("SL2R")
    with pytest.raises(PreconditionError):
        hc_transform(G, xi_poly_profile(G))


def test_hc_transform_at_matches_grid_values():
    G = preset("SL2R")
    f = gaussian_profile(G)
    res = hc_transform(G, f)
    grid = res.spectral.grid
    for lam in (0.7, 1.5, 3.0):
        k = int(np.argmin(np.abs(grid - lam)))
        direct = hc_transform_at(G, f, grid[k])
        assert abs(direct - res.spectral.values[k]) <= 1e-8 * (1 + abs(direct))


def gauss_transform_h3(lam, w=1.0):
    """(Hf)(lam) for f = exp(-w t^2) on H3, where phi_lam = sin(lam t)/(lam sinh t) and
    Delta = 4 sinh^2 t: (4/lam) int e^{-w t^2} sin(lam t) sinh t dt, by the Gaussian
    cosine transform at lam -+ i."""
    scale = math.sqrt(math.pi / w) * np.exp((1.0 - lam * lam) / (4.0 * w))
    return (2.0 / lam) * scale * np.sin(lam / (2.0 * w))


def test_hc_transform_at_complex_lam_matches_h3_closed_form():
    G = preset("H3")
    f = gaussian_profile(G)
    for x in (0.3, 1.0, 2.5):
        for y in (-0.1, -0.05, 0.05, 0.1):
            lam = complex(x, y * G.rho)
            exact = gauss_transform_h3(lam)
            assert abs(hc_transform_at(G, f, lam) - exact) <= max(1e-12, 1e-10 * abs(exact))


def test_hc_transform_at_rejects_too_wide_a_strip():
    # the Gaussian profile's envelope rate is 2 rho + 2 = 4 on H3
    G = preset("H3")
    f = gaussian_profile(G)
    for lam in (1.0 + 3.0j, 1.0 - 3.5j, 0.5 + 40.0j):
        with pytest.raises(PreconditionError, match="hc_transform input"):
            hc_transform_at(G, f, lam)


# ---------------------------------------------------------------------------
# convolution and pairing
# ---------------------------------------------------------------------------

def test_convolve_zero_and_symmetry():
    G = preset("SL2R")
    f = gaussian_profile(G)
    z = zero_profile(G)
    assert convolve_at_identity(G, f, z) == 0.0
    g = cosh_profile(G)
    assert abs(convolve_at_identity(G, f, g) - convolve_at_identity(G, g, f)) <= 1e-12


def test_pairing_zero_and_symmetry():
    G = preset("SL2R")
    A = gauss_symbol()
    Z = SpectralFunction(A.grid, np.zeros_like(A.grid, dtype=complex), SpectralDecay(1, 8))
    assert plancherel_pairing(G, A, Z) == 0.0
    B = gauss_symbol(0.5)
    assert plancherel_pairing(G, A, B) == plancherel_pairing(G, B, A)


def test_pairing_energy_identity():
    # pairing(Hf, Hf) equals the radial energy integral of f, via two
    # independent quadrature routes
    G = preset("H3")
    f = gaussian_profile(G)
    hf = hc_transform(G, f).spectral
    lhs = plancherel_pairing(G, hf, hf)
    T = 14.0
    rhs, _ = integrate_interval(
        lambda t: np.asarray(f(t)) ** 2 * haar_density(G, t), 0.0, T
    )
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_pairing_matches_convolution():
    G = preset("SL2R")
    f = gaussian_profile(G)
    g = gaussian_profile(G, width=0.7, scale=0.9)
    pair = plancherel_pairing(G, hc_transform(G, f).spectral, hc_transform(G, g).spectral)
    conv = convolve_at_identity(G, f, g)
    assert abs(pair - conv) <= 1e-5 * (1.0 + abs(conv))


def test_homomorphism_in_wave_packet_parametrization():
    # psi_a * psi_b = psi_{a b}: the convolution at the identity agrees with
    # the wave packet of the pointwise product at t = 0, and the transform of
    # psi_{a b} recovers a*b.
    G = preset("SL2R")
    a = gauss_symbol()
    b = gauss_symbol(0.5)
    psi_a = wave_packet(G, a)
    psi_b = wave_packet(G, b)
    ab = spectral_multiplier(a, lambda x: np.exp(-0.5 * x**2), degree=0)
    psi_ab = wave_packet(G, ab)
    conv = convolve_at_identity(G, psi_a, psi_b)
    assert abs(conv - psi_ab(0.0)) <= 1e-8 * (1.0 + abs(conv))
    res = hc_transform(G, psi_ab)
    target = np.exp(-1.5 * res.spectral.grid**2)
    assert np.max(np.abs(res.spectral.values - target)) <= 1e-5


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------

def test_wave_packet_zero_symbol():
    G = preset("SL2R")
    z = SpectralFunction(
        default_spectral_grid(),
        np.zeros(481, dtype=complex),
        SpectralDecay(1e-300, 8),
    )
    psi = wave_packet(G, z)
    assert np.max(np.abs(psi(np.linspace(0, 5, 21)))) == 0.0


def test_wave_packet_value_mode_and_identity_normalization():
    G = preset("SL2R")
    a = gauss_symbol()
    psi = wave_packet(G, a)
    val0 = wave_packet(G, a, t=0.0)
    assert val0 == psi(0.0)
    # psi_a(0) = (c_P/|W|) int a * density (phi_nu(0) = 1), via the
    # package's independent adaptive quadrature
    ref, _ = integrate_interval(
        lambda nu: np.exp(-nu**2) * plancherel_density(G, nu), 0.0, 12.0
    )
    ref = 2.0 * G.plancherel_constant / G.weyl_order * ref
    assert abs(val0 - ref) <= 1e-10 * (1.0 + abs(ref))


def test_wave_packet_second_derivative_matches_h3_closed_form():
    # a(nu) = exp(-nu^2/4) on H3 gives psi_a(t) = t exp(-t^2) / (sqrt(pi) sinh t),
    # whose second derivative at 0 is -7 / (3 sqrt(pi))
    psi = wave_packet(preset("H3"), make_symbol(lambda x: np.exp(-x**2 / 4.0)))
    ts = np.linspace(0.0, 8.0, 81)
    with mpmath.workdps(40):
        f = lambda t: t * mpmath.exp(-t**2) / (mpmath.sqrt(mpmath.pi) * mpmath.sinh(t))
        exact = [float(mpmath.diff(f, mpmath.mpf(t), 2)) for t in ts[1:]]
    exact = np.array([-7.0 / (3.0 * math.sqrt(math.pi))] + exact)
    err = np.abs(psi.deriv(ts, 2) - exact)
    # 1e-10 relative; 1e-15 absolute is the roundoff floor of the quadrature sum
    assert np.all(err <= 1e-10 * np.abs(exact) + 1e-15)
    assert abs(psi.deriv(1.5, 2) - exact[15]) <= 1e-10 * abs(exact[15])  # scalar t


def test_wave_packet_rejects_odd_symbol():
    G = preset("SL2R")
    grid = default_spectral_grid()
    odd = SpectralFunction(grid, grid * np.exp(-grid**2), SpectralDecay(60.0, 6.0))
    with pytest.raises(PreconditionError):
        wave_packet(G, odd)


def test_wave_packet_rejects_slow_decay_metadata():
    G = preset("SL2R")
    a = SpectralFunction.from_function(
        lambda x: np.exp(-x**2), default_spectral_grid(), SpectralDecay(2.0, 2.0)
    )
    with pytest.raises(PreconditionError):
        wave_packet(G, a)


def test_wave_packet_decay_metadata_is_a_bound():
    G = preset("H3")
    psi = wave_packet(G, gauss_symbol())
    ts = np.geomspace(0.05, 16.0, 60)
    assert psi.check_decay(ts) <= 1.0 + 1e-9


def test_wave_packet_real_for_real_even_symbol():
    G = preset("CH2")
    psi = wave_packet(G, gauss_symbol())
    vals = psi(np.linspace(0.0, 6.0, 31))
    assert np.max(np.abs(vals.imag)) < 1e-12


# ---------------------------------------------------------------------------
# the measure constant
# ---------------------------------------------------------------------------

def _round_trip_response(name):
    """H(psi_a)(1) for a = exp(-lam^2) on the default grid, at the shipped c_P."""
    G = preset(name)
    # sup over lam of (1+lam)^8 exp(-lam^2) is ~161.82
    a = SpectralFunction.from_function(
        lambda x: np.exp(-x * x), default_spectral_grid(), SpectralDecay(165.0, 8.0)
    )
    res = hc_transform(G, wave_packet(G, a), np.array([-1.0, 0.0, 1.0]))
    return res.spectral.values[-1].real


def test_round_trip_gives_the_jacobi_inversion_constant():
    # c_P enters linearly, so the round trip is exact at lam = 1 on every preset
    # exactly when 1/(2 pi) is the constant that makes it so
    for name in PRESET_NAMES:
        assert abs(_round_trip_response(name) / math.exp(-1.0) - 1.0) <= 1e-12


def test_preset_constant_is_exact_and_costs_no_tables(monkeypatch):
    monkeypatch.setattr(transform, "_PHI_CACHE", {})
    for name in PRESET_NAMES:
        assert preset(name).plancherel_constant == 1.0 / (2.0 * math.pi)
    assert transform._PHI_CACHE == {}


def test_calibration_single_constant_suffices():
    # round trip away from lam = 1, where the constant test above reads it
    for name in ("SL2R", "CH2"):
        G = preset(name)
        a = gauss_symbol()
        psi = wave_packet(G, a)
        res = hc_transform(G, psi, np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        target = np.exp(-res.spectral.grid**2)
        assert np.max(np.abs(res.spectral.values - target)) <= 1e-6


# ---------------------------------------------------------------------------
# expansion terms
# ---------------------------------------------------------------------------

def test_expansion_compact_term_vanishes():
    G = preset("SL2R")
    psi = wave_packet(G, gauss_symbol())
    for lam in (0.5, 2.0):
        assert expansion_term(G, "compact", psi, lam, 0.3) == 0.0


def test_expansion_domain_errors():
    G = preset("SL2R")
    psi = wave_packet(G, gauss_symbol())
    with pytest.raises(DomainError):
        expansion_term(G, "split", psi, 1.0, 0.0)
    with pytest.raises(DomainError):
        expansion_term(G, "split", psi, 1.0, 1.5)
    with pytest.raises(DomainError):
        expansion_term(G, "parabolic", psi, 1.0, 0.3)


def test_expansion_weyl_flip():
    G = preset("SL2R")
    psi = wave_packet(G, gauss_symbol())
    a = expansion_term(G, "split", psi, 1.0, 0.2)
    b = expansion_term(G, "split", psi, -1.0, 0.2)
    assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_expansion_ladder_single_case():
    G = preset("SL2R")
    a = make_symbol(lambda x: np.exp(-((x / 3.2) ** 4)), label="flat")
    psi = wave_packet(G, a)
    hf = hc_transform(G, psi).spectral
    ref = complex(hf(np.array([1.0]))[0])
    errs = []
    for eps in (0.4, 0.2, 0.1):
        total = expansion_term(G, "split", psi, 1.0, eps) + expansion_term(
            G, "compact", psi, 1.0, eps
        )
        errs.append(abs(total - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


# ---------------------------------------------------------------------------
# Casimir and multipliers
# ---------------------------------------------------------------------------

def test_casimir_constant_profile_is_zero():
    G = preset("SL2R")
    const = gaussian_profile(G, width=1.0)
    flat = type(const)(
        eval=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        decay=ExpDecay(1.0, 2.0, 0),
        d1=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label="one",
    )
    assert casimir_radial(G, flat, 1.3) == 0.0


def test_casimir_eigenfunction_identity():
    # L phi_lam = -(lam^2 + rho^2) phi_lam
    from sphtrans.spherical import RadialProfile, phi_d1, phi_d2

    for name in ("SL2R", "CH2"):
        G = preset(name)
        for lam in (0.6, 2.0):
            prof = RadialProfile(
                eval=lambda t, lam=lam: phi(G, lam, t),
                decay=ExpDecay(2.0, G.rho, 1),
                d1=lambda t, lam=lam: phi_d1(G, lam, t),
                d2=lambda t, lam=lam: phi_d2(G, lam, t),
                label="phi",
            )
            ts = np.linspace(0.4, 4.0, 10)
            lhs = casimir_radial(G, prof, ts)
            rhs = -(lam**2 + G.rho**2) * phi(G, lam, ts)
            assert np.max(np.abs(lhs - rhs)) <= 1e-5 * (1.0 + lam * lam)


def test_casimir_singular_at_origin():
    G = preset("SL2R")
    with pytest.raises(SingularPointError):
        casimir_radial(G, gaussian_profile(G), 0.0)


def test_spectral_multiplier_identity_and_zero():
    a = gauss_symbol()
    same = spectral_multiplier(a, lambda x: np.ones_like(x), degree=0)
    np.testing.assert_array_equal(same.values, a.values)
    gone = spectral_multiplier(a, lambda x: np.zeros_like(x), degree=0)
    assert np.max(np.abs(gone.values)) == 0.0


def test_spectral_multiplier_decay_bookkeeping():
    a = gauss_symbol()
    m = spectral_multiplier(a, lambda x: -(x**2 + 0.25), degree=2)
    assert m.decay.power == a.decay.power - 2
    np.testing.assert_allclose(
        m.values, a.values * -(a.grid**2 + 0.25), rtol=0, atol=1e-15
    )


# ---------------------------------------------------------------------------
# table caches key on the multiplicities, and the rule caches are bounded
# ---------------------------------------------------------------------------

def test_tables_follow_the_multiplicities_not_the_name():
    f = gaussian_profile(preset("H4"))
    hc_transform(preset("H3"), f)  # fills tables for (2, 0) first
    impostor = hc_transform(GroupDatum("H3", 3, 0), f).spectral.values
    np.testing.assert_array_equal(impostor, hc_transform(preset("H4"), f).spectral.values)


def test_sl2c_shares_the_h3_tables(monkeypatch):
    monkeypatch.setattr(transform, "_PHI_CACHE", {})
    f = gaussian_profile(preset("H3"))
    h3 = hc_transform(preset("H3"), f)
    held = len(transform._PHI_CACHE)
    sl2c = hc_transform(preset("SL2C"), f)
    assert len(transform._PHI_CACHE) == held
    np.testing.assert_array_equal(sl2c.spectral.values, h3.spectral.values)
    assert sl2c.group.name == "SL2C"


def test_rule_caches_stay_at_their_maxsize():
    G = preset("SL2R")
    order = transform._spectral_order()
    for k in range(200):
        transform._spectral_rule(G, 6.0 + 0.01 * k, order)
        transform._radial_rule(G, 4.0 + 0.5 * k, 10)
    for n in range(2, 102):
        gauss_legendre_rule(n)
    for cached in (transform._spectral_rule, transform._radial_rule, gauss_legendre_rule):
        info = cached.cache_info()
        assert info.currsize == info.maxsize == 64
