import warnings

import mpmath
import numpy as np
import pytest

from sphtrans.errors import DomainError
from sphtrans.groups import PRESET_NAMES, haar_log_derivative, preset
from sphtrans.profiles import cosh_profile, gaussian_profile, xi_poly_profile
from sphtrans.spherical import (
    log_gamma,
    phi,
    phi_d1,
    phi_d2,
    xi,
)
from sphtrans.transform import SpectralDecay, SpectralFunction, default_spectral_grid, wave_packet

from integral_oracle import phi_integral_oracle

PRESETS = ("SL2R", "H3", "H4", "CH2")


def test_phi_normalization_random_strip():
    # phi_lam(0) = 1 exactly to 1e-13 for 200 random lam with |Im lam| <= rho
    rng = np.random.default_rng(2024)
    for name in ("SL2R", "CH2"):
        G = preset(name)
        for _ in range(100):
            lam = complex(rng.uniform(-10, 10), rng.uniform(-G.rho, G.rho))
            assert abs(phi(G, lam, 0.0) - 1.0) <= 1e-13


def test_weyl_functional_equation_grid():
    for name in PRESETS:
        G = preset(name)
        lams = np.linspace(0.25, 9.75, 20)
        ts = np.linspace(0.05, 6.0, 20)
        worst = 0.0
        for lam in lams:
            worst = max(worst, float(np.max(np.abs(phi(G, lam, ts) - phi(G, -lam, ts)))))
        assert worst <= 1e-11


def test_phi_bounded_by_one_for_real_lam():
    for name in PRESETS:
        G = preset(name)
        for lam in (0.0, 0.7, 3.0, 11.0):
            vals = np.abs(phi(G, lam, np.linspace(0.0, 12.0, 121)))
            assert np.all(vals <= 1.0 + 1e-12)


def test_phi_real_for_real_lam():
    G = preset("H4")
    vals = phi(G, 2.3, np.linspace(0.0, 9.0, 91))
    assert np.max(np.abs(vals.imag)) < 1e-13


def test_radial_ode_residual():
    # phi'' + (Delta'/Delta) phi' + (lam^2+rho^2) phi = 0 by central differences
    h = 1e-4
    for name in PRESETS:
        G = preset(name)
        for lam in (0.0, 0.5, 2.0, 8.0):
            ts = np.linspace(0.3, 5.0, 12)
            d2 = (phi(G, lam, ts + h) - 2.0 * phi(G, lam, ts) + phi(G, lam, ts - h)) / h**2
            d1 = (phi(G, lam, ts + h) - phi(G, lam, ts - h)) / (2 * h)
            resid = d2 + haar_log_derivative(G, ts) * d1 + (lam**2 + G.rho**2) * phi(G, lam, ts)
            assert np.max(np.abs(resid)) <= 1e-5 * (1.0 + lam * lam)


def test_phi_before_after_switch_consistent():
    # both evaluation regimes agree where their domains overlap
    for name in PRESETS:
        G = preset(name)
        for lam in (0.3, 2.0, 5.0):
            near = phi(G, lam, np.array([1.19, 1.2, 1.21]))
            assert np.all(np.isfinite(near))
            fd = (near[2] - near[0]) / 0.02
            an = phi_d1(G, lam, 1.2)
            assert abs(fd - an) < 1e-3  # derivative-level continuity across the switch


def test_analytic_derivatives_match_differences():
    G = preset("CH2")
    for lam in (0.4, 3.0):
        for t in (0.3, 0.9, 2.5, 6.0):
            h = 1e-5
            fd1 = (phi(G, lam, t + h) - phi(G, lam, t - h)) / (2 * h)
            assert abs(fd1 - phi_d1(G, lam, t)) < 5e-9
            fd2 = (phi(G, lam, t + h) - 2 * phi(G, lam, t) + phi(G, lam, t - h)) / h**2
            assert abs(fd2 - phi_d2(G, lam, t)) < 5e-5


def test_integral_oracle_matches_phi():
    for name in ("SL2R", "H3", "H4"):
        G = preset(name)
        for lam, t in ((0.0, 1.0), (1.0, 0.7), (2.0, 1.3), (5.0, 2.1)):
            a = phi(G, lam, t)
            b = phi_integral_oracle(G, lam, t)
            assert abs(a - b) <= 1e-9


def test_integral_oracle_trivialities():
    G = preset("SL2R")
    assert phi_integral_oracle(G, 1.3, 0.0) == 1.0
    # Weyl flip inside the oracle itself
    v1 = phi_integral_oracle(G, 1.0, 0.9)
    v2 = phi_integral_oracle(G, -1.0, 0.9)
    assert abs(v1 - v2) <= 1e-12


def test_integral_oracle_capability_error():
    with pytest.raises(DomainError):
        phi_integral_oracle(preset("CH2"), 1.0, 1.0)


def test_phi_domain_error():
    with pytest.raises(DomainError):
        phi(preset("SL2R"), 1.0, -0.2)


def test_xi_basics_and_monotonicity():
    for name in PRESETS:
        G = preset(name)
        assert xi(G, 0.0) == pytest.approx(1.0, abs=1e-14)
        v1, v2, v5 = xi(G, 1.0), xi(G, 2.0), xi(G, 5.0)
        assert 1.0 > v1 > v2 > v5 > 0.0


def test_xi_asymptotic_ratio_bounded():
    # e^{rho t} Xi(t) / (1+t) stays within a factor 10 band on [5, 30]
    for name in PRESETS:
        G = preset(name)
        ts = np.linspace(5.0, 30.0, 26)
        ratio = np.exp(G.rho * ts) * xi(G, ts) / (1.0 + ts)
        assert ratio.max() / ratio.min() < 10.0


def test_small_lambda_matches_degenerate_path():
    # values vary continuously through the degenerate-parameter guard
    G = preset("SL2R")
    ts = np.linspace(0.5, 20.0, 40)
    near = phi(G, 2e-4, ts)   # exponential-series route
    deg = phi(G, 5e-5, ts)    # ODE route
    at0 = phi(G, 0.0, ts)
    assert np.max(np.abs(near - at0)) < 5e-7
    assert np.max(np.abs(deg - at0)) < 5e-8


def test_radial_profile_evenness_and_decay_check():
    G = preset("SL2R")
    f = gaussian_profile(G)
    assert f(-1.3) == f(1.3)
    ts = np.geomspace(0.1, 8.0, 40)
    assert np.max(np.abs(f(ts)) / f.decay.bound(ts)) <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        f.deriv(1.0, 3)


def _gauss_packet(G):
    gauss = SpectralFunction.from_function(lambda x: np.exp(-x**2), default_spectral_grid(),
                                           SpectralDecay(180.0, 8.0), label="gauss")
    return wave_packet(G, gauss)


PROFILES = {"gaussian": gaussian_profile, "cosh": cosh_profile, "xi_poly": xi_poly_profile,
            "packet": _gauss_packet}


def _central_difference(g, t, h):
    """The fourth-order central difference of g at t, of step h: its truncation error is
    h^4 g^(5)(s) / 30 for some s within 2 h of t."""
    return (g(t - 2.0 * h) - 8.0 * g(t - h) + 8.0 * g(t + h) - g(t + 2.0 * h)) / (12.0 * h)


@pytest.mark.parametrize("name, family", [(name, family) for name in PRESET_NAMES
                                          for family in ("gaussian", "cosh", "xi_poly")]
                         + [("H3", "packet")])
def test_profile_derivatives_are_derivatives_of_its_values(name, family):
    # deriv(t, k) against the difference D_h of g = deriv(., k - 1), h = 2e-3.  |D_2h - D_h|
    # is 15 h^4 |g^(5)| / 30 + O(h^6), so |D_2h - D_h| / 15 estimates D_h's truncation error;
    # the tolerance is twice that, plus 2 nu / h for the noise nu = 1e-13 max|g| of the
    # values, which D_h magnifies by 18 / (12 h) and the estimate by 2.25 / (15 h).  Measured:
    # the error is at most 1.4 times the estimate plus 1.5 eps max|g| / h, and half the tolerance
    G = preset(name)
    f = PROFILES[family](G)
    t, h = np.linspace(0.1, 8.0, 80), 2e-3
    for k in (1, 2):
        g = lambda s: f.deriv(s, k - 1)
        d_h, d_2h = _central_difference(g, t, h), _central_difference(g, t, 2.0 * h)
        nu = 1e-13 * np.abs(g(np.linspace(0.1 - 4.0 * h, 8.0 + 4.0 * h, 401))).max()
        tol = 2.0 * np.abs(d_2h - d_h) / 15.0 + 2.0 * nu / h
        err = np.abs(f.deriv(t, k) - d_h)
        assert np.all(err <= tol), (k, float(t[np.argmax(err / tol)]))
    assert np.array_equal(f.deriv(-t, 1), -f.deriv(t, 1))
    assert np.array_equal(f.deriv(-t, 2), f.deriv(t, 2))


# ---------------------------------------------------------------------------
# log_gamma against mpmath, modulo 2 pi i
# ---------------------------------------------------------------------------

def _log_gamma_points():
    rng = np.random.default_rng(12)
    random = rng.uniform(-60.0, 60.0, 300) + 1j * rng.uniform(-60.0, 60.0, 300)
    # 16 points about each center, none on the real axis
    ring = 0.01 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    centers = np.array([0.0, -1.0, -2.0, 0.5, -0.5, 1.0, 2.0])
    circles = (centers[:, None] + ring).ravel()
    lines = (np.array([0.0, 0.5, 1.0])[:, None] + 1j * np.linspace(-50.0, 50.0, 100)).ravel()
    tall = np.array([-3.7, 0.0, 0.05, 0.5, 1.0, 5.0])[:, None] + 1j * np.geomspace(1e2, 2e4, 5)
    far_left = -np.geomspace(10.0, 1e5, 8)[:, None] + np.array([0.25, 0.5 + 1e-3j, 0.7 - 0.5j])
    return np.concatenate([random, circles, 1j * circles, lines, tall.ravel(), -tall.ravel(),
                           far_left.ravel()])


def test_log_gamma_matches_mpmath_modulo_2_pi_i():
    z = _log_gamma_points()
    got = log_gamma(z)
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.loggamma(mpmath.mpc(x))) for x in z])
    diff = got - exact
    diff.imag = (diff.imag + np.pi) % (2.0 * np.pi) - np.pi
    # scipy's loggamma (the same scheme) reads up to 20 eps here
    ulps = np.abs(diff) / (np.finfo(float).eps * np.maximum(1.0, np.abs(exact)))
    assert ulps.max() <= 30.0, z[np.argmax(ulps)]


def test_log_gamma_block_entries_are_their_own():
    z = _log_gamma_points()
    block = log_gamma(z)
    assert block.shape == z.shape
    alone = np.array([log_gamma(z[i:i + 1])[0] for i in range(len(z))])
    assert block.tobytes() == alone.tobytes()
    # c_log's (3, n) form, and a scalar
    assert log_gamma(z[:900].reshape(3, -1)).tobytes() == block[:900].tobytes()
    assert log_gamma(z[5]).shape == () and log_gamma(z[5]) == block[5]


def test_log_gamma_poles_and_empty_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_poles = log_gamma(np.array([0.0, -1.0, -3.0, complex(-2.0, -0.0)]))
        assert np.isnan(at_poles).all()
        assert log_gamma(np.array([], dtype=complex)).shape == (0,)
    assert log_gamma(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
