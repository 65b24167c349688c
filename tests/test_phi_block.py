"""The block evaluator of phi over (lam, t), checked against independent oracles,
plus the table cache, the mirror fold and the adaptive rule's rounds of splits."""

import gc
import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from sphtrans import cli, specfun, spherical, transform
from sphtrans.cfunction import _ode_solution, asymptotic_c_oracle, c_function, plancherel_density
from sphtrans.errors import AccuracyError, DomainError, EvaluationError
from sphtrans.groups import PRESET_NAMES, preset
from sphtrans.profiles import cosh_profile, gaussian_profile
from sphtrans.schwartz import TubeSpec, tube_extension_check
from sphtrans.spherical import phi, phi_d1, phi_d2, xi

from integral_oracle import phi_integral_oracle

GRID = transform.default_spectral_grid()
T64 = np.linspace(0.0, 64.0, 641)
# rows that are not a grid's: composite Gauss-Legendre nodes of order 20 on 16 panels of (0, 12]
GL_ROWS = specfun.composite_nodes(0.0, 12.0, 16, specfun.gauss_legendre_rule(20))[0]


def h3_closed_form(lam, t):
    """sin(lam t) / (lam sinh t) on H3, with its limits at t = 0 and lam = 0."""
    lam = np.asarray(lam)[:, None]
    t = np.asarray(t)[None, :]
    st = np.where(t == 0.0, 1.0, t / np.where(t == 0.0, 1.0, np.sinh(t)))  # t / sinh t
    lt = lam * t
    small = np.abs(lt) < 1e-8
    sinc = np.where(small, 1.0 - lt**2 / 6.0, np.sin(lt) / np.where(small, 1.0, lt))
    return sinc * st


def xi_h3(t):
    return np.where(t == 0.0, 1.0, t / np.where(t == 0.0, 1.0, np.sinh(t)))


def test_h3_block_matches_closed_form_on_default_grid():
    G = preset("H3")
    block = phi(G, GRID, T64)
    assert block.shape == (481, 641)
    err = np.abs(block - h3_closed_form(GRID, T64)) / xi_h3(T64)
    assert err.max() <= 1e-12


@pytest.mark.parametrize("name", ["SL2R", "H4"])
def test_block_matches_integral_oracle(name):
    G = preset(name)
    lams = np.array([0.0, 0.6, 2.5, 7.0, 11.5])
    ts = np.array([0.3, 1.0, 2.2, 4.0])
    block = phi(G, lams, ts)
    for i, lam in enumerate(lams):
        for j, t in enumerate(ts):
            assert abs(block[i, j] - phi_integral_oracle(G, lam, t)) <= 1e-9


def test_ch2_block_matches_ode_branch_beyond_switch():
    G = preset("CH2")
    lams = np.array([0.35, 1.7, 5.0, 9.5])
    ts = np.linspace(1.3, 12.0, 40)
    block = phi(G, lams, ts)
    xi = phi(G, 0.0, ts).real
    for i, lam in enumerate(lams):
        # the A7 oracle's radial ODE for w = e^{rho t} phi
        ode = np.exp(-G.rho * ts) * _ode_solution(G, complex(lam), ts)
        assert np.max(np.abs(block[i] - ode.real) / xi) <= 1e-10


def test_block_rows_equal_scalar_calls():
    ts = np.concatenate([np.linspace(0.0, 3.0, 31), [5.0, 20.0]])
    for name in ("SL2R", "CH2"):
        G = preset(name)
        lams = np.array([0.0, 0.01, 1.3, 8.0, 8.5, 12.0])
        block = phi(G, lams, ts)
        dblock = phi_d1(G, lams, ts)
        for i, lam in enumerate(lams):
            np.testing.assert_allclose(block[i], phi(G, lam, ts).real, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dblock[i], phi_d1(G, lam, ts).real, rtol=0, atol=1e-14)


def test_degenerate_rows():
    G = preset("H3")
    ts = np.linspace(0.0, 30.0, 301)
    block = phi(G, np.array([0.0, 1e-5, 1j]), ts)
    exact = h3_closed_form(np.array([0.0, 1e-5]), ts)
    assert np.max(np.abs(block[:2] - exact) / xi_h3(ts)) <= 1e-12
    # phi_i = sinh t / sinh t = 1 on H3
    assert np.max(np.abs(block[2] - 1.0)) <= 1e-11


# rows at and near i*Z, where c(lam) Phi_lam + c(-lam) Phi_-lam cancels
NEAR_IZ = [0.0, 1e-5, 1.01e-4, 2e-4, 1e-3, 1j, 1j + 2e-4, 2j]


@pytest.mark.parametrize("name", ["SL2C", "H3"])  # both have multiplicities (2, 0)
def test_rows_near_iz_meet_h3_closed_form(name):
    G = preset(name)
    ts = np.linspace(0.0, 64.0, 6401)
    lams = np.array(NEAR_IZ)
    env = np.exp(np.abs(lams.imag)[:, None] * ts) * xi_h3(ts)
    for block in (phi(G, lams, ts), np.array([phi(G, lam, ts) for lam in NEAR_IZ])):
        assert np.max(np.abs(block - h3_closed_form(lams, ts)) / env) <= 1e-13


def h3_closed_form_derivatives(lam, t):
    """(phi', phi'') of sin(lam t) / (lam sinh t) at 30 digits."""
    with mpmath.workdps(30):
        lam, t = mpmath.mpc(lam), mpmath.mpf(t)
        if t == 0:
            return 0.0, complex(-(lam**2 + 1) / 3)
        s, ds = t * mpmath.sinc(lam * t), mpmath.cos(lam * t)  # sin(lam t) / lam and d/dt
        sh, ch = mpmath.sinh(t), mpmath.cosh(t)
        d1 = (ds * sh - s * ch) / sh**2
        d2 = -(lam**2 + 1) * s / sh - 2 * ch * d1 / sh
        return complex(d1), complex(d2)


def test_circle_row_derivatives_meet_h3_closed_form():
    G = preset("H3")
    ts = np.linspace(0.0, 64.0, 161)
    lams = np.array([lam for lam in NEAR_IZ if lam != 1e-3])  # 1e-3 is off the circle
    exact = np.array([[h3_closed_form_derivatives(lam, t) for t in ts] for lam in lams])
    env = np.exp(np.abs(lams.imag)[:, None] * ts) * xi_h3(ts)
    for k, fn in enumerate((phi_d1, phi_d2)):
        assert np.max(np.abs(fn(G, lams, ts) - exact[:, :, k]) / env) <= 1e-13


def test_d2_near_zero_meets_h3_closed_form():
    # the t = 0 limit of phi'' is off by O(t^2 (lam^2 + rho^2)): 7.5e-4 relative
    # at lam = 50, t = 1e-3; only t = 0 and t with that below roundoff may take it
    G = preset("H3")
    ts = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 2e-3])
    lams = np.array([1.0, 10.0, 50.0, 300.0])
    exact = np.array([[h3_closed_form_derivatives(lam, t)[1] for t in ts] for lam in lams])
    for got in (phi_d2(G, lams, ts), np.array([phi_d2(G, lam, ts) for lam in lams])):
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-14
    # where Delta'/Delta would overflow, the limit is exact to roundoff
    np.testing.assert_array_equal(phi_d2(G, lams, np.array([1e-310])), exact[:, :1])


def hypergeometric_phi(G, lam, t):
    """phi_lam(t) = 2F1((rho + i lam)/2, (rho - i lam)/2; alpha + 1; -sinh^2 t) at 30 digits."""
    with mpmath.workdps(30):
        a = (G.rho + 1j * mpmath.mpc(lam)) / 2
        return complex(mpmath.hyp2f1(a, G.rho - a, G.jacobi_alpha + 1, -mpmath.sinh(t) ** 2))


@pytest.mark.parametrize("name", ["SL2R", "CH2", "H4"])
def test_rows_at_iz_meet_mpmath(name):
    # t up to 64 (circle radius 0.01) and up to T = 152, which SL2R's exp(-x^4/8)
    # packet takes in the forward transform (radius 0.64 / 152)
    G = preset(name)
    for ts in (np.linspace(0.0, 64.0, 9), np.array([0.5, 1.3, 20.0, 64.0, 120.0, 152.0])):
        block = phi(G, np.array([0.0, 1j]), ts)
        xi = np.array([hypergeometric_phi(G, 0.0, t).real for t in ts])
        for row, lam in zip(block, (0.0, 1j)):
            exact = np.array([hypergeometric_phi(G, lam, t) for t in ts])
            assert np.max(np.abs(row - exact) / (np.exp(abs(lam.imag) * ts) * xi)) <= 1e-13


def test_complex_strip_rows():
    G = preset("H3")
    rng = np.random.default_rng(7)
    lams = rng.uniform(-10.0, 10.0, 12) + 1j * rng.uniform(-G.rho, G.rho, 12)
    ts = np.linspace(0.0, 20.0, 201)
    block = phi(G, lams, ts)
    assert block.dtype == complex
    env = np.exp(np.abs(lams.imag)[:, None] * ts) * xi_h3(ts)
    assert np.max(np.abs(block - h3_closed_form(lams, ts)) / env) <= 1e-12


def test_d1_block_matches_central_differences():
    h = 1e-5
    for name in ("SL2R", "CH2"):
        G = preset(name)
        lams = np.array([0.0, 0.8, 4.0, 10.0])
        ts = np.linspace(0.2, 8.0, 27)
        fd = (phi(G, lams, ts + h) - phi(G, lams, ts - h)) / (2 * h)
        assert np.max(np.abs(phi_d1(G, lams, ts) - fd)) <= 5e-8


def test_dtypes_and_shapes():
    G = preset("SL2R")
    ts = np.linspace(0.0, 5.0, 11)
    assert phi(G, np.array([0.5, 2.0]), ts).dtype == np.float64
    assert phi_d1(G, np.array([0.5, 2.0]), ts).dtype == np.float64
    assert phi_d2(G, np.array([0.5, 2.0]), ts).shape == (2, 11)
    assert phi(G, np.array([0.5, 2.0 + 0j]), ts).dtype == complex
    assert phi(G, np.array([0.5, 2.0]), 1.0).shape == (2,)
    assert isinstance(phi(G, 0.5, 1.0), complex)
    assert phi(G, 0.5, ts).dtype == complex
    with pytest.raises(DomainError):
        phi(G, np.ones((2, 2)), ts)


@pytest.mark.parametrize("empty", [np.array([]), np.array([], dtype=complex)])
def test_empty_lam_blocks_keep_their_shape(empty):
    # t = 0 lies below every switch point, so a branch could be asked for rows it has not got
    G = preset("CH2")
    for fn in (phi, phi_d1, phi_d2):
        block = fn(G, empty, np.array([0.0, 0.5, 2.0]))
        assert block.shape == (0, 3) and block.dtype == empty.dtype, fn


def series_outputs(G):
    """_hc_coefficients on both sides of contour rows x + i sigma and on real sides, and
    _pfaff_series with own masks for |lam| up to 60, phi and phi' (complex rows too)."""
    rng = np.random.default_rng(29)
    contour = (np.linspace(0.0, 24.0, 40) + 1j * transform._SIGMAS[:, None]).ravel()
    contour = np.concatenate([contour, -contour])
    sides = rng.uniform(-12.0, 12.0, 60).astype(complex)
    lam = np.concatenate([rng.uniform(-60.0, 60.0, 30),
                          rng.uniform(-8.0, 8.0, 10) + 1j * rng.uniform(-G.rho, G.rho, 10)])
    t = np.append(0.0, np.sort(rng.uniform(0.0, 1.2, 40)))
    own = t <= np.where(np.abs(lam) <= 8.0, 1.2, 9.6 / np.abs(lam))[:, None]
    big = np.abs(lam) > 30.0
    # the first chunk runs 2 terms past the largest x^k < 1e-19 or u^k < 1e-21; the
    # exponential series outlasts it only where it ends before the least stop, k = 6
    # (t_min > 7.3), the Pfaff series where |lam| is large
    return [spherical._hc_coefficients(G, contour, np.full(len(contour), math.exp(-2.0)), contour),
            spherical._hc_coefficients(G, sides, np.exp(-2.0 * rng.uniform(0.2, 4.0, 60)), sides),
            spherical._hc_coefficients(G, sides, np.exp(-2.0 * rng.uniform(7.5, 400.0, 60)), sides),
            *spherical._pfaff_series(G, lam, t, own, True),
            *spherical._pfaff_series(G, lam[big], t, own[big], True)]


@pytest.mark.parametrize("name", ["SL2R", "CH2"])
def test_series_do_not_depend_on_the_chunk_length(name, monkeypatch):
    # each row stops on its own terms, wherever the chunks end; not 1, where numpy's
    # cumprod over two rows takes the binary multiply, which rounds complex products otherwise
    G = preset(name)
    default = series_outputs(G)
    for chunk in (2, 300):
        monkeypatch.setattr(spherical, "_CHUNK", chunk)
        for got, want in zip(series_outputs(G), default):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), chunk


def koornwinder_series(G, s, t):
    """e^{-mu t} Phi_s(t), mu = i s - rho, from Koornwinder's (1984) closed form
    Phi_s(t) = (2 cosh t)^mu 2F1((rho - i s)/2, (alpha - beta + 1 - i s)/2; 1 - i s; cosh^-2 t),
    at 30 digits."""
    with mpmath.workdps(30):
        s, t = mpmath.mpc(s), mpmath.mpf(t)
        mu = 1j * s - G.rho
        a, b = (G.rho - 1j * s) / 2, (G.jacobi_alpha - G.jacobi_beta + 1 - 1j * s) / 2
        return complex((1 + mpmath.exp(-2 * t)) ** mu
                       * mpmath.hyp2f1(a, b, 1 - 1j * s, mpmath.cosh(t) ** -2))


@pytest.mark.parametrize("name", ["SL2R", "H3", "H4", "CH2"])
def test_series_coefficients_meet_koornwinders_closed_form(name):
    # real sides and a row x + i sigma of the contour ladder per sigma, x of either sign, at
    # t = 1.2 and 3.0; then sides of |s| past 50.5 at their own switch point t = 9.6/|s|,
    # where the first chunk's x is largest
    G = preset(name)
    rng = np.random.default_rng(38)
    contour = rng.uniform(-24.0, 24.0, len(transform._SIGMAS)) + 1j * transform._SIGMAS
    sides = np.concatenate([[0.0], rng.uniform(-12.0, 12.0, 8), contour])
    far = np.array([50.5, -64.0, 97.9, -150.0, 200.0])
    pairs = [(sides, np.full(len(sides), t)) for t in (1.2, 3.0)] + [(far, 9.6 / np.abs(far))]
    for s, t in pairs:
        x = np.exp(-2.0 * t)
        coef = spherical._hc_coefficients(G, s, x, s)
        powers = x[:, None] ** np.arange(coef.shape[1])
        exact = np.array([koornwinder_series(G, *st) for st in zip(s, t)])
        got, scale = (coef * powers).sum(axis=1), (np.abs(coef) * powers).sum(axis=1)
        assert np.all(np.abs(got - exact) <= 1e-14 * scale), t


# --------------------------------------------------------------------------
# lost-digits guard and non-finite inputs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("t", [10.0, 20.0])
def test_pfaff_series_past_its_term_cap_raises_naming_lam_and_t(t):
    # u = tanh^2 t is 1 - 8e-9 at t = 10, where the terms fall below 1e-17 only after some
    # 6e9 of them, and rounds to 1 at t = 20, where they never do
    with pytest.raises(AccuracyError, match=rf"Pfaff series for phi did not settle within "
                                            rf"500 terms at lam = 1\.0, t = {t!r}"):
        spherical._pfaff_series(preset("H3"), np.array([1.0 + 0j]), np.array([t]), None, False)


T_SWEEP = np.concatenate([[0.0], np.geomspace(1e-4, 100.0, 600)])


def test_h3_rows_past_lam_50_meet_closed_form(monkeypatch):
    # a row with |lam| > 8 leaves the Pfaff series at 9.6/|lam|, where its terms stay below
    # e^9.6, so cancellation costs it no more than about 3e-12 of Xi: single rows, their phi'
    # against 30 digits, and a block that takes the band
    G = preset("H3")
    lams = np.array([60.0, 70.0, 80.0, 90.0, 94.5, 95.0, 97.9, 100.0, 110.0, 150.0, 200.0])
    for lam in lams:
        err = np.abs(phi(G, lam, T_SWEEP) - h3_closed_form([lam], T_SWEEP)[0]) / xi_h3(T_SWEEP)
        assert err.max() <= 1e-13, lam
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 64.0, 80)])
    exact = np.array([[h3_closed_form_derivatives(lam, t)[0] for t in ts] for lam in lams])
    err = np.abs(phi_d1(G, lams, ts) - exact) / ((lams[:, None] + 1.0) * xi_h3(ts))
    assert err.max() <= 1e-13
    widths = record_band_widths(monkeypatch)
    block = np.linspace(50.0, 200.0, 200)
    err = np.abs(phi(G, block, T_SWEEP) - h3_closed_form(block, T_SWEEP)) / xi_h3(T_SWEEP)
    assert widths[-1] == np.count_nonzero(T_SWEEP <= spherical._PFAFF_T)
    assert err.max() <= 1e-13


def test_h3_rows_past_lam_192_keep_the_pfaff_series_up_to_t_0_05():
    # a row past |lam| = 9.6 / 0.05 = 192 keeps the Pfaff series and its guard up to t = 0.05,
    # past the 0.0439 from which the exponential series settles: within 1e-10 of Xi while the
    # guard passes, and a named error from |lam| of about 372
    G = preset("H3")
    for lam, t in ((300.0, 0.04), (1000.0, 0.015)):
        assert abs(phi(G, lam, t) - h3_closed_form([lam], [t])[0, 0]) <= 1e-10 * xi_h3(t), lam
    err = np.abs(phi(G, 300.0, T_SWEEP) - h3_closed_form([300.0], T_SWEEP)[0]) / xi_h3(T_SWEEP)
    assert err.max() <= 1e-10
    with pytest.raises(AccuracyError, match=r"Pfaff series for phi loses too many digits at "
                                            r"lam = 500\.0, t = 0\.049"):
        phi(G, 500.0, T_SWEEP)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_exponential_series_settles_from_phis_least_switch_point(name):
    # |a_k| is at most the running peak its terms are read against, so x^(k-1) < 1e-19 for a
    # k below the cap of 500 settles every side: from t = ln(1e19) / 996 = 0.0439, below phi's
    # floor of 0.05 for the switch point; on H3, where every a_k is 1, t = 0.04 does not
    G = preset(name)
    sides = np.array([0.0, 300.0, -1000.0, 1e4, 5.0 + 2.0j, 40.0 - 3.5j])
    t_min = math.log(1e19) / (2.0 * (spherical._MAX_HC_TERMS - 2))
    spherical._hc_coefficients(G, sides, np.full(len(sides), math.exp(-2.0 * t_min)), sides)
    if name == "H3":
        with pytest.raises(AccuracyError, match=r"exponential series for phi did not settle "
                                                r"within 500 terms at lam = 300\.0, t = "):
            spherical._hc_coefficients(G, sides[1:2], np.full(1, math.exp(-0.08)), sides[1:2])


def test_pfaff_guard_fires_on_the_ode_oracles_seed():
    # the A7 oracle seeds its ODE from the Pfaff series at t = 1.2, where |lam| = 40 has
    # lost its digits: the guard that phi's own rows no longer reach
    with pytest.raises(AccuracyError, match=r"Pfaff series for phi loses too many digits at "
                                            r"lam = 40\.0, t = 1\.2:"):
        asymptotic_c_oracle(preset("SL2R"), 40.0, 25.0)


@pytest.mark.parametrize("lam", [10.0**k for k in range(1, 19)] + [2000.0, 1e300])
def test_large_lam_is_accurate_or_raises(lam):
    # relative to min(Xi(t), 1/(lam sinh t)), the envelope of sin(lam t)/(lam sinh t) on
    # H3; a Pfaff row owning only t = 0 or 1e-9 must not fail, only the c-function guard
    for t in ([1.0], [0.0, 1.0], [1e-9, 1.0]):
        t = np.array(t)
        try:
            val = phi(preset("H3"), lam, t)
        except AccuracyError as err:
            assert lam > 2e4 and "c-function loses too many digits at lam = " in str(err)
            continue
        env = xi_h3(t) / np.maximum(1.0, lam * t)
        assert np.all(np.abs(val - h3_closed_form([lam], t)[0]) <= 1e-10 * env), t


@pytest.mark.parametrize("lam", [1e18, 1e300])
def test_c_function_guard_fires_where_its_digits_are_gone(lam):
    with pytest.raises(AccuracyError, match=r"c-function loses too many digits at lam = "):
        phi(preset("H3"), lam, 1.0)


@pytest.mark.parametrize("lam", [1e5j, 1e306j])
def test_c_function_guard_names_the_callers_lam_near_iz(lam):
    # the row lies on i*Z, so its series runs on a Cauchy circle about it
    with pytest.raises(AccuracyError, match=re.escape(f"at lam = {lam!r}:")):
        phi(preset("H3"), lam, 1.0)


@pytest.mark.parametrize("fn", [phi, phi_d1])
@pytest.mark.parametrize("lam, t", [(800j, 1.0), (2j, 800.0)])
def test_values_past_float_range_raise_a_typed_error(fn, lam, t):
    # sinh(y t) / (y sinh t) is about 3e344 and 1e347 there
    with pytest.raises(EvaluationError, match=re.escape(f"lam = {lam!r}, t = {t!r}")):
        fn(preset("H3"), np.array([0.5j, lam]), np.array([0.5, t]))


@pytest.mark.parametrize("lam, t", [(700j, 1.0), (2j, 700.0)])
def test_values_near_float_range_meet_h3_closed_form(lam, t):
    # sinh(y t) / (y sinh t) = e^((y - 1) t) (1 - e^(-2 y t)) / (y (1 - e^(-2t))),
    # about 6e300 and 5e303; the second overflows e^(y t) on its own
    y = lam.imag
    exact = math.exp((y - 1.0) * t) * -math.expm1(-2.0 * y * t) / (y * -math.expm1(-2.0 * t))
    assert abs(phi(preset("H3"), lam, t) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lost_digits_guard_silent_on_spectral_window(name):
    G = preset(name)
    assert np.all(np.isfinite(phi(G, GRID, T64)))
    assert np.all(np.isfinite(phi_d1(G, GRID, T64)))
    rng = np.random.default_rng(2024)
    strip = rng.uniform(-10.0, 10.0, 60) + 1j * rng.uniform(-G.rho, G.rho, 60)
    assert np.all(np.isfinite(phi(G, strip, np.linspace(0.0, 12.0, 97))))


@pytest.mark.parametrize("fn", [phi, phi_d1, phi_d2])
def test_phi_rejects_non_finite_input(fn):
    G = preset("SL2R")
    with pytest.raises(DomainError, match="lam"):
        fn(G, float("nan"), 1.0)
    with pytest.raises(DomainError, match="lam"):
        fn(G, np.array([1.0, np.inf]), 1.0)
    with pytest.raises(DomainError, match="t"):
        fn(G, 1.0, np.array([0.5, np.nan]))


@pytest.mark.parametrize("call, named", [
    (lambda G: phi(G, "a", 1.0), "lam, got 'a'"),
    (lambda G: phi_d2(G, np.array([1.0, None]), 1.0), "lam, got array([1.0, None]"),
    (lambda G: phi(G, 1.0, "x"), "t, got 'x'"),
    (lambda G: phi_d1(G, 1.0, 1j), "real t, got 1j"),
    (lambda G: c_function(G, "a"), "c_function requires finite lam, got 'a'"),
    (lambda G: plancherel_density(G, ["a"]), "plancherel_density requires finite lam, got ['a']"),
])
def test_non_numeric_input_raises_a_domain_error_naming_it(call, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        call(preset("SL2R"))


def test_c_function_rejects_non_finite_lam():
    with pytest.raises(DomainError, match="lam"):
        c_function(preset("SL2R"), float("nan"))
    with pytest.raises(DomainError, match="c_function requires finite lam"):
        c_function(preset("SL2R"), np.array([1.0, np.nan]))


def test_plancherel_density_rejects_non_finite_lam():
    with pytest.raises(DomainError, match="lam"):
        plancherel_density(preset("SL2R"), np.array([1.0, np.nan]))


# --------------------------------------------------------------------------
# transform tables: mirror fold and byte-capped cache
# --------------------------------------------------------------------------

def test_hc_transform_folds_mirrored_rows(monkeypatch, fresh_phi_cache):
    G = preset("SL2R")
    f = gaussian_profile(G)
    rows = []
    real_evaluate = spherical._evaluate

    # the tables on radial rule nodes are one evaluator call each
    def counting_evaluate(G, lam, t, order):
        rows.append(np.size(lam))
        return real_evaluate(G, lam, t, order)

    monkeypatch.setattr(spherical, "_evaluate", counting_evaluate)
    for grid in (GRID, np.linspace(-11.5, 11.5, 481)):
        res = transform.hc_transform(G, f, grid)
        assert res.spectral.weyl_defect() == 0.0
    assert rows and max(rows) <= 241


def gauss_symbol():
    return transform.SpectralFunction.from_function(
        lambda x: np.exp(-x**2), GRID, transform.SpectralDecay(180.0, 8.0), label="gauss")


def test_fresh_packet_round_trip_makes_two_evaluator_calls(monkeypatch, fresh_phi_cache):
    G = preset("H3")
    calls = []
    real_evaluate = spherical._evaluate

    def counting_evaluate(G, lam, t, order):
        calls.append(np.asarray(t).tobytes())
        return real_evaluate(G, lam, t, order)

    monkeypatch.setattr(spherical, "_evaluate", counting_evaluate)
    packet = transform.wave_packet(G, gauss_symbol())
    transform.hc_transform(G, packet, np.linspace(-11.3, 11.3, 481))
    # the packet on the K51 nodes, which the envelope check reads and hc_transform finds
    # held, and the forward table on the same nodes
    T = transform._radial_cutoff(G, packet.decay, specfun.DEFAULT_QUAD.abs_tol)
    assert calls == [transform._radial_rule(G, T).nodes.tobytes()] * 2


def test_fresh_round_trip_on_the_symbols_grid_makes_one_phi_call_of_its_rows(
        monkeypatch, fresh_phi_cache):
    # the packet's envelope check builds the table of the grid's 241 |lam| rows on the K51
    # nodes that hc_transform reads, and hc_transform finds the values and the table there
    G = preset("CH2")
    grid = np.linspace(-11.6, 11.6, 481)
    calls = []
    monkeypatch.setattr(transform, "phi", lambda G, lam, t, phi=transform.phi:
                        calls.append((len(lam), len(t))) or phi(G, lam, t))
    symbol = transform.SpectralFunction.from_function(
        lambda x: np.exp(-x**2), grid, transform.SpectralDecay(180.0, 8.0), label="gauss")
    packet = transform.wave_packet(G, symbol)
    transform.hc_transform(G, packet, grid)
    T = transform._radial_cutoff(G, packet.decay, specfun.DEFAULT_QUAD.abs_tol)
    assert calls == [(241, len(transform._radial_rule(G, T).nodes))]


def test_fresh_round_trip_calls_public_phi_twice_and_charges_the_packet_once(
        monkeypatch, fresh_phi_cache):
    G = preset("CH2")
    phi_calls, products = [], []
    real_phi, real_times = transform.phi, transform._real_times

    # phi as bound in transform, which is what an outside tracer wraps
    def counting_phi(G, lam, t):
        phi_calls.append(np.shape(t))
        return real_phi(G, lam, t)

    # a packet's charge is a vector, hc_transform's weights a column per estimate
    def counting_times(table, w):
        products.append(np.ndim(w))
        return real_times(table, w)

    monkeypatch.setattr(transform, "phi", counting_phi)
    monkeypatch.setattr(transform, "_real_times", counting_times)
    packet = transform.wave_packet(G, gauss_symbol())
    transform.hc_transform(G, packet, np.linspace(-11.7, 11.7, 481))
    assert len(phi_calls) == 2 and phi_calls[0] == phi_calls[1]
    assert sorted(products) == [1, 2]
    # the held product is handed out as a copy
    ts = np.linspace(0.0, 6.0, 25)
    first = packet.eval(ts)
    expected = first.copy()
    first[:] = 7.0
    np.testing.assert_array_equal(packet.eval(ts), expected)
    np.testing.assert_array_equal(packet(ts), expected)


def test_phi_cache_stays_under_byte_cap(monkeypatch, fresh_phi_cache):
    G = preset("H3")
    cap = 3 * 2**20
    monkeypatch.setattr(transform, "_PHI_CACHE_BYTES", cap)
    ts = np.linspace(0.0, 10.0, 1000)
    # each table built twice, so that it is held: 0.8 to 1.6 MB tables, the oldest
    # dropped at the cap
    for n in (200, 150, 200, 150, 120, 100, 120, 100):
        table = transform._phi_block(G, np.linspace(0.0, 12.0, n), ts)
        assert table.dtype == np.float64
        assert sum(v.nbytes for _, v in transform._PHI_CACHE.values()) <= cap
    assert [len(table) for _, table in transform._PHI_CACHE.values()] == [150, 120, 100]
    for _ in range(2):  # larger than the cap, it is not remembered or held
        big = transform._phi_block(G, np.linspace(0.0, 12.0, 400), ts)  # 3.2 MB
    assert big.shape == (400, 1000)
    assert all(v is not big for _, v in transform._PHI_CACHE.values())
    assert sum(v.nbytes for _, v in transform._PHI_CACHE.values()) <= cap


def gauss_round_trip(G, half_width):
    grid = np.linspace(-half_width, half_width, 481)
    symbol = transform.SpectralFunction.from_function(
        lambda x: np.exp(-x**2), grid, transform.SpectralDecay(180.0, 8.0), label="gauss")
    return transform.hc_transform(G, transform.wave_packet(G, symbol), grid)


def test_one_off_round_trips_leave_only_the_newest_table(fresh_phi_cache):
    # each grid's packet and forward tables are asked for once: each goes before the
    # next build, and the last forward table is the only one left
    G = preset("H3")
    for half_width in np.linspace(11.3, 11.95, 12):
        gauss_round_trip(G, half_width)
    assert list(transform._PHI_CACHE) == transform._PHI_ONCE
    assert [len(table) for _, table in transform._PHI_CACHE.values()] == [241]


def test_a_table_asked_for_again_later_is_built_once_more_then_held(
        monkeypatch, fresh_phi_cache):
    G = preset("H3")
    calls = []
    real_evaluate = spherical._evaluate

    def counting_evaluate(G, lam, t, order):
        calls.append(order)
        return real_evaluate(G, lam, t, order)

    monkeypatch.setattr(spherical, "_evaluate", counting_evaluate)
    per_round = []
    for _ in range(3):
        calls.clear()
        for half_width in (11.4, 11.6, 11.8):
            gauss_round_trip(G, half_width)
        per_round.append(len(calls))
    # the second round finds every key's hash remembered and holds what it builds
    assert 0 < per_round[1] <= per_round[0] and per_round[2] == 0
    assert transform._PHI_ONCE == []


def test_two_cutoffs_of_one_preset_hold_one_table(fresh_phi_cache):
    # cutoffs 16 and 28 on H3's default grid: the rule of 16 is the first 408 of the 714
    # nodes of the rule of 28, so one table of 714 columns serves both
    G = preset("H3")
    short, long_ = gaussian_profile(G, 1.0), cosh_profile(G, 2.5)
    for f, T in ((short, 16.0), (long_, 28.0)):
        assert transform._radial_cutoff(G, f.decay, specfun.DEFAULT_QUAD.abs_tol) == T
    first = transform.hc_transform(G, short).spectral.values
    for f in (long_, short, long_):
        again = transform.hc_transform(G, f).spectral.values
    assert [table.shape for _, table in transform._PHI_CACHE.values()] == [(241, 714)]
    np.testing.assert_array_equal(transform.hc_transform(G, short).spectral.values, first)
    assert transform._PHI_ONCE == [] and np.all(np.isfinite(again))


@pytest.mark.parametrize("name", ["SL2R", "H3", "CH2"])
def test_shorter_rules_read_a_longer_rules_table_bit_for_bit(name, monkeypatch, fresh_phi_cache):
    G = preset(name)
    calls = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: calls.append(len(t)) or phi(G, lam, t))
    default = transform._mirror_fold(GRID)[0]
    for rows, cutoffs in ((default, (28.0, 16.0, 12.0)), (GL_ROWS, (16.0, 8.0))):
        transform._phi_block(G, rows, transform._radial_rule(G, cutoffs[0]).nodes)
        for T in cutoffs[1:]:
            nodes = transform._radial_rule(G, T).nodes
            np.testing.assert_array_equal(transform._phi_block(G, rows, nodes), phi(G, rows, nodes))
    assert calls == [714, 408]
    # each table built once answers until the next build: the first went with the second's
    assert [table.shape for _, table in transform._PHI_CACHE.values()] == [(320, 408)]


def test_plain_grid_and_rule_reads_each_build_their_table_twice_then_hold_it(
        monkeypatch, fresh_phi_cache):
    # the packet is checked on its rule's nodes and read on a shorter rule's, which the
    # table built once answers; the CLI's plain t grid has the same rows but a table of its
    # own, whose build drops the rule's table; each is held from its second build, and the
    # reads after that build nothing
    G = preset("H3")
    symbol = transform.SpectralFunction.from_function(
        lambda x: np.exp(-x**2), GRID, transform.SpectralDecay(180.0, 8.0), label="gauss")
    psi = transform.wave_packet(G, symbol)
    T = transform._radial_cutoff(G, psi.decay, specfun.DEFAULT_QUAD.abs_tol)
    assert T == 12.0
    calls = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: calls.append(len(t)) or phi(G, lam, t))
    psi(transform._radial_rule(G, 8.0).nodes)
    plain = np.linspace(0.0, 12.0, 481)
    psi(plain)
    assert calls == [481]
    nodes = transform._radial_rule(G, T).nodes
    for _ in range(2):
        psi(nodes)
        psi(plain)
    assert calls == [481, 306, 481]


def test_a_rule_past_the_circle_cutoff_keeps_its_own_table(fresh_phi_cache):
    # past t = 64 a rule's last node sets the Cauchy-circle radius of the near row lam = 0,
    # so the rule of 68 keeps its own table and the rule of 16 reads only its own; each is
    # built twice, the other between, so that both are held
    G = preset("H3")
    rows = np.array([0.0, 0.5, 2.5])
    short, long_ = (transform._radial_rule(G, T).nodes for T in (16.0, 68.0))
    assert long_[:len(short)].tobytes() == short.tobytes()
    for ts in (short, long_, short, long_):
        transform._phi_block(G, rows, ts)
    np.testing.assert_array_equal(transform._phi_block(G, rows, short), phi(G, rows, short))
    assert [table.shape for _, table in transform._PHI_CACHE.values()] == [(3, 408), (3, 1734)]


@pytest.mark.parametrize("name", ["H3", "SL2R", "CH2"])
def test_rule_nodes_give_the_same_bits_after_the_rule_cache_drops_them(name):
    # which t are factored per panel is decided from the values of t alone, so a rule's
    # nodes give the same entries whether or not the rule object is still alive
    G = preset(name)
    rows = transform._mirror_fold(GRID)[0]
    for T in (8.0, 16.0, 68.0):
        nodes = transform._radial_rule(G, T).nodes.copy()
        before = [fn(G, rows, nodes) for fn in (phi, phi_d1, phi_d2)]
        transform._radial_rule.cache_clear()
        gc.collect()
        for fn, block in zip((phi, phi_d1, phi_d2), before):
            np.testing.assert_array_equal(fn(G, rows, nodes), block)


def test_a_held_rule_table_serves_a_shorter_rule_after_the_rule_cache_drops_it(
        monkeypatch, fresh_phi_cache):
    # the table of the rule of 28 starts with the columns of the rule of 16 whether or
    # not either rule object is alive: the shorter rule reads them and builds nothing
    G = preset("H3")
    rows = np.linspace(0.1, 6.0, 40)
    long_ = transform._radial_rule(G, 28.0).nodes
    transform._phi_block(G, rows, long_)  # built once, it answers until the next build
    transform._radial_rule.cache_clear()
    gc.collect()
    short = transform._radial_rule(G, 16.0).nodes
    calls = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: calls.append(len(t)) or phi(G, lam, t))
    np.testing.assert_array_equal(transform._phi_block(G, rows, short), phi(G, rows, short))
    assert calls == []


# the CLI's six symbols, symbol k on preset k mod 3: every multiplicity class twice
ROTATION = (("gauss", "SL2R"), ("x2gauss", "H3"), ("wide", "CH2"),
            ("poly", "SL2R"), ("quartic", "H3"), ("flat4", "CH2"))


def test_a_rotation_of_the_six_symbols_builds_nothing_in_its_third_round(
        monkeypatch, fresh_phi_cache):
    # round trips on the default grid, each one table of its 241 rows: the first round
    # builds one per symbol, and the fourth to sixth, whose preset's key hash the first
    # three remembered, are held; shorter rules read longer rules' columns, so the second
    # and third rounds build nothing
    calls = []
    for name in ("phi", "phi_d1", "phi_d2"):
        monkeypatch.setattr(transform, name, lambda G, lam, t, fn=getattr(transform, name):
                            calls.append(fn) or fn(G, lam, t))
    per_round = []
    for _ in range(3):
        calls.clear()
        for label, name in ROTATION:
            fn, G = cli.SYMBOLS[label], preset(name)
            coeff = 1.1 * float(np.max(np.abs(fn(GRID)) * (1.0 + np.abs(GRID)) ** 8))
            symbol = transform.SpectralFunction.from_function(
                fn, GRID, transform.SpectralDecay(coeff, 8.0), label=label)
            transform.hc_transform(G, transform.wave_packet(G, symbol), GRID)
        per_round.append(len(calls))
    assert per_round == [6, 0, 0]
    assert sorted(table.shape for _, table in transform._PHI_CACHE.values()) == [
        (241, 408), (241, 408), (241, 714)]


# --------------------------------------------------------------------------
# tables on panel nodes, and the independence of an entry from its position
# --------------------------------------------------------------------------

# rows inside the Cauchy band about 0 (0, 1e-5, 3e-4) and just outside it (0.02)
CIRCLE_ROWS = np.array([0.0, 1e-5, 3e-4, 0.02])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_panel_tables_match_plain_phi(name, fresh_phi_cache):
    G = preset(name)
    folded = transform._mirror_fold(np.linspace(-12.0, 12.0, 241))[0]
    rows = np.concatenate([folded, GL_ROWS, CIRCLE_ROWS])
    # the switch points, 1.2 and 9.6 / |lam| for |lam| > 8, lie inside panels of
    # width 0.5, so the exponential series of a row starts mid-panel
    for T in (4.0, 16.0, 40.0):
        nodes = transform._radial_rule(G, T).nodes
        assert spherical._rule_panels(nodes) is not None
        # one more column, and the nodes are not a rule's: plain columns, one panel each
        extended = np.append(nodes, T + 1.0)
        assert spherical._rule_panels(extended) is None
        for k, plain in enumerate((phi, phi_d1, phi_d2)):
            table = transform._phi_block(G, rows, nodes, k)
            err = np.abs(table - plain(G, rows, extended)[:, :-1]) / xi(G, nodes)
            tol = (1e-13, 1e-12, 1e-12)[k] * (1.0 + np.abs(rows[:, None])) ** k
            assert np.all(err <= tol), (T, k)


def test_radial_rule_nodes_are_recognised_by_their_values_alone(monkeypatch):
    G = preset("H3")
    for k in range(1, 41):  # every cutoff T = 4k, T = 68 among them
        nodes = transform._radial_rule(G, 4.0 * k).nodes
        mid, offsets = spherical._rule_panels(nodes)
        assert (mid[:, None] + offsets).ravel().tobytes() == nodes.tobytes()
    nodes = transform._radial_rule(G, 16.0).nodes
    moved = nodes.copy()
    moved[100] = np.nextafter(moved[100], np.inf)
    # the adaptive rule's first call: K31 on 4 panels of [0, T]
    asked = []
    monkeypatch.setattr(transform, "phi", lambda G, lam, t, phi=transform.phi:
                        asked.append(t) or phi(G, lam, t))
    transform.hc_transform_at(G, gaussian_profile(G, 1.0), 1.0)
    assert len(asked[0]) == 124
    wide = specfun.composite_nodes(0.0, 3.0, 2, specfun.gauss_kronrod_rule(25))[0]  # panels of 1.5
    for t in (moved, np.append(nodes, 16.5), asked[0], np.zeros(0), wide):
        assert spherical._rule_panels(t) is None


def test_entries_do_not_depend_on_column_order_or_row_position(monkeypatch):
    G = preset("CH2")
    rng = np.random.default_rng(13)
    t = np.sort(rng.uniform(0.0, 30.0, 301))
    # far rows on both sides of the switch points, and rows in the Cauchy band; then the
    # same with 241 more, a real block whose t <= 1.2 come from the band's interpolant
    few = np.concatenate([CIRCLE_ROWS, [0.7, 2.5, 9.0, 11.9, 30.0]])
    widths = record_band_widths(monkeypatch)
    for lams in (few, np.concatenate([few, rng.uniform(-12.0, 12.0, 241)])):
        block = phi(G, lams, t)
        assert (widths[-1] > 0) == (len(lams) > len(few))
        cols = rng.permutation(len(t))
        np.testing.assert_array_equal(phi(G, lams, t[cols]), block[:, cols])
        rows = rng.permutation(len(lams))
        np.testing.assert_array_equal(phi(G, lams[rows], t), block[rows])
        np.testing.assert_array_equal(phi(G, lams[rows], t[cols]), block[np.ix_(rows, cols)])
        for fn in (phi_d1, phi_d2):
            block = fn(G, lams, t)
            np.testing.assert_array_equal(fn(G, lams[rows], t[cols]), block[np.ix_(rows, cols)])


def test_table_build_peaks_below_four_times_the_table():
    # the exponential series goes through the columns in groups of whole panels, so
    # its transients do not grow with the table's width (5.3x when they did), and the
    # Pfaff series runs on the band's points only (3.7x and 6.1x when it ran on every row);
    # a complex block takes no band, and its Pfaff series runs on all its rows at once
    G = preset("H3")
    nodes = transform._radial_rule(G, 16.0).nodes
    blocks = ((GL_ROWS, nodes, (320, len(nodes))),
              (np.linspace(-12.0, 12.0, 300) + 0.1j, np.linspace(0.0, 30.0, 1000), (300, 1000)))
    for rows, ts, shape in blocks:
        for fn, bound in ((phi, 2.5), (phi_d1, 4.0)):
            fn(G, rows, ts)  # the cached rules and coefficients are not the build's
            tracemalloc.start()
            try:
                table = fn(G, rows, ts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.shape == shape
            assert peak <= bound * table.nbytes, (fn, shape)


# --------------------------------------------------------------------------
# the small-t band of a real block: an interpolant in |lam| on Chebyshev points
# --------------------------------------------------------------------------

def record_band_widths(monkeypatch) -> list:
    """A list that receives the band's column count (0 for none) of every later block; the
    band's own points, a block without a band, come before the block they serve."""
    widths = []
    band = spherical._band

    def recorded(*args):
        widths.append(band(*args))
        return widths[-1]

    monkeypatch.setattr(spherical, "_band", recorded)
    return widths


@pytest.mark.parametrize("half_width", [1.0, 12.0, 24.0, 50.0])
def test_band_meets_h3_closed_form(half_width, monkeypatch):
    G = preset("H3")
    nodes = transform._radial_rule(G, 16.0).nodes
    lams = np.linspace(-half_width, half_width, 481)
    widths = record_band_widths(monkeypatch)
    block = phi(G, lams, nodes)
    nb = np.count_nonzero(nodes <= spherical._PFAFF_T)
    assert widths[-1] == nb
    t = nodes[:nb]
    assert np.max(np.abs(block[:, :nb] - h3_closed_form(lams, t)) / xi_h3(t)) <= 1e-13


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_band_rows_meet_scalar_calls(name, monkeypatch):
    # a scalar call sums its own series; the first and last rows, 0 and L = 12, lie on
    # points of the band and take those points' rows
    G = preset(name)
    nodes = transform._radial_rule(G, 4.0).nodes
    nb = np.count_nonzero(nodes <= spherical._PFAFF_T)
    lams = np.concatenate([[0.0], np.linspace(0.01, 12.0, 240)])
    widths = record_band_widths(monkeypatch)
    for k, fn in enumerate((phi, phi_d1, phi_d2)):
        block = fn(G, lams, nodes)[:, :nb]
        assert widths[-1] == nb
        scalar = np.array([fn(G, lam, nodes[:nb]).real for lam in lams[::8]])
        tol = 1e-13 * (1.0 + lams[::8, None]) ** k * xi(G, nodes[:nb])
        assert np.all(np.abs(block[::8] - scalar) <= tol), k


def test_band_sum_is_the_loop_over_points_in_order(monkeypatch):
    # the rows reach L = 11, and the points span [0, 4 ceil(L / 4)] = [0, 12]
    G = preset("SL2R")
    lams, t = np.linspace(0.0, 11.0, 300), np.linspace(0.0, 1.2, 25)
    spherical._band_points.cache_clear()
    calls, rows = [], spherical._phi_rows
    monkeypatch.setattr(spherical, "_phi_rows", lambda G, lam, *args: calls.append(lam.real)
                        or rows(G, lam, *args))
    outs = [np.empty((len(lams), len(t)))]
    assert spherical._band(G, lams, t, outs, False) == len(t)
    (points,) = calls
    n = len(points) - 1
    np.testing.assert_array_equal(points, 12.0 * np.sin(0.5 * np.pi * np.arange(n + 1) / n) ** 2)
    values = phi(G, points, t)
    w = (-1.0) ** np.arange(n + 1) * np.where(np.arange(n + 1) % n, 1.0, 0.5)
    c = w / (lams[1:, None] - points)  # the rows off the points
    num, den = np.zeros((len(lams) - 1, len(t))), np.zeros(len(lams) - 1)
    for j in range(n + 1):
        num += c[:, j, None] * values[j]
        den += c[:, j]
    np.testing.assert_array_equal(outs[0][1:], num / den[:, None])
    np.testing.assert_array_equal(outs[0][0], values[0])


def test_blocks_that_share_a_top_share_the_points_rows(monkeypatch):
    # L = 11.4 and L = 11.9 both round up to the points of [0, 12]: the second block's band
    # makes no call for them, and meets scalar calls as its own points would
    G = preset("H3")
    nodes = transform._radial_rule(G, 4.0).nodes
    nb = np.count_nonzero(nodes <= spherical._PFAFF_T)
    spherical._band_points.cache_clear()
    for fn in (phi, phi_d1):
        fn(G, np.linspace(0.0, 11.4, 300), nodes)
    calls, rows = [], spherical._phi_rows
    monkeypatch.setattr(spherical, "_phi_rows", lambda G, lam, *args: calls.append(len(lam))
                        or rows(G, lam, *args))
    widths = record_band_widths(monkeypatch)
    lams = np.linspace(0.0, 11.9, 250)
    for k, fn in enumerate((phi, phi_d1, phi_d2)):
        block = fn(G, lams, nodes)[:, :nb]
        assert widths == [nb] and calls == [len(lams)], k
        scalar = np.array([fn(G, lam, nodes[:nb]).real for lam in lams[::10]])
        tol = 1e-13 * (1.0 + lams[::10, None]) ** k * xi(G, nodes[:nb])
        assert np.all(np.abs(block[::10] - scalar) <= tol), k
        widths.clear()
        calls.clear()


def test_band_points_are_held_for_rule_nodes_only(monkeypatch):
    # a plain grid's points keep a row per column t <= 1.2, of any number: 20,000 columns
    # would hold 5.1 MB under a 160 kB key; a radial rule's nodes are held, and a second
    # block on them that rounds to the same top finds its points
    G = preset("H3")
    widths = record_band_widths(monkeypatch)
    held = spherical._band_points.cache_info().currsize
    phi(G, np.linspace(0.0, 12.0, 50), np.linspace(0.0, 1.2, 20000))
    assert widths[-1] == 20000
    assert spherical._band_points.cache_info().currsize == held
    nodes = transform._radial_rule(G, 8.0).nodes
    phi(G, np.linspace(0.0, 12.0, 50), nodes)
    hits = spherical._band_points.cache_info().hits
    phi(G, np.linspace(0.0, 11.0, 60), nodes)
    assert spherical._band_points.cache_info().hits == hits + 1
    assert widths[-1] == np.count_nonzero(nodes <= spherical._PFAFF_T)


def test_failing_band_names_the_callers_lam(monkeypatch):
    # the Pfaff series' guard fires at t = 0.04 from |lam| of about 458 on H3, for the band's
    # points too: the block then goes without the band and names its own row
    widths = record_band_widths(monkeypatch)
    lams = np.linspace(0.0, 600.3, 2001)
    with pytest.raises(AccuracyError, match=r"Pfaff series.*t = 0\.04:") as err:
        phi(preset("H3"), lams, np.array([0.04, 1.0]))
    assert widths == [0, 0]  # the band's points were tried, and the block went on without them
    named = float(re.search(r"lam = ([0-9.e+-]+),", str(err.value)).group(1))
    assert named in lams
    # a bound on the points past float range means no band, not an error of its own
    with pytest.raises(AccuracyError, match=r"c-function loses too many digits at lam = 1e\+306"):
        phi(preset("H3"), np.append(np.linspace(0.0, 12.0, 300), 1e306), np.array([1.0]))


# --------------------------------------------------------------------------
# adaptive rule: one integrand call per round of splits
# --------------------------------------------------------------------------

def count_integrand_calls(monkeypatch) -> list:
    """A list that receives the panel count of every later integrand call of the adaptive rule."""
    calls = []
    estimates = specfun._panel_estimates

    def counted_estimates(g, a, b):
        calls.append(len(a))
        return estimates(g, a, b)

    monkeypatch.setattr(specfun, "_panel_estimates", counted_estimates)
    return calls


def test_pointwise_integrals_converge_in_one_integrand_call(monkeypatch):
    G = preset("H3")
    f = gaussian_profile(G, width=1.0)
    calls, integrals = count_integrand_calls(monkeypatch), []

    def counted_integral(*args, **kwargs):
        value, err = specfun.integrate_interval(*args, **kwargs)
        integrals.append(np.shape(value))
        return value, err

    monkeypatch.setattr(transform, "integrate_interval", counted_integral)
    ops = [lambda lam=lam: transform.hc_transform_at(G, f, lam) for lam in (1.0, 2.0, 3.0)]
    ops.append(lambda: transform.convolve_at_identity(
        G, gaussian_profile(G, 1.0), gaussian_profile(G, 0.5)))
    ops += [lambda lam=lam, eps=eps: transform.expansion_term(G, "split", f, lam, eps)
            for lam in (0.5, 1.5, 2.5) for eps in (0.4, 0.2, 0.1)]
    ops.append(lambda: tube_extension_check(G, f, TubeSpec.for_group(G, 0.1)))
    shapes = []
    for op in ops:
        calls.clear()
        integrals.clear()
        op()
        # one integral, estimated on its four starting panels and never split
        assert (len(integrals), calls) == (1, [4])
        shapes += integrals
    # scalars for the points and the convolution, two-component ladder rungs, and the 28
    # off-axis points of the tube check as one vector integrand of their 14 pairs lam, -lam
    assert shapes == [()] * 4 + [(2,)] * 9 + [(14,)]


def test_peaked_integrand_splits_its_worst_panels_in_one_call(monkeypatch):
    calls = count_integrand_calls(monkeypatch)
    value, err = specfun.integrate_interval(lambda x: 1.0 / (1e-4 + (x - 0.5) ** 2), 0.0, 1.0)
    exact = 200.0 * math.atan(50.0)
    assert abs(value - exact) <= specfun.DEFAULT_QUAD.tolerance(exact)
    assert err <= specfun.DEFAULT_QUAD.tolerance(value)
    # the peak sits on the edge of two starting panels: rounds split both sides at once
    splits = sum(calls[1:]) // 2
    assert len(calls) < splits + 1


def test_exhausted_budget_takes_few_integrand_calls(monkeypatch):
    calls = count_integrand_calls(monkeypatch)
    q = specfun.QuadratureSpec(max_subdivisions=4096)
    start = time.process_time()
    with pytest.raises(AccuracyError, match="budget 4096 exhausted"):
        specfun.integrate_interval(lambda x: np.sin(1e6 * x * x), 0.0, 1.0, q)
    assert time.process_time() - start < 1.5
    assert sum(calls[1:]) == 2 * 4096
    assert len(calls) <= 100
