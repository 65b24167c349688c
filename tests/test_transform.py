import functools
import math
import re

import mpmath
import numpy as np
import pytest

from sphtrans import cli, spherical, transform
from sphtrans.acceptance import EXPANSION_SCALES, INVERSION_SYMBOLS, flat_top
from sphtrans.cfunction import plancherel_density
from sphtrans.errors import (
    AccuracyError,
    DomainError,
    EvaluationError,
    GridContractError,
    PreconditionError,
    SingularPointError,
)
from sphtrans.groups import PRESET_NAMES, GroupDatum, haar_density, haar_log_derivative, preset
from sphtrans.profiles import cosh_profile, gaussian_profile, xi_poly_profile
from sphtrans.schwartz import TubeSpec, schwartz_seminorm, tube_extension_check
from sphtrans.specfun import (DEFAULT_QUAD, ExpDecay, QuadratureSpec, gauss_legendre_rule,
                              integrate_interval)
from sphtrans.spherical import RadialProfile, phi, phi_d1, phi_d2
from sphtrans.transform import (
    CARTAN_CLASSES,
    GRID_MAX,
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

from integral_oracle import gauss_transform_h3


def make_symbol(fn, label=""):
    grid = default_spectral_grid()
    coeff = 1.1 * float(np.max(np.abs(fn(grid)) * (1.0 + np.abs(grid)) ** 8))
    return SpectralFunction.from_function(
        fn, grid, SpectralDecay(coeff + 1e-300, 8.0), label=label
    )


def gauss_symbol(scale=1.0):
    return make_symbol(lambda x: np.exp(-scale * x**2), label=f"gauss{scale}")


def zero_profile(G):
    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return RadialProfile(eval=zero, decay=ExpDecay(1e-300, 2.0 * G.rho + 2.0, 0),
                         d1=zero, d2=zero, label="zero")


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


def test_interpolation_near_a_grid_point_at_zero_stays_finite():
    # queries within 1e-305 of the grid point 0 take its sample, or its zero, finitely
    grid = np.linspace(-3.0, 3.0, 61)
    for values in (np.exp(-grid**2), grid**3):
        a = SpectralFunction(grid, values, SpectralDecay(40.0, 6.0))
        got = a(np.array([0.0, 1e-305, -1e-305, 5e-324]))
        np.testing.assert_allclose(got, values[30], rtol=1e-14, atol=1e-300)


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


@pytest.mark.parametrize("grid, words", [
    ([], "non-empty"),
    (np.zeros((3, 3)), "1-d"),
    (np.linspace(-2.0, 3.0, 9), "symmetric"),
])
def test_hc_transform_checks_its_grid_before_building_tables(grid, words, monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built for a bad grid")

    monkeypatch.setattr(transform, "_phi_block", no_table)
    G = preset("H3")
    with pytest.raises(GridContractError, match=words):
        hc_transform(G, gaussian_profile(G), grid)


@pytest.mark.parametrize("grid", [
    pytest.param(None, id="default-grid"),
    pytest.param(np.linspace(-3.0, 3.0, 7), id="seven-points"),
])
def test_hc_transform_checks_its_grid_once(grid, monkeypatch):
    # the result's SpectralFunction is where the grid is checked, before any table is built
    calls = []
    real_check = transform._checked_grid

    def counting_check(grid):
        calls.append(np.shape(grid))
        return real_check(grid)

    monkeypatch.setattr(transform, "_checked_grid", counting_check)
    G = preset("H3")
    result = hc_transform(G, gaussian_profile(G), grid)
    assert len(calls) == 1
    assert result.spectral.grid.shape == calls[0]


def test_real_times_has_the_bits_of_the_stacked_product():
    # the stack-and-combine form the product replaced, as the reference
    def stacked(table, w):
        out = table @ np.stack([w.real, w.imag], axis=-1).reshape(len(w), -1)
        out = out.reshape(out.shape[:1] + w.shape[1:] + (2,))
        return out[..., 0] + 1j * out[..., 1]

    rng = np.random.default_rng(44)
    held = rng.standard_normal((40, 60))
    for table in (held, held[:30, :50], held[:30, :50].T):
        n = table.shape[1]
        for w in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))):
            got, want = transform._real_times(table, w), stacked(table, w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pointwise_integrals_reject_a_nan_envelope_naming_coeff():
    # a width-0.05 Gaussian whose envelope coefficient is NaN
    G = preset("H3")
    f = gaussian_profile(G, width=0.05)
    f = RadialProfile(f.eval, ExpDecay(math.nan, f.decay.rate), f.d1, f.d2)
    with pytest.raises(DomainError, match="coeff = nan"):
        hc_transform_at(G, f, 1.0)
    with pytest.raises(DomainError, match="coeff = nan"):
        convolve_at_identity(G, f, f)


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


def test_hc_transform_at_complex_lam_matches_h3_closed_form():
    G = preset("H3")
    f = gaussian_profile(G)
    lams = [complex(x, y * G.rho) for x in (0.3, 1.0, 2.5) for y in (-0.1, -0.05, 0.05, 0.1)]
    # one array call on one panel tree, up to |Im lam| = 1.5, meets the same bound
    lams_array = np.array(lams + [-2.5 + 0.05j, 4.0 + 0.5j, 0.7 - 1.5j])
    for lam, value in zip(lams_array, hc_transform_at(G, f, lams_array), strict=True):
        exact = gauss_transform_h3(lam)
        assert abs(value - exact) <= max(1e-12, 1e-10 * abs(exact))
    for lam in lams:
        exact = gauss_transform_h3(lam)
        assert abs(hc_transform_at(G, f, lam) - exact) <= max(1e-12, 1e-10 * abs(exact))


@pytest.mark.parametrize("lam", [1.3 + 0.2j, -0.7 + 0.35j, 0.4j, 2.5],
                         ids=["complex", "negative-real-part", "imaginary", "real"])
def test_hc_transform_at_gives_lam_and_minus_lam_the_same_bits(lam):
    # one phi row per pair lam, -lam: the two values are one integral's
    G = preset("H3")
    pair = hc_transform_at(G, gaussian_profile(G), [lam, -lam])
    assert pair[:1].tobytes() == pair[1:].tobytes()
    exact = gauss_transform_h3(lam)
    assert abs(pair[0] - exact) <= max(1e-12, 1e-10 * abs(exact))


@pytest.mark.parametrize("lams", [
    pytest.param(np.linspace(-12.0, 12.0, 481), id="default-grid"),
    pytest.param(np.array([-3.0, -1.8, -0.6, 0.6, 1.8, 3.0 + 5e-13]), id="symmetric-to-1e-12"),
    pytest.param(np.array([0.5, -2.0, 1.0, 2.0, -0.0]), id="unsorted"),
    pytest.param(np.array([]), id="empty"),
])
def test_a_real_grid_folds_onto_its_moduli(lams):
    # the real-grid fold written out as the reference: the same rows and fold, bit for bit
    n = len(lams)
    if np.all(np.abs(lams + lams[::-1]) <= 8.0 * np.finfo(float).eps * np.abs(lams).max(initial=0.0)):
        rows, fold = np.abs(lams[n // 2:]), np.maximum(np.arange(n), np.arange(n)[::-1]) - n // 2
    else:
        rows, fold = np.unique(np.abs(lams), return_inverse=True)
    got_rows, got_fold = transform._mirror_fold(lams)
    assert got_rows.tobytes() == rows.tobytes() and got_fold.tolist() == fold.tolist()


def test_complex_points_fold_onto_one_member_of_each_pair():
    lams = (np.linspace(-3.0, 3.0, 7)[None, :] + 0.1j * np.array([-1.0, -0.5, 0.5, 1.0])[:, None])
    lams = np.concatenate([lams.ravel(), [0.3 - 0.2j, -0.3 + 0.2j, -1.1j]])
    rows, fold = transform._mirror_fold(lams)
    assert len(rows) == 16  # 14 pairs of the tube's grid, one pair off it, and -1.1j
    assert np.all((rows.real > 0.0) | ((rows.real == 0.0) & (rows.imag >= 0.0)))
    assert np.all((rows[fold] == lams) | (rows[fold] == -lams))


def test_envelope_of_fractional_degree_serves_every_transform():
    # the Gaussian under the envelope e^9 (1+t)^0.5 e^{-6t}: its tail bounds take the
    # degree's ceiling, and the transforms keep the values they have under degree 0
    G = preset("H3")
    g = gaussian_profile(G)
    f = RadialProfile(g.eval, ExpDecay(g.decay.coeff, g.decay.rate, 0.5), g.d1, g.d2)
    res = hc_transform(G, f)
    assert np.all(np.abs(res.spectral.values - hc_transform(G, g).spectral.values)
                  <= DEFAULT_QUAD.tolerance(res.spectral.values))
    for lam in (0.7, 1.5 + 0.1j):
        exact = gauss_transform_h3(lam)
        assert abs(hc_transform_at(G, f, lam) - exact) <= DEFAULT_QUAD.tolerance(exact)
    exact = convolve_at_identity(G, g, g)
    assert abs(convolve_at_identity(G, f, f) - exact) <= DEFAULT_QUAD.tolerance(exact)


@pytest.mark.parametrize("width", [1.0, 0.5, 0.25, 0.1])
def test_hc_transform_error_estimate_bounds_the_h3_closed_form(width):
    # err_est = |K51 - G25| + tail, checked against the exact transform with the floor of
    # hc_transform's own gate
    G = preset("H3")
    res = hc_transform(G, gaussian_profile(G, width))
    grid, values = res.spectral.grid, res.spectral.values
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.where(grid == 0.0,  # the lam -> 0 limit of the closed form
                         math.sqrt(math.pi / width) * math.exp(0.25 / width) / width,
                         gauss_transform_h3(grid, width))
    floor = 1e-13 * max(1.0, float(np.max(np.abs(values))))
    assert len(grid) == 481
    assert np.all(np.abs(values - exact) <= res.err_est + floor)


@pytest.mark.parametrize("width, grid", [
    (0.05, None), (1.0, None), (5.0, None), (10.0, None),
    (0.2, np.linspace(-20.0, 20.0, 481)), (1.0, np.linspace(-20.0, 20.0, 481)),
])
def test_hc_transform_of_gaussians_meets_the_h3_closed_form(width, grid):
    # from the widest Gaussian of the default window to w = 10, whose error estimate needs
    # G25 (G10's read 2.7e-12 at lam = 12), and on a window twice as wide; the tolerance is
    # hc_transform's own gate
    G = preset("H3")
    res = hc_transform(G, gaussian_profile(G, width), grid)
    lams, values = res.spectral.grid, res.spectral.values
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.where(lams == 0.0, math.sqrt(math.pi / width) * math.exp(0.25 / width) / width,
                         gauss_transform_h3(lams, width))
    tol = np.maximum(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * np.abs(exact))
    floor = 1e-13 * max(1.0, float(np.max(np.abs(exact))))
    assert np.all(np.abs(values - exact) <= np.maximum(tol, floor))


def test_radial_rules_of_a_preset_share_their_band_columns():
    # T is a multiple of 4 and the panels are 2 wide, so every rule's columns t <= 1.2 are
    # the same bytes, and the band's rows of a preset serve every T
    G = preset("H3")
    bands = set()
    for T in (4.0, 8.0, 16.0, 28.0, 40.0):
        nodes = transform._radial_rule(G, T).nodes
        bands.add(nodes[nodes <= spherical._PFAFF_T].tobytes())
    assert len(bands) == 1


def test_hc_transform_at_rejects_too_wide_a_strip():
    # the Gaussian profile's envelope rate is 2 rho + 2 = 4 on H3; for an
    # array the strip is its largest |Im lam|
    G = preset("H3")
    f = gaussian_profile(G)
    for lam in (1.0 + 3.0j, 1.0 - 3.5j, 0.5 + 40.0j, np.array([1.0, 2.0 + 0.5j, 0.5 - 3.0j])):
        with pytest.raises(PreconditionError, match="hc_transform input"):
            hc_transform_at(G, f, lam)
    hc_transform_at(G, f, np.array([1.0, 2.0 + 0.5j, 0.5 - 2.5j]))


def test_hc_transform_at_shapes(monkeypatch):
    G = preset("H3")
    f = gaussian_profile(G)
    assert type(hc_transform_at(G, f, 1.0 + 0.1j)) is complex
    assert type(hc_transform_at(G, f, np.float64(1.0))) is complex
    assert hc_transform_at(G, f, [1.0, 2.0]).shape == (2,)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("an empty lam array must not integrate")

    monkeypatch.setattr(transform, "integrate_interval", no_quadrature)
    empty = hc_transform_at(G, f, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("lam", [complex(1.0, math.nan), math.inf, np.array([1.0, math.nan])])
def test_hc_transform_at_rejects_non_finite_lam(lam):
    G = preset("H3")
    with pytest.raises(DomainError, match="finite lam"):
        hc_transform_at(G, gaussian_profile(G), lam)


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


def test_pairing_of_two_transforms_on_one_uniform_grid_reads_their_samples(monkeypatch):
    # the trapezoid rule on the grid's rows, with no interpolation
    G = preset("SL2R")
    f, g = gaussian_profile(G), gaussian_profile(G, width=0.7, scale=0.9)
    hf, hg = hc_transform(G, f).spectral, hc_transform(G, g).spectral
    monkeypatch.setattr(transform, "_local_interp", None)  # a call would raise
    rows, charge = trapezoid_rule(G, hf)
    expected = np.sum(charge * 0.5 * (hg.values + hg.values[::-1])[len(rows) - 1:])
    assert abs(plancherel_pairing(G, hf, hg) - expected) <= 1e-15 * abs(expected)


def test_pairing_of_transforms_on_two_grids_interpolates_onto_uniform_nodes():
    # L = 9, the smaller end, and 481 points, the larger count: both transforms are
    # interpolated onto the rows of np.linspace(-9, 9, 481)
    G = preset("SL2R")
    f, g = gaussian_profile(G), gaussian_profile(G, width=0.7, scale=0.9)
    hf = hc_transform(G, f).spectral
    hg = hc_transform(G, g, np.linspace(-9.0, 9.0, 301)).spectral
    conv = convolve_at_identity(G, f, g)
    for pair in (plancherel_pairing(G, hf, hg), plancherel_pairing(G, hg, hf)):
        assert abs(pair - conv) <= 1e-10 * (1.0 + abs(conv))  # 6.9e-12


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
    # C_sigma = 0 on every contour: the envelope's coefficient is its 1e-300 floor
    G = preset("SL2R")
    psi = wave_packet(G, make_symbol(lambda x: 0.0 * x, "zero"))
    assert psi.decay.coeff == 1e-300
    assert np.max(np.abs(psi(np.linspace(0, 5, 21)))) == 0.0
    assert np.max(np.abs(hc_transform(G, psi).spectral.values)) == 0.0


def test_wave_packet_identity_normalization():
    G = preset("SL2R")
    val0 = wave_packet(G, gauss_symbol())(0.0)
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


def test_wave_packet_rejects_a_symbol_with_nan_values():
    nan_tail = make_symbol(lambda x: np.where(np.abs(x) > 5.0, np.nan, np.exp(-x**2)))
    with pytest.raises(PreconditionError, match="odd part nan"):
        wave_packet(preset("H3"), nan_tail)


def rule_node_past(t: float) -> str:
    """The first node past ``t`` of H3's radial rules, as a pattern for its repr: the rules
    of one preset (T a multiple of 4) have the same nodes below their ends."""
    nodes = transform._radial_rule(preset("H3"), 16.0).nodes
    return re.escape(repr(float(nodes[np.searchsorted(nodes, t, side="right")])))


def test_packet_that_is_nan_raises_naming_t():
    # finite samples pass the symbol checks, and fn continues to Im nu > 0, so the
    # contour envelope exists.  On a grid of spacing 0.2, t_max(h) is below 0 and every
    # column reads fn on the nodes of spacing 0.05, where it is NaN, so the check fails at
    # the first node of the radial rule; on the default grid the packet reads the samples
    def nan_on_the_line(x):
        return np.where(np.imag(x) == 0.0, np.nan, np.exp(-x**2))

    G = preset("H3")
    grid = np.linspace(-GRID_MAX, GRID_MAX, 121)
    a = SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(2.0, 8.0), fn=nan_on_the_line)
    with pytest.raises(EvaluationError,
                       match=rf"wave packet is not finite at t = {rule_node_past(0.0)}$"):
        wave_packet(G, a)
    grid = default_spectral_grid()
    a = SpectralFunction(grid, np.exp(-grid**2), SpectralDecay(2.0, 8.0), fn=nan_on_the_line)
    assert np.all(np.isfinite(wave_packet(G, a)(np.linspace(0.0, 44.0, 89))))


@pytest.mark.parametrize("scale", [1e307, 1e308])
def test_packet_with_charges_past_float_range_raises_naming_the_symbol(scale):
    # the even part of samples near the float maximum stays finite, and a sum|charge| past
    # float range is a typed error, not numpy's overflow warning (an error in this suite)
    def fn(x):
        return scale * np.exp(-x**2 / 100.0)

    grid = default_spectral_grid()
    a = SpectralFunction(grid, fn(grid), SpectralDecay(2.0, 8.0), fn=fn, label="huge")
    assert np.isfinite(a.even_values()).all()
    with pytest.raises(PreconditionError, match=r"symbol 'huge' has charges past float range: "
                                                r"sum\|charge\| = inf"):
        wave_packet(preset("H3"), a)


def test_hc_transform_fails_on_nan_values():
    G = preset("H3")
    g = gaussian_profile(G)
    nan_tail = RadialProfile(eval=lambda t: np.where(t > 3.0, np.nan, g.eval(t)),
                             decay=g.decay, d1=g.d1, d2=g.d2)
    with pytest.raises(AccuracyError, match="failure at 481 samples"):
        hc_transform(G, nan_tail)


def test_packet_derivatives_build_one_block_per_order_and_window(monkeypatch, fresh_phi_cache):
    # schwartz_seminorm over r = 0..3 asks for the same derivative points each time
    built = {1: [], 2: []}
    for order, name in ((1, "phi_d1"), (2, "phi_d2")):
        def counted(G, lam, t, order=order, original=getattr(transform, name)):
            built[order].append(np.asarray(t).tobytes())
            return original(G, lam, t)
        monkeypatch.setattr(transform, name, counted)
    G = preset("H3")
    psi = wave_packet(G, gauss_symbol())
    for k in (1, 2):
        for r in (0.0, 1.0, 2.0, 3.0):
            schwartz_seminorm(G, psi, r, k)
    for order in (1, 2):
        assert built[order] and len(built[order]) == len(set(built[order]))


def test_a_packet_built_again_holds_its_envelope_choice(monkeypatch):
    # the envelope search takes about 90 tail bounds; a packet built again reads its choice
    G, a = preset("H3"), gauss_symbol()
    first = wave_packet(G, a)
    calls = []

    def counted(self, T, original=ExpDecay.tail_integral):
        calls.append(T)
        return original(self, T)

    monkeypatch.setattr(ExpDecay, "tail_integral", counted)
    second = wave_packet(G, a)
    assert calls == []
    assert second.decay == first.decay


def test_wave_packet_rejects_slow_decay_metadata():
    G = preset("SL2R")
    a = SpectralFunction.from_function(
        lambda x: np.exp(-x**2), default_spectral_grid(), SpectralDecay(2.0, 2.0)
    )
    with pytest.raises(PreconditionError):
        wave_packet(G, a)


def h3_gauss_packet(scale, t):
    """The exact packet of a(nu) = exp(-scale nu^2) on H3, t / sinh t read as 1 at t = 0."""
    t_over_sinh = np.where(t == 0.0, 1.0, t / np.where(t == 0.0, 1.0, np.sinh(t)))
    return t_over_sinh * np.exp(-t * t / (4.0 * scale)) / (8.0 * scale**1.5 * math.sqrt(math.pi))


def trapezoid_rule(G, a):
    """The |lam| rows of the symbol's uniform grid of n points on [-L, L] and the packet's
    charges on them: weight h = 2 L / (n - 1), h/2 at L and, for odd n, at 0, times the even
    part of the samples and the Plancherel density, with the prefactor 2 c_P / |W|."""
    n, L = len(a.grid), float(a.grid[-1])
    rows = np.abs(a.grid[n // 2:])
    weights = np.full(len(rows), 2.0 * L / (n - 1))
    weights[-1] /= 2.0
    weights[0] /= 2.0 if n % 2 else 1.0
    even = 0.5 * (a.values + a.values[::-1])[n // 2:]
    return rows, (2.0 * G.plancherel_constant / G.weyl_order * weights * even
                  * plancherel_density(G, rows))


def packet_noise_floor(G, a, ts):
    """1e-14 sum|charge| (1 + t) e^{-rho t}, the charges those of the trapezoid rule on the
    symbol's grid: how far the packet evaluated on ``ts`` may be from the exact one."""
    kappa = 1e-14 * np.sum(np.abs(trapezoid_rule(G, a)[1]))
    return kappa * (1.0 + ts) * np.exp(-G.rho * ts)


def test_wave_packet_decay_metadata_is_a_bound():
    # the envelope bounds the exact packet, and the evaluated packet is within its
    # noise floor of the exact one; that roundoff decays only like e^{-rho t}, so it
    # passes an envelope of a steeper rate at large t (1.2e-22 against 3.7e-28 at
    # t = 14.5 for exp(-nu^2))
    G = preset("H3")
    ts = np.geomspace(0.05, 40.0, 80)
    for scale in (1.0, 0.25):
        a = gauss_symbol(scale)
        psi = wave_packet(G, a)
        exact = h3_gauss_packet(scale, ts)
        assert np.max(exact / psi.decay.bound(ts)) <= 1.0 + 1e-9
        assert np.max(np.abs(psi(ts) - exact) / packet_noise_floor(G, a, ts)) <= 1.0


def test_wide_packet_on_h3_matches_its_closed_form_from_0_to_12():
    # exp(-nu^2/4) on H3: psi(t) = t e^{-t^2} / (sqrt(pi) sinh t), within the floor
    G, a = preset("H3"), make_symbol(cli.SYMBOLS["wide"], "wide")
    ts = np.linspace(0.0, 12.0, 481)
    exact = h3_gauss_packet(0.25, ts)
    np.testing.assert_allclose(exact[1:], ts[1:] * np.exp(-ts[1:] ** 2)
                               / (math.sqrt(math.pi) * np.sinh(ts[1:])), rtol=1e-14)
    assert np.all(np.abs(wave_packet(G, a)(ts) - exact) <= packet_noise_floor(G, a, ts))


GAUSS_FAMILY = ("gauss", "x2gauss", "poly", "wide")


@pytest.mark.parametrize("name", ["SL2R", "H3", "CH2"])
@pytest.mark.parametrize("count", [481, 385])
def test_gaussian_family_packets_stay_within_their_floor_up_to_t_200(name, count):
    # their exact packets are below 1e-40 at t >= 20, so the packet is its own error there;
    # the grid's rule serves t <= t_max(h) = 2 pi / h - 80 rounded down to a panel (44 for
    # h = 0.05, 20 for h = 0.0625) and finer rules of fn the t past it, 2 pi / h among them
    G = preset(name)
    grid = np.linspace(-12.0, 12.0, count)
    h = 24.0 / (count - 1)
    t_max = 2.0 * math.floor(math.pi / h - 40.0)
    assert t_max == {481: 44.0, 385: 20.0}[count]
    ts = np.unique(np.concatenate([np.linspace(20.0, 200.0, 181),
                                   [t_max - 0.5, t_max + 0.5, 2.0 * math.pi / h]]))
    for label in GAUSS_FAMILY:
        fn = cli.SYMBOLS[label]
        coeff = 1.1 * float(np.max(np.abs(fn(grid)) * (1.0 + np.abs(grid)) ** 8))
        a = SpectralFunction.from_function(fn, grid, SpectralDecay(coeff, 8.0), label=label)
        assert np.all(np.abs(wave_packet(G, a)(ts)) <= packet_noise_floor(G, a, ts)), label


def test_packets_past_the_underflow_take_the_rule_of_rho_t_750(monkeypatch, fresh_phi_cache):
    # past rho t = 750, e^{-rho t}, and so phi and the floor, underflow: t = 1e6 and 1e100
    # take the rule of t = 1500 on SL2R (spacing 0.05 / 16, t_max 1930) with t = 1000, one
    # table of the 2067 of its 3841 nodes that carry charge (nu <= 6.46), and the packet
    # meets its floor there
    rows = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: rows.append(len(lam)) or phi(G, lam, t))
    G, a = preset("SL2R"), gauss_symbol()
    psi = wave_packet(G, a)
    rows.clear()
    ts = np.array([1e3, 1e6, 1e100])
    values = psi(ts)
    assert rows == [2067]
    assert np.all(np.abs(values) <= packet_noise_floor(G, a, ts)) and np.all(values[1:] == 0.0)


def test_a_coarse_wide_grid_reads_fn_only_where_it_carries_charge():
    # spacing 2000 / 480 on H3: every column takes fn at spacing h / 64, on the nodes below
    # nu of about 6.5 only; phi could not build the rows past |lam| of about 110
    G, fn = preset("H3"), cli.SYMBOLS["gauss"]
    wide = SpectralFunction.from_function(fn, np.linspace(-1000.0, 1000.0, 481),
                                          SpectralDecay(180.0, 8.0))
    a = make_symbol(fn)
    ts = np.linspace(0.0, 16.0, 65)
    assert np.all(np.abs(wave_packet(G, wide)(ts) - wave_packet(G, a)(ts))
                  <= packet_noise_floor(G, a, ts))


def test_a_one_point_grid_has_the_zero_packet():
    # the rule on [0, 0] has one node of weight 0
    a = SpectralFunction.from_function(lambda x: np.exp(-x**2), np.zeros(1),
                                       SpectralDecay(1.0, 8.0))
    psi = wave_packet(preset("H3"), a)
    for k in (0, 1, 2):
        np.testing.assert_array_equal(psi.deriv(np.array([0.0, 1.0, 100.0]), k), 0.0)


def test_a_grid_that_is_not_uniform_takes_fn_at_its_mean_spacing(monkeypatch, fresh_phi_cache):
    # 481 points on [-12, 12] bunched toward 0: the packet reads fn on the rows of
    # np.linspace(-12, 12, 481) that carry charge (the first 138, nu <= 6.85), so it is the
    # packet of the uniform grid's samples, up to the rounding of that grid's symmetry in
    # the samples' even part and the dropped charges, below 2^-60 sum|charge|
    G = preset("H3")
    fn = cli.SYMBOLS["x2gauss"]
    bunched = 12.0 * np.sinh(2.0 * np.linspace(-1.0, 1.0, 481)) / np.sinh(2.0)
    rows = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: rows.append(lam) or phi(G, lam, t))
    psi = wave_packet(G, SpectralFunction.from_function(fn, bunched, SpectralDecay(10.0, 8.0)))
    np.testing.assert_array_equal(rows[0], np.abs(default_spectral_grid()[240:378]))
    uniform = make_symbol(fn)
    ts = np.linspace(0.0, 40.0, 81)
    assert np.all(np.abs(psi(ts) - wave_packet(G, uniform)(ts))
                  <= 0.25 * packet_noise_floor(G, uniform, ts))  # 0.087 at most


def test_packet_values_do_not_depend_on_the_rest_of_their_batch(monkeypatch, fresh_phi_cache):
    # t = 30 takes the grid's rule with t = 0.5, 1 and 2, and t = 60 a finer rule; each column's
    # rule is its own, so with phi itself evaluated a column at a time (its block product's
    # last bits depend on the block's width) the first three values keep their bits
    for name in ("phi", "phi_d1", "phi_d2"):
        monkeypatch.setattr(transform, name, lambda G, lam, t, fn=getattr(transform, name):
                            np.stack([fn(G, lam, t[j:j + 1])[:, 0] for j in range(len(t))], 1))
    G = preset("H3")
    psi = wave_packet(G, gauss_symbol())
    few, more = np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0, 2.0, 30.0, 60.0])
    for k in (0, 1, 2):
        np.testing.assert_array_equal(psi.deriv(more, k)[:3], psi.deriv(few, k))


@pytest.mark.parametrize("name", ["SL2R", "H3", "CH2"])
@pytest.mark.parametrize("label", list(INVERSION_SYMBOLS) + ["flat4"])
def test_packet_stays_within_envelope_and_noise_floor(name, label):
    G = preset(name)
    a = make_symbol(INVERSION_SYMBOLS.get(label, flat_top(3.2)), label)
    psi = wave_packet(G, a)
    assert psi.decay.rate > G.rho + 0.4  # a contour shift sigma >= 0.45
    ts = np.linspace(0.0, 40.0, 321)
    assert np.all(np.abs(psi(ts)) <= psi.decay.bound(ts) + packet_noise_floor(G, a, ts))


def trapezoid_packet(G, a, ts, order):
    """The packet's t-derivative of ``order`` on ``ts`` by the trapezoid rule on its grid."""
    rows, charge = trapezoid_rule(G, a)
    return (phi, phi_d1, phi_d2)[order](G, rows, ts).T @ charge


@pytest.mark.parametrize("name", ["SL2R", "H3", "CH2"])
@pytest.mark.parametrize("label", list(cli.SYMBOLS))
def test_packet_is_the_trapezoid_rule_on_its_grid(name, label):
    # on the K51 nodes that hc_transform reads, all below t_max = 44 of the default grid; a
    # derivative of order k scales phi by up to (L^2 + rho^2)^(k/2)
    G = preset(name)
    a = make_symbol(cli.SYMBOLS[label], label)
    psi = wave_packet(G, a)
    T = transform._radial_cutoff(G, psi.decay, DEFAULT_QUAD.abs_tol)
    ts = transform._radial_rule(G, T).nodes
    assert ts[-1] <= 44.0
    floor = packet_noise_floor(G, a, ts)
    for k in (0, 1, 2):
        scale = 1.0 if k == 0 else float(a.grid[-1]) ** 2 + G.rho**2
        assert np.all(np.abs(psi.deriv(ts, k) - trapezoid_packet(G, a, ts, k)) <= scale * floor)


@pytest.mark.parametrize("label", ["wide", "gauss"])
def test_packet_tables_have_a_row_per_grid_row(label, monkeypatch, fresh_phi_cache):
    # exp(-nu^2/4) is still 2e-16 of its peak at L = 12 and exp(-nu^2) is not: both take
    # every one of the 241 |lam| rows of the default grid, the rows hc_transform reads
    rows = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: rows.append(len(lam)) or phi(G, lam, t))
    wave_packet(preset("H3"), make_symbol(cli.SYMBOLS[label], label))
    assert rows == [241]


def test_packets_on_one_grid_and_rule_share_one_table(monkeypatch, fresh_phi_cache):
    # x2gauss, poly and flat4 are checked on the same K51 nodes (T = 16 on H3) and the same
    # grid rows: x2gauss builds the table, which answers the other two
    rows = []
    monkeypatch.setattr(transform, "phi",
                        lambda G, lam, t, phi=transform.phi: rows.append(len(lam)) or phi(G, lam, t))
    G = preset("H3")
    psis = {label: wave_packet(G, make_symbol(cli.SYMBOLS[label], label))
            for label in ("x2gauss", "poly", "flat4")}
    assert {transform._radial_cutoff(G, psi.decay, DEFAULT_QUAD.abs_tol)
            for psi in psis.values()} == {16.0}
    assert rows == [241]
    assert [len(table) for _, table in transform._PHI_CACHE.values()] == [241]
    ts = transform._radial_rule(G, 16.0).nodes
    a = make_symbol(cli.SYMBOLS["poly"], "poly")
    assert np.all(np.abs(psis["poly"](ts) - trapezoid_packet(G, a, ts, 0))
                  <= packet_noise_floor(G, a, ts))


def test_symbol_that_does_not_continue_analytically_raises():
    # np.real drops the growth of exp(-nu^2) off the real line, so its contour
    # constants are too small, and the check on the radial rule's nodes catches it: the
    # packet is above its envelope from t of about 1.1 on
    a = make_symbol(lambda x: np.exp(-np.real(x) ** 2), "real part")
    with pytest.raises(PreconditionError, match=r"'real part' leaves its contour envelope at "
                       rf"t = {rule_node_past(1.1)}:"):
        wave_packet(preset("H3"), a)


def test_symbol_cut_off_by_its_grid_end_names_l_and_the_symbol_there():
    # exp(-nu^2) is its own continuation, but the spectral integral stops at L = 0.5,
    # where the symbol is still 0.78 of its peak; the packet is above its envelope from t of
    # about 6.25 on
    grid = np.linspace(-0.5, 0.5, 7)
    a = SpectralFunction.from_function(lambda x: np.exp(-x**2), grid, SpectralDecay(300.0, 8.0),
                                       label="short")
    with pytest.raises(PreconditionError, match=r"'short' leaves its contour envelope at "
                       rf"t = {rule_node_past(6.25)}:"
                       r".*end L = 0\.5 cuts the symbol off at \|a\(L\)\| / max\|a\| = 0\.779"):
        wave_packet(preset("H3"), a)


def _real_only(x):
    if np.iscomplexobj(x):
        raise TypeError("real input only")
    return np.exp(-(x**2))


@pytest.mark.parametrize("symbol, message", [
    (lambda G: hc_transform(G, gaussian_profile(G)).spectral,
     r"'H\[gauss\(w=1\.0\)\]' has no evaluator fn"),
    (lambda G: make_symbol(_real_only, "real only"), r"'real only' has no usable contour shift"),
    # numpy warns on the cast to float and drops Im nu: the fn rejects complex input
    (lambda G: make_symbol(lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), "cast"),
     r"'cast' has no usable contour shift"),
    (lambda G: SpectralFunction(default_spectral_grid(), np.exp(-default_spectral_grid()**2),
                                SpectralDecay(2.0, 8.0), fn=lambda x: np.full(np.shape(x), np.nan),
                                label="nan"),
     r"'nan' has no usable contour shift"),
], ids=["sampled", "type-error", "complex-cast", "nan-everywhere"])
def test_wave_packet_without_a_contour_envelope_raises(symbol, message):
    G = preset("H3")
    with pytest.raises(PreconditionError, match=message):
        wave_packet(G, symbol(G))


def test_contour_constants_are_computed_once_per_group_and_symbol(monkeypatch):
    # the ladder's series coefficients are the only _hc_coefficients call through transform;
    # a ladder computes them only on its live rows that no ladder on the preset computed before
    transform._contour_factors.cache_clear()
    transform._contour_ladder.cache_clear()
    rows = []
    coefficients = transform._hc_coefficients
    monkeypatch.setattr(transform, "_hc_coefficients",
                        lambda G, sides, *args: rows.append(len(sides)) or
                        coefficients(G, sides, *args))
    fn = lambda x: np.exp(-(x**2))
    G = preset("CH2")
    first, second = (wave_packet(G, make_symbol(fn, "gauss")) for _ in range(2))
    assert len(rows) == 1 and rows[0] > 0
    assert first.decay == second.decay
    # another fn, live on fewer rows: no new rows; live on more: only those
    wave_packet(G, make_symbol(lambda x: np.exp(-2.0 * x**2), "narrow"))
    assert len(rows) == 1
    wave_packet(G, make_symbol(lambda x: np.exp(-0.25 * x**2), "wide"))
    z, _, _, done = transform._contour_factors(G)
    assert len(rows) == 2 and rows[1] > 0 and sum(rows) == done.sum() <= len(z)
    # each preset holds its own table
    wave_packet(preset("H3"), make_symbol(fn, "gauss"))
    assert len(rows) == 3

    class Unhashable:  # skips the ladder cache, so each packet takes its own ladder
        __hash__ = None
        ladders = 0

        def __call__(self, x):
            Unhashable.ladders += np.iscomplexobj(x)  # only a ladder reads fn off the real line
            return fn(x)

    third = wave_packet(G, make_symbol(Unhashable(), "gauss"))
    wave_packet(G, make_symbol(Unhashable(), "gauss"))
    assert Unhashable.ladders == 4  # fn(z) and fn(-conj z) per ladder
    assert len(rows) == 3
    assert third.decay == first.decay


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_contour_rule_is_within_five_percent_of_a_finer_one(name, monkeypatch):
    # C_sigma by the trapezoid rule of step _CONTOUR_STEP against a step a quarter as small,
    # for every CLI and acceptance symbol (the A4 multiplier and the A6 perturbations
    # included); the envelope carries a margin of 15 % over C_sigma
    G = preset(name)
    fns = {**INVERSION_SYMBOLS, **{f"flat4({s})": flat_top(s) for s in EXPANSION_SCALES}}
    fns.update({f"a6({d})": lambda x, d=d: x**2 * np.exp(-(x**2)) + d * np.exp(-(x**2))
                for d in (1e-2, 1e-4)})
    fns["a4"] = spectral_multiplier(make_symbol(INVERSION_SYMBOLS["exp(-x^2)"]),
                                    lambda x: -(x**2 + G.rho**2), degree=2).fn
    ladder = transform._contour_ladder.__wrapped__
    coarse = {label: dict(ladder(G, fn)) for label, fn in fns.items()}
    monkeypatch.setattr(transform, "_CONTOUR_STEP", transform._CONTOUR_STEP / 4.0)
    monkeypatch.setattr(transform, "_contour_factors",
                        functools.lru_cache(transform._contour_factors.__wrapped__))
    for label, fn in fns.items():
        fine = dict(ladder(G, fn))
        assert coarse[label].keys() == fine.keys() and fine, label
        for sigma, C in fine.items():
            assert abs(coarse[label][sigma] - C) <= 0.05 * C, (label, sigma)


@pytest.mark.parametrize("t", [math.nan, [0.1, math.nan], math.inf, [[0.2], [-math.inf]]])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_packet_at_a_non_finite_t_raises_naming_t(t, k):
    psi = wave_packet(preset("H3"), gauss_symbol())
    with pytest.raises(DomainError, match="finite t, got t = "):
        psi.deriv(t, k)


def test_wave_packet_real_for_real_even_symbol():
    G = preset("CH2")
    psi = wave_packet(G, gauss_symbol())
    vals = psi(np.linspace(0.0, 6.0, 31))
    assert np.max(np.abs(vals.imag)) < 1e-12


@pytest.mark.parametrize("family", ["gaussian", "cosh", "xi_poly", "packet"])
def test_profiles_take_t_of_any_shape(family, fresh_phi_cache):
    # a packet's table is keyed on the flattened t, so a 2-d t must give the same
    # entries as the flat one, whichever of the two fills the table cache
    G = preset("H3")
    make = {"gaussian": gaussian_profile, "cosh": cosh_profile, "xi_poly": xi_poly_profile,
            "packet": lambda G: wave_packet(G, gauss_symbol())}[family]
    f = make(G)
    t2 = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    for k in (0, 1, 2):
        for calls in ((t2, t2.ravel()), (t2.ravel(), t2)):
            fresh_phi_cache()
            out = {t.ndim: f.deriv(t, k) for t in calls}  # in call order
            np.testing.assert_array_equal(out[2], out[1].reshape(t2.shape))


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


def test_preset_constant_is_exact_and_costs_no_tables(fresh_phi_cache):
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
    # the window lam +- 9 eps must fit the transform's grid, |lam| <= 12
    for lam, eps in ((math.nan, 0.2), (math.inf, 0.2), (10.3, 0.2), (12.5, 0.2),
                     (20.0, 0.2), (1e6, 0.2), (-20.0, 0.2)):
        for cartan_class in CARTAN_CLASSES:
            with pytest.raises(DomainError, match=re.escape(
                    f"|lam| + 9 eps <= 12.0, got lam = {lam!r}, eps = {eps!r}")):
                expansion_term(G, cartan_class, psi, lam, eps)


def test_expansion_refuses_a_complex_lam_naming_it():
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape("real lam, got lam = (1+1j)")):
        expansion_term(G, "split", gaussian_profile(G, 1.0), 1 + 1j, 0.1)


def test_expansion_refuses_a_complex_eps_naming_it():
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape("eps = (0.1+0j)")):
        expansion_term(G, "split", gaussian_profile(G, 1.0), 1.0, 0.1 + 0j)


def test_expansion_refuses_a_window_that_rounds_to_a_point_naming_eps():
    # 9e-300 is far below the float spacing at 1.0, so lam +- 9 eps is [1.0, 1.0]
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape("eps = 1e-300")):
        expansion_term(G, "split", gaussian_profile(G, 1.0), 1.0, 1e-300)


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
    from sphtrans.spherical import phi_d1, phi_d2

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


@pytest.mark.parametrize("t", [math.nan, math.inf, [1.0, math.inf], [math.nan, 1.0]])
def test_casimir_refuses_a_non_finite_t_naming_it(t):
    G = preset("H3")
    with pytest.raises(DomainError, match="finite t, got t = ") as err:
        casimir_radial(G, gaussian_profile(G, 1.0), t)
    assert not isinstance(err.value, SingularPointError)


@pytest.mark.parametrize("t", [np.array([1 + 1j, 2.0]), 1 + 1j])
def test_casimir_refuses_a_complex_t_naming_it(t):
    # a complex array would otherwise be cast to its real parts, a complex scalar refused
    # by float()
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape("real t, got t = ")):
        casimir_radial(G, gaussian_profile(G, 1.0), t)


GRID7 = np.linspace(-3.0, 3.0, 7)


@pytest.mark.parametrize("call, named", [
    # a complex t was cast to its real part, with only numpy's ComplexWarning
    pytest.param(lambda G, f: f(np.array([1 + 1j])), "real t, got t = array([1.+1.j])",
                 id="profile-complex-t"),
    pytest.param(lambda G, f: f.deriv(np.array([1 + 1j]), 2), "real t, got t = array([1.+1.j])",
                 id="profile-deriv-complex-t"),
    pytest.param(lambda G, f: haar_density(G, 1 + 1j),
                 "haar_density requires real t, got t = (1+1j)", id="haar_density-complex-t"),
    pytest.param(lambda G, f: haar_log_derivative(G, np.array([1j])),
                 "real t, got t = array([0.+1.j])", id="haar_log_derivative-complex-t"),
    # text raised ValueError or TypeError from a cast or a comparison
    pytest.param(lambda G, f: f("x"), "real t, got t = 'x'", id="profile-text-t"),
    pytest.param(lambda G, f: haar_density(G, "x"), "haar_density requires real t, got t = 'x'",
                 id="haar_density-text-t"),
    pytest.param(lambda G, f: casimir_radial(G, f, "x"),
                 "radial Casimir requires real t, got t = 'x'", id="casimir-text-t"),
    pytest.param(lambda G, f: hc_transform_at(G, f, "a"),
                 "hc_transform_at requires finite lam, got 'a'", id="hc_transform_at-text-lam"),
    pytest.param(lambda G, f: expansion_term(G, "split", f, "a", 0.1), "real lam, got lam = 'a'",
                 id="expansion_term-text-lam"),
    pytest.param(lambda G, f: expansion_term(G, "split", f, 1.0, "x"), "real eps, got eps = 'x'",
                 id="expansion_term-text-eps"),
    pytest.param(lambda G, f: schwartz_seminorm(G, f, "x", 0), "real r, got r = 'x'",
                 id="seminorm-text-r"),
    # a complex grid, x or packet t was cast to its real part, with only a ComplexWarning
    pytest.param(lambda G, f: hc_transform(G, f, GRID7 + 0j),
                 "real grid, got grid = array([-3.+0.j", id="hc_transform-complex-grid"),
    pytest.param(lambda G, f: SpectralFunction(GRID7 + 0j, np.ones(7), SpectralDecay(1.0, 2.0)),
                 "real grid, got grid = array([-3.+0.j", id="spectral-function-complex-grid"),
    pytest.param(lambda G, f: SpectralFunction.from_function(np.cos, GRID7 + 0j,
                                                             SpectralDecay(1.0, 2.0)),
                 "real grid, got grid = array([-3.+0.j", id="from-function-complex-grid"),
    pytest.param(lambda G, f: hc_transform(G, f, GRID7).spectral(1 + 1j),
                 "real x, got x = (1+1j)", id="spectral-call-complex-x"),
    pytest.param(lambda G, f: tube_extension_check(G, f, TubeSpec.for_group(G, 0.0),
                                                   xs=GRID7 + 0j),
                 "real grid, got grid = array([-3.+0.j", id="tube-complex-xs"),
    pytest.param(lambda G, f: wave_packet(G, gauss_symbol()).d1(np.array([1 + 1j])),
                 "wave packet requires real t, got t = array([1.+1.j])", id="packet-d1-complex-t"),
    pytest.param(lambda G, f: wave_packet(G, gauss_symbol()).d2(1 + 1j),
                 "wave packet requires real t, got t = (1+1j)", id="packet-d2-complex-t"),
    # and text raised an untyped ValueError
    pytest.param(lambda G, f: hc_transform(G, f, "x"), "real grid, got grid = 'x'",
                 id="hc_transform-text-grid"),
    pytest.param(lambda G, f: gauss_symbol()("x"), "real x, got x = 'x'",
                 id="spectral-call-text-x"),
    pytest.param(lambda G, f: wave_packet(G, gauss_symbol()).d1("x"),
                 "wave packet requires real t, got t = 'x'", id="packet-d1-text-t"),
])
def test_a_non_real_or_non_numeric_input_raises_a_domain_error_naming_it(call, named):
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape(named)):
        call(G, gaussian_profile(G, 1.0))


@pytest.mark.parametrize("value", [np.array([0.5, 0.5]), "0.5"], ids=["two-numbers", "text"])
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda G, f, v: expansion_term(G, "split", f, 1.0, v), "eps",
                 id="expansion_term-eps"),
    pytest.param(lambda G, f, v: expansion_term(G, "split", f, v, 0.1), "lam",
                 id="expansion_term-lam"),
    pytest.param(lambda G, f, v: schwartz_seminorm(G, f, v), "r", id="seminorm-r"),
    pytest.param(lambda G, f, v: gaussian_profile(G, v), "width", id="gaussian-width"),
    pytest.param(lambda G, f, v: gaussian_profile(G, 1.0, v), "scale", id="gaussian-scale"),
    pytest.param(lambda G, f, v: cosh_profile(G, v), "power", id="cosh-power"),
    pytest.param(lambda G, f, v: xi_poly_profile(G, v), "p", id="xi_poly-p"),
    pytest.param(lambda G, f, v: TubeSpec(v, 1.0), "epsilon", id="tube-epsilon"),
    pytest.param(lambda G, f, v: TubeSpec.for_group(G, v), "epsilon", id="tube-for-group-epsilon"),
    pytest.param(lambda G, f, v: TubeSpec(0.5, v), "half_width", id="tube-half_width"),
    pytest.param(lambda G, f, v: QuadratureSpec(rel_tol=v), "rel_tol", id="quadrature-rel_tol"),
    pytest.param(lambda G, f, v: QuadratureSpec(abs_tol=v), "abs_tol", id="quadrature-abs_tol"),
])
def test_a_scalar_parameter_given_two_numbers_or_text_raises_a_domain_error_naming_it(
        call, name, value):
    # two numbers raised an untyped ValueError (an ambiguous truth value) or TypeError, and
    # text a TypeError, or passed float() as cosh_profile's power
    G = preset("H3")
    with pytest.raises(DomainError, match=rf"requires (one )?real {name}, got {name} = "):
        call(G, gaussian_profile(G, 1.0), value)


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda G, f: expansion_term(G, "split", f, [1.0, [2.0, 3.0]], 0.1),
                 "expansion_term requires real lam, got lam = [1.0, [2.0, 3.0]]",
                 id="expansion_term-lam"),
    pytest.param(lambda G, f: phi(G, 1.0, [0.1, [0.2, 0.3]]),
                 "phi requires finite real t, got [0.1, [0.2, 0.3]]", id="phi-t"),
    pytest.param(lambda G, f: hc_transform(G, f, [-1.0, [0.0, 1.0]]),
                 "requires real grid, got grid = [-1.0, [0.0, 1.0]]", id="hc_transform-grid"),
    pytest.param(lambda G, f: hc_transform_at(G, f, [1.0, [2.0, 3.0]]),
                 "hc_transform_at requires finite lam, got [1.0, [2.0, 3.0]]",
                 id="hc_transform_at-lam"),
])
def test_a_ragged_input_raises_a_domain_error_naming_it(call, named):
    # numpy refuses the nesting with an untyped ValueError ("inhomogeneous shape")
    G = preset("H3")
    with pytest.raises(DomainError, match=re.escape(named)):
        call(G, gaussian_profile(G, 1.0))


def test_a_gaussian_scale_may_be_complex():
    G = preset("H3")
    f = gaussian_profile(G, 1.0, 2j)
    assert f(0.0) == 2j
    assert f.decay.coeff == 2.0 * gaussian_profile(G, 1.0).decay.coeff


def test_spectral_function_values_one_short_of_the_grid_raise():
    with pytest.raises(GridContractError, match="grid and values must be 1-d and equally long"):
        SpectralFunction(GRID7, np.ones(6), SpectralDecay(1.0, 2.0))


def test_a_spectral_function_on_five_points_cannot_be_called_off_its_grid():
    a = SpectralFunction(np.linspace(-2.0, 2.0, 5), np.ones(5), SpectralDecay(1.0, 2.0))
    with pytest.raises(GridContractError, match="grid of 5 points cannot support order-6"):
        a(0.5)


def test_a_grid_symmetric_to_1e12_but_not_to_rounding_is_transformed_row_by_row():
    G = preset("H3")
    grid = np.array([-3.0, -1.8, -0.6, 0.6, 1.8, 3.0])  # no lam = 0: the oracle divides by lam
    grid[-1] += 5e-13  # within the 1e-12 contract, past 8 eps of 3: equal |lam| merge, no fold
    assert len(transform._mirror_fold(grid)[0]) == 4
    res = hc_transform(G, gaussian_profile(G, 1.0), grid)
    for lam, value in zip(grid, res.spectral.values):
        exact = gauss_transform_h3(lam)
        assert abs(value - exact) <= max(1e-12, 1e-10 * abs(exact))


def test_convolution_of_two_profiles_at_the_haar_rate_is_refused():
    # e^{-rho t} (1+t)^-3 passes the Schwartz floor e^{-rho t} (1+t)^-2 alone, but the
    # product of two decays no faster than the Haar weight grows
    G = preset("H3")
    f = xi_poly_profile(G, 4)
    assert f.decay.rate == G.rho and f.decay.degree == -3
    with pytest.raises(PreconditionError, match="combined decay too weak against the Haar weight"):
        convolve_at_identity(G, f, f)


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


def test_sl2c_shares_the_h3_tables(fresh_phi_cache):
    f = gaussian_profile(preset("H3"))
    h3 = hc_transform(preset("H3"), f)
    held = len(transform._PHI_CACHE)
    sl2c = hc_transform(preset("SL2C"), f)
    assert len(transform._PHI_CACHE) == held
    np.testing.assert_array_equal(sl2c.spectral.values, h3.spectral.values)
    assert sl2c.group.name == "SL2C"


def test_rule_caches_stay_at_their_maxsize(monkeypatch):
    G = preset("SL2R")
    for k in range(200):
        transform._uniform_rule(G, np.linspace(-6.0 - 0.01 * k, 6.0 + 0.01 * k, 241).tobytes(), 0)
        transform._radial_rule(G, 4.0 + 0.5 * k)
    for n in range(2, 102):
        gauss_legendre_rule(n)
        spherical._rule_nodes(n)
    # expansion_term's transforms, one per profile: a stand-in keeps them cheap
    monkeypatch.setattr(transform, "hc_transform",
                        lambda G, f, grid, q: TransformResult(None, None, G))
    for _ in range(100):
        transform._cached_transform(G, gaussian_profile(G), DEFAULT_QUAD)
    caches = (transform._uniform_rule, transform._radial_rule, gauss_legendre_rule,
              spherical._rule_nodes, transform._cached_transform)
    infos = [cached.cache_info() for cached in caches]
    transform._cached_transform.cache_clear()  # drop the stand-in results
    for info in infos:
        assert info.currsize == info.maxsize == 64
