import math
import re

import mpmath
import numpy as np
import pytest

from sphtrans import specfun
from sphtrans.errors import AccuracyError, DomainError
from sphtrans.groups import PRESET_NAMES, preset
from sphtrans.specfun import (
    DEFAULT_QUAD,
    ExpDecay,
    QuadratureSpec,
    gauss_kronrod_rule,
    gauss_legendre_rule,
    integrate_interval,
    truncation_point,
)
from sphtrans.spherical import _pfaff_series, phi


# ---------------------------------------------------------------------------
# the one 2F1 series: phi_lam(t) = 2F1((rho + i lam)/2, (rho - i lam)/2;
# alpha + 1; x) at x = -sinh^2 t, summed by the Pfaff branch of phi for t <= 1.2
# ---------------------------------------------------------------------------

def _hyp_params(G, lam):
    return 0.5 * (G.rho + 1j * lam), 0.5 * (G.rho - 1j * lam), G.jacobi_alpha + 1.0


def test_2f1_at_zero_is_one():
    for name in PRESET_NAMES:
        assert phi(preset(name), 0.3 + 0.4j, 0.0) == 1.0


def test_2f1_log_identity():
    # 2F1(1,1;2;x) = -log(1-x)/x: on CH2 (rho = 2, alpha = 1) at lam = 0
    G = preset("CH2")
    assert _hyp_params(G, 0.0) == (1.0, 1.0, 2.0)
    val = phi(G, 0.0, math.asinh(1.0))  # x = -1
    np.testing.assert_allclose(val.real, math.log(2.0), rtol=1e-12)
    assert abs(val.imag) < 1e-14
    ts = np.linspace(0.05, 1.2, 24)
    expected = 2.0 * np.log(np.cosh(ts)) / np.sinh(ts) ** 2
    np.testing.assert_allclose(phi(G, 0.0, ts).real, expected, rtol=1e-12)


def test_2f1_euler_integral_value():
    # Gamma(c) / (Gamma(b) Gamma(c-b)) int_0^1 s^(b-1) (1-s)^(c-b-1) (1-xs)^(-a) ds
    G = preset("CH2")
    for lam, t in ((1.3, 0.9), (0.4 + 0.5j, 1.1), (6.0, 0.3)):
        with mpmath.workdps(30):
            a, b, c = (mpmath.mpc(z) for z in _hyp_params(G, lam))
            x = -mpmath.sinh(t) ** 2
            kernel = lambda s: s ** (b - 1) * (1 - s) ** (c - b - 1) * (1 - x * s) ** (-a)
            gam = mpmath.gamma(c) / (mpmath.gamma(b) * mpmath.gamma(c - b))
            ref = complex(gam * mpmath.quad(kernel, [0, 1]))
        assert abs(phi(G, lam, t) - ref) <= 1e-13 * abs(ref)


def test_2f1_parameter_symmetry():
    # swapping a and b is lam -> -lam; the Pfaff map 2F1(a, c-b; c; u) is not symmetric
    rng = np.random.default_rng(7)
    for name in PRESET_NAMES:
        G = preset(name)
        for _ in range(5):
            lam = complex(rng.uniform(-8.0, 8.0), rng.uniform(-G.rho, G.rho))
            t = math.asinh(math.sqrt(rng.uniform(0.0, 2.25)))  # x in [-2.25, 0]
            v1 = phi(G, lam, t)
            v2 = phi(G, -lam, t)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_2f1_against_conjugate_pair():
    # real lam makes (a, b) a conjugate pair, so the series sums to a real value
    G = preset("SL2R")
    assert _hyp_params(G, 2.0) == (0.25 + 1j, 0.25 - 1j, 1.0)
    val = _pfaff_series(G, np.array([2.0 + 0j]), np.array([math.asinh(2.0)]), None, False)[0]
    assert abs(val[0, 0].imag) < 1e-13
    # and conjugate lam gives conjugate values
    for lam in (0.7 + 0.3j, -3.0 + 0.45j):
        for t in (0.2, 0.8, 1.1):
            assert abs(phi(G, lam.conjugate(), t) - phi(G, lam, t).conjugate()) <= 1e-14


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_gauss_kronrod_rule_is_exact():
    for n, degree in ((10, 31), (15, 47), (25, 76)):
        x, w = gauss_kronrod_rule(n)
        assert x.shape == (2 * n + 1,) and w.shape == (2 * n + 1, 2)
        assert np.all(np.diff(x) > 0)
        moments = np.array([2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(degree + 2)])
        powers = x[:, None] ** np.arange(degree + 2)
        kronrod = np.abs(w[:, 0] @ powers - moments)
        assert np.all(kronrod[:degree + 1] <= 1e-14), n
        # the embedded Gauss rule: n of the nodes, zero weight at the others
        xg, wg = gauss_legendre_rule(n)
        assert np.all(np.abs(x[1::2] - xg) <= 1e-15) and np.all(w[::2, 1] == 0.0)
        assert np.all(np.abs(w[1::2, 1] - wg) <= 1e-15)
        assert np.all(np.abs(w[:, 1] @ powers[:, :2 * n] - moments[:2 * n]) <= 1e-14)
    # and K21 is off at degree 32: it is the Kronrod extension, of degree 3n + 1, and not
    # merely some rule exact to 31
    x, w = gauss_kronrod_rule(10)
    assert abs(w[:, 0] @ x**32 - 2.0 / 33.0) > 1e-13


@pytest.mark.parametrize("n", [10, 15, 20, 31, 48])
def test_gauss_legendre_rule_meets_40_digit_values(n):
    # the roots of P_n by Newton's method at 40 digits from Tricomi's estimates, and the
    # weights 2 / ((1 - x^2) P_n'(x)^2) there
    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1)

    x, w = gauss_legendre_rule(n)
    assert x.shape == w.shape == (n,)
    with mpmath.workdps(40):
        for i in range(n):
            root = -mpmath.cos(mpmath.pi * (i + mpmath.mpf(3) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(6):
                p, dp = legendre(root)
                root -= p / dp
            weight = 2 / ((1 - root**2) * legendre(root)[1] ** 2)
            assert abs(x[i] - root) <= 2e-16, (n, i)
            assert abs(w[i] - weight) <= 1e-13 * weight, (n, i)


def test_interval_trivial_values():
    sizes = []
    v, e = integrate_interval(lambda t: sizes.append(t.size) or np.sin(t), 0.0, math.pi)
    np.testing.assert_allclose(v, 2.0, rtol=1e-12)
    # one call, on the 31 Kronrod nodes of each of the four starting panels
    assert sizes == [4 * 31]
    v, _ = integrate_interval(lambda t: t * t, 0.0, 1.0)
    np.testing.assert_allclose(v, 1.0 / 3.0, rtol=1e-13)


def test_halfline_trivial_values():
    # the half-line pattern of the transforms: truncate by the decay hint, then
    # integrate [0, T] adaptively; the envelope tail stays below abs_tol / 4
    decay = ExpDecay(1.0, 1.0)
    T = truncation_point(decay, DEFAULT_QUAD.abs_tol)
    assert decay.tail_integral(T) <= DEFAULT_QUAD.abs_tol / 4.0
    v, e = integrate_interval(lambda t: np.exp(-t), 0.0, T)
    np.testing.assert_allclose(v, 1.0, atol=1e-12)
    assert e < 1e-9
    v, _ = integrate_interval(lambda t: t * np.exp(-t * t), 0.0, T)
    np.testing.assert_allclose(v, 0.5, atol=1e-11)
    v, _ = integrate_interval(lambda t: np.exp(-t) * np.sin(t), 0.0, T)
    np.testing.assert_allclose(v, 0.5, atol=1e-11)


def test_interval_spherical_integrand_vs_trapezoid():
    # the integrand backing the spherical-function average at t = 1; checked
    # against a dense trapezoid rule and against the function it represents
    integrand = lambda th: (np.cosh(1.0) - np.sinh(1.0) * np.cos(th)) ** (-0.5)
    v, e = integrate_interval(integrand, 0.0, 2.0 * math.pi)
    ths = np.linspace(0.0, 2.0 * math.pi, 200001)
    ref = np.trapezoid(integrand(ths), ths)
    assert abs(v - ref) < 1e-9

    from sphtrans.groups import preset
    from sphtrans.spherical import phi

    np.testing.assert_allclose(
        v / (2.0 * math.pi), phi(preset("SL2R"), 0.0, 1.0).real, rtol=1e-11
    )


def test_integral_linearity_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a1, a2, w1, w2 = rng.uniform(0.5, 2.0, size=4)
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)
        f = lambda t: np.exp(-a1 * t * t) * np.cos(w1 * t)
        g = lambda t: np.exp(-a2 * t) * np.sin(w2 * t) ** 2
        vf, ef = integrate_interval(f, 0.0, 6.0)
        vg, eg = integrate_interval(g, 0.0, 6.0)
        vc, ec = integrate_interval(lambda t: alpha * f(t) + beta * g(t), 0.0, 6.0)
        assert abs(vc - (alpha * vf + beta * vg)) <= abs(alpha) * ef + abs(beta) * eg + ec + 1e-12


@pytest.mark.parametrize("f, got", [
    (lambda t: 1.0, "()"),
    (lambda t: np.ones((len(t), 4)), "(124, 4)"),
    (lambda t: np.ones((2, 3, len(t))), "(2, 3, 124)"),
], ids=["scalar", "nodes-first", "two-component-axes"])
def test_integrand_of_the_wrong_shape_is_a_domain_error(f, got):
    # values end in an axis of the node count, after at most one axis of components
    with pytest.raises(DomainError, match=re.escape(f"shaped (124,) or (n_comp, 124) on 124 "
                                                    f"nodes, got shape {got}")):
        integrate_interval(f, 0.0, 1.0)


def test_interval_complex_integrand():
    v, _ = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi)
    np.testing.assert_allclose(v, 2j, atol=1e-12)


def test_budget_exhaustion_carries_partial_value(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
    q = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13)
    with pytest.raises(AccuracyError) as err:
        integrate_interval(lambda t: np.abs(t - math.sqrt(2) / 2) ** 0.3, 0.0, 1.0, q)
    assert err.value.value is not None
    assert err.value.err_est is not None


def vector_integrand(t):
    # only the smallest component, with its sqrt singularity at 0, needs splits
    return np.stack([1e3 * np.sin(t), 1e-8 * np.sqrt(t), t * t])


VECTOR_EXACT = np.array([2e3, 1e-8 * 2.0 / 3.0 * math.pi**1.5, math.pi**3 / 3.0])


@pytest.mark.parametrize("q", [DEFAULT_QUAD, QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30)])
def test_vector_integrand_meets_every_component_tolerance(q):
    # scales 1e-8 to 1e3: a single shared tolerance would let the small one go
    value, err = integrate_interval(vector_integrand, 0.0, math.pi, q)
    assert value.shape == err.shape == (3,)
    tol = np.maximum(q.abs_tol, q.rel_tol * np.abs(VECTOR_EXACT))
    assert np.all(err <= q.tolerance(value))
    assert np.all(np.abs(value - VECTOR_EXACT) <= tol)
    # each component alone meets the same bound
    for k in range(3):
        alone, _ = integrate_interval(lambda t: vector_integrand(t)[k], 0.0, math.pi, q)
        assert np.ndim(alone) == 0
        assert abs(alone - VECTOR_EXACT[k]) <= tol[k]


def test_vector_budget_exhaustion_carries_partial_values(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
    q = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13)

    def f(t):
        return np.stack([np.sin(t), np.abs(t - math.sqrt(2) / 2) ** 0.3])

    with pytest.raises(AccuracyError, match="budget 3 exhausted") as err:
        integrate_interval(f, 0.0, 1.0, q)
    assert err.value.value.shape == err.value.err_est.shape == (2,)
    assert abs(err.value.value[0] - (1.0 - math.cos(1.0))) <= 1e-13
    assert err.value.err_est[1] > q.tolerance(err.value.value[1])


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308), (0.0, 1e308)])
def test_interval_rejects_bounds_out_of_float_range(lo, hi):
    # non-finite bounds, a width past float range, a panel sum a + b past float range
    with pytest.raises(DomainError, match=re.escape(f"lo = {lo!r}, hi = {hi!r}")):
        integrate_interval(np.sin, lo, hi)


def test_interval_bound_of_1e300_is_in_range(monkeypatch):
    # the budget runs out, with no overflow on the way
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(AccuracyError, match="budget 3 exhausted"):
        integrate_interval(np.sin, 0.0, 1e300)


def test_quadrature_spec_validation():
    for rel_tol in (1e-15, math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=rel_tol)
    for abs_tol in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=abs_tol)


def test_decay_hint_tail_bound():
    T = 5.0
    ts = np.linspace(T, T + 60.0, 20001)
    for degree in (2, 0.5, 2.5):
        d = ExpDecay(coeff=3.0, rate=2.0, degree=degree)
        # numerical tail of the envelope must sit below the closed-form bound
        numeric = np.trapezoid(d.bound(ts), ts)
        assert numeric <= d.tail_integral(T) * (1 + 1e-4)
        # a fractional degree takes its ceiling's bound
        assert d.tail_integral(T) == ExpDecay(3.0, 2.0, math.ceil(degree)).tail_integral(T)


def test_halfline_requires_positive_rate():
    with pytest.raises(DomainError):
        truncation_point(ExpDecay(1.0, 0.0), 1e-12)
    assert ExpDecay(1.0, 0.0).tail_integral(1.0) == math.inf


def test_truncation_past_1e6_raises():
    # the search starts at T = 5 / rate = 5e6, where the tail e^-5 / rate is far above 1e-12
    with pytest.raises(DomainError, match="truncation point exceeds 1e6"):
        truncation_point(ExpDecay(1.0, 1e-6), 1e-12)


def test_integration_refuses_a_nan_integrand_and_an_empty_interval():
    with pytest.raises(DomainError, match=re.escape("non-finite values on [0.0, 1.0]")):
        integrate_interval(lambda t: np.where(t > 0.5, math.nan, t), 0.0, 1.0)
    with pytest.raises(DomainError, match="need lo < hi, got lo = 1.0, hi = 1.0"):
        integrate_interval(np.cos, 1.0, 1.0)


@pytest.mark.parametrize("decay, named", [
    (ExpDecay(1.0, math.nan), "rate = nan"),
    (ExpDecay(1.0, math.inf), "rate = inf"),
    (ExpDecay(math.nan, 2.0), "coeff = nan"),
    (ExpDecay(math.inf, 2.0), "coeff = inf"),
    (ExpDecay(-1.0, 2.0), "coeff = -1.0"),
    (ExpDecay(1.0, 2.0, math.nan), "degree = nan"),
    (ExpDecay(1.0, 2.0, math.inf), "degree = inf"),
])
def test_truncation_rejects_a_non_finite_envelope(decay, named):
    # NaN compares false, so a NaN envelope would end the search at once (T = 1.0 or 2.5)
    with pytest.raises(DomainError, match=named):
        truncation_point(decay, 1e-12)


@pytest.mark.parametrize("abs_tol", [math.nan, 0.0, -1.0, math.inf])
def test_truncation_rejects_a_tolerance_it_cannot_use(abs_tol):
    # unchecked, NaN and inf would end the search at its first T (2.5), and 0 or -1 never
    with pytest.raises(DomainError, match=f"abs_tol = {abs_tol!r}"):
        truncation_point(ExpDecay(1.0, 2.0), abs_tol)


def test_truncation_of_a_nan_envelope_raises_every_call():
    for _ in range(2):
        with pytest.raises(DomainError, match="rate = nan"):
            truncation_point(ExpDecay(1.0, math.nan), 1e-12)


def test_truncation_of_an_unhashable_envelope_is_computed():
    # a 0-d ndarray field, which could not key a cache, gives the same point
    held = truncation_point(ExpDecay(1.0, 2.0), 1e-12)
    assert truncation_point(ExpDecay(np.array(1.0), 2.0), 1e-12) == held == 18.984375
