import cmath
import math

import mpmath
import numpy as np
import pytest

from sphtrans.errors import AccuracyError, DomainError, PoleError
from sphtrans.groups import PRESET_NAMES, preset
from sphtrans.specfun import (
    DEFAULT_QUAD,
    ExpDecay,
    QuadratureSpec,
    integrate_interval,
    log_gamma,
    truncation_point,
)
from sphtrans.spherical import _pfaff_series, phi


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 1e-14
    np.testing.assert_allclose(log_gamma(0.5).real, 0.5 * math.log(math.pi), rtol=1e-13)
    assert abs(log_gamma(0.5).imag) < 1e-14
    np.testing.assert_allclose(log_gamma(5.0).real, math.log(24.0), rtol=1e-13)


def test_log_gamma_recurrence_oracle():
    # walk log Gamma down from a high-real-part seed, 20 steps, and compare
    z = 1.0 + 1.0j
    seed = log_gamma(z + 20)
    acc = seed
    for k in range(19, -1, -1):
        acc = acc - cmath.log(z + k)
    diff = acc - log_gamma(z)
    assert abs(diff) < 1e-11


def test_log_gamma_exp_relative_error():
    # relative error of exp(log_gamma) on a mixed test set
    cases = {
        1.0: 1.0,
        0.5: math.sqrt(math.pi),
        5.0: 24.0,
        2.0: 1.0,
        7.5: 1871.254305797788346,  # Gamma(7.5)
    }
    for z, ref in cases.items():
        val = cmath.exp(log_gamma(z)).real
        assert abs(val - ref) / ref < 1e-12


def test_log_gamma_reflection_modulus_identity():
    # |Gamma(iy)|^2 = pi / (y sinh(pi y))
    for y in (0.5, 1.0, 2.0):
        lhs = 2.0 * log_gamma(1j * y).real
        rhs = math.log(math.pi / (y * math.sinh(math.pi * y)))
        assert abs(lhs - rhs) < 1e-10


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError) as err:
            log_gamma(z)
        assert err.value.pole == int(z)


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

def test_interval_trivial_values():
    v, e = integrate_interval(np.sin, 0.0, math.pi)
    np.testing.assert_allclose(v, 2.0, rtol=1e-12)
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


def test_interval_complex_integrand():
    v, _ = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi)
    np.testing.assert_allclose(v, 2j, atol=1e-12)


def test_budget_exhaustion_carries_partial_value():
    q = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13, max_subdivisions=3)
    with pytest.raises(AccuracyError) as err:
        integrate_interval(lambda t: np.abs(t - math.sqrt(2) / 2) ** 0.3, 0.0, 1.0, q)
    assert err.value.value is not None
    assert err.value.err_est is not None


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=2**21)


def test_decay_hint_tail_bound():
    d = ExpDecay(coeff=3.0, rate=2.0, degree=2)
    T = 5.0
    # numerical tail of the envelope must sit below the closed-form bound
    ts = np.linspace(T, T + 60.0, 20001)
    numeric = np.trapezoid(d.bound(ts), ts)
    assert numeric <= d.tail_integral(T) * (1 + 1e-4)


def test_halfline_requires_positive_rate():
    with pytest.raises(DomainError):
        truncation_point(ExpDecay(1.0, 0.0), 1e-12)
