"""The benchmark's closed forms against computations that do not use sphtrans.

phi comes from its definition as a Gauss hypergeometric function
(mpmath), |c|^-2 from the large-t behaviour of that same definition, and
every integral from scipy.integrate.quad.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import oracles
import workloads

# (rho, jacobi_alpha) for the presets whose closed forms are used
H3 = (1.0, 0.5)
SL2R = (0.5, 0.0)


def phi_definition(group, lam, t) -> complex:
    """2F1((rho + i lam)/2, (rho - i lam)/2; alpha + 1; -sinh^2 t)."""
    rho, alpha = group
    return complex(mpmath.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2,
                                 alpha + 1, -mpmath.sinh(t) ** 2))


def density_from_asymptotics(group, lam) -> float:
    """|c(lam)|^-2 from e^{rho t} phi_lam(t) -> 2 Re(c(lam) e^{i lam t}) at large t."""
    rho, _ = group
    ts = (30.0, 30.0 + 0.5 * math.pi / lam)
    rows = [[2 * math.cos(lam * t), -2 * math.sin(lam * t)] for t in ts]
    rhs = [math.exp(rho * t) * phi_definition(group, lam, t).real for t in ts]
    re_c, im_c = np.linalg.solve(rows, rhs)
    return 1.0 / (re_c**2 + im_c**2)


def h3_quad(fn, upper=np.inf) -> complex:
    re = quad(lambda t: fn(t).real, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    im = quad(lambda t: fn(t).imag, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return complex(re, im)


@pytest.mark.parametrize("lam", [0.0, 0.7, 3.0, 8.0])
@pytest.mark.parametrize("t", [0.0, 0.05, 1.3, 6.0])
def test_phi_h3_is_the_hypergeometric_definition(lam, t):
    assert abs(oracles.phi_h3(lam, t) - phi_definition(H3, lam, t)) <= 1e-14
    assert abs(oracles.xi_h3(t) - phi_definition(H3, 0.0, t)) <= 1e-14
    assert abs(oracles.phi_h3(lam, t)) <= oracles.xi_h3(t) * (1 + 1e-15)


@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_densities_follow_from_the_asymptotics_of_phi(lam):
    assert density_from_asymptotics(H3, lam) == pytest.approx(oracles.density_h3(lam), rel=1e-9)
    assert density_from_asymptotics(SL2R, lam) == pytest.approx(oracles.density_sl2r(lam), rel=1e-9)


@pytest.mark.parametrize("w", [0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1.0, 2.7, 1.5 + 0.1j, -2.0 - 0.1j])
def test_gauss_transform_h3(lam, w):
    def integrand(t):
        phi = 1.0 if t == 0 else np.sinc(lam * t / np.pi) * t / math.sinh(t)
        return complex(math.exp(-w * t * t) * phi * 4 * math.sinh(t) ** 2)

    exact = complex(oracles.gauss_transform_h3(lam, w))
    assert abs(h3_quad(integrand, 40.0) - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("w1, w2", [(1.0, 0.5), (0.3, 0.4)])
def test_gauss_convolution_h3(w1, w2):
    W = w1 + w2
    direct = quad(lambda t: math.exp(-W * t * t) * 4 * math.sinh(t) ** 2, 0, 40.0)[0]
    assert oracles.gauss_convolution_h3(w1, w2) == pytest.approx(direct, rel=1e-12)


def test_inverse_of_the_gauss_transform_is_the_gaussian():
    """(c_P/2) int_R Hf(nu) phi_nu(t) |c(nu)|^-2 dnu = f(t): ties c_P, density and Hf."""
    w = 1.0
    for t in (0.3, 1.1, 2.0):
        def integrand(nu):
            return (oracles.gauss_transform_h3(nu, w).real
                    * oracles.phi_h3(nu, t) * oracles.density_h3(nu))

        value = oracles.PLANCHEREL_CONSTANT * quad(integrand, 0, 60, limit=400)[0]
        assert value == pytest.approx(math.exp(-w * t * t), abs=1e-11)


@pytest.mark.parametrize("t", [0.0, 0.4, 1.5, 4.0])
def test_wide_packet_h3(t):
    a = oracles.SYMBOLS["wide"]
    value = oracles.PLANCHEREL_CONSTANT * quad(
        lambda nu: a(nu) * oracles.phi_h3(nu, t) * oracles.density_h3(nu), 0, 60, limit=400
    )[0]
    assert oracles.wide_packet_h3(t) == pytest.approx(value, rel=1e-10, abs=1e-15)


def test_only_flat4_exceeds_the_default_membership_decay_budget():
    grid = np.linspace(-12.0, 12.0, 481)
    for name, a in oracles.SYMBOLS.items():
        worst = max(float(np.max(np.abs(a(grid)) * (1 + np.abs(grid)) ** n)) for n in (2, 4, 6))
        assert (worst > 1e3) == (name in workloads.MEMBERSHIP_FAILS), name
