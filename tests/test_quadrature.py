import math

import numpy as np
import pytest
from scipy.special import erfcx, k0

from curvebound import (
    DomainError,
    Euclidean3,
    QuadratureConfig,
    SingWindowConfig,
    flat_resolvent_oracle,
    pair_kernel_derivative,
    pair_kernel_plain,
    pair_kernel_renormalized,
)
from curvebound.quadrature import _erfcx, _g_tail

EUCLID = Euclidean3()

# spot values frozen from an independent adaptive quadrature of the
# momentum-representation integral (tan-substituted, epsrel 1e-13)
RESOLVENT_FROZEN = {
    (0.5, 1.0): 2.2805525103057112e-02,
    (-0.9, 0.1): 3.1524910221959762e-01,
}


def pts(d):
    return np.zeros(3), np.array([d, 0.0, 0.0])


@pytest.mark.parametrize("m,d,ref", [
    (1.0, 1.0, math.exp(-1.0) / (8.0 * math.pi)),
    (2.0, 0.5, math.exp(-1.0) / (4.0 * math.pi)),
    (1.0, 3.0, math.exp(-3.0) / (24.0 * math.pi)),
])
def test_yukawa_reduction(m, d, ref):
    x, y = pts(d)
    got = pair_kernel_plain(0.0, x, y, m).value
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("key", sorted(RESOLVENT_FROZEN))
def test_resolvent_oracle_frozen_values(key):
    E, d = key
    assert flat_resolvent_oracle(E, d, 1.0) == pytest.approx(RESOLVENT_FROZEN[key], rel=1e-12)


@pytest.mark.parametrize("e_frac", [-0.9, -0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("d", [0.1, 1.0, 5.0])
def test_oracle_equivalence_grid(e_frac, d):
    x, y = pts(d)
    got = pair_kernel_plain(e_frac, x, y, 1.0).value
    ref = flat_resolvent_oracle(e_frac, d, 1.0)
    assert abs(got - ref) / abs(ref) < 1e-8


@pytest.mark.parametrize("m", [1.0, 2.0])
def test_oracle_matches_adaptive_quadrature(m):
    # the Gauss-Legendre ladder against scipy's adaptive quadrature of the
    # p-integral on the grid of the validate check, and E = 0 in closed form
    from scipy.integrate import quad

    for e_frac in (-0.9, 0.0, 0.9):
        for dm in (0.1, 1.0, 5.0):
            E, d = e_frac * m, dm / m
            if E == 0.0:
                ref = math.exp(-m * d) / (8.0 * math.pi * d)
            else:
                j = quad(lambda p: math.exp(-d * math.hypot(m, E * math.tan(p))),
                         0.0, 0.5 * math.pi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                sgn = math.copysign(1.0, E)
                kappa = math.sqrt(m * m - E * E)
                ref = (0.5 * math.pi * (1.0 + sgn) * math.exp(-kappa * d) - sgn * j) / (
                    4.0 * math.pi**2 * d)
            assert flat_resolvent_oracle(E, d, m) == pytest.approx(ref, rel=1e-13, abs=0.0)
    for d in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            flat_resolvent_oracle(0.5 * m, d, m)


def test_plain_monotone_in_energy():
    x, y = pts(1.0)
    vals = [pair_kernel_plain(E, x, y, 1.0).value for E in np.linspace(-0.9, 0.9, 13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_renormalized_zero_at_equal_scales():
    x, y = pts(0.7)
    v = pair_kernel_renormalized(0.3, 0.3, x, y, 1.0)
    assert v.value == 0.0


def test_renormalized_is_oracle_difference():
    x, y = pts(1.0)
    got = pair_kernel_renormalized(0.1, 0.3, x, y, 1.0).value
    ref = flat_resolvent_oracle(0.3, 1.0) - flat_resolvent_oracle(0.1, 1.0)
    assert got == pytest.approx(ref, rel=1e-8)


def test_renormalized_monotone_decreasing_in_energy():
    x, y = pts(1.0)
    vals = [pair_kernel_renormalized(E, 0.95, x, y, 1.0).value
            for E in np.linspace(-0.9, 0.9, 13)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_renormalized_log_growth_at_coincidence():
    # G_ren(d) ~ c1 log(1/d) + c2 as d -> 0; least-squares fit over three decades
    E, mu = -0.2, 0.2
    ds = np.array([1e-2, 1e-3, 1e-4])
    vals = np.array([pair_kernel_renormalized(E, mu, *pts(d), 1.0).value for d in ds])
    A = np.stack([np.log(1.0 / ds), np.ones(3)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    fit = A @ coef
    assert float(np.max(np.abs(fit - vals) / np.abs(vals))) < 0.01
    assert coef[0] > 0


@pytest.mark.parametrize("d", [1.0, 2.0])
def test_derivative_bessel_reduction(d):
    x, y = pts(d)
    got = pair_kernel_derivative(0.0, x, y, 1.0).value
    assert got == pytest.approx(k0(d) / (4.0 * math.pi**2), rel=1e-10)


@pytest.mark.parametrize("E", [0.2, -0.6])
def test_derivative_finite_difference(E):
    x, y = pts(1.0)
    h = 1e-4
    fd = (pair_kernel_plain(E + h, x, y, 1.0).value
          - pair_kernel_plain(E - h, x, y, 1.0).value) / (2.0 * h)
    got = pair_kernel_derivative(E, x, y, 1.0).value
    assert got == pytest.approx(fd, rel=1e-6)


def test_refinement_convergence():
    base = QuadratureConfig()
    fine = QuadratureConfig(t_nodes=2 * base.t_nodes, u_nodes=2 * base.u_nodes)
    x, y = pts(0.7)
    for fn, args in (
        (pair_kernel_plain, (-0.3, x, y, 1.0)),
        (pair_kernel_renormalized, (-0.3, 0.4, x, y, 1.0)),
        (pair_kernel_derivative, (-0.3, x, y, 1.0)),
    ):
        a = fn(*args, EUCLID, base).value
        b = fn(*args, EUCLID, fine).value
        assert abs(a - b) <= base.rel_tol * max(abs(a), abs(b))


def test_plain_kernel_matches_the_oracle_and_its_estimate_bounds_the_error():
    # the trapezoid rule in log u converges geometrically: its error is at
    # rounding, and the defect of the even nodes (step 2h) bounds it while
    # staying far below rel_tol
    for d in np.geomspace(1e-9, 6.0, 9):
        x, y = pts(d)
        for E in np.linspace(-0.95, 0.95, 9):
            got = pair_kernel_plain(E, x, y, 1.0)
            ref = flat_resolvent_oracle(E, d, 1.0)
            err = abs(got.value - ref)
            assert err <= 1e-14 * abs(ref)
            assert err <= got.err_estimate <= 2e-9 * abs(ref)


def test_error_estimates_are_conservative_scale():
    x, y = pts(1.0)
    v = pair_kernel_plain(-0.5, x, y, 1.0)
    assert v.err_estimate >= 0
    assert v.err_estimate < 1e-8 * abs(v.value) + 1e-11


def test_coincidence_handling():
    z = np.zeros(3)
    with pytest.raises(DomainError):
        pair_kernel_plain(0.0, z, z, 1.0)
    with pytest.raises(DomainError):
        pair_kernel_derivative(0.0, z, z, 1.0)
    v = pair_kernel_renormalized(-0.2, 0.2, z, z, 1.0)
    assert math.isfinite(v.value)
    # at coincidence the value is scheme-dependent up to the curve integral;
    # the reported error reflects that by covering the value itself
    assert v.err_estimate >= abs(v.value)


def test_energy_domain_checks():
    x, y = pts(1.0)
    with pytest.raises(DomainError):
        pair_kernel_plain(1.0, x, y, 1.0)
    with pytest.raises(DomainError):
        pair_kernel_renormalized(-1.2, 0.0, x, y, 1.0)
    with pytest.raises(DomainError):
        pair_kernel_plain(0.0, x, y, -1.0)


def test_config_validation():
    with pytest.raises((DomainError, ValueError)):
        QuadratureConfig(t_nodes=8)
    with pytest.raises((DomainError, ValueError)):
        QuadratureConfig(rel_tol=-1e-8)
    with pytest.raises((DomainError, ValueError)):
        SingWindowConfig(log_nodes=1)


def test_oracle_yukawa_limit():
    for d in (0.2, 1.0, 4.0):
        assert flat_resolvent_oracle(0.0, d) == pytest.approx(
            math.exp(-d) / (8.0 * math.pi * d), rel=1e-12)


def test_erfcx_matches_scipy():
    # Weideman's expansion in NumPy against scipy's erfcx as an oracle
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e8, 20001)])
    ref = erfcx(x)
    assert np.max(np.abs(_erfcx(x) - ref) / ref) <= 2e-15
    assert abs(float(_erfcx(0.0)) - 1.0) <= np.spacing(1.0)
    np.testing.assert_array_equal(_erfcx(x.reshape(2, -1)), _erfcx(x).reshape(2, -1))


def test_g_tail_matches_references():
    # 1/sqrt(pi) - z erfcx(z), the E < 0 derivative weight: against scipy's
    # erfcx below z = 10, the subtraction in long double, and a 40-term
    # asymptotic sum above
    z = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 4001), [10.14]])
    low = z < 10.0
    ref = np.empty_like(z)
    zl = z[low].astype(np.longdouble)
    ref[low] = (1.0 / np.sqrt(np.longdouble(math.pi)) - zl * erfcx(z[low])).astype(float)
    x = 1.0 / (2.0 * z[~low] ** 2)
    term, total = x.copy(), np.zeros_like(x)
    for n in range(1, 41):  # (-1)^(n+1) (2n-1)!! / (2 z^2)^n
        total += term if n % 2 else -term
        term = term * (2 * n + 1) * x
    ref[~low] = total / math.sqrt(math.pi)
    np.testing.assert_allclose(_g_tail(z), ref, rtol=1e-13, atol=0)
