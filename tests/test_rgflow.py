import math

import numpy as np
import pytest

from curvebound import (
    DomainError,
    FlowPoleError,
    QuadratureConfig,
    beta,
    flow_coupling,
    flow_profile,
    ode_flow_values,
    rg_invariance_residual,
)
import curvebound.rgflow
from curvebound.manifolds import circle_heat_kernel
from curvebound.quadrature import _gauss_laguerre, _leggauss

FOUR_PI = 4.0 * math.pi


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_ode_flow_rejects_a_non_finite_coupling_as_a_domain_error(lam):
    # a pole error would name a pole that does not exist (tau = nan, or 1)
    with pytest.raises(DomainError) as exc:
        ode_flow_values(lam, [2.0])
    assert not isinstance(exc.value, FlowPoleError)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_beta_quadrature_matches_closed_form(lam):
    got = beta(lam)
    ref = -lam * lam / FOUR_PI
    assert abs(got - ref) / abs(ref) < 1e-6
    assert got < 0


def test_beta_coupling_scaling():
    assert beta(2.0) == pytest.approx(4.0 * beta(1.0), rel=1e-13)


def test_beta_length_independence():
    a = beta(1.0, L=1.0)
    b = beta(1.0, L=100.0)
    assert a == pytest.approx(b, rel=1e-6)
    assert a == pytest.approx(-1.0 / FOUR_PI, rel=1e-6)


def test_beta_closed_form_route():
    assert beta(1.5, method="closed_form") == -1.5 * 1.5 / FOUR_PI


def test_beta_at_many_t_nodes():
    # a 400-point Laguerre rule built from the polynomials themselves has NaN nodes
    got = beta(1.0, cfg=QuadratureConfig(t_nodes=400))
    assert got == pytest.approx(-1.0 / FOUR_PI, rel=1e-12)


def _beta_by_node_loop(lambda_R, L, cfg):
    # the same quadrature with one circle_heat_kernel call per (t, w) node
    t_nodes, t_w = _gauss_laguerre(cfg.t_nodes, 0.0)
    w_nodes, w_w = _gauss_laguerre(cfg.u_nodes, -0.5)
    gx, gw = _leggauss(2 * cfg.u_nodes)
    total = 0.0
    for t, tw in zip(t_nodes, t_w):
        inner = 0.0
        for w, ww in zip(w_nodes, w_w):
            u = t * t / (4.0 * w)
            su = math.sqrt(u)
            v_star = min(L / (4.0 * su), 7.5)
            xi = 2.0 * su * (v_star * gx)
            inner += ww * 2.0 * su * v_star * float(gw @ circle_heat_kernel(u, xi, L))
        total += tw * 2.0 * inner
    return -lambda_R * lambda_R / (8.0 * math.pi**1.5) * total


@pytest.mark.parametrize("L, t_nodes", [(1.0, 32), (2.0 * math.pi, 32), (100.0, 32),
                                        (2.0 * math.pi, 400)])
def test_beta_matches_per_node_loop(L, t_nodes):
    cfg = QuadratureConfig(t_nodes=t_nodes)
    ref = _beta_by_node_loop(1.3, L, cfg)
    assert abs(beta(1.3, L, cfg) - ref) <= 1e-15 * abs(ref)


def test_beta_is_one_kernel_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return circle_heat_kernel(*args)

    monkeypatch.setattr(curvebound.rgflow, "circle_heat_kernel", counted)
    beta(1.0)
    assert 0 < len(calls) <= 2  # not one call per (t, w) node: 32 x 24 = 768 of them


@pytest.mark.parametrize("alpha", [0.0, -0.5])
@pytest.mark.parametrize("n", [16, 24, 32, 64, 150])
def test_gauss_laguerre_matches_scipy(n, alpha):
    from scipy.special import roots_genlaguerre

    x, w = _gauss_laguerre(n, alpha)
    x_ref, w_ref = roots_genlaguerre(n, alpha)
    assert np.max(np.abs(x - x_ref) / x_ref) < 1e-11
    # the smallest weights carry only absolute accuracy
    big = w_ref > 1e-10 * np.max(w_ref)
    assert np.max(np.abs(w[big] - w_ref[big]) / w_ref[big]) < 1e-10


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(-1.0)
    with pytest.raises(DomainError):
        beta(1.0, L=0.0)


def test_flow_identity_scale():
    for lam in (0.3, 1.0, 7.0):
        assert flow_coupling(lam, 1.0) == lam


def test_flow_closed_form_point():
    assert flow_coupling(FOUR_PI, math.e) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_flow_decreasing_in_tau():
    lams = [flow_coupling(1.0, t) for t in (1.0, 1.5, 2.0, 3.0)]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_flow_semigroup():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        lam = float(0.2 + 2.0 * rng.random())
        t1 = float(0.5 + 1.5 * rng.random())
        t2 = float(0.5 + 1.5 * rng.random())
        once = flow_coupling(lam, t1 * t2)
        twice = flow_coupling(flow_coupling(lam, t1), t2)
        worst = max(worst, abs(once - twice) / once)
    assert worst < 1e-10


def test_flow_pole_detection():
    with pytest.raises(FlowPoleError) as exc:
        flow_coupling(30.0, 0.1)
    assert exc.value.tau_critical == pytest.approx(math.exp(-FOUR_PI / 30.0), rel=1e-12)
    # FlowPoleError is a domain error so callers can catch either
    assert isinstance(exc.value, DomainError)


def test_ode_cross_check():
    taus = np.geomspace(0.5, 2.0, 9)
    lams = np.array([flow_coupling(1.0, float(t)) for t in taus])
    ode = ode_flow_values(1.0, taus)
    assert float(np.max(np.abs(ode - lams) / lams)) < 1e-8


@pytest.mark.parametrize("lam, tau", [(1.0, 3.6e-6), (1.0, 1e-5), (2.0, 0.05), (10.0, 0.3),
                                      (0.5, 1e6)])
def test_ode_matches_closed_form_up_to_the_pole(lam, tau):
    # tau = 3.6e-6 lies just above the pole exp(-4 pi) ~ 3.49e-6 of lambda = 1
    got = float(ode_flow_values(lam, [tau])[0])
    assert got == pytest.approx(flow_coupling(lam, tau), rel=1e-10)


def test_ode_past_the_pole_raises():
    with pytest.raises(FlowPoleError) as exc:
        ode_flow_values(1.0, [1e-6])
    assert exc.value.tau_critical == pytest.approx(math.exp(-FOUR_PI), rel=1e-12)


def test_flow_profile_contract():
    prof = flow_profile(1.0, 0.5, 2.0, 11)
    assert prof.lambda_values[5] == pytest.approx(1.0, rel=1e-14)  # tau = 1 midpoint
    assert np.all(prof.beta_values < 0)
    assert prof.closed_form_residual < 1e-8
    with pytest.raises(DomainError):
        flow_profile(1.0, 2.0, 0.5, 5)


def test_rg_invariance_identity_at_unit_tau(unit_circle):
    assert rg_invariance_residual(unit_circle, 0.0, 1.0, 0.5, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_rg_invariance_residual_small(unit_circle, tau):
    r = rg_invariance_residual(unit_circle, 0.0, 1.0, 0.5, 1.0, tau)
    assert r < 1e-6


def test_rg_invariance_tau_window(unit_circle):
    with pytest.raises(DomainError):
        rg_invariance_residual(unit_circle, 0.0, 1.0, 0.5, 1.0, 8.0)
    with pytest.raises(DomainError):
        rg_invariance_residual(unit_circle, 0.0, 1.0, 0.5, 1.0, 0.1)


def test_flow_profile_residuals_per_point():
    prof = flow_profile(1.0, 0.5, 2.0, 11)
    ode = ode_flow_values(1.0, prof.tau_grid)
    assert np.array_equal(prof.residuals, np.abs(ode - prof.lambda_values) / prof.lambda_values)
    assert prof.closed_form_residual == float(np.max(prof.residuals))
