"""Coupling flow: beta function, closed-form running, scale-invariance check.

Under the circumference-L circle-kernel convention the four-fold integral
defining the beta function collapses analytically:

    beta = -(lambda^2 / 8 pi^(3/2) L) iint dtheta dtheta'
            int dt t e^{-t} int du e^{-t^2/4u} u^{-3/2} K_u(theta - theta')
         = -lambda^2 / (4 pi),

because the theta integrals keep only the kernel's constant mode (total mass
L), int du u^{-3/2} e^{-t^2/4u} = 2 sqrt(pi)/t, and the remaining t-integral
is elementary.  The quadrature path evaluates the full integral anyway: it is
the guard that the kernel convention and the closed form stay in sync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_genlaguerre

from .curves import SampledCurve
from .manifolds import DomainError, Euclidean3, ManifoldSpec, circle_heat_kernel
from .principal import DEFAULT_QUADRATURE, QuadratureConfig, rg_assemble
from .quadrature import _leggauss

_FOUR_PI = 4.0 * math.pi


class FlowPoleError(DomainError):
    """The inverted flow hit its pole; tau_critical is the blow-up scale."""

    def __init__(self, message, tau_critical):
        super().__init__(message)
        self.tau_critical = tau_critical


@dataclass(frozen=True, eq=False)
class FlowResult:
    tau_grid: np.ndarray
    lambda_values: np.ndarray
    beta_values: np.ndarray
    closed_form_residual: float


def beta(lambda_R: float, L: float = 2.0 * math.pi,
         cfg: QuadratureConfig = DEFAULT_QUADRATURE, method: str = "quadrature") -> float:
    """Beta function of the coupling; negative for every positive coupling.

    method "closed_form" returns -lambda^2/(4 pi) directly; "quadrature" runs
    the four-fold integral with Gauss-Laguerre rules in t and in the mapped
    diffusion time u = t^2/(4w), and a kernel-width-adaptive Legendre rule in
    the relative angle.
    """
    if lambda_R <= 0 or L <= 0:
        raise DomainError("beta needs lambda_R > 0 and L > 0")
    closed = -lambda_R * lambda_R / _FOUR_PI
    if method == "closed_form":
        return closed
    if method != "quadrature":
        raise DomainError(f"unknown beta method {method!r}")

    t_nodes, t_w = roots_genlaguerre(cfg.t_nodes, 0.0)   # weight e^{-t}
    w_nodes, w_w = roots_genlaguerre(cfg.u_nodes, -0.5)  # weight w^{-1/2} e^{-w}
    gx, gw = _leggauss(2 * cfg.u_nodes)

    # I = int dxi int dt t e^{-t} int du e^{-t^2/4u} u^{-3/2} K_u(xi).
    # Substituting u = t^2/(4w) maps the u-fold onto the w-weight above and
    # leaves the exact Jacobian factor 2/t, which is folded into the t-weight
    # (t e^{-t} times 2/t = 2 e^{-t}); a 1/t Laguerre integrand would converge
    # only algebraically.  J(u) = int_{-L/2}^{L/2} K_u(xi) dxi is evaluated on
    # xi = 2 sqrt(u) v with the v-range clipped at 7.5 kernel widths (or the
    # full half-period), so the xi-rule tracks the kernel's width at every u.
    total = 0.0
    for t, tw in zip(t_nodes, t_w):
        inner = 0.0
        for w, ww in zip(w_nodes, w_w):
            u = t * t / (4.0 * w)
            su = math.sqrt(u)
            v_star = min(L / (4.0 * su), 7.5)
            xi = 2.0 * su * (v_star * gx)
            j = 2.0 * su * v_star * float(gw @ circle_heat_kernel(u, xi, L, cfg.series))
            inner += ww * j
        total += tw * 2.0 * inner
    return -lambda_R * lambda_R / (8.0 * math.pi**1.5) * total


def flow_coupling(lambda_mu: float, tau: float) -> float:
    """lambda(tau mu) = lambda / (1 + (lambda/4 pi) log tau).

    The closed form is length independent.  Raises FlowPoleError at and
    below the pole scale tau* = exp(-4 pi / lambda).
    """
    if lambda_mu <= 0 or tau <= 0:
        raise DomainError("flow needs lambda > 0 and tau > 0")
    den = 1.0 + lambda_mu / _FOUR_PI * math.log(tau)
    if den <= 0:
        tau_c = math.exp(-_FOUR_PI / lambda_mu)
        raise FlowPoleError(
            f"flow pole: denominator {den:.3e} <= 0, coupling diverges at tau = {tau_c:.6e}",
            tau_critical=tau_c,
        )
    return lambda_mu / den


def ode_flow_values(lambda_mu: float, taus) -> np.ndarray:
    """lambda(tau) by direct integration of d lambda/d log tau = beta(lambda).

    Independent of the closed form; used as its cross-check.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0):
        raise DomainError("tau values must be positive")
    out = np.full(taus.shape, lambda_mu)
    from scipy.integrate import solve_ivp  # deferred: only this cross-check needs it

    def rhs(_, y):
        return [-y[0] * y[0] / _FOUR_PI]

    for lo in (True, False):
        sel = taus < 1.0 if lo else taus > 1.0
        if not np.any(sel):
            continue
        end = math.log(np.min(taus[sel]) if lo else np.max(taus[sel]))
        sol = solve_ivp(rhs, (0.0, end), [lambda_mu], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        if not sol.success:
            raise FlowPoleError("flow integration failed (pole inside range?)",
                                tau_critical=math.exp(-_FOUR_PI / lambda_mu))
        out[sel] = sol.sol(np.log(taus[sel]))[0]
    return out


def flow_profile(lambda_mu: float, tau_min: float, tau_max: float, points: int,
                 ode_check: bool = True) -> FlowResult:
    """Flow sampled on a geometric tau grid, with an optional ODE cross-check.

    closed_form_residual is the worst relative gap between the closed form and
    a high-order integration of d lambda / d log tau = beta(lambda) from tau=1.
    """
    if not 0 < tau_min <= tau_max or points < 2:
        raise DomainError("need 0 < tau_min <= tau_max and at least two points")
    taus = np.geomspace(tau_min, tau_max, points)
    lams = np.array([flow_coupling(lambda_mu, float(t)) for t in taus])
    betas = -lams * lams / _FOUR_PI

    residual = 0.0
    if ode_check:
        ode_vals = ode_flow_values(lambda_mu, taus)
        residual = float(np.max(np.abs(ode_vals - lams) / lams))
    return FlowResult(taus, lams, betas, residual)


def rg_invariance_residual(curve: SampledCurve, E: float, m: float, mu: float,
                           lambda_R: float, tau: float,
                           cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                           manifold: ManifoldSpec = Euclidean3()) -> float:
    """Relative defect of the scaling identity

        Phi_R(mu, lambda(mu); tau m, tau E, curve/tau)
            = Phi_R(mu, lambda(tau mu); m, E, curve).

    Scaling the metric by tau^{-2} is realized by shrinking the curve by 1/tau;
    the energy and mass scale up by tau; the counterterm scale stays put and
    the coupling on the right runs to tau mu.  Zero for tau = 1 by identical
    evaluation.
    """
    if not 0.25 <= tau <= 4.0:
        # far scalings push tau*E, tau*m to domain edges where quadrature
        # error swamps the identity; keep the check inside [1/4, 4]
        raise DomainError("tau must lie in [1/4, 4]")
    lam_run = flow_coupling(lambda_R, tau)
    rhs = rg_assemble(curve, E, mu, lam_run, manifold, cfg, m=m)
    lhs = rg_assemble(curve.rescaled(1.0 / tau), tau * E, mu, lambda_R, manifold, cfg, m=tau * m)
    return abs(lhs - rhs) / abs(rhs)
