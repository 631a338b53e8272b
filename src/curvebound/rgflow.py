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

from .curves import SampledCurve
from .manifolds import DomainError, _check_count, circle_heat_kernel
from .principal import DEFAULT_QUADRATURE, QuadratureConfig, rg_assemble
from .quadrature import _gauss_laguerre, _leggauss

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
    closed_form_residual: float  # max of residuals
    residuals: np.ndarray  # per-point relative gap between closed form and ODE


def beta(lambda_R: float, L: float = 2.0 * math.pi,
         cfg: QuadratureConfig = DEFAULT_QUADRATURE, method: str = "quadrature") -> float:
    """Beta function of the coupling; negative for every positive coupling.

    method "closed_form" returns -lambda^2/(4 pi) directly; "quadrature" runs
    the four-fold integral with Gauss-Laguerre rules in t (cfg.t_nodes points,
    weight e^{-t}) and in the mapped diffusion time u = t^2/(4w)
    (cfg.u_nodes points, weight w^{-1/2} e^{-w}), and a kernel-width-adaptive
    Legendre rule in the relative angle.  Both Laguerre rules come from the
    Golub-Welsch eigenvalue method in NumPy, so they stay finite at any node
    count.
    """
    if not (0 < lambda_R < math.inf and 0 < L < math.inf):
        raise DomainError("beta needs a finite lambda_R > 0 and a finite L > 0")
    closed = -lambda_R * lambda_R / _FOUR_PI
    if method == "closed_form":
        return closed
    if method != "quadrature":
        raise DomainError(f"unknown beta method {method!r}")

    t_nodes, t_w = _gauss_laguerre(cfg.t_nodes, 0.0)   # weight e^{-t}
    w_nodes, w_w = _gauss_laguerre(cfg.u_nodes, -0.5)  # weight w^{-1/2} e^{-w}
    gx, gw = _leggauss(2 * cfg.u_nodes)

    # I = int dxi int dt t e^{-t} int du e^{-t^2/4u} u^{-3/2} K_u(xi).
    # Substituting u = t^2/(4w) maps the u-fold onto the w-weight above and
    # leaves the exact Jacobian factor 2/t, which is folded into the t-weight
    # (t e^{-t} times 2/t = 2 e^{-t}); a 1/t Laguerre integrand would converge
    # only algebraically.  J(u) = int_{-L/2}^{L/2} K_u(xi) dxi is evaluated on
    # xi = 2 sqrt(u) v with the v-range clipped at 7.5 kernel widths (or the
    # full half-period), so the xi-rule tracks the kernel's width at every u.
    # One kernel call covers every (t, w) node (rows) times its xi-rule.
    u = (t_nodes * t_nodes)[:, None] / (4.0 * w_nodes)
    su = np.sqrt(u)
    v_star = np.minimum(L / (4.0 * su), 7.5)
    xi = 2.0 * su[..., None] * (v_star[..., None] * gx)
    j = 2.0 * su * v_star * (circle_heat_kernel(u[..., None], xi, L) @ gw)
    total = t_w @ (2.0 * (j @ w_w))
    return -lambda_R * lambda_R / (8.0 * math.pi**1.5) * total


def flow_coupling(lambda_mu: float, tau: float) -> float:
    """lambda(tau mu) = lambda / (1 + (lambda/4 pi) log tau).

    The closed form is length independent.  Raises FlowPoleError at and
    below the pole scale tau* = exp(-4 pi / lambda).
    """
    if not (0 < lambda_mu < math.inf and 0 < tau < math.inf):
        raise DomainError("flow needs finite lambda > 0 and tau > 0")
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

    Independent of the closed form; used as its cross-check.  Classical RK4
    in s = log tau marches outward from s = 0 through the sorted targets on
    each side of tau = 1, with step h = min(1/256, 4 pi/(512 |lambda|)) at the
    current coupling, so a step never moves lambda by more than about 1/512
    of itself; the last step onto each target is shortened.  Raises
    DomainError on a non-finite coupling, and FlowPoleError when the march
    reaches the pole: the coupling turns non-finite or the step falls below
    the resolution of s.
    """
    if not math.isfinite(lambda_mu):
        raise DomainError("flow needs a finite coupling")
    taus = np.asarray(taus, dtype=float)
    if not np.all((taus > 0) & (taus < math.inf)):
        raise DomainError("tau values must be positive and finite")
    logs = np.log(taus)
    out = np.full(taus.shape, float(lambda_mu))

    def rhs(y):
        return -y * y / _FOUR_PI

    for sign in (-1.0, 1.0):
        side = np.flatnonzero(sign * logs > 0)
        s, y = 0.0, float(lambda_mu)
        for k in side[np.argsort(sign * logs[side])]:
            target = float(logs[k])
            while s != target:
                # min(1/256, 4 pi/(512 |y|)), written to stay finite at y = 0
                h_max = 1.0 / (256.0 * max(1.0, abs(y) / (2.0 * math.pi)))
                h = sign * min(abs(target - s), h_max)
                if not math.isfinite(y) or s + h == s:
                    raise FlowPoleError("flow integration hit the pole",
                                        tau_critical=math.exp(-_FOUR_PI / lambda_mu))
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                s = target if abs(target - s) <= abs(h) else s + h
            out[k] = y
    return out


def flow_profile(lambda_mu: float, tau_min: float, tau_max: float, points: int) -> FlowResult:
    """Flow sampled on a geometric tau grid, with an ODE cross-check.

    residuals are the relative gaps between the closed form and the RK4
    integration of d lambda / d log tau = beta(lambda) from tau = 1
    (ode_flow_values), about 1e-10 or less up to the pole;
    closed_form_residual is the worst of them.
    """
    if not 0 < tau_min <= tau_max < math.inf:
        raise DomainError("need 0 < tau_min <= tau_max < inf")
    _check_count("points", points, 2)
    taus = np.geomspace(tau_min, tau_max, points)
    lams = np.array([flow_coupling(lambda_mu, float(t)) for t in taus])
    betas = -lams * lams / _FOUR_PI
    residuals = np.abs(ode_flow_values(lambda_mu, taus) - lams) / lams
    return FlowResult(taus, lams, betas, float(np.max(residuals)), residuals)


def rg_invariance_residual(curve: SampledCurve, E: float, m: float, mu: float,
                           lambda_R: float, tau: float,
                           cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Relative defect of the scaling identity on Euclidean3

        Phi_R(mu, lambda(mu); tau m, tau E, curve/tau)
            = Phi_R(mu, lambda(tau mu); m, E, curve).

    Scaling the metric by tau^{-2} is realized by shrinking the curve by 1/tau;
    the energy and mass scale up by tau; the counterterm scale stays put and
    the coupling on the right runs to tau mu.  Zero for tau = 1 by identical
    evaluation.  Euclidean only: on a compact or curved manifold shrinking the
    curve alone is not a rescaling of the metric.
    """
    if not 0.25 <= tau <= 4.0:
        # far scalings push tau*E, tau*m to domain edges where quadrature
        # error swamps the identity; keep the check inside [1/4, 4]
        raise DomainError("tau must lie in [1/4, 4]")
    lam_run = flow_coupling(lambda_R, tau)
    rhs = rg_assemble(curve, E, mu, lam_run, cfg=cfg, m=m)
    lhs = rg_assemble(curve.rescaled(1.0 / tau), tau * E, mu, lambda_R, cfg=cfg, m=tau * m)
    return abs(lhs - rhs) / abs(rhs)
