"""Pair kernels from subordinated heat-kernel integrals.

Everything reduces to one-dimensional integrals over diffusion time u,

    G_plain(E; x, y)    = int_0^inf du  w_E(u)          K_u(x, y)
    G_ren(E, mu; x, y)  = int_0^inf du (w_mu - w_E)(u)  K_u(x, y)
    dG/dE(E; x, y)      = int_0^inf du  w'_E(u)         K_u(x, y)

where the Gaussian t-integral of the subordination representation has been
folded into the weight

    w_E(u) = (1/(2 sqrt pi)) e^{-m^2 u} int_0^inf dt e^{-t^2/4} e^{E t sqrt u}
           = (1/2) e^{-m^2 u} e^{E^2 u} erfc(-E sqrt u).

The weight is evaluated through erfcx in a sign-split form that stays finite
for any -m < E < m and any u (the naive product overflows once E^2 u > 700).
u-integration uses geometric panels with Gauss-Legendre nodes between a
boundary-layer floor ~ d^2/160 and an exponential-tail cap set by the
largest |energy| in play, and the error estimate is the defect of an
embedded half-order rule.

Only the weight depends on the energy.  A weighted sum of kernels over
point pairs, T(u) = sum_p c_p K_u(disp_p), is therefore evaluated once on
the u-rule nodes (``_HeatTrace``), and any energy's integral is the
contraction sum_u g(u) w(E, u) T(u) with the rule weights g.  The
boundary-layer floor applies per pair: the ladder starts at the closest
pair's floor, and a pair at distance d enters the sum only on the panels
that reach above its own floor d^2/160.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .manifolds import (
    DEFAULT_SERIES,
    DomainError,
    Euclidean3,
    KernelSeriesConfig,
    ManifoldSpec,
    displacement_distance,
    heat_kernel_grid,
    pair_displacement,
)

_SQRT_PI = math.sqrt(math.pi)

# e^{-d^2/4u} < 4e-18 for u < d^2/BOUNDARY_LAYER: a pair at distance d is
# negligible below that floor
BOUNDARY_LAYER = 160.0


@dataclass(frozen=True)
class SingWindowConfig:
    """Near-diagonal curve-quadrature window (xi = delta e^{-w} substitution)."""

    log_depth: float = 24.0
    log_nodes: int = 20
    far_panel_ratio: float = 5.0
    far_nodes: int = 24

    def __post_init__(self):
        if self.log_depth <= 0:
            raise DomainError("log_depth must be positive")
        if self.log_nodes < 4:
            raise DomainError("log_nodes must be at least 4")
        if self.far_panel_ratio <= 1:
            raise DomainError("far_panel_ratio must exceed 1")
        if self.far_nodes < 4:
            raise DomainError("far_nodes must be at least 4")


@dataclass(frozen=True)
class QuadratureConfig:
    t_nodes: int = 32
    u_nodes: int = 24
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    panel_ratio: float = 4.0
    sing_window: SingWindowConfig = field(default_factory=SingWindowConfig)
    series: KernelSeriesConfig = field(default_factory=lambda: DEFAULT_SERIES)

    def __post_init__(self):
        if self.t_nodes < 16:
            raise DomainError("t_nodes must be at least 16")
        if self.u_nodes < 16:
            raise DomainError("u_nodes must be at least 16")
        if self.rel_tol <= 0:
            raise DomainError("rel_tol must be positive")
        if self.abs_tol <= 0:
            raise DomainError("abs_tol must be positive")
        if self.panel_ratio <= 1:
            raise DomainError("panel_ratio must exceed 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class PairKernelValue:
    value: float
    err_estimate: float


# ---------------------------------------------------------------------------
# subordination weights, overflow-safe


def weight_plain(u, E, m):
    """w_E(u): the Gaussian t-integral folded with e^{-m^2 u}."""
    u = np.asarray(u, dtype=float)
    z = abs(E) * np.sqrt(u)
    if E >= 0:
        return np.exp(-(m * m - E * E) * u) - 0.5 * np.exp(-m * m * u) * special.erfcx(z)
    return 0.5 * np.exp(-m * m * u) * special.erfcx(z)


def weight_renormalized(u, E, mu, m):
    return weight_plain(u, mu, m) - weight_plain(u, E, m)


def _g_tail(z):
    """1/sqrt(pi) - z erfcx(z), stable for large z via the asymptotic series."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    small = z <= 10.0
    out[small] = 1.0 / _SQRT_PI - z[small] * special.erfcx(z[small])
    zb = z[~small]
    iz2 = 1.0 / (zb * zb)
    s = 0.5 * iz2 * (1.0 - iz2 * (1.5 - iz2 * (3.75 - iz2 * (13.125 - iz2 * 59.0625))))
    out[~small] = s / _SQRT_PI
    return out


def weight_derivative(u, E, m):
    """w'_E(u) = d w_E / dE; strictly positive on -m < E < m."""
    u = np.asarray(u, dtype=float)
    su = np.sqrt(u)
    if E >= 0:
        return 2.0 * E * u * weight_plain(u, E, m) + su / _SQRT_PI * np.exp(-m * m * u)
    # E < 0: w' = e^{-m^2 u} sqrt(u) (1/sqrt(pi) - |E| sqrt(u) erfcx(|E| sqrt u))
    return np.exp(-m * m * u) * su * _g_tail(-E * su)


# ---------------------------------------------------------------------------
# u-grids


@lru_cache(maxsize=64)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(a, b, n):
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def u_panel_breaks(d_min, m, e_max, cfg: QuadratureConfig):
    """Geometric panel breakpoints covering the boundary layer and the tail.

    The smallest pair distance sets the floor d_min^2/BOUNDARY_LAYER (larger
    pairs are cut at their own floor by ``_HeatTrace``); e_max, the largest
    |energy| whose weight the rule must carry, sets the cap
    45/(m^2 - e_max^2).  The ladder steps by exactly panel_ratio from a floor
    that does not depend on e_max, so the ladder for a smaller e_max is a
    prefix of the one for a larger e_max.
    """
    u_top = 45.0 / (m * m - e_max * e_max)
    u_floor = d_min * d_min / BOUNDARY_LAYER if d_min > 0 else 1e-26 * 45.0 / (m * m)
    u_floor = min(u_floor, 45.0 / (m * m * cfg.panel_ratio**2))
    n_panels = max(2, int(math.ceil(math.log(u_top / u_floor) / math.log(cfg.panel_ratio))))
    return u_floor * cfg.panel_ratio ** np.arange(n_panels + 1)


class _HeatTrace:
    """Energy-independent heat trace T(u) = sum_p c_p K_u(disp_p) of one entry.

    T is held per node of the full and of the embedded half-order u-rule on
    the panels of u_panel_breaks (plus, with tail, an algebraic panel
    u = u_top/s^2 out to infinity), one column per coefficient vector.  Every
    diffusion-time integral sum_p c_p int du w(u) K_u(disp_p) is then the
    contraction of T with the rule weights times w.

    The pairs are sorted by their distance dist once; the ladder starts at
    the floor of the closest one, and on a panel [a, b] only the prefix of
    pairs with d^2 < BOUNDARY_LAYER b is evaluated (the tail panel takes
    all).  What a cut pair would add is its kernel below its own floor: a
    Gamma(1/2, 40) ~ 4e-19 share of its integral in Euclidean space, less on
    Hyperbolic3 (rho/sinh rho <= 1, e^{-u/a^2} <= 1), and on FlatTorus3 a
    sum of such Euclidean terms over images that are each at least as far
    as the minimum image d (two per axis come near d while u < L_j^2/(4 pi)).

    kernel(u, disp) returns the (len(u), len(disp)) kernel block; it is
    called one panel at a time, on the first contraction, so a trace that is
    never needed costs nothing.
    """

    def __init__(self, kernel, disp, dist, coeffs, m, e_max, cfg: QuadratureConfig,
                 tail=False):
        order = np.argsort(dist, kind="stable")
        d = np.asarray(dist, dtype=float)[order]
        breaks = u_panel_breaks(float(d[0]), m, e_max, cfg)
        self._build = (kernel, np.asarray(disp)[order], d * d,
                       np.atleast_2d(coeffs).T[order], breaks, cfg, tail)

    @cached_property
    def rules(self):
        """(u nodes, rule weights, T) for the full and the half-order rule."""
        kernel, disp, d2, coeffs, breaks, cfg, tail = self._build
        active = np.searchsorted(d2, BOUNDARY_LAYER * breaks[1:]).tolist()
        if tail:
            active.append(len(d2))
        rules = []
        for n in (cfg.u_nodes, max(8, cfg.u_nodes // 2)):
            panels = [_panel_nodes(a, b, n) for a, b in zip(breaks[:-1], breaks[1:])]
            if tail:
                s, w = _panel_nodes(0.0, 1.0, n)
                panels.append((breaks[-1] / s**2, w * 2.0 * breaks[-1] / s**3))
            trace = np.concatenate([kernel(u, disp[:k]) @ coeffs[:k]
                                    for (u, _), k in zip(panels, active)])
            rules.append((np.concatenate([u for u, _ in panels]),
                          np.concatenate([w for _, w in panels]), trace))
        return rules

    def integrate(self, weight):
        """[full, half] rule values of int du weight(u) T(u), a column per coefficient vector."""
        return np.array([(w * weight(u)) @ trace for u, w, trace in self.rules])


def _ambient_trace(manifold: ManifoldSpec, disp, coeffs, m, e_max, cfg: QuadratureConfig):
    """_HeatTrace of the manifold's heat kernel over a pair_displacement batch."""
    return _HeatTrace(lambda u, d: heat_kernel_grid(manifold, u, d, cfg.series), disp,
                      displacement_distance(manifold, disp), coeffs, m, e_max, cfg)


# ---------------------------------------------------------------------------
# public scalar pair kernels


def _check_pair_domain(E, m, mu=None):
    if m <= 0:
        raise DomainError("mass must be positive")
    if not -m < E < m:
        raise DomainError(f"energy must lie in (-m, m), got {E}")
    if mu is not None and not -m < mu < m:
        raise DomainError(f"mu must lie in (-m, m), got {mu}")


def _pair_integral(weight, x, y, m, e_max, manifold, cfg, distinct=None):
    """(value, half-order defect, distance) of int du weight(u) K_u(x, y).

    distinct names the kernel for the DomainError raised at coincidence.
    """
    disp = pair_displacement(manifold, np.atleast_2d(x), np.atleast_2d(y))
    d = float(displacement_distance(manifold, disp)[0])
    if distinct and d <= 0:
        raise DomainError(f"{distinct} pair kernel requires distinct points")
    full, half = _ambient_trace(manifold, disp, 1.0, m, e_max, cfg).integrate(weight)[:, 0]
    return full, abs(full - half), d


def pair_kernel_plain(E, x, y, m, manifold: ManifoldSpec = Euclidean3(),
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> PairKernelValue:
    """Subordinated free-resolvent pair kernel G_plain(E; x, y), x != y."""
    _check_pair_domain(E, m)
    v, e, _ = _pair_integral(lambda u: weight_plain(u, E, m), x, y, m, abs(E), manifold, cfg,
                             "plain")
    return PairKernelValue(float(v), float(e))


def pair_kernel_renormalized(E, mu, x, y, m, manifold: ManifoldSpec = Euclidean3(),
                             cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> PairKernelValue:
    """Renormalized difference kernel; zero at E = mu, sign(mu - E) otherwise.

    Coincident points are admitted: the u-grid floor then regulates the
    log-divergent continuum value, and the error estimate is set to the
    truncated magnitude so downstream code cannot mistake it for converged.
    """
    _check_pair_domain(E, m, mu)
    if E == mu:
        return PairKernelValue(0.0, 0.0)
    v, e, d = _pair_integral(lambda u: weight_renormalized(u, E, mu, m), x, y, m,
                             max(abs(E), abs(mu)), manifold, cfg)
    if d == 0.0:
        e = max(e, abs(v))
    return PairKernelValue(float(v), float(e))


def pair_kernel_derivative(E, x, y, m, manifold: ManifoldSpec = Euclidean3(),
                           cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> PairKernelValue:
    """Energy derivative dG_plain/dE; strictly positive on the domain."""
    _check_pair_domain(E, m)
    v, e, _ = _pair_integral(lambda u: weight_derivative(u, E, m), x, y, m, abs(E), manifold,
                             cfg, "derivative")
    return PairKernelValue(float(v), float(e))


# ---------------------------------------------------------------------------
# independent momentum-space oracle (flat space only)


def flat_resolvent_oracle(E: float, d: float, m: float = 1.0) -> float:
    """R(E; d) = (1/4 pi^2 d) int_0^inf dk k sin(kd) / (omega (omega - E)).

    Evaluated through the exact rearrangement (partial fractions in omega,
    then a Stieltjes representation of 1/omega):

        R = (1/4 pi^2 d) [ (pi/2)(1 + sgn E) e^{-kappa d}
                           - sgn(E) int_0^{pi/2} e^{-d sqrt(m^2 + E^2 tan^2 p)} dp ],

    kappa = sqrt(m^2 - E^2).  No oscillatory integral remains, so the result
    carries quadrature error ~1e-12.  At E = 0 this is e^{-m d}/(8 pi d).
    """
    _check_pair_domain(E, m)
    if d <= 0:
        raise DomainError("oracle requires d > 0")
    if E == 0.0:
        return math.exp(-m * d) / (8.0 * math.pi * d)
    from scipy.integrate import quad  # deferred: only the oracle needs it

    def integrand(p):
        t = math.tan(p)
        arg = d * math.hypot(m, E * t)
        return math.exp(-arg) if arg < 700.0 else 0.0

    j, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    kappa = math.sqrt(m * m - E * E)
    sgn = 1.0 if E > 0 else -1.0
    val = 0.5 * math.pi * (1.0 + sgn) * math.exp(-kappa * d) - sgn * j
    return val / (4.0 * math.pi**2 * d)
