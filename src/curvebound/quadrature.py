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
erfcx is Weideman's rational expansion of the Faddeeva function on the real
axis (J. A. C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497), in NumPy.
u-integration covers geometric panels between a boundary-layer floor
~ d^2/160 and an exponential-tail cap set by the largest |energy| in play,
by the plain trapezoid rule in t = log u: each integrand u w(u) K_u(d) is
analytic in the strip |Im t| < pi/2 and decays doubly exponentially at both
ends, so the rule converges like e^{-pi^2/h} (Trefethen and Weideman, SIAM
Rev. 56 (2014) 385).  The panels hold one uniform grid in t, 8 nodes per
ratio-4 panel at the default h = 0.173, and the error estimate is the
defect of the same rule on the even nodes, of step 2h.  The flow
prescription's counterterm, whose weight decays only like u^{-3/2}, keeps
Gauss-Legendre panels, a full and a half-order rule, and an algebraic tail
panel out to infinity: the trapezoid rule needs an integrand that vanishes
at both ends of its grid.

Only the weight depends on the energy.  A weighted sum of kernels over
point pairs, T(u) = sum_p c_p K_u(disp_p), is therefore evaluated once on
the u-rule nodes (``_HeatTrace``), and any energy's integral is the
contraction sum_u g(u) w(E, u) T(u) with the rule weights g.  A trace holds
its rules as (u, G, T): the nodes of both rules in one vector, their
weights as the two rows of G (each 0 where its rule has no node) and T a
row per node, so both rules' integrals are (G * w(u)) @ T.  The
boundary-layer floor applies per pair: the ladder starts at the closest
pair's floor, and a pair at distance d enters the sum only on the panels
that reach above its own floor d^2/160.  A trace appends panels when an
energy needs a longer ladder, and each integral contracts exactly the
ladder of its own energies.  What the kernel block depends on is built once:
the pair factors (manifolds.kernel_geometry) once per trace, the u factors
(manifolds.kernel_rows) once per ladder extension, over the nodes of all its
new panels; each panel is then one kernel call on its slice and prefix.

On Euclidean3 and Hyperbolic3 a trace's closest pairs share one near band.
On a panel [a, b], every pair with d^2 - D0 <= PROXY_SPREAD a (D0 the
closest pair's d^2) has e^{-d^2/4u} within 1.1e-17 relative of its
interpolant at the PROXY_NODES = 16 Chebyshev points of
[D0, D0 + PROXY_SPREAD a], so their share of T(u) is the kernel at 16 proxy
pairs times fixed coefficients (the separable expansion of the fast Gauss
transform).  The band only grows, as the panels' a rises, and is built
once per trace: each growth re-interpolates the old proxies and absorbs the
new pairs alone.  Each panel is one kernel call on the proxies and the
active pairs beyond the band; once the band holds every pair, on the 16
proxies alone.  Traces on a flat torus evaluate every active pair: those
on FlatTorus3, and the flow prescription's counterterm traces, which run on
a curve's own circle (manifolds._IntrinsicCircle) like any other manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .manifolds import (
    GAUSSIAN_TAIL,
    DomainError,
    Euclidean3,
    KernelGeometry,
    ManifoldSpec,
    _check_count,
    displacement_distance,
    heat_kernel_grid,
    kernel_geometry,
    kernel_rows,
    pair_displacement,
)

_SQRT_PI = math.sqrt(math.pi)

# e^{-d^2/4u} < e^-GAUSSIAN_TAIL for u < d^2/BOUNDARY_LAYER: a pair at
# distance d is negligible below that floor
BOUNDARY_LAYER = 4.0 * GAUSSIAN_TAIL

# Near bands.  A radial kernel depends on a pair through e^{h(d)} e^{-x/4u},
# x = d^2 (h = log(rho/sinh rho) on Hyperbolic3, else 0).  For u >= a,
# f(x) = e^{-x/4u} is entire, and its interpolant at the PROXY_NODES = n
# Chebyshev points of the first kind on a band [D0, D1] is off by at most
# 2^{1-n} ((D1 - D0)/2)^n max|f^(n)|/n! there (Trefethen, Approximation
# Theory and Approximation Practice, SIAM 2013, ch. 11 and 15).  Relative to
# a pair's own e^{-x/4u} >= e^{-D1/4u}, and with z = (D1 - D0)/(8u), that is
# at most 2 (z/2)^n/n! e^{2z}: below 1.1e-17 for n = 16 wherever
# D1 - D0 <= PROXY_SPREAD a, so z <= 1.  A trace's band is
# [D0, D0 + PROXY_SPREAD a_b], D0 its closest pair's d^2 and a_b the start
# of the panel that last grew it; every later panel has u >= a_b, so the
# bound holds for every pair in the band.  The band's share of T(u) is the
# kernel at n proxy pairs times fixed coefficients W, the separable
# expansion of the fast Gauss transform (Greengard and Strain, SIAM J. Sci.
# Stat. Comput. 12, 1991).  Growing the band re-interpolates: the new W is
# the new basis at the old proxies times the old W, plus the new basis at
# the absorbed pairs times their coefficients.  The old band lies inside
# the new one, and interpolation at n points reproduces every polynomial of
# degree n - 1, the new basis functions included, so the grown W equals a
# build from scratch over all the band's pairs, up to rounding; the basis
# costs O(n x pairs) per trace, not per panel.
PROXY_NODES = 16
PROXY_SPREAD = 8.0

# The fewest new pairs a growth of the near band absorbs, unless it absorbs
# the last ones: a growth costs a basis over its new pairs and a fixed
# ~25 us, which the kernel values it saves on later panels must pay back.
# Measured on the benchmark's inprocess parts (12 jobs, seeds 77001 and
# 140001, CPU time, best of 7 interleaved runs, 2-core x86 VM), gates 16,
# 64, 128, 256, 512, 1024 took 9.20, 9.17, 9.18, 8.79, 9.26, 9.95 ms on
# the polyline part (14.03 with growth only to all pairs), 17.2, 15.8,
# 16.5, 15.7, 15.5, 15.9 ms on solve and 6.39, 6.26, 6.21, 5.82, 6.11,
# 5.89 ms on hyperbolic.
BAND_GROWTH = 256


@dataclass(frozen=True)
class SingWindowConfig:
    """Near-diagonal curve-quadrature window (xi = delta e^{-w} substitution)."""

    log_depth: float = 24.0
    log_nodes: int = 20
    far_panel_ratio: float = 5.0
    far_nodes: int = 24

    def __post_init__(self):
        if not 0 < self.log_depth < math.inf:
            raise DomainError("log_depth must be positive and finite")
        _check_count("log_nodes", self.log_nodes, 4)
        if not self.far_panel_ratio > 1:
            raise DomainError("far_panel_ratio must exceed 1")
        _check_count("far_nodes", self.far_nodes, 4)


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature settings.

    u_nodes sets the step of the trapezoid rule in t = log u: u_nodes steps
    span a factor 64 of u (h0 = 3 ln 4/u_nodes), and each u-panel [a, a r],
    r = panel_ratio, holds the even count n nearest ln(r)/h0 of them, so the
    step is ln(r)/n: n = 8 and h = 0.173 at the defaults, n = 10 and
    h = 0.139 at u_nodes = 32.  The counterterm traces of the flow
    prescription take u_nodes Gauss-Legendre nodes per panel and
    max(8, u_nodes/2) for their half-order rule.  panel_ratio is the ratio
    of each u-panel, the unit on which pairs are pruned and the ladder
    grows.  rgflow.beta's Gauss-Laguerre rules take t_nodes and u_nodes
    nodes.  rel_tol and abs_tol bound the accepted error estimate, and
    sing_window sets the near-diagonal curve rule.
    """

    t_nodes: int = 32
    u_nodes: int = 24
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    panel_ratio: float = 4.0
    sing_window: SingWindowConfig = field(default_factory=SingWindowConfig)

    def __post_init__(self):
        _check_count("t_nodes", self.t_nodes, 16)
        _check_count("u_nodes", self.u_nodes, 16)
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if not 1 < self.panel_ratio < math.inf:
            raise DomainError("panel_ratio must exceed 1 and be finite")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class PairKernelValue:
    value: float
    err_estimate: float


# ---------------------------------------------------------------------------
# subordination weights, overflow-safe


@lru_cache(maxsize=1)
def _erfcx_coefficients():
    """(L, C): the n = 40 coefficients of p in Weideman's erfcx, C[j, k] that of Z^(8j + k).

    They are a real DFT of e^{-t^2}(L^2 + t^2) at t = L tan(k pi/4n), |k| < 2n.
    Read-only, since the cached array is shared.
    """
    n, block = 40, 8
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - 2 * n, 2 * n) * (math.pi / (4 * n)))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (4 * n)
    coeffs = a[1:n + 1].reshape(-1, block)
    coeffs.flags.writeable = False
    return L, coeffs


def _erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    erfcx(x) = (2 p(Z)/(L + x) + 1/sqrt(pi))/(L + x),  Z = (L - x)/(L + x),
    with p the degree-39 polynomial of _erfcx_coefficients.  p is summed in
    blocks: the powers Z^0..Z^7, one matrix product for the five blocks of
    eight coefficients, then Horner in Z^8 over the blocks.  Relative error
    below 1e-15 on [0, 1e8].
    """
    L, coeffs = _erfcx_coefficients()
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    s = L + flat
    z = (L - flat) / s
    powers = np.empty((coeffs.shape[1], z.size))
    powers[0] = 1.0
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], z, out=powers[k])
    blocks = coeffs @ powers
    z *= powers[-1]  # Z^8
    p = blocks[-1]
    for row in blocks[-2::-1]:
        p *= z
        p += row
    return ((2.0 * p / s + 1.0 / _SQRT_PI) / s).reshape(x.shape)


def weight_plain(u, E, m):
    """w_E(u): the Gaussian t-integral folded with e^{-m^2 u}."""
    u = np.asarray(u, dtype=float)
    z = abs(E) * np.sqrt(u)
    if E >= 0:
        return np.exp(-(m * m - E * E) * u) - 0.5 * np.exp(-m * m * u) * _erfcx(z)
    return 0.5 * np.exp(-m * m * u) * _erfcx(z)


def weight_renormalized(u, E, mu, m):
    return weight_plain(u, mu, m) - weight_plain(u, E, m)


def _g_tail(z):
    """1/sqrt(pi) - z erfcx(z), without the cancellation of that form for large z.

    Above z = 4 it is R/(sqrt(pi) (z + R)) with R = (1/2)/(z + 1/(z + (3/2)/(z + ...))),
    Laplace's continued fraction for sqrt(pi) erfcx(z) = 1/(z + R) (Abramowitz
    and Stegun 7.1.14), summed backward from 20 terms: within 3e-15 relative.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    small = z <= 4.0
    out[small] = 1.0 / _SQRT_PI - z[small] * _erfcx(z[small])
    zb = z[~small]
    r = np.zeros(zb.shape)
    for k in range(20, 0, -1):
        r = 0.5 * k / (zb + r)
    out[~small] = r / (_SQRT_PI * (zb + r))
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


@lru_cache(maxsize=8)
def _gauss_laguerre(n, alpha):
    """n-point Gauss rule for the weight x^alpha e^{-x} on (0, inf), alpha > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    generalized Laguerre recurrence, and each weight is Gamma(alpha + 1)
    times the squared first component of its eigenvector.  Finite at any n,
    where rules that evaluate the polynomials turn NaN (the nodes of scipy's
    roots_genlaguerre at n = 400, the weights of numpy's laggauss at
    n = 200).  Weights below about 1e-16 of the largest carry only absolute
    accuracy.  The arrays are shared between callers and so read-only.
    """
    k = np.arange(n, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = math.gamma(alpha + 1.0) * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_panels(a, b, n):
    """n-point Gauss-Legendre nodes mid + half x and weights half w on each
    panel [a, b], mid = (a + b)/2 and half = (b - a)/2: a row per panel for
    arrays a and b, a single row for scalars."""
    x, w = _leggauss(n)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = (0.5 * (a + b))[..., None], (0.5 * (b - a))[..., None]
    return mid + half * x, half * w


# ln 64: u_nodes trapezoid steps in log u span a factor 64 of u, three
# ratio-4 panels
_LOG_U_SPAN = 3.0 * math.log(4.0)


def _log_trapezoid(cfg: QuadratureConfig):
    """(x, g) of the trapezoid rule in t = log u on a panel [a, a r], r =
    panel_ratio, as nodes a x and weights a g: n steps of h = ln(r)/n, n the
    even count nearest ln(r)/h0 with h0 = _LOG_U_SPAN/u_nodes (at least 2),
    x_k = e^{kh} for k = 0..n-1; g[0] = h x (du = u dt), and g[1] = 2 h x on
    even k and 0 on odd k, the rule of step 2h on the even nodes.  The
    panels of u_panel_breaks step by exactly r, so a ladder's nodes are one
    uniform grid in t and its half rule is that grid's even nodes.
    """
    n = 2 * max(1, round(math.log(cfg.panel_ratio) * cfg.u_nodes / (2.0 * _LOG_U_SPAN)))
    h = math.log(cfg.panel_ratio) / n
    x = np.exp(h * np.arange(n))
    g = np.outer([h, 2.0 * h], x)
    g[1, 1::2] = 0.0
    return x, g


def _gauss_pair(cfg: QuadratureConfig):
    """(x, g): the u_nodes-point Gauss-Legendre nodes on [-1, 1], then the
    max(8, u_nodes/2) of the half-order rule, and their weights as two rows,
    each 0 on the other rule's nodes."""
    (x, w), (y, v) = _leggauss(cfg.u_nodes), _leggauss(max(8, cfg.u_nodes // 2))
    g = np.zeros((2, len(x) + len(y)))
    g[0, :len(x)], g[1, len(x):] = w, v
    return np.concatenate([x, y]), g


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


# the n = PROXY_NODES Chebyshev points of the first kind on [-1, 1],
# cos(theta_k), theta_k = (2k + 1) pi/(2n), and their barycentric weights
# (-1)^k sin(theta_k)
_THETA = (2.0 * np.arange(PROXY_NODES) + 1.0) * (math.pi / (2.0 * PROXY_NODES))
_CHEBYSHEV_COS = np.cos(_THETA)
_CHEBYSHEV_WEIGHTS = np.where(np.arange(PROXY_NODES) % 2, -1.0, 1.0) * np.sin(_THETA)


def _chebyshev_proxies(lo, hi, x, c):
    """(nodes, W): the PROXY_NODES Chebyshev points of the first kind on
    [lo, hi], and W = Lambda c, with Lambda[k, p] the barycentric Lagrange
    basis function of node k at x[p], so that sum_p c[p] f(x[p]) is
    sum_k W[k] f(nodes[k]) for every polynomial f of degree < PROXY_NODES.

    Lambda[k, p] = (w_k/(x_p - node_k))/total_p, total_p = sum_k w_k/(x_p - node_k);
    the division by total_p is made on c, a point at a node carries its c there.
    """
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEBYSHEV_COS
    w = _CHEBYSHEV_WEIGHTS
    with np.errstate(divide="ignore", invalid="ignore"):  # x at a node: fixed below
        inv = np.subtract(x, nodes[:, None])
        np.divide(1.0, inv, out=inv)
        total = w @ inv
    hit = ~np.isfinite(total)
    if not hit.any():
        return nodes, w[:, None] * (inv @ (c / total[:, None]))
    inv[:, hit], total[hit] = 0.0, 1.0
    return nodes, w[:, None] * (inv @ (c / total[:, None])) + (x[hit] == nodes[:, None]) @ c[hit]


class _HeatTrace:
    """Energy-independent heat trace T(u) = sum_p c_p K_u(disp_p) of one entry,
    K the heat kernel of manifold and disp a displacement batch on it.

    T is held on the nodes of both u-rules, the full and the half-order one,
    on the panels of u_panel_breaks, one column per coefficient vector.
    Without tail, the rule is the trapezoid rule in t = log u
    (_log_trapezoid): a panel [a, a r] holds the n nodes a e^{kh}, k < n, so
    the ladder is the one grid t_floor + k h, and the half rule, of step 2h,
    is its even nodes.  With tail (the counterterm, whose weight decays only
    like u^{-3/2}), each panel holds the nodes of two Gauss-Legendre rules
    (_gauss_pair), the full rule's first, and the ladder ends in an
    algebraic panel u = u_top/s^2 out to infinity.  The rules are three
    arrays: u, every node of both rules, panel-major; G, a (2, len(u))
    matrix whose row 0 holds the full rule's weights and row 1 the half
    rule's (0 where that rule has no node); and T, a row per node.  Every
    diffusion-time integral sum_p c_p int du w(u) K_u(disp_p), by both rules
    at once, is then (G * w(u)) @ T.

    The pairs are sorted by their distance once; the ladder starts at
    the floor of the closest one, and on a panel [a, b] only the prefix of
    pairs with d^2 < BOUNDARY_LAYER b is evaluated (the tail panel takes
    all).  What a cut pair would add is its kernel below its own floor: a
    Gamma(1/2, 40) ~ 4e-19 share of its integral in Euclidean space, less on
    Hyperbolic3 (rho/sinh rho <= 1, e^{-u/a^2} <= 1), and on a flat torus
    (FlatTorus3, or a curve's own circle) a sum of such Euclidean terms over
    images that are each at least as far as the minimum image d (two per
    axis come near d while u < L_j^2/(4 pi)).

    A radial trace (its KernelGeometry has no torus axes) of more than
    PROXY_NODES pairs evaluates the pairs of its near band on PROXY_NODES
    proxy pairs (see PROXY_NODES for the error bound).  The band holds the
    first j pairs, those with d^2 - D0 <= PROXY_SPREAD a_b; a panel from a
    grows it (_grow_band) when its active pairs within PROXY_SPREAD a of D0
    are BAND_GROWTH more than j, or are all the pairs.  The panel is then
    one kernel call on the proxies and pairs j to k, the proxies stored in
    the PROXY_NODES columns ahead of pair j, so a panel takes one slice of
    the trace's columns and coefficients.

    The ladder grows on demand: rules(m, e_max) evaluates only the panels
    that the ladder for e_max has beyond those already held, and returns
    exactly that ladder, so a result never depends on which larger ladders
    were asked for before: prefix views of the held arrays, and with tail
    that prefix joined to the ladder's own tail panel (kept per ladder).  A
    trace serves one mass m.  It builds the kernel_geometry of its sorted
    displacements once, before the first panel, and the kernel_rows of the
    u nodes once per ladder extension, over all its new panels (and once per
    tail panel); each new panel is one heat_kernel_grid call on its own
    slice of the rows and a slice of the geometry.  A trace that is never
    contracted costs nothing.
    """

    def __init__(self, manifold, disp, coeffs, cfg: QuadratureConfig, tail=False):
        dist = displacement_distance(manifold, disp)
        order = np.argsort(dist, kind="stable")
        d = np.asarray(dist, dtype=float)[order]
        self._d_min, self._d2 = float(d[0]), d * d
        self._manifold, self._disp = manifold, np.asarray(disp)[order]
        self._coeffs = np.atleast_2d(coeffs).T[order]
        self._cfg, self._tail = cfg, tail
        # one panel's nodes x and their weights g as two rows, the full rule's
        # and the half rule's: a panel [a, b] maps them to shift + scale x and
        # scale g (see rules)
        self._x, self._g = _gauss_pair(cfg) if tail else _log_trapezoid(cfg)
        # (u, G, T) of the held panels
        self._held = np.empty(0), np.empty((2, 0)), np.empty((0, self._coeffs.shape[1]))
        self._ladders = {}  # with tail: panel count -> the rules() of that ladder
        self._pair0 = None  # the column of pair 0, once the geometry is built
        self._band = 0  # the pairs in the near band
        self._grow_at = (math.inf, 0.0)  # (k, d^2 - D0) from which a panel grows the band

    def _grow_band(self, k, a):
        """Absorb into the near band, on a panel from a with k active pairs,
        the active pairs with d^2 - D0 <= PROXY_SPREAD a.

        The new W is the basis on [D0, D0 + PROXY_SPREAD a] at the old
        proxies times the old W, plus the basis at the absorbed pairs times
        their coefficients (e^h folded in): a from-scratch build over the
        band's pairs, to rounding (see PROXY_NODES).  The proxies take the
        PROXY_NODES columns ahead of the first pair outside the band.
        """
        j = self._band
        grown = min(k, int(self._spread.searchsorted(PROXY_SPREAD * a, side="right")))
        rows, coeffs = self._disp.rows, self._coeffs
        span = slice(j or PROXY_NODES, PROXY_NODES + grown)  # the old proxies and the new pairs
        nodes, W = _chebyshev_proxies(self._d2[0], self._d2[0] + PROXY_SPREAD * a, rows[0, span],
                                      coeffs[span] * np.exp(rows[2:, span].sum(axis=0))[:, None])
        proxies = slice(grown, grown + PROXY_NODES)
        rows[:, proxies] = 0.0
        rows[0, proxies], rows[1, proxies], coeffs[proxies] = nodes, 1.0, W
        self._band = grown
        self._next_growth()

    def _next_growth(self):
        """Set _grow_at: a panel from a grows the band iff it has at least m
        active pairs and pair m - 1 lies within PROXY_SPREAD a of D0, m the
        band's pairs and BAND_GROWTH more, or all pairs if fewer."""
        j, n = self._band, len(self._d2)
        m = min(j + BAND_GROWTH, n)
        self._grow_at = (m, self._spread[m - 1]) if j < n else (math.inf, 0.0)

    def _prepare(self):
        """Before the first panel: the KernelGeometry, and on a radial trace
        (one without torus axes) of more than PROXY_NODES pairs PROXY_NODES
        free columns ahead of its pairs, in the geometry and the
        coefficients, for the near band's proxies."""
        g = self._disp = kernel_geometry(self._manifold, self._disp)
        n = len(self._d2)
        self._pair0 = 0
        if g.xi is None and n > PROXY_NODES:
            self._pair0, self._spread = PROXY_NODES, self._d2 - self._d2[0]
            padded = np.zeros((len(g.rows), PROXY_NODES + n))
            padded[:, PROXY_NODES:] = g.rows
            self._disp = KernelGeometry(padded)
            self._coeffs = np.vstack([np.zeros((PROXY_NODES, self._coeffs.shape[1])),
                                      self._coeffs])
            self._next_growth()

    def _panel(self, rows, k, a):
        """T of one panel from a: one kernel call over rows, the KernelRows of
        the panel's nodes, and the k closest pairs, those in the near band by
        its proxies.  Panels come in ascending order."""
        if self._pair0 is None:
            self._prepare()
        if k >= self._grow_at[0] and PROXY_SPREAD * a >= self._grow_at[1]:
            self._grow_band(k, a)
        # the band's proxies, if any, then the active pairs beyond it
        g, coeffs = self._disp, self._coeffs
        first, end = self._band or self._pair0, self._pair0 + k
        if first or end < len(coeffs):
            g = g[first:end]
        return heat_kernel_grid(self._manifold, rows, g) @ coeffs[first:end]

    def _evaluate(self, u, G, starts, active):
        """(u, G, T) of the panels from starts, with active pairs each, u and
        G a row per panel: one kernel_rows call for all of them, then one
        kernel call per panel."""
        rows, width = kernel_rows(self._manifold, u.ravel()), u.shape[-1]
        T = np.vstack([self._panel(rows[p * width:(p + 1) * width], k, lo)
                       for p, (lo, k) in enumerate(zip(starts, active))])
        return u.ravel(), G.reshape(2, -1), T

    def rules(self, m, e_max):
        """(u, G, T) of the ladder that carries the weights of energies up to e_max."""
        breaks = u_panel_breaks(self._d_min, m, e_max, self._cfg)
        n = len(breaks) - 1
        if n in self._ladders:
            return self._ladders[n]
        held, end = len(self._held[0]) // len(self._x), n * len(self._x)
        a, b = breaks[held:-1], breaks[held + 1:]
        if len(a):
            if self._tail:  # [-1, 1] onto each new panel [a, b], as gauss_panels does
                shift, scale = (0.5 * (a + b))[:, None], (0.5 * (b - a))[:, None]
            else:  # the trapezoid nodes e^{kh} on [1, r) times a
                shift, scale = 0.0, a[:, None]
            active = np.searchsorted(self._d2, BOUNDARY_LAYER * b).tolist()
            self._held = _join(self._held, self._evaluate(
                shift + scale * self._x, scale * self._g[:, None], a.tolist(), active))
        u, G, T = self._held
        ladder = u[:end], G[:, :end], T[:end]
        # with tail, the ladder's own algebraic panel u = u_top/s^2, s in (0, 1]:
        # du = 2 u_top ds/s^3, and the rules' weights on [0, 1] are g/2
        if self._tail:
            u_top, s = breaks[-1], 0.5 + 0.5 * self._x
            self._ladders[n] = ladder = _join(ladder, self._evaluate(
                u_top / s**2, self._g * u_top / s**3, [u_top], [len(self._d2)]))
        return ladder

    def integrate(self, weight, m, e_max):
        """[full, half] rule values of int du weight(u) T(u), a column per
        coefficient vector; weight is evaluated once, on the nodes of both rules."""
        u, G, T = self.rules(m, e_max)
        return (G * weight(u)) @ T


def _join(x, y):
    """(u, G, T) of the nodes of rules x, then those of rules y."""
    return np.hstack([x[0], y[0]]), np.hstack([x[1], y[1]]), np.vstack([x[2], y[2]])


# ---------------------------------------------------------------------------
# public scalar pair kernels


def check_energy_window(m, *energies):
    """Raise DomainError unless m > 0 and every energy lies in (-m, m); NaN fails."""
    if not m > 0:
        raise DomainError(f"mass must be positive, got {m}")
    for E in energies:
        if not -m < E < m:
            raise DomainError(f"energy {E} outside (-{m}, {m})")


def _pair_integral(weight, x, y, m, e_max, manifold, cfg, distinct=None):
    """(value, half-order defect, distance) of int du weight(u) K_u(x, y).

    distinct names the kernel for the DomainError raised at coincidence.
    """
    disp = pair_displacement(manifold, np.atleast_2d(x), np.atleast_2d(y))
    d = float(displacement_distance(manifold, disp)[0])
    if distinct and d <= 0:
        raise DomainError(f"{distinct} pair kernel requires distinct points")
    full, half = _HeatTrace(manifold, disp, 1.0, cfg).integrate(weight, m, e_max)[:, 0]
    return full, abs(full - half), d


def pair_kernel_plain(E, x, y, m, manifold: ManifoldSpec = Euclidean3(),
                      cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> PairKernelValue:
    """Subordinated free-resolvent pair kernel G_plain(E; x, y), x != y."""
    check_energy_window(m, E)
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
    check_energy_window(m, E, mu)
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
    check_energy_window(m, E)
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

    kappa = sqrt(m^2 - E^2).  No oscillatory integral remains.  In
    s = pi/2 - p the integrand is e^{-d sqrt(m^2 + E^2 cot^2 s)}, smooth and
    below e^-745 for s < d|E|/800: 24-node Gauss-Legendre panels on a
    ratio-4 ladder from pi/2 down to that point carry it to rounding.  At
    E = 0 this is e^{-m d}/(8 pi d).
    """
    check_energy_window(m, E)
    if not 0 < d < math.inf:
        raise DomainError("oracle requires a finite d > 0")
    if E == 0.0:
        return math.exp(-m * d) / (8.0 * math.pi * d)
    n_panels = max(1, math.ceil(math.log(0.5 * math.pi * 800.0 / (d * abs(E)), 4.0)))
    breaks = 0.5 * math.pi * 0.25 ** np.arange(n_panels + 1)
    s, w = (x.ravel() for x in gauss_panels(breaks[1:], breaks[:-1], 24))
    j = float(w @ np.exp(-d * np.hypot(m, E / np.tan(s))))
    kappa = math.sqrt(m * m - E * E)
    sgn = 1.0 if E > 0 else -1.0
    val = 0.5 * math.pi * (1.0 + sgn) * math.exp(-kappa * d) - sgn * j
    return val / (4.0 * math.pi**2 * d)
