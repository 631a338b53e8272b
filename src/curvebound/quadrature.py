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
u-integration uses geometric panels with Gauss-Legendre nodes between a
boundary-layer floor ~ d^2/160 and an exponential-tail cap set by the
largest |energy| in play, and the error estimate is the defect of a
half-order Gauss-Legendre rule with its own max(8, u_nodes/2) nodes per
panel (12 of a panel's 36 kernel evaluations at the default 24).

Only the weight depends on the energy.  A weighted sum of kernels over
point pairs, T(u) = sum_p c_p K_u(disp_p), is therefore evaluated once on
the u-rule nodes (``_HeatTrace``), and any energy's integral is the
contraction sum_u g(u) w(E, u) T(u) with the rule weights g.  The
boundary-layer floor applies per pair: the ladder starts at the closest
pair's floor, and a pair at distance d enters the sum only on the panels
that reach above its own floor d^2/160.  A trace appends panels when an
energy needs a longer ladder, and each integral contracts exactly the
ladder of its own energies.  What the kernel block depends on is built once:
the pair factors (manifolds.kernel_geometry) once per trace, the u factors
(manifolds.kernel_rows) once per ladder extension, over the nodes of all its
new panels; each panel is then one kernel call on its slice and prefix.

On Euclidean3 and Hyperbolic3 a large-u panel needs far fewer than all the
pairs: once every pair is active and the d^2 range [D0, D1] meets
D1 - D0 <= PROXY_SPREAD a on a panel [a, b], e^{-d^2/4u} is within 1.1e-17
relative of its interpolant at the PROXY_NODES = 16 Chebyshev points of
[D0, D1], so T(u) is the kernel at 16 proxy pairs times fixed coefficients
(the separable expansion of the fast Gauss transform).  FlatTorus3 traces
and the counterterm's circle-kernel traces evaluate every active pair.
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

# Proxy panels.  A radial kernel depends on a pair through e^{h(d)} e^{-x/4u},
# x = d^2 (h = log(rho/sinh rho) on Hyperbolic3, else 0).  For u >= a,
# f(x) = e^{-x/4u} is entire, and its interpolant at the PROXY_NODES = n
# Chebyshev points of the first kind on the pairs' range [D0, D1] is off by at
# most 2^{1-n} ((D1 - D0)/2)^n max|f^(n)|/n! (Trefethen, Approximation Theory
# and Approximation Practice, SIAM 2013, ch. 11 and 15).  Relative to a pair's
# own e^{-x/4u} >= e^{-D1/4u}, and with z = (D1 - D0)/(8u), that is at most
# 2 (z/2)^n/n! e^{2z}: below 1.1e-17 for n = 16 wherever
# D1 - D0 <= PROXY_SPREAD a, so z <= 1.  On such a panel the sum over all
# pairs is the kernel at n proxy pairs times fixed coefficients, the
# separable expansion of the fast Gauss transform (Greengard and Strain,
# SIAM J. Sci. Stat. Comput. 12, 1991).
PROXY_NODES = 16
PROXY_SPREAD = 8.0


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
        if self.log_nodes < 4:
            raise DomainError("log_nodes must be at least 4")
        if not self.far_panel_ratio > 1:
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

    def __post_init__(self):
        if self.t_nodes < 16:
            raise DomainError("t_nodes must be at least 16")
        if self.u_nodes < 16:
            raise DomainError("u_nodes must be at least 16")
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


def _chebyshev_proxies(geometry: KernelGeometry, coeffs):
    """(proxies, W): PROXY_NODES proxy pairs at the Chebyshev points of the
    d^2 range of a radial geometry (its columns sorted by d^2), and the
    (PROXY_NODES x columns) coefficients that carry every pair's coefficients
    onto them.

    W = Lambda (c e^h), with Lambda[k, p] the barycentric Lagrange basis
    function of proxy k at pair p's d^2 and h the Hyperbolic3
    log(rho/sinh rho) row, folded in; the proxies carry h = 0.
    """
    rows = geometry.rows
    lo, hi = rows[0, 0], rows[0, -1]
    angle = (2.0 * np.arange(PROXY_NODES) + 1.0) * (math.pi / (2.0 * PROXY_NODES))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angle)
    diff = rows[0] - nodes[:, None]
    exact = diff == 0.0
    diff[exact] = 1.0
    basis = (np.where(np.arange(PROXY_NODES) % 2, -1.0, 1.0) * np.sin(angle))[:, None] / diff
    hit = exact.any(axis=0)
    basis[:, hit] = exact[:, hit]
    basis /= basis.sum(axis=0)
    proxies = np.zeros((len(rows), PROXY_NODES))
    proxies[0], proxies[1] = nodes, 1.0
    return KernelGeometry(proxies), basis @ (coeffs * np.exp(rows[2:].sum(axis=0))[:, None])


class _HeatTrace:
    """Energy-independent heat trace T(u) = sum_p c_p K_u(disp_p) of one entry.

    T is held per node of the full and of the half-order u-rule on
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

    A radial trace (a KernelGeometry without torus axes) of more than
    PROXY_NODES pairs whose d^2 range [D0, D1] is not a point evaluates a
    panel [a, b] that takes all pairs and meets D1 - D0 <= PROXY_SPREAD a on
    its PROXY_NODES proxy pairs: kernel(u, proxies) @ W, built once, on the
    first such panel (see PROXY_NODES for the error bound).

    The ladder grows on demand: rules(m, e_max) evaluates only the panels
    that the ladder for e_max has beyond those already held, and returns
    exactly that ladder (with its own tail panel), so a result never depends
    on which larger ladders were asked for before.  A trace serves one mass
    m.  geometry(disp) prepares the sorted displacements once, before the
    first panel; rows(u) prepares the u nodes once per ladder extension, over
    all its new panels (tail included), laid out panel-major with each
    panel's full-rule nodes before its half-rule ones; kernel(rows[i:j],
    geometry[:k]) returns the (j - i, k) kernel block, and each new panel is
    one such call on its own slice of rows, over the nodes of both rules.
    rows is np.asarray (plain u) unless given; a trace that is never
    contracted costs nothing.
    """

    def __init__(self, kernel, disp, dist, coeffs, cfg: QuadratureConfig, tail=False,
                 geometry=None, rows=np.asarray):
        order = np.argsort(dist, kind="stable")
        d = np.asarray(dist, dtype=float)[order]
        self._d_min, self._d2 = float(d[0]), d * d
        self._kernel, self._disp, self._geometry = kernel, np.asarray(disp)[order], geometry
        self._rows = rows
        self._coeffs = np.atleast_2d(coeffs).T[order]
        self._cfg, self._tail = cfg, tail
        self._orders = (cfg.u_nodes, max(8, cfg.u_nodes // 2))
        self._panels = []  # ((u, w, T) full, (u, w, T) half) of each held panel
        self._rules = {}  # panel count -> the rules() of that ladder
        self._proxies = None  # (proxies, W) once a panel has used them

    def _panel(self, nodes, k, a, rows=None):
        """((u, w, T) full, (u, w, T) half) of one panel from a, from a single
        kernel call over both rules' nodes, nodes = [(u, w) full, (u, w) half],
        and the k closest pairs (or their proxies).  rows is rows(u) of those
        nodes, the full rule's first; it is built here when not given."""
        (u_full, w_full), (u_half, w_half) = nodes
        if self._geometry is not None:
            self._disp, self._geometry = self._geometry(self._disp), None
        if rows is None:
            rows = self._rows(np.concatenate([u_full, u_half]))
        g, d2 = self._disp, self._d2
        if (isinstance(g, KernelGeometry) and g.xi is None and k == len(d2) > PROXY_NODES
                and 0.0 < d2[-1] - d2[0] <= PROXY_SPREAD * a):
            if self._proxies is None:
                self._proxies = _chebyshev_proxies(g, self._coeffs)
            proxies, coeffs = self._proxies
            trace = self._kernel(rows, proxies) @ coeffs
        else:
            trace = self._kernel(rows, g if k == len(d2) else g[:k]) @ self._coeffs[:k]
        n = len(u_full)
        return (u_full, w_full, trace[:n]), (u_half, w_half, trace[n:])

    def rules(self, m, e_max):
        """(u nodes, rule weights, T) for the full and the half-order rule on
        the ladder that carries the weights of energies up to e_max."""
        breaks = u_panel_breaks(self._d_min, m, e_max, self._cfg)
        n = len(breaks) - 1
        if n not in self._rules:
            held = len(self._panels)
            a, b = breaks[held:-1], breaks[held + 1:]
            starts = a.tolist()
            active = np.searchsorted(self._d2, BOUNDARY_LAYER * b).tolist()
            # the (u, w) of every new panel per rule order, a row per panel
            nodes = [gauss_panels(a, b, q) for q in self._orders]
            if self._tail:  # the ladder's own algebraic panel, after the new ones
                u_top = breaks[-1]
                starts.append(u_top)
                active.append(len(self._d2))
                tail = (gauss_panels(0.0, 1.0, q) for q in self._orders)
                nodes = [(np.vstack([u, u_top / s**2]), np.vstack([w, v * 2.0 * u_top / s**3]))
                         for (u, w), (s, v) in zip(nodes, tail)]
            new = []
            if starts:
                # one rows() call for the extension: panel-major, each panel's
                # full-rule nodes, then its half-rule nodes
                u_new = np.concatenate([u for u, _ in nodes], axis=1)
                rows, width = self._rows(u_new.ravel()), u_new.shape[1]
                new = [self._panel([(u[p], w[p]) for u, w in nodes], k, lo,
                                   rows[p * width:(p + 1) * width])
                       for p, (lo, k) in enumerate(zip(starts, active))]
            self._panels += new[:len(a)]
            ladder = self._panels[:n] + new[len(a):]
            self._rules[n] = [tuple(np.concatenate(x) for x in zip(*panels))
                              for panels in zip(*ladder)]
        return self._rules[n]

    def integrate(self, weight, m, e_max):
        """[full, half] rule values of int du weight(u) T(u), a column per coefficient vector.

        weight is evaluated once, on the nodes of both rules.
        """
        rules = self.rules(m, e_max)
        return _contract(rules, weight(_rule_nodes(rules)))


def _rule_nodes(rules):
    """The u nodes of both rules of _HeatTrace.rules, the full rule first."""
    return np.concatenate([rules[0][0], rules[1][0]])


def _contract(rules, wu):
    """[full, half] rule values of int du w(u) T(u) from _HeatTrace.rules,
    with wu = w(_rule_nodes(rules))."""
    (_, w_full, t_full), (_, w_half, t_half) = rules
    n = len(w_full)
    return np.array([(w_full * wu[:n]) @ t_full, (w_half * wu[n:]) @ t_half])


def _ambient_trace(manifold: ManifoldSpec, disp, coeffs, cfg: QuadratureConfig):
    """_HeatTrace of the manifold's heat kernel over a pair_displacement batch,
    whose KernelGeometry is built once, in the trace's distance order, and
    whose KernelRows are built once per ladder extension."""
    return _HeatTrace(lambda u, g: heat_kernel_grid(manifold, u, g), disp,
                      displacement_distance(manifold, disp), coeffs, cfg,
                      geometry=lambda d: kernel_geometry(manifold, d),
                      rows=lambda u: kernel_rows(manifold, u))


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
    full, half = _ambient_trace(manifold, disp, 1.0, cfg).integrate(weight, m, e_max)[:, 0]
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
