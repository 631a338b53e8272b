"""Assembly of the renormalized principal matrix over a curve family.

Matrix convention (N curves, arc lengths L_i, energy E inside (-m, m)):

    Phi_ii(E) = 1/lambda_R + (1/L_i)  iint ds ds' G_sub(E; x_i(s), x_i(s'))
    Phi_ij(E) =            - (1/sqrt(L_i L_j)) iint ds ds' G_plain(E; x_i, x_j)

where G_sub is the subtracted diagonal integrand of the active prescription:
the difference kernel G(mu_i) - G(E) for the bound-state prescription, or the
intrinsic-circle counterterm combination at scale mu for the flow
prescription.  Off-diagonal blocks need no subtraction.

Each (s, s') double integral is one pair rule (_pair_rule), built from the
curves' own quadrature rules (SampledCurve nodes and weights).  Off the
diagonal it is the tensor of both rules, weight w_a w_b / sqrt(L_i L_j).  On
the diagonal it is the outer rule w_a / L_i times an inner relative
coordinate xi; the inner integral splits at the curve's window half-width
delta into a log-adapted band (xi = delta e^{-w}, which tames the log(1/xi)
coincidence growth) and geometric far panels.  Homogeneous curves (circles,
torus winding lines) need a single outer node of weight 1; the isometry group
makes the inner integral position independent.

Only the u-weight depends on the energy, so every entry of Phi(E), of
dPhi/dE and of the flow variant is sum_u g(u) W(E, u) T(u) over one heat
trace T per curve pair (the kernel summed over that pair's (s, s') nodes
with their curve weights), contracted per energy with W = w_mu_i - w_E,
-w_E, -w'_E, or the counterterm constant minus w_E.  The counterterm of
curve i is one more heat trace, on the curve's own circle of length L_i
(manifolds._IntrinsicCircle) over its inner xi grid, contracted once per
call.  The traces are built once per (family, manifold, quadrature config)
and kept for as long as the family lives; every later call on that family
(assemble, derivative_matrix, spectral_flow, ground_state_energy,
feynman_hellman_residual) only contracts them, over exactly the u-panels
its own energies need.  A family is therefore treated as immutable.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import quadrature
from .curves import CurveFamily, SampledCurve, _node_pairs
from .manifolds import DomainError, Euclidean3, ManifoldSpec, _IntrinsicCircle, pair_displacement
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    SingWindowConfig,
    _HeatTrace,
    _erfcx,
    _leggauss,
    check_energy_window,
    gauss_panels,
)


@dataclass(frozen=True)
class MinimalBoundState:
    """Subtraction at the per-curve binding scales mu_i, inverse coupling zero."""


@dataclass(frozen=True)
class RGScale:
    """Running-coupling prescription: counterterm circle at scale mu > 0.

    lambda_R enters only additively through 1/lambda_R; math.inf is accepted
    and reproduces the zero-inverse-coupling limit.
    """

    mu: float
    lambda_R: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise DomainError("counterterm scale mu must be positive and finite")
        if not self.lambda_R > 0:
            raise DomainError("coupling must be positive")


Prescription = Union[MinimalBoundState, RGScale]


class ConvergenceError(RuntimeError):
    """Quadrature error estimate exceeded tolerance for some matrix entry."""

    def __init__(self, message, worst_entry, err_value, tolerance):
        super().__init__(message)
        self.worst_entry = worst_entry
        self.err_value = err_value
        self.tolerance = tolerance


@dataclass(frozen=True, eq=False)
class PrincipalMatrix:
    E: float
    entries: np.ndarray
    err: np.ndarray
    band_contributions: np.ndarray  # |xi| < delta share of each diagonal entry
    fingerprint: str

    @property
    def n(self):
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# inner xi grids


def _band_grid(delta, sw: SingWindowConfig):
    """Nodes/weights for int_0^delta g(xi) dxi under xi = delta e^{-w}.

    The leftover stub below delta e^{-log_depth} contributes O(1e-10 delta)
    even against a log(1/xi) integrand; ignored.
    """
    x, gw = _leggauss(sw.log_nodes)
    w = 0.5 * sw.log_depth * (x + 1.0)
    xi = delta * np.exp(-w)
    return xi, (0.5 * sw.log_depth * gw) * xi


def _far_grid(delta, half_length, sw: SingWindowConfig):
    """Nodes/weights for int_delta^half_length g(xi) dxi on geometric panels."""
    if half_length <= delta * (1.0 + 1e-12):
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(math.ceil(math.log(half_length / delta) / math.log(sw.far_panel_ratio))))
    breaks = np.geomspace(delta, half_length, n_panels + 1)
    xi, w = gauss_panels(breaks[:-1], breaks[1:], sw.far_nodes)
    return xi.ravel(), w.ravel()


def _inner_grid(curve: SampledCurve, sw: SingWindowConfig):
    """Signed relative-arc nodes xi covering (-L/2, L/2) and two weight rows:
    the whole range, and the |xi| < delta band alone (zero on the far panels)."""
    xb, wb = _band_grid(curve.delta_window, sw)
    xf, wf = _far_grid(curve.delta_window, 0.5 * curve.length, sw)
    far = np.zeros_like(wf)
    return (np.concatenate([xb, xf, -xb, -xf]),
            np.array([np.concatenate([wb, wf, wb, wf]), np.concatenate([wb, far, wb, far])]))


def _pair_rule(ci: SampledCurve, cj: SampledCurve, sw: SingWindowConfig):
    """Points x, y and coefficient columns of the (s, s') rule of curves ci, cj.

    Off the diagonal: the tensor of both curves' rules, one column of weights
    w_a w_b / sqrt(L_i L_j).  On the diagonal (cj is ci): the outer rule w_a / L
    (one node of weight 1 on a homogeneous curve) times _inner_grid's whole
    and band columns, the inner nodes at x(s_a + xi).
    """
    if ci is not cj:
        wi, wj = _node_pairs(ci.weights / ci.length, cj.weights / cj.length)
        return *_node_pairs(ci.points, cj.points), wi * wj * math.sqrt(ci.length * cj.length)
    xi, cols = _inner_grid(ci, sw)
    s, w = (ci.nodes[:1], np.ones(1)) if ci.homogeneous else (ci.nodes, ci.weights / ci.length)
    x, _ = _node_pairs(ci.point_at(s), xi)
    s, xi = _node_pairs(s, xi)
    w, cols = _node_pairs(w, cols.T)
    return x, ci.point_at(s + xi), (w[:, None] * cols).T


# ---------------------------------------------------------------------------
# heat traces of a family, contracted per energy


def _counterterm_weight(mu):
    """erfcx(mu sqrt u)/(8 pi u): the intrinsic-circle counterterm's u-weight."""
    return lambda u: _erfcx(mu * np.sqrt(u)) / (8.0 * math.pi * u)


# family -> {(manifold, cfg): _TraceStore}; an entry dies with its family
_STORES = weakref.WeakKeyDictionary()


class _TraceStore:
    """The heat traces of one family on one manifold under one quadrature config.

    Built once per (family, manifold, cfg) and shared by every later call on
    that family, so a family is treated as immutable.  The store holds
    geometry only (the family's curves and their traces): no energy, mu or
    prescription (its u-ladders follow the family's mass), and no reference
    to the family, so it is freed together with it.

    Pair (i, j), i <= j: the kernel summed over the pairs of _pair_rule with
    its coefficients; a diagonal has one column for the whole xi range and
    one for the |xi| < delta band.  Counterterm i, created on first RGScale
    use: a trace on the curve's own circle, _IntrinsicCircle((L,)), over the
    same xi grid as (n, 1) arc separations, contracted with
    erfcx(mu sqrt u)/(8 pi u), with an algebraic tail panel since that
    weight decays only like u^{-3/2}.  Each trace evaluates its u-panels on
    first use and appends panels when a call needs a longer ladder; a call
    contracts exactly the ladder its own energies need.
    """

    def __init__(self, family: CurveFamily, manifold: ManifoldSpec, cfg: QuadratureConfig):
        self.cfg, self._curves, self.traces, self._counter = cfg, family.curves, {}, {}
        for i, j in itertools.combinations_with_replacement(range(len(family)), 2):
            x, y, coeffs = _pair_rule(family.curves[i], family.curves[j], cfg.sing_window)
            self.traces[i, j] = _HeatTrace(manifold, pair_displacement(manifold, x, y), coeffs, cfg)

    def counterterm(self, i):
        """The RGScale counterterm trace of curve i (its xi grid and L do not depend on mu)."""
        if i not in self._counter:
            xi, cols = _inner_grid(self._curves[i], self.cfg.sing_window)
            circle = _IntrinsicCircle((self._curves[i].length,))
            self._counter[i] = _HeatTrace(circle, xi[:, None], cols, self.cfg, tail=True)
        return self._counter[i]


def _trace_store(family: CurveFamily, manifold: ManifoldSpec, cfg: QuadratureConfig):
    """The family's _TraceStore for (manifold, cfg), built on first use."""
    stores = _STORES.setdefault(family, {})
    if (manifold, cfg) not in stores:
        stores[manifold, cfg] = _TraceStore(family, manifold, cfg)
    return stores[manifold, cfg]


class _Contraction:
    """One call's reading of a family's trace store for a set of energies.

    The prescription and the largest |energy| fix the ladder of each trace:
    e_max, and on a diagonal under MinimalBoundState max(e_max, |mu_i|).
    mu and the mass are read from the family.

    The u nodes of the traces the call contracts are held in one vector, so
    each energy's weight is one evaluation for all entries, and what does not
    depend on the energy (each diagonal's w_mu_i, the RGScale counterterm
    entries) is evaluated once per call.  A trace joins that vector when the
    call first contracts it, so an entry the call never reads costs no kernel.
    The weights are looked up on the quadrature module at each call, so
    rebinding them there (to count or time them) sees every evaluation.
    """

    def __init__(self, family: CurveFamily, p: Prescription, manifold: ManifoldSpec,
                 cfg: QuadratureConfig, energies):
        self.family, self.p, self.cfg = family, p, cfg
        for E in energies:
            self._check(E)
        self.e_max = max((abs(E) for E in energies), default=0.0)
        self.fingerprint = family_fingerprint(family, manifold)
        self.store = _trace_store(family, manifold, cfg)
        self._u = np.empty(0)  # the rule nodes of every trace in _rules, concatenated
        self._rules, self._slots = {}, {}  # (i, j) -> (G, T) on this call's ladder, slice of _u
        self._w_mu, self._counter = {}, {}  # i -> w_mu_i on diagonal i's nodes, its counterterm

    def _check(self, E):
        check_energy_window(self.family.mass, E)
        if isinstance(self.p, RGScale) and not E < self.p.mu:
            raise DomainError("flow prescription requires E < mu")

    def _nodes(self, keys):
        """The shared u nodes, first extended by the traces of keys not yet held."""
        parts = [self._u]
        for i, j in keys:
            if (i, j) in self._rules:
                continue
            e = self.e_max
            if i == j and isinstance(self.p, MinimalBoundState):
                e = max(e, abs(self.family.mu[i]))
            u, G, T = self.store.traces[i, j].rules(self.family.mass, e)
            self._rules[i, j] = G, T
            start = sum(map(len, parts))
            parts.append(u)
            self._slots[i, j] = slice(start, start + len(u))
        if len(parts) > 1:
            self._u = np.concatenate(parts)
        return self._u

    def _subtraction(self, i):
        """w_mu_i on the nodes of diagonal i."""
        if i not in self._w_mu:
            self._w_mu[i] = quadrature.weight_plain(self._u[self._slots[i, i]],
                                                    self.family.mu[i], self.family.mass)
        return self._w_mu[i]

    def _counterterm(self, i):
        """[full, half] rule values of curve i's RGScale counterterm trace."""
        if i not in self._counter:
            self._counter[i] = self.store.counterterm(i).integrate(
                _counterterm_weight(self.p.mu), self.family.mass, self.e_max)
        return self._counter[i]

    def matrix(self, E) -> PrincipalMatrix:
        """Phi(E), raising ConvergenceError when any entry's half-order defect
        exceeds abs_tol + rel_tol |value|.

        |E| must not exceed the largest |energy| the call was set up for.
        """
        self._check(E)
        fam, p = self.family, self.p
        n = len(fam)
        # a diagonal at its own mu_i has a subtraction weight that vanishes identically
        keys = [(i, j) for i, j in self.store.traces
                if i != j or isinstance(p, RGScale) or E != fam.mu[i]]
        w_E = quadrature.weight_plain(self._nodes(keys), E, fam.mass)

        # [full rule, half rule] x entry, the diagonal's band column apart
        r = np.zeros((2, n, n))
        band = np.zeros(n)
        for i, j in keys:
            w, (G, T) = w_E[self._slots[i, j]], self._rules[i, j]
            if i != j:
                d = (G * -w) @ T
            elif isinstance(p, RGScale):
                d = self._counterterm(i) - (G * w) @ T
                d[:, 0] += 1.0 / p.lambda_R
            else:
                d = (G * (self._subtraction(i) - w)) @ T
            r[:, i, j] = r[:, j, i] = d[:, 0]
            if i == j:
                band[i] = d[0, 1]
        entries, err = r[0], np.abs(r[0] - r[1])
        tol = self.cfg.abs_tol + self.cfg.rel_tol * np.abs(entries)
        over = np.where(err > tol, err, 0.0)
        if np.any(over):
            k = np.unravel_index(int(np.argmax(over)), over.shape)
            worst = (int(k[0]), int(k[1]))
            raise ConvergenceError(
                f"entry {worst} error estimate {err[k]:.3e} exceeds tolerance {tol[k]:.3e}",
                worst, err[k], tol[k],
            )
        return PrincipalMatrix(E=float(E), entries=entries, err=err, band_contributions=band,
                               fingerprint=self.fingerprint)

    def dphi(self, E):
        """dPhi/dE: every entry is minus the derivative-weighted trace, by
        the full rule (row 0 of G) alone."""
        check_energy_window(self.family.mass, E)
        n = len(self.family)
        w = quadrature.weight_derivative(self._nodes(self.store.traces), E, self.family.mass)
        out = np.zeros((n, n))
        for i, j in self.store.traces:
            G, T = self._rules[i, j]
            out[i, j] = out[j, i] = -(G[0] * w[self._slots[i, j]]) @ T[:, 0]
        return out


# ---------------------------------------------------------------------------
# public assembly


def family_fingerprint(family: CurveFamily, manifold: ManifoldSpec) -> str:
    h = hashlib.sha256()
    h.update(repr(manifold).encode())
    h.update(np.asarray(family.mu, dtype=float).tobytes())
    h.update(np.float64(family.mass).tobytes())
    for c in family.curves:
        for a in (c.points, c.nodes, c.weights):
            h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def assemble(
    family: CurveFamily,
    E: float,
    p: Prescription = MinimalBoundState(),
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PrincipalMatrix:
    """Principal matrix Phi(E) for the family under prescription p.

    Raises ConvergenceError when any entry's quadrature error estimate
    exceeds abs_tol + rel_tol |value|.
    """
    return _Contraction(family, p, manifold, cfg, [E]).matrix(E)


def derivative_matrix(
    family: CurveFamily,
    E: float,
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """dPhi/dE, prescription independent: every entry is a negative integral
    of the (strictly positive) energy-derivative pair kernel."""
    return _Contraction(family, MinimalBoundState(), manifold, cfg, [E]).dphi(E)


def rg_assemble(
    curve: SampledCurve,
    E: float,
    mu: float,
    lambda_R: float,
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    m: float = 1.0,
) -> float:
    """Scalar flow-prescription principal value Phi_R(E) for one curve: the
    RGScale(mu, lambda_R) assemble of its one-curve family, so it raises
    ConvergenceError as assemble does."""
    family = CurveFamily(curves=(curve,), mu=np.zeros(1), d_matrix=np.zeros((1, 1)), mass=m)
    return float(assemble(family, E, RGScale(mu, lambda_R), manifold, cfg).entries[0, 0])
