"""Assembly of the renormalized principal matrix over a curve family.

Matrix convention (N curves, arc lengths L_i, energy E inside (-m, m)):

    Phi_ii(E) = 1/lambda_R + (1/L_i)  iint ds ds' G_sub(E; x_i(s), x_i(s'))
    Phi_ij(E) =            - (1/sqrt(L_i L_j)) iint ds ds' G_plain(E; x_i, x_j)

where G_sub is the subtracted diagonal integrand of the active prescription:
the difference kernel G(mu_i) - G(E) for the bound-state prescription, or the
intrinsic-circle counterterm combination at scale mu for the flow
prescription.  Off-diagonal blocks need no subtraction.

The (s, s') double integral is reduced to an outer arc node and an inner
relative coordinate xi; the inner integral splits at the curve's window
half-width delta into a log-adapted band (xi = delta e^{-w}, which tames the
log(1/xi) coincidence growth) and geometric far panels.  Homogeneous curves
(circles, torus winding lines) need a single outer node; the isometry group
makes the inner integral position independent.

Only the u-weight depends on the energy, so every entry of Phi(E), of
dPhi/dE and of the flow variant is sum_u g(u) W(E, u) T(u) over one heat
trace T per curve pair (the kernel summed over that pair's (s, s') nodes
with their curve weights), built once and contracted per energy with W =
w_mu_i - w_E, -w_E, -w'_E, or the counterterm constant minus w_E.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .curves import CurveFamily, SampledCurve
from .manifolds import (
    DomainError,
    Euclidean3,
    ManifoldSpec,
    circle_heat_kernel,
    pair_displacement,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    SingWindowConfig,
    _HeatTrace,
    _ambient_trace,
    _leggauss,
    weight_derivative,
    weight_plain,
    weight_renormalized,
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
        if not self.mu > 0:
            raise DomainError("counterterm scale mu must be positive")
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
    if half_length <= delta * (1.0 + 1e-12):
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(math.ceil(math.log(half_length / delta) / math.log(sw.far_panel_ratio))))
    breaks = np.geomspace(delta, half_length, n_panels + 1)
    x, gw = _leggauss(sw.far_nodes)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        xs.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        ws.append(0.5 * (b - a) * gw)
    return np.concatenate(xs), np.concatenate(ws)


def _inner_grid(curve: SampledCurve, sw: SingWindowConfig):
    """Signed relative-arc nodes and weights covering xi in (-L/2, L/2)."""
    xb, wb = _band_grid(curve.delta_window, sw)
    xf, wf = _far_grid(curve.delta_window, 0.5 * curve.length, sw)
    xi = np.concatenate([xb, xf, -xb, -xf])
    wt = np.concatenate([wb, wf, wb, wf])
    band_mask = np.zeros(xi.shape, dtype=bool)
    band_mask[: len(xb)] = True
    band_mask[len(xb) + len(xf) : 2 * len(xb) + len(xf)] = True
    return xi, wt, band_mask


# ---------------------------------------------------------------------------
# heat traces of a family, contracted per energy


def _counterterm_weight(mu):
    """erfcx(mu sqrt u)/(8 pi u): the intrinsic-circle counterterm's u-weight."""
    return lambda u: special.erfcx(mu * np.sqrt(u)) / (8.0 * math.pi * u)


class _FamilyTraces:
    """The heat traces of every entry of Phi, built once for a set of energies.

    Diagonal i: the kernel averaged over (outer node, inner xi) pairs with the
    inner-grid weights, one column for the whole xi range and one for the
    |xi| < delta band.  Off-diagonal (i, j): the kernel summed over the
    periodic node tensor with weight sqrt(L_i L_j)/(n_i n_j).  Under RGScale
    each diagonal also gets its E-independent counterterm: the
    intrinsic-circle kernel on the same xi grid against erfcx(mu sqrt u)/(8 pi
    u), with an algebraic tail panel since that weight decays only like
    u^{-3/2}.  The u-rules reach out to the largest |E| in energies (and to
    each |mu_i| under MinimalBoundState); a trace is evaluated on first use.
    """

    def __init__(self, family: CurveFamily, p: Prescription, manifold: ManifoldSpec,
                 cfg: QuadratureConfig, energies):
        self.family, self.p, self.cfg = family, p, cfg
        for E in energies:
            self._check(E)
        m = family.mass
        e_max = max((abs(E) for E in energies), default=0.0)
        self.fingerprint = family_fingerprint(family, manifold)

        self.traces, self.counter = {}, {}  # keyed (i, j), i <= j; counterterms by i
        for i, ci in enumerate(family.curves):
            xi, wt, band_mask = _inner_grid(ci, cfg.sing_window)
            outer = ci.nodes[:1] if ci.homogeneous else ci.nodes
            x = np.repeat(ci.point_at(outer), len(xi), axis=0)
            disp = pair_displacement(manifold, x, ci.point_at((outer[:, None] + xi).ravel()))
            cols = np.stack([wt, np.where(band_mask, wt, 0.0)])
            e_i = max(e_max, abs(family.mu[i])) if isinstance(p, MinimalBoundState) else e_max
            coeffs = np.tile(cols, len(outer)) / len(outer)
            self.traces[i, i] = _ambient_trace(manifold, disp, coeffs, m, e_i, cfg)
            if isinstance(p, RGScale):
                self.counter[i] = _HeatTrace(
                    lambda u, xi, L=ci.length: circle_heat_kernel(u[:, None], xi, L, cfg.series),
                    xi, np.abs(xi), cols, m, e_max, cfg, tail=True)
            for j in range(i + 1, len(family)):
                cj = family.curves[j]
                ni, nj = len(ci.nodes), len(cj.nodes)
                disp = pair_displacement(manifold, np.repeat(ci.points, nj, axis=0),
                                         np.tile(cj.points, (ni, 1)))
                scale = np.full(ni * nj, math.sqrt(ci.length * cj.length) / (ni * nj))
                self.traces[i, j] = _ambient_trace(manifold, disp, scale, m, e_max, cfg)

    def _check(self, E):
        _check_energy(E, self.family.mass)
        if isinstance(self.p, RGScale) and not E < self.p.mu:
            raise DomainError("flow prescription requires E < mu")

    def phi(self, E):
        """(entries, err, band) of Phi(E), unchecked against the tolerance.

        E must lie within the largest |energy| the traces were built for.
        """
        self._check(E)
        fam, p, m = self.family, self.p, self.family.mass
        n = len(fam)

        def w_E(u):
            return weight_plain(u, E, m)

        # [full rule, half rule] x entry, the diagonal's band column apart
        r = np.zeros((2, n, n))
        band = np.zeros(n)
        for (i, j), trace in self.traces.items():
            if i != j:
                d = -trace.integrate(w_E)
            elif isinstance(p, RGScale):
                d = self.counter[i].integrate(_counterterm_weight(p.mu)) - trace.integrate(w_E)
                d[:, 0] += 1.0 / p.lambda_R
            elif E == fam.mu[i]:  # the subtraction weight vanishes identically
                d = np.zeros((2, 2))
            else:
                d = trace.integrate(lambda u: weight_renormalized(u, E, fam.mu[i], m))
            r[:, i, j] = r[:, j, i] = d[:, 0]
            if i == j:
                band[i] = d[0, 1]
        return r[0], np.abs(r[0] - r[1]), band

    def dphi(self, E):
        """dPhi/dE: every entry is minus the derivative-weighted trace."""
        _check_energy(E, self.family.mass)
        m, n = self.family.mass, len(self.family)
        out = np.zeros((n, n))
        for (i, j), trace in self.traces.items():
            out[i, j] = out[j, i] = -trace.integrate(lambda u: weight_derivative(u, E, m))[0, 0]
        return out

    def matrix(self, E) -> PrincipalMatrix:
        """Phi(E), raising ConvergenceError when any entry's half-order defect
        exceeds abs_tol + rel_tol |value|."""
        entries, err, band = self.phi(E)
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


# ---------------------------------------------------------------------------
# public assembly


def family_fingerprint(family: CurveFamily, manifold: ManifoldSpec) -> str:
    h = hashlib.sha256()
    h.update(repr(manifold).encode())
    h.update(np.asarray(family.mu, dtype=float).tobytes())
    h.update(np.float64(family.mass).tobytes())
    for c in family.curves:
        h.update(np.asarray(c.points, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _check_energy(E, m):
    if not -m < E < m:
        raise DomainError(f"energy must lie in (-{m}, {m}), got {E}")


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
    return _FamilyTraces(family, p, manifold, cfg, [E]).matrix(E)


def derivative_matrix(
    family: CurveFamily,
    E: float,
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """dPhi/dE, prescription independent: every entry is a negative integral
    of the (strictly positive) energy-derivative pair kernel."""
    return _FamilyTraces(family, MinimalBoundState(), manifold, cfg, [E]).dphi(E)


def rg_assemble(
    curve: SampledCurve,
    E: float,
    mu: float,
    lambda_R: float,
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    m: float = 1.0,
) -> float:
    """Scalar flow-prescription principal value Phi_R(E) for one curve."""
    family = CurveFamily(curves=(curve,), mu=np.zeros(1), d_matrix=np.zeros((1, 1)), mass=m)
    traces = _FamilyTraces(family, RGScale(mu, lambda_R), manifold, cfg, [E])
    return float(traces.phi(E)[0][0, 0])
