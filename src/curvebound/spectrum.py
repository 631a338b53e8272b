"""Eigenvalue flow of the principal matrix and ground-state root finding.

The lowest eigenvalue of Phi(E) is strictly decreasing in E (every entry of
dPhi/dE is negative and the derivative kernel is positive definite), so the
ground state is the unique zero of omega_min on the bracket and bracketed
bisection is globally safe.  Its exact slope is v^T dPhi/dE v
(Feynman-Hellmann), one more contraction of the same traces, so the root
finder is Newton with a bisection safeguard.  For a single curve under the
bound-state prescription the zero sits exactly at E = mu by construction.

Each call contracts the family's heat traces per energy over the u-rule
that its energies need (the grid, the bracket, or E +- h); only the u-weight
depends on E.  The traces are built on the first call on a family and
shared by every later one (see principal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveFamily
from .manifolds import DomainError, Euclidean3, ManifoldSpec
from .principal import (
    DEFAULT_QUADRATURE,
    MinimalBoundState,
    Prescription,
    PrincipalMatrix,
    QuadratureConfig,
    _Contraction,
)

_DISCONNECT_EPS = 1e-14
_DEGENERACY_GAP = 1e-6


@dataclass(frozen=True, eq=False)
class SpectralFlowResult:
    energies: np.ndarray
    eigenvalues: np.ndarray  # (nE, N), ascending per row
    ground_vector: np.ndarray  # (nE, N), sign-fixed lowest eigenvector


@dataclass(frozen=True)
class GroundState:
    E_gr: float
    bracket: tuple
    iterations: int
    residual: float
    status: str  # "converged" | "no_bound_state_in_bracket"
    possibly_degenerate: bool = False


def eigen_decompose(M):
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""
    a = M.entries if isinstance(M, PrincipalMatrix) else np.asarray(M, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("eigen_decompose expects a square 2-d array")
    if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise DomainError("eigen_decompose expects a symmetric matrix")
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def _sign_fix(vec):
    """Orient an eigenvector by its largest-magnitude component."""
    k = int(np.argmax(np.abs(vec)))
    return vec if vec[k] > 0 else -vec


def spectral_flow(
    family: CurveFamily,
    energies,
    p: Prescription = MinimalBoundState(),
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> SpectralFlowResult:
    energies = np.asarray(energies, dtype=float)
    traces = _Contraction(family, p, manifold, cfg, energies)
    n = len(family)
    vals = np.zeros((len(energies), n))
    ground = np.zeros((len(energies), n))
    for k, E in enumerate(energies):
        w, v = np.linalg.eigh(traces.matrix(float(E)).entries)
        vals[k] = w
        ground[k] = _sign_fix(v[:, 0])
    return SpectralFlowResult(energies=energies, eigenvalues=vals, ground_vector=ground)


def _omega_min(traces, E):
    """(omega_min, its eigenvector, Phi(E))."""
    M = traces.matrix(E)
    w, v = np.linalg.eigh(M.entries)
    return float(w[0]), v[:, 0], M


def _disconnected(M: PrincipalMatrix):
    n = M.n
    off = M.entries[~np.eye(n, dtype=bool)]
    return n > 1 and bool(np.any(np.abs(off) < _DISCONNECT_EPS))


def ground_state_energy(
    family: CurveFamily,
    p: Prescription = MinimalBoundState(),
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    bracket: tuple | None = None,
) -> GroundState:
    """Zero of the lowest eigenvalue over (-0.999 m, min_i mu_i] by default.

    Under RGScale the default top is the largest double below the counterterm
    scale mu (the flow prescription needs E < mu), capped at 0.999 m.  A
    default top at or below -0.999 m moves the floor to the midpoint of -m
    and the top.

    No sign change on the bracket is an outcome, not an error: the returned
    status says so and E_gr is NaN.
    """
    m = family.mass
    if bracket is None:
        hi = (float(np.min(family.mu)) if isinstance(p, MinimalBoundState)
              else min(math.nextafter(p.mu, -math.inf), 0.999 * m))
        bracket = (-0.999 * m if hi > -0.999 * m else 0.5 * (hi - m), hi)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (-m < lo < hi) or not hi < m:
        raise DomainError("bracket must satisfy -m < lo < hi < m")

    tol_e = 1e-8 * m
    evals = 0
    traces = _Contraction(family, p, manifold, cfg, (lo, hi))

    f_hi, v, M_hi = _omega_min(traces, hi)
    evals += 1
    if abs(f_hi) < 1e-15:
        return GroundState(hi, (lo, hi), evals, f_hi, "converged", _disconnected(M_hi))
    if f_hi > 0:  # omega decreasing in E, so positive at the top means no zero below
        return GroundState(math.nan, (lo, hi), evals, math.nan, "no_bound_state_in_bracket")

    f_lo, _, _ = _omega_min(traces, lo)
    evals += 1
    if f_lo < 0:  # zero lies below the bracket floor
        return GroundState(math.nan, (lo, hi), evals, math.nan, "no_bound_state_in_bracket")
    if f_lo == 0.0:
        return GroundState(lo, (lo, hi), evals, 0.0, "converged")

    # rtsafe (Numerical Recipes 9.4) from the top: Newton on the exact slope
    # v^T Phi'(E) v, bisecting where a step would leave the bracket or not
    # halve the step before last; stop once a step is below tol_e
    a, b = lo, hi
    E, f, M = hi, f_hi, M_hi
    step = step_old = b - a
    while evals < 200:
        slope = float(v @ traces.dphi(E) @ v)
        newton = a < E - f / slope < b and abs(2.0 * f) <= abs(step_old * slope)
        step_old, step = step, f / slope if newton else E - 0.5 * (a + b)
        E -= step
        f, v, M = _omega_min(traces, E)
        evals += 1
        if f > 0:
            a = E
        else:
            b = E
        if abs(step) < tol_e or f == 0.0 or b - a < tol_e:
            break
    return GroundState(E, (lo, hi), evals, f, "converged", _disconnected(M))


@dataclass(frozen=True, eq=False)
class FeynmanHellmanResult:
    analytic_slopes: np.ndarray
    fd_slopes: np.ndarray
    residuals: np.ndarray  # relative; NaN where skipped
    skipped: np.ndarray  # True where the eigenvalue gap was too small


def feynman_hellman_residual(
    family: CurveFamily,
    E: float,
    manifold: ManifoldSpec = Euclidean3(),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    p: Prescription = MinimalBoundState(),
    h: float | None = None,
) -> FeynmanHellmanResult:
    """Per-eigenvalue slope residuals: projector form vs central differences.

    d omega_k / dE = A_k^T (dPhi/dE) A_k for simple eigenvalues; pairs with
    relative gap below 1e-6 are flagged and skipped.
    """
    m = family.mass
    if h is None:
        h = 1e-4 * m
    if not 0 < h < math.inf:
        raise DomainError("finite-difference step h must be positive and finite")
    traces = _Contraction(family, p, manifold, cfg, (E - h, E + h))
    vals, vecs = np.linalg.eigh(traces.matrix(E).entries)
    analytic = np.einsum("ik,ij,jk->k", vecs, traces.dphi(E), vecs)

    wp = np.linalg.eigvalsh(traces.matrix(E + h).entries)
    wm = np.linalg.eigvalsh(traces.matrix(E - h).entries)
    fd = (wp - wm) / (2.0 * h)

    scale = max(float(np.abs(vals).max()), 1e-300)
    n = len(vals)
    skipped = np.zeros(n, dtype=bool)
    for k in range(n):
        gap = np.min(np.abs(np.delete(vals, k) - vals[k])) if n > 1 else math.inf
        skipped[k] = gap / scale < _DEGENERACY_GAP
    residuals = np.where(skipped, math.nan, np.abs(analytic - fd) / np.abs(analytic))
    return FeynmanHellmanResult(analytic, fd, residuals, skipped)
