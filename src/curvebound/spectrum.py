"""Eigenvalue flow of the principal matrix and ground-state root finding.

The lowest eigenvalue of Phi(E) is strictly decreasing in E (every entry of
dPhi/dE is negative and the derivative kernel is positive definite), so the
ground state is the unique zero of omega_min on the bracket and bracketed
bisection is globally safe; a guarded secant step takes over once the bracket
is small.  For a single curve under the bound-state prescription the zero
sits exactly at E = mu by construction.

Each call evaluates the family's heat traces once, over the u-rule that its
energies need (the grid, the bracket, or E +- h), and contracts them per
energy; only the u-weight depends on E.
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
    _FamilyTraces,
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
    status: str  # "converged" | "at_bracket_top" | "no_bound_state_in_bracket"
    possibly_degenerate: bool = False


def eigen_decompose(M):
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""
    a = M.entries if isinstance(M, PrincipalMatrix) else np.asarray(M, dtype=float)
    if a.shape[0] != a.shape[1] or not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
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
    traces = _FamilyTraces(family, p, manifold, cfg, energies)
    n = len(family)
    vals = np.zeros((len(energies), n))
    ground = np.zeros((len(energies), n))
    for k, E in enumerate(energies):
        w, v = np.linalg.eigh(traces.matrix(float(E)).entries)
        vals[k] = w
        ground[k] = _sign_fix(v[:, 0])
    return SpectralFlowResult(energies=energies, eigenvalues=vals, ground_vector=ground)


def _omega_min(traces, E):
    M = traces.matrix(E)
    return float(np.linalg.eigvalsh(M.entries)[0]), M


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

    No sign change on the bracket is an outcome, not an error: the returned
    status says so and E_gr is NaN.
    """
    m = family.mass
    if bracket is None:
        hi = float(np.min(family.mu)) if isinstance(p, MinimalBoundState) else min(p.mu, 0.999 * m)
        bracket = (-0.999 * m, hi)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (-m < lo < hi) or not hi < m:
        raise DomainError("bracket must satisfy -m < lo < hi < m")

    tol_e = 1e-8 * m
    evals = 0
    traces = _FamilyTraces(family, p, manifold, cfg, (lo, hi))

    f_hi, M_hi = _omega_min(traces, hi)
    evals += 1
    if abs(f_hi) < 1e-15:
        return GroundState(hi, (lo, hi), evals, f_hi, "converged", _disconnected(M_hi))
    if f_hi > 0:  # omega decreasing in E, so positive at the top means no zero below
        return GroundState(math.nan, (lo, hi), evals, math.nan, "no_bound_state_in_bracket")

    f_lo, _ = _omega_min(traces, lo)
    evals += 1
    if f_lo < 0:  # zero lies below the bracket floor
        return GroundState(math.nan, (lo, hi), evals, math.nan, "no_bound_state_in_bracket")
    if f_lo == 0.0:
        return GroundState(lo, (lo, hi), evals, 0.0, "converged")

    a, fa, b, fb = lo, f_lo, hi, f_hi
    mid, f_mid, M_mid = hi, f_hi, M_hi
    step = 0
    while b - a > tol_e and step < 200:
        # guarded secant on even steps once the bracket is tight, else bisect
        step += 1
        if step % 2 == 0 and b - a < 1e-3 * m and fb != fa:
            mid = b - fb * (b - a) / (fb - fa)
            if not (a + 0.1 * tol_e < mid < b - 0.1 * tol_e):
                mid = 0.5 * (a + b)
        else:
            mid = 0.5 * (a + b)
        f_mid, M_mid = _omega_min(traces, mid)
        evals += 1
        if f_mid == 0.0:
            break
        if f_mid > 0:
            a, fa = mid, f_mid
        else:
            b, fb = mid, f_mid
    return GroundState(mid, (lo, hi), evals, f_mid, "converged", _disconnected(M_mid))


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
    traces = _FamilyTraces(family, p, manifold, cfg, (E - h, E + h))
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
