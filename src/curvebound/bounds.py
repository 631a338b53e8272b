"""Closed-form spectral estimates and the Gersgorin energy threshold.

Four pure evaluations: the near-diagonal finiteness envelope (what the
|xi| < delta window of a diagonal entry can contribute), a uniform lower
bound on diagonal entries, an upper bound on off-diagonal magnitudes, and
the threshold E* where diagonal dominance stops excluding a zero of the
principal matrix.  Below E* every Gersgorin disk excludes zero, so the true
ground state satisfies E_gr >= E*.

On Euclidean3 the heat kernel is exactly Gaussian and the generic bound
constants collapse to B = C = D = 1, A = 1/2, with the volume term dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveFamily
from .manifolds import DomainError
from .quadrature import check_energy_window


@dataclass(frozen=True)
class BoundConstants:
    A: float = 0.5
    B: float = 1.0
    C: float = 1.0
    D: float = 1.0
    F: float = 1.0
    V: float = math.inf  # manifold volume; inf drops the F-term

    def __post_init__(self):
        finite = (self.A, self.B, self.C, self.D, self.F)
        if not all(0 < c < math.inf for c in finite) or not self.V > 0:
            raise DomainError("bound constants must be positive, and A..F finite")


def euclidean_constants() -> BoundConstants:
    return BoundConstants()


def _sgn(x):
    return 0.0 if x == 0 else math.copysign(1.0, x)


def near_diagonal_envelope(E, mu, m, constants: BoundConstants = BoundConstants(),
                           kappa_delta: float = 0.0) -> float:
    """Envelope for the |xi| < delta diagonal window contribution.

    (B sqrt(C) / (4 pi sqrt(1 - kappa* delta))) [ log sqrt((m^2-E^2)/(m^2-mu^2))
        + sgn(mu) log((m+|mu|)/sqrt(m^2-mu^2)) - sgn(E) log((m+|E|)/sqrt(m^2-E^2)) ]

    Vanishes at E = mu; grows like (1 - kappa* delta)^{-1/2} toward a fully
    curved window.
    """
    check_energy_window(m, E, mu)
    if not 0.0 <= kappa_delta < 1.0:
        raise DomainError("kappa* delta must lie in [0, 1)")
    qe, qm = m * m - E * E, m * m - mu * mu
    val = (
        0.5 * math.log(qe / qm)
        + _sgn(mu) * math.log((m + abs(mu)) / math.sqrt(qm))
        - _sgn(E) * math.log((m + abs(E)) / math.sqrt(qe))
    )
    pref = constants.B * math.sqrt(constants.C) / (4.0 * math.pi * math.sqrt(1.0 - kappa_delta))
    return pref * val


def _phi_term(E, m):
    """(m/E) log(m/(m-E)), continued through E = 0 by its series."""
    x = E / m
    if abs(x) < 1e-4:
        return 1.0 + x / 2.0 + x * x / 3.0
    return -math.log1p(-x) / x


def diagonal_lower_bound(E, mu_min, m, L_min, constants: BoundConstants = BoundConstants()) -> float:
    """Uniform lower bound on the subtracted diagonal entries.

    (A sqrt(D) / 8 pi^2) [ (1 - (pi/2) e^{-m L_min / 2 sqrt(D)}) log((m-E)/(m-mu_min))
        + (m/E) log(m/(m-E)) - (m/mu_min) log(m/(m-mu_min)) ]
    """
    check_energy_window(m, E, mu_min)
    if not E < mu_min:
        raise DomainError("lower bound needs E < mu_min")
    if not L_min > 0:
        raise DomainError("L_min must be positive")
    gap_term = (1.0 - 0.5 * math.pi * math.exp(-m * L_min / (2.0 * math.sqrt(constants.D)))) * math.log(
        (m - E) / (m - mu_min)
    )
    val = gap_term + _phi_term(E, m) - _phi_term(mu_min, m)
    return constants.A * math.sqrt(constants.D) / (8.0 * math.pi**2) * val


def offdiagonal_upper_bound(E, m, d_min, L_max, constants: BoundConstants = BoundConstants()) -> float:
    """Upper bound on |Phi_ij|, i != j; decreasing in d_min, pole at E = m."""
    check_energy_window(m, E)
    if not d_min > 0:
        raise DomainError("d_min must be positive")
    if not L_max > 0:
        raise DomainError("L_max must be positive")
    V = constants.V
    sc = math.sqrt(constants.C)
    main = (
        constants.B * sc / (4.0 * math.pi**2)
        * (m / (m - E))
        * (L_max / d_min)
        * (1.0 + sc / (m * d_min))
    )
    vol = 0.0 if math.isinf(V) else 0.5 * constants.F / (m * (m - E)) * (L_max / V)
    return main + vol


# energies on which gersgorin_threshold looks for the first sign change
_GRID_POINTS = 512


@dataclass(frozen=True)
class GersgorinResult:
    E_star: float
    status: str  # "crossing" | "no_exclusion" | "holds_on_whole_bracket" | "single_disk"
    bracket: tuple


def gersgorin_threshold(family: CurveFamily, constants: BoundConstants = BoundConstants()) -> GersgorinResult:
    """Threshold E* with E_gr >= E* from disk exclusion.

    Solves diagonal_lower_bound(E) = (N-1) * offdiagonal_upper_bound(E) on
    (-m, mu_min), with m the family's mass and N its number of curves: the
    first downward sign change on _GRID_POINTS energies, then bisected.  Both
    sides rise with E (the left side on every step of (-0.99, 0.29) at
    mu_min = 0.3, m = 1 and L_min <= 0.8, on most steps at L_min = 2), so the
    difference need not be monotone and a crossing need not be unique: E* is
    the first one above the bracket floor that the grid resolves.  With no
    crossing the result degrades gracefully: dominance everywhere pins
    E* = mu_min ("holds_on_whole_bracket"); exclusion nowhere returns the
    vacuous E* = -m ("no_exclusion").  N = 1 disks have zero radius, so
    E* = mu_1 exactly.
    """
    m, N = family.mass, len(family)
    mu_min = float(np.min(family.mu))
    if N == 1:
        return GersgorinResult(mu_min, "single_disk", (-m, mu_min))

    lengths = [c.length for c in family.curves]
    L_min, L_max = min(lengths), max(lengths)
    off = family.d_matrix[~np.eye(N, dtype=bool)]
    d_min = float(np.min(off))

    def h(E):
        return diagonal_lower_bound(E, mu_min, m, L_min, constants) - (N - 1) * offdiagonal_upper_bound(
            E, m, d_min, L_max, constants
        )

    # the grid stays inside (-m, mu_min) also when mu_min lies within 1e-6 m of -m
    quarter = 0.25 * (mu_min + m)
    lo = min(-m * (1.0 - 1e-6), -m + quarter)
    hi = max(mu_min - 1e-9 * m, mu_min - quarter)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = np.array([h(float(E)) for E in grid])
    if np.all(values < 0):
        return GersgorinResult(-m, "no_exclusion", (lo, hi))
    if np.all(values > 0):
        return GersgorinResult(mu_min, "holds_on_whole_bracket", (lo, hi))

    down = np.where((values[:-1] > 0) & (values[1:] <= 0))[0]
    if len(down) == 0:  # exclusion never holds from the bracket floor upward
        return GersgorinResult(-m, "no_exclusion", (lo, hi))
    k = int(down[0]) + 1  # first grid point past the first downward crossing
    a, b = float(grid[k - 1]), float(grid[k])
    fa = values[k - 1]
    while b - a > 1e-10 * m:
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fm == 0.0:
            return GersgorinResult(mid, "crossing", (lo, hi))
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return GersgorinResult(0.5 * (a + b), "crossing", (lo, hi))
