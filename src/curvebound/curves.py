"""Closed curves embedded in the model manifolds.

Shapes are exact descriptions (circle, closed polyline, torus winding line);
``resample_arclength`` turns one into a ``SampledCurve``: a quadrature rule on
arc length (uniform nodes with periodic-trapezoid weights) plus the derived
geometry the solver needs (length, curvature bound, near-diagonal window,
self-distance).  The solver reads the rule, nodes and weights, from the
curve and does not assume it is uniform; ``SampledCurve`` validates it.

The window half-width delta = min(1/(4 kappa*), L/8) keeps kappa* delta <= 1/4,
so inside the window the chord obeys  sqrt(1 - kappa* delta) xi <= d <= xi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .manifolds import (
    DomainError,
    Euclidean3,
    FlatTorus3,
    Hyperbolic3,
    ManifoldSpec,
    _check_count,
    pair_displacement,
    displacement_distance,
)


class ValidationError(ValueError):
    """Geometry that fails a structural check (self-intersection, degeneracy)."""


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float, float]
    radius: float
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValidationError("circle radius must be positive and finite")
        if not np.all(np.isfinite(self.center)) or not np.all(np.isfinite(self.normal)):
            raise ValidationError("circle center/normal must be finite")
        if np.linalg.norm(self.normal) == 0:
            raise ValidationError("circle normal must be nonzero")


@dataclass(frozen=True)
class ParametricSamples:
    """Closed polyline through ordered points (closing edge implied)."""

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
            raise ValidationError("need at least three 3d points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("polyline points must be finite")


@dataclass(frozen=True)
class TorusLoop:
    """Closed geodesic on a flat torus with winding numbers (p, q, r)."""

    winding: tuple[int, int, int]
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        w = self.winding
        if len(w) != 3 or any(int(v) != v for v in w):
            raise ValidationError("winding numbers must be three integers")
        if all(v == 0 for v in w):
            raise ValidationError("winding numbers must not all vanish")
        if math.gcd(*(abs(int(v)) for v in w)) != 1:
            raise ValidationError("winding numbers with gcd > 1 retrace the same loop")
        if not np.all(np.isfinite(self.offset)):
            raise ValidationError("loop offset must be finite")


CurveSpec = Union[Circle, ParametricSamples, TorusLoop]


# ---------------------------------------------------------------------------
# arc-length evaluators


def _read_only(*arrays):
    """Mark arrays read-only: traces built from a curve stay valid only while
    its geometry cannot change in place."""
    for a in arrays:
        a.flags.writeable = False


class _CircleEval:
    def __init__(self, center, radius, normal):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(n)))] = 1.0
        e1 = helper - np.dot(helper, n) * n
        self.e1 = e1 / np.linalg.norm(e1)
        self.e2 = np.cross(n, self.e1)
        self.length = 2.0 * math.pi * self.radius
        _read_only(self.center, self.e1, self.e2)

    def __call__(self, s):
        theta = np.asarray(s, dtype=float) / self.radius
        return (
            self.center[None, :]
            + self.radius * np.cos(theta)[:, None] * self.e1[None, :]
            + self.radius * np.sin(theta)[:, None] * self.e2[None, :]
        )

    def rescaled(self, f):
        return _CircleEval(self.center * f, self.radius * f, np.cross(self.e1, self.e2))


class _PolylineEval:
    def __init__(self, pts):
        pts = np.asarray(pts, dtype=float)
        closed = np.vstack([pts, pts[:1]])
        seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        if np.any(seg == 0):
            raise ValidationError("polyline has coincident consecutive points")
        self.breaks = np.concatenate([[0.0], np.cumsum(seg)])
        self.closed = closed
        self.length = float(self.breaks[-1])
        _read_only(self.breaks, self.closed)

    def __call__(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.length)
        return np.stack(
            [np.interp(s, self.breaks, self.closed[:, i]) for i in range(3)], axis=1
        )

    def rescaled(self, f):
        return _PolylineEval(self.closed[:-1] * f)


class _AffineEval:
    def __init__(self, offset, direction):
        self.offset = np.asarray(offset, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.length = float(np.linalg.norm(direction))
        _read_only(self.offset, self.direction)

    def __call__(self, s):
        t = np.asarray(s, dtype=float)[:, None] / self.length
        return self.offset[None, :] + t * self.direction[None, :]

    def rescaled(self, f):
        return _AffineEval(self.offset * f, self.direction * f)


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Arc-length sampled closed curve with derived geometry.

    nodes and weights are the curve's quadrature rule on arc length, and
    points its embedded nodes; the solver reads all three.  The rule must
    have one node, point (3d) and finite positive weight each, and weights
    summing to length within 1e-12 relative (ValidationError otherwise).
    nodes, points, weights and the evaluator's arrays are read-only: the heat
    traces of a family are built once and reused, so its curves are immutable.
    """

    nodes: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    length: float
    kappa_star: float
    delta_window: float
    self_distance: float
    homogeneous: bool = False
    evaluator: object = field(repr=False, default=None)

    def __post_init__(self):
        n, w = np.size(self.nodes), self.weights
        if not np.shape(self.nodes) == np.shape(w) == (n,) or np.shape(self.points) != (n, 3):
            raise ValidationError("nodes, points and weights must give one (3d) point per node")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValidationError("quadrature weights must be finite and positive")
        if not abs(float(np.sum(w)) - self.length) <= 1e-12 * self.length:
            raise ValidationError("quadrature weights must sum to the curve length")
        _read_only(self.nodes, self.points, self.weights)

    def point_at(self, s):
        """Embedded coordinates at arc positions s (vectorized)."""
        return self.evaluator(np.atleast_1d(s))

    def rescaled(self, factor: float) -> "SampledCurve":
        """The same curve with every length scaled by factor (flat backends)."""
        if not 0 < factor < math.inf:
            raise DomainError("scale factor must be positive and finite")
        kappa = self.kappa_star / factor
        return SampledCurve(
            nodes=self.nodes * factor,
            points=self.points * factor,
            weights=self.weights * factor,
            length=self.length * factor,
            kappa_star=kappa,
            delta_window=self.delta_window * factor,
            self_distance=self.self_distance * factor,
            homogeneous=self.homogeneous,
            evaluator=self.evaluator.rescaled(factor),
        )


def _menger_curvature(points, manifold):
    """Largest three-point (circumradius) curvature over consecutive triples."""
    n = points.shape[0]
    a = points
    b = np.roll(points, -1, axis=0)
    c = np.roll(points, -2, axis=0)
    la = displacement_distance(manifold, pair_displacement(manifold, a, b))
    lb = displacement_distance(manifold, pair_displacement(manifold, b, c))
    lc = displacement_distance(manifold, pair_displacement(manifold, c, a))
    # Heron via Kahan's stable ordering
    s = np.sort(np.stack([la, lb, lc]), axis=0)
    x, y, z = s[0], s[1], s[2]
    arg = (x + (y + z)) * (z - (y - x)) * (z + (y - x)) * (x + (y - z))
    arg = np.maximum(arg, 0.0)
    area = 0.25 * np.sqrt(arg)
    kappa = 4.0 * area / (la * lb * lc)
    return float(np.max(kappa))


def _segment_min_distances(p1, q1, p2, q2):
    """Minimum distances between segment [p1,q1] and each segment [p2[k],q2[k]] (flat)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = d1 @ d1
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = r @ d1
    b = d2 @ d1
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm((p1 + s[:, None] * d1) - (p2 + t[:, None] * d2), axis=1)


def _check_polyline_embedding(pts, length):
    """Reject polylines whose non-adjacent segments touch.

    Segment i is checked against every later non-adjacent segment j at once;
    the error names the first touching (i, j) in row order.
    """
    n = pts.shape[0]
    closed = np.vstack([pts, pts[:1]])
    floor = 1e-9 * length
    for i in range(n - 2):
        j = np.arange(i + 2, n - 1 if i == 0 else n)  # 0 and n-1 share the closing vertex
        d = _segment_min_distances(closed[i], closed[i + 1], closed[j], closed[j + 1])
        touching = np.flatnonzero(d < floor)
        if touching.size:
            raise ValidationError(
                f"polyline self-intersects near segments {i} and {j[touching[0]]}"
            )


def resample_arclength(
    spec: CurveSpec, n: int, manifold: ManifoldSpec = Euclidean3()
) -> SampledCurve:
    """Uniform arc-length sampling of a curve shape.

    Returns n nodes with periodic-trapezoid weights (each L/n, summing to L),
    the exact or discretely estimated curvature bound kappa*, the
    near-diagonal window half-width delta and the off-window self-distance.

    A warning is issued when fewer than 4 nodes span the delta window; the
    band quadrature does not rely on node spacing, but geometry estimates do.
    """
    _check_count("sample node count n", n, 8)

    if isinstance(spec, Circle):
        ev = _CircleEval(spec.center, spec.radius, spec.normal)
        kappa, homogeneous, exact_kappa = 1.0 / spec.radius, True, True
    elif isinstance(spec, ParametricSamples):
        pts = np.asarray(spec.points, dtype=float)
        ev = _PolylineEval(pts)
        _check_polyline_embedding(pts, ev.length)
        kappa, homogeneous, exact_kappa = None, False, False
    elif isinstance(spec, TorusLoop):
        if not isinstance(manifold, FlatTorus3):
            raise DomainError("TorusLoop requires a FlatTorus3 manifold")
        ls = manifold.circumferences
        direction = np.array([spec.winding[i] * ls[i] for i in range(3)], dtype=float)
        ev = _AffineEval(spec.offset, direction)
        kappa, homogeneous, exact_kappa = 0.0, True, True
    else:
        raise DomainError(f"unknown curve shape {type(spec).__name__}")

    L = ev.length
    s_nodes = np.arange(n) * (L / n)
    points = ev(s_nodes)
    weights = np.full(n, L / n)

    if not exact_kappa:
        kappa = 1.1 * _menger_curvature(points, manifold)  # 10% safety margin

    delta = L / 8.0 if kappa == 0.0 else min(1.0 / (4.0 * kappa), L / 8.0)

    # self-distance: closest approach among node pairs separated by more
    # than delta in arc length
    i, j = np.triu_indices(n, k=1)
    arc = np.abs(s_nodes[i] - s_nodes[j])
    arc = np.minimum(arc, L - arc)
    disp = pair_displacement(manifold, points[i], points[j])
    dist = displacement_distance(manifold, disp)
    outside = arc > delta
    self_dist = float(np.min(dist[outside])) if np.any(outside) else math.inf
    if np.any(dist[arc > 1e-9 * L] < 1e-9 * L):
        raise ValidationError("distinct arc positions collapse to one point")

    # chord window check on flat backends: sqrt(1-kappa*delta) xi <= d <= xi
    if not isinstance(manifold, Hyperbolic3):
        inside = (arc <= delta) & (arc > 0)
        if np.any(inside):
            xi = arc[inside]
            d_in = dist[inside]
            lo = math.sqrt(max(1.0 - kappa * delta, 0.0))
            if np.any(d_in > xi * (1.0 + 1e-9)) or np.any(d_in < lo * xi * (1.0 - 1e-9)):
                raise ValidationError("chord-window inequality violated in delta band")

    if delta / (L / n) < 4.0 and not exact_kappa:
        warnings.warn(
            f"only {delta / (L / n):.1f} nodes per delta window (< 4); "
            "increase the sample count for trustworthy geometry estimates",
            stacklevel=2,
        )

    return SampledCurve(
        nodes=s_nodes,
        points=points,
        weights=weights,
        length=L,
        kappa_star=float(kappa),
        delta_window=float(delta),
        self_distance=self_dist,
        homogeneous=homogeneous,
        evaluator=ev,
    )


@dataclass(frozen=True, eq=False)
class CurveFamily:
    """Disjoint closed curves with binding parameters and pair separations."""

    curves: tuple
    mu: np.ndarray
    d_matrix: np.ndarray
    mass: float = 1.0

    def __len__(self):
        return len(self.curves)


def _node_pairs(a, b):
    """The tensor of two node sets: every (a[k], b[l]) row pair, a's rows slowest."""
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a),) + (1,) * (np.ndim(b) - 1))


def family_geometry(
    curves: Sequence[SampledCurve],
    manifold: ManifoldSpec,
    mu: Sequence[float],
    mass: float = 1.0,
) -> CurveFamily:
    """Bundle sampled curves into a family, computing pairwise separations.

    d_ij is the brute-force minimum geodesic distance over sample-node pairs.
    Requires |mu_i| < mass and strictly positive separations (disjointness).
    """
    curves = tuple(curves)
    mu = np.asarray(mu, dtype=float)
    if not 0 < mass < math.inf:
        raise DomainError("mass must be positive and finite")
    if len(mu) != len(curves):
        raise DomainError("one binding parameter per curve required")
    if not np.all(np.abs(mu) < mass):
        raise DomainError("binding parameters must satisfy |mu_i| < mass")
    n = len(curves)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            disp = pair_displacement(manifold, *_node_pairs(curves[i].points, curves[j].points))
            dij = float(np.min(displacement_distance(manifold, disp)))
            if dij <= 0:
                raise ValidationError(f"curves {i} and {j} are not disjoint")
            d[i, j] = d[j, i] = dij
    return CurveFamily(curves=curves, mu=mu, d_matrix=d, mass=float(mass))
