import math
import warnings

import numpy as np
import pytest

from curvebound import (
    Circle,
    DomainError,
    Euclidean3,
    FlatTorus3,
    ParametricSamples,
    TorusLoop,
    ValidationError,
    family_geometry,
    resample_arclength,
)

EUCLID = Euclidean3()


def test_unit_circle_geometry():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    assert c.length == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert c.kappa_star == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(c.weights, 2.0 * math.pi / 64.0, rtol=1e-14)
    assert c.homogeneous


def test_circle_chord_spacing():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=2.0, normal=(0, 0, 1)), 32)
    chord = float(np.linalg.norm(c.points[1] - c.points[0]))
    assert chord == pytest.approx(4.0 * math.sin(math.pi / 32.0), rel=1e-12)


def test_square_polyline_length():
    sq = ParametricSamples(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = resample_arclength(sq, 40)
    assert c.length == pytest.approx(4.0, abs=1e-6)
    assert abs(float(np.sum(c.weights)) - c.length) < 1e-10 * c.length


def test_weights_sum_to_length():
    shapes = [
        Circle(center=(0, 0, 0), radius=0.7, normal=(0, 1, 0)),
        Circle(center=(5, 0, 0), radius=2.0, normal=(1, 1, 1)),
    ]
    for s in shapes:
        c = resample_arclength(s, 48)
        assert float(np.sum(c.weights)) == pytest.approx(c.length, rel=1e-12)


def test_coaxial_circle_separation():
    a = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    b = resample_arclength(Circle(center=(0, 0, 5), radius=1.0, normal=(0, 0, 1)), 64)
    fam = family_geometry([a, b], EUCLID, [0.0, 0.0])
    assert fam.d_matrix[0, 1] == pytest.approx(5.0, rel=1e-12)


def test_single_curve_family():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 32)
    fam = family_geometry([c], EUCLID, [0.0])
    assert len(fam) == 1
    assert fam.d_matrix.shape == (1, 1) and fam.d_matrix[0, 0] == 0.0


def test_mu_domain_error():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 32)
    with pytest.raises(DomainError):
        family_geometry([c], EUCLID, [1.5], mass=1.0)


def test_overlapping_curves_rejected():
    a = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 32)
    with pytest.raises(ValidationError):
        family_geometry([a, a], EUCLID, [0.0, 0.0])


def test_self_intersecting_polyline_rejected():
    bowtie = ParametricSamples(((0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValidationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resample_arclength(bowtie, 40)


def test_band_window_chord_inequality():
    # node pairs closer than the window: sqrt(1 - kappa* delta) xi <= d <= xi
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 256)
    delta = c.delta_window
    assert 0 < delta < 1.0 / (2.0 * c.kappa_star)
    xi = np.abs(c.nodes[1:] - c.nodes[0])
    xi = np.minimum(xi, c.length - xi)
    d = np.linalg.norm(c.points[1:] - c.points[0], axis=1)
    mask = xi <= delta
    assert mask.any()
    lo = math.sqrt(1.0 - c.kappa_star * delta)
    assert np.all(d[mask] <= xi[mask] + 1e-14)
    assert np.all(d[mask] >= lo * xi[mask] - 1e-14)


def test_self_distance_positive():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    assert c.self_distance > 0


def test_rescaled_circle():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    half = c.rescaled(0.5)
    assert half.length == pytest.approx(math.pi, rel=1e-14)
    assert half.kappa_star == pytest.approx(2.0, rel=1e-14)
    assert float(np.sum(half.weights)) == pytest.approx(half.length, rel=1e-12)
    # points shrink about the origin
    assert np.allclose(half.points, 0.5 * c.points, rtol=1e-14)


def test_torus_loop_geometry():
    t = FlatTorus3((1.0, 1.0, 1.0))
    c = resample_arclength(TorusLoop((1, 1, 0), (0.0, 0.0, 0.5)), 32, t)
    assert c.length == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert c.kappa_star == 0.0
    assert c.homogeneous


@pytest.mark.parametrize("shape, manifold", [
    (Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), EUCLID),
    (ParametricSamples(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))), EUCLID),
    (TorusLoop((1, 1, 0), (0.0, 0.0, 0.5)), FlatTorus3((1.0, 1.0, 1.0))),
], ids=["circle", "polyline", "torus_loop"])
def test_sampled_geometry_is_read_only(shape, manifold):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = resample_arclength(shape, 32, manifold)
    for curve in (c, c.rescaled(2.0)):
        arrays = [curve.nodes, curve.points, curve.weights]
        arrays += [v for v in vars(curve.evaluator).values() if isinstance(v, np.ndarray)]
        assert len(arrays) > 3
        assert not any(a.flags.writeable for a in arrays)


def test_torus_loop_needs_torus():
    with pytest.raises((DomainError, ValidationError)):
        resample_arclength(TorusLoop((1, 0, 0), (0.0, 0.0, 0.0)), 32, EUCLID)


def test_minimum_node_count():
    with pytest.raises(DomainError):
        resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 7)


def test_point_at_wraps_periodically():
    c = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    p1 = c.point_at(np.array([0.3]))
    p2 = c.point_at(np.array([0.3 + c.length]))
    assert np.allclose(p1, p2, atol=1e-12)


def _figure_eight(n=16, lift=0.0):
    """Lemniscate of Gerono through n vertices, none at the crossing.

    Segments 3 and 11 cross at the origin; lift raises segment 3 and lowers
    segment 11 by lift * sin(7 pi / 16), so they miss by 2 lift sin(7 pi / 16).
    """
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    pts = np.stack([np.cos(t), np.sin(t) * np.cos(t), lift * np.sin(t)], axis=1)
    return ParametricSamples(tuple(map(tuple, pts)))


def test_figure_eight_polyline_names_its_crossing():
    with pytest.raises(ValidationError, match="segments 3 and 11"):
        resample_arclength(_figure_eight(), 64)


def test_near_miss_polyline_is_accepted():
    from curvebound.curves import _check_polyline_embedding

    planar = np.asarray(_figure_eight().points)
    length = float(np.sum(np.linalg.norm(np.roll(planar, -1, axis=0) - planar, axis=1)))
    pts = np.asarray(_figure_eight(lift=0.5e-6 * length / math.sin(7.0 * math.pi / 16.0)).points)
    _check_polyline_embedding(pts, length)
    with pytest.raises(ValidationError, match="segments 3 and 11"):
        _check_polyline_embedding(planar, length)


def _segment_pair_min_distance(p1, q1, p2, q2):
    """Loop reference: minimum distance between segments [p1,q1] and [p2,q2]."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, e, f, c, b = d1 @ d1, d2 @ d2, d2 @ r, d1 @ r, d1 @ d2
    denom = a * e - b * b
    s = min(max((b * f - c * e) / denom, 0.0), 1.0) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t, s = 0.0, min(max(-c / a, 0.0), 1.0)
    elif t > 1.0:
        t, s = 1.0, min(max((b - c) / a, 0.0), 1.0)
    return float(np.linalg.norm((p1 + s * d1) - (p2 + t * d2)))


def test_segment_distances_match_pairwise_loop():
    from curvebound.curves import _segment_min_distances

    rng = np.random.default_rng(5)
    for _ in range(20):
        p1, q1 = rng.normal(size=(2, 3))
        p2, q2 = rng.normal(size=(2, 40, 3))
        q2[:5] = p2[:5] + 0.3 * (q1 - p1)  # parallel to [p1, q1]
        got = _segment_min_distances(p1, q1, p2, q2)
        ref = [_segment_pair_min_distance(p1, q1, p2[k], q2[k]) for k in range(40)]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
