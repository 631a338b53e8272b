import math
import tracemalloc
import warnings

import numpy as np
import pytest

import curvebound
from curvebound import (
    DomainError,
    Euclidean3,
    FlatTorus3,
    Hyperbolic3,
    circle_heat_kernel,
    geodesic_distance,
    heat_kernel,
    volume,
)
from curvebound.manifolds import (
    POISSON_SWITCH,
    ROW_SCALE_EXPONENT,
    _log_sinh_ratio,
    _wrap,
    heat_kernel_grid,
    kernel_geometry,
    kernel_rows,
    pair_displacement,
)

MANIFOLDS = {"euclidean": Euclidean3(), "hyperbolic": Hyperbolic3(1.3),
             "torus": FlatTorus3((4.0, 5.0, 6.0))}


def test_euclid_coincidence_value():
    v = heat_kernel(Euclidean3(), 1.0, np.zeros(3), np.zeros(3))
    assert v == pytest.approx((4.0 * math.pi) ** -1.5, rel=1e-14)


def test_euclid_closed_form():
    v = heat_kernel(Euclidean3(), 0.25, np.zeros(3), np.array([1.0, 0, 0]))
    assert v == pytest.approx(math.pi**-1.5 * math.exp(-1.0), rel=1e-14)


def test_torus_long_time_limit_is_inverse_volume():
    t = FlatTorus3((1.0, 1.0, 1.0))
    v = heat_kernel(t, 10.0, np.array([0.3, 0.1, 0.9]), np.array([0.7, 0.2, 0.4]))
    assert abs(v - 1.0) < 1e-10
    assert volume(t) == 1.0


def test_hyperbolic_closed_form():
    h = Hyperbolic3(1.0)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 0.0, math.e])  # geodesic distance exactly 1
    ref = (4.0 * math.pi * 0.5) ** -1.5 * (1.0 / math.sinh(1.0)) * math.exp(-0.5 - 0.5)
    assert heat_kernel(h, 0.5, x, y) == pytest.approx(ref, rel=1e-14)


def test_hyperbolic_semigroup_frozen():
    # int_{H^3} K_.5(x,z) K_.5(z,y) dV(z) at geodesic separation 1, from an
    # independent 2D geodesic-polar integration (adaptive quadrature)
    h = Hyperbolic3(1.0)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 0.0, math.e])
    assert heat_kernel(h, 1.0, x, y) == pytest.approx(5.472740776373e-03, rel=1e-10)


def test_distance_pythagorean():
    d = geodesic_distance(Euclidean3(), np.zeros(3), np.array([3.0, 4.0, 0.0]))
    assert d == pytest.approx(5.0, rel=1e-15)


def test_distance_torus_nearest_image():
    d = geodesic_distance(FlatTorus3((1, 1, 1)), np.zeros(3), np.array([0.9, 0.0, 0.0]))
    assert d == pytest.approx(0.1, rel=1e-12)


def test_distance_hyperbolic_vertical():
    d = geodesic_distance(Hyperbolic3(1.0), np.array([0, 0, 1.0]), np.array([0, 0, math.e]))
    assert d == pytest.approx(1.0, rel=1e-12)


def test_hyperbolic_distance_scales_with_radius():
    a = 2.5
    d = geodesic_distance(Hyperbolic3(a), np.array([0, 0, 1.0]), np.array([0, 0, math.e]))
    assert d == pytest.approx(a, rel=1e-12)


def test_circle_kernel_constant_mode():
    L = 2.0 * math.pi
    for xi in (0.0, 0.4 * L, 0.9 * L):
        assert abs(circle_heat_kernel(100.0 * L**2, xi, L) - 1.0 / L) < 1e-12


def test_circle_kernel_poisson_duality():
    # the mode sum (every mode above e^-GAUSSIAN_TAIL of 12) and the image
    # sum (radius 12) agree at a u where both converge
    from curvebound.manifolds import _image_sum, _mode_sum

    L = 2.0 * math.pi
    u = np.array([L**2 / (4.0 * math.pi**2)])
    xi = np.array([L / 3.0])
    a, b = np.empty((1, 1)), np.empty((1, 1))
    _mode_sum(a, u, np.cos(2.0 * math.pi * np.arange(1, 13)[:, None] * xi / L), L)
    _image_sum(b, u, xi, L, np.array([12]))
    assert abs(a[0, 0] - b[0, 0]) / a[0, 0] < 1e-12


@pytest.mark.parametrize("u_frac", [0.01, 1.0, 100.0])
def test_circle_kernel_normalization(u_frac):
    L = 2.0 * math.pi
    n = 8192
    xi = np.linspace(0.0, L, n, endpoint=False)
    total = float(np.sum(circle_heat_kernel(u_frac * L**2, xi, L))) * L / n
    assert abs(total - 1.0) < 1e-10


def test_circle_kernel_semigroup():
    L = 2.0 * math.pi
    n = 4096
    eta = np.linspace(0.0, L, n, endpoint=False)
    u, v, xi = 0.03 * L**2, 0.11 * L**2, 0.27 * L
    conv = float(np.sum(circle_heat_kernel(u, xi - eta, L) * circle_heat_kernel(v, eta, L))) * L / n
    assert conv == pytest.approx(circle_heat_kernel(u + v, xi, L), rel=1e-10)


def test_torus_kernel_is_product_of_circles():
    t = FlatTorus3((1.0, 2.0, 3.0))
    x = np.array([0.1, 0.5, 2.0])
    y = np.array([0.8, 1.9, 0.3])
    u = 0.2
    got = heat_kernel(t, u, x, y)
    ref = 1.0
    for k, L in enumerate(t.circumferences):
        ref *= circle_heat_kernel(u, x[k] - y[k], L)
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("manifold", [Euclidean3(), Hyperbolic3(1.2)], ids=["euclid", "hyperbolic"])
def test_heat_kernel_grid_allocates_one_block(manifold):
    # the block of a heat-trace panel (24 + 12 u-nodes by a polyline's pairs)
    # is finished in place, with no block-sized temporaries
    u = np.geomspace(1e-3, 10.0, 36)
    disp = np.linspace(0.0, 3.0, 4352)
    block = u.size * disp.size * 8
    heat_kernel_grid(manifold, u, disp)
    tracemalloc.start()
    try:
        heat_kernel_grid(manifold, u, disp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block


def test_heat_kernel_grid_in_place_matches_its_formula():
    # the block is exp of one bilinear form: a(u) d^2 + b(u) with
    # a = -1/(4u), b = -(3/2) log(4 pi u), plus -u/a^2 and log(rho/sinh rho)
    # on Hyperbolic3; on rows where b exceeds ROW_SCALE_EXPONENT (u below
    # about 1e-4), (4 pi u)^{-3/2} is a row factor instead
    d = np.linspace(0.0, 4.0, 50)
    a = 1.3
    ones = np.ones_like(d)
    for lo, hi in ((1e-3, 30.0), (1e-24, 1e-3)):
        u = np.geomspace(lo, hi, 36)[:, None]
        a_u, b_u = -0.25 / u, -1.5 * np.log(4.0 * math.pi * u)
        scaled = b_u > ROW_SCALE_EXPONENT
        assert scaled.any() == scaled[0, 0] == (lo < 1e-4) and not scaled[-1, 0]
        scale = np.where(scaled, (4.0 * math.pi * u) ** -1.5, 1.0)
        b_u = np.where(scaled, 0.0, b_u)
        euclid = np.exp(np.hstack([a_u, b_u]) @ np.vstack([d**2, ones])) * scale
        hyperbolic = np.exp(np.hstack([a_u, b_u - u / a**2, np.ones_like(u)])
                            @ np.vstack([d**2, ones, _log_sinh_ratio(d / a)])) * scale
        np.testing.assert_array_equal(heat_kernel_grid(Euclidean3(), u[:, 0], d), euclid)
        np.testing.assert_array_equal(heat_kernel_grid(Hyperbolic3(a), u[:, 0], d), hyperbolic)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_torus_grid_matches_product_of_circle_kernels(seed):
    # image, mode and Euclidean rows in any u order, on prefixes of the
    # geometry, against the product of circle kernels; an exponent x carries
    # an error of about |x| ulps in either
    t = FlatTorus3((4.0, 5.0, 6.0))
    rng = np.random.default_rng(seed)
    disp = pair_displacement(t, rng.uniform(0, 6, (60, 3)), rng.uniform(0, 6, (60, 3)))
    disp = disp[np.argsort(np.linalg.norm(disp, axis=1))]
    u = rng.permutation(np.geomspace(1e-5, 60.0, 120))
    ref = np.ones((len(u), len(disp)))
    for axis, L in enumerate(t.circumferences):
        ref *= circle_heat_kernel(u[:, None], disp[:, axis], L)
    geometry = kernel_geometry(t, disp)
    for k in (60, 25, 3):
        got, want = heat_kernel_grid(t, u, geometry[:k]), ref[:, :k]
        tol = 8.0 * np.finfo(float).eps * (1.0 + np.abs(np.log(np.maximum(want, 1e-300))))
        assert np.all(np.abs(got - want) <= tol * want + 1e-280)
    np.testing.assert_array_equal(heat_kernel_grid(t, u, disp), heat_kernel_grid(t, u, geometry))


def test_straddling_torus_call_holds_at_most_three_blocks():
    # a heat-trace panel on a prebuilt geometry: the block, one axis factor
    # and one image term, with no masks over the block
    t = FlatTorus3((4.0, 5.0, 6.0))
    u = np.geomspace(1e-3, 10.0, 36)
    assert all(u[0] < POISSON_SWITCH * L**2 < u[-1] for L in t.circumferences)
    disp = np.random.default_rng(3).uniform(-3.0, 3.0, (4352, 3))
    geometry = kernel_geometry(t, disp)
    heat_kernel_grid(t, u, geometry)
    tracemalloc.start()
    try:
        heat_kernel_grid(t, u, geometry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * u.size * len(disp) * 8


def test_heat_kernel_grid_matches_scalar():
    m = Hyperbolic3(1.3)
    xs = np.array([[0.0, 0.0, 1.0], [0.2, 0.1, 2.0], [0.0, 0.5, 0.7]])
    ys = np.array([[0.1, 0.0, 1.5], [0.0, 0.0, 1.0], [0.3, 0.2, 1.1]])
    disp = pair_displacement(m, xs, ys)
    grid = heat_kernel_grid(m, np.array([0.7]), disp)
    for k in range(3):
        assert grid[0, k] == pytest.approx(heat_kernel(m, 0.7, xs[k], ys[k]), rel=1e-13)


def test_domain_errors():
    with pytest.raises(DomainError):
        heat_kernel(Euclidean3(), 0.0, np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        heat_kernel(Hyperbolic3(1.0), 1.0, np.array([0, 0, -1.0]), np.array([0, 0, 1.0]))
    with pytest.raises(DomainError):
        FlatTorus3((1.0, -1.0, 1.0))
    with pytest.raises(DomainError):
        Hyperbolic3(0.0)
    with pytest.raises(DomainError):
        circle_heat_kernel(-0.1, 0.0, 2.0 * math.pi)


def test_nan_diffusion_time_is_a_domain_error():
    L = 2.0 * math.pi
    with pytest.raises(DomainError):
        circle_heat_kernel(math.nan, 0.3, L)
    with pytest.raises(DomainError):
        circle_heat_kernel(np.array([[0.1], [math.nan]]), np.array([0.0, 0.3]), L)
    with pytest.raises(DomainError):
        heat_kernel(Euclidean3(), math.nan, np.zeros(3), np.ones(3))
    with pytest.raises(DomainError):
        heat_kernel(FlatTorus3((1.0, 2.0, 3.0)), math.nan, np.zeros(3), np.ones(3))
    assert circle_heat_kernel(math.inf, 0.3, L) == 1.0 / L


def test_circle_kernel_of_no_diffusion_times_is_an_empty_block():
    L = 2.0 * math.pi
    assert circle_heat_kernel(np.ones(0), 0.3, L).shape == (0,)
    assert circle_heat_kernel(np.ones(0), np.ones(0), L).shape == (0,)
    assert circle_heat_kernel(np.ones((0, 1)), np.ones(5), L).shape == (0, 5)


@pytest.mark.parametrize("u", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("manifold", [Euclidean3(), Hyperbolic3(1.0), FlatTorus3((1.0, 2.0, 3.0))],
                         ids=["euclidean", "hyperbolic", "torus"])
def test_heat_kernel_grid_rejects_a_non_positive_diffusion_time(manifold, u):
    # a radial block of such a u is NaN, with a floating-point warning at
    # u <= 0 and without one at u = NaN
    disp = pair_displacement(manifold, [[0.0, 0.0, 1.0]], [[0.1, 0.0, 1.0]])
    with pytest.raises(DomainError):
        heat_kernel_grid(manifold, np.array([0.5, u]), disp)
    with pytest.raises(DomainError):
        heat_kernel_grid(manifold, np.array([u]), kernel_geometry(manifold, disp))


@pytest.mark.parametrize("u", [1.0, [[0.5], [1.0]], [[0.5, 1.0]]], ids=["scalar", "column", "row"])
@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_heat_kernel_grid_takes_a_1d_array_of_diffusion_times(name, u):
    # a scalar u raised a bare IndexError and a 2-d u a broadcast ValueError
    manifold = MANIFOLDS[name]
    disp = pair_displacement(manifold, [[0.5, 0.5, 1.0]], [[1.5, 0.5, 1.0]])
    with pytest.raises(DomainError, match="1-d"):
        heat_kernel_grid(manifold, u, disp)
    with pytest.raises(DomainError, match="1-d"):
        kernel_rows(manifold, u)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_kernel_at_a_vanishing_diffusion_time_is_zero(name):
    # (4 pi u)^{-3/2} overflows below u ~ 3e-207: as a row factor it made
    # 0 * inf = NaN, so there it stays in the exponent
    manifold = MANIFOLDS[name]
    x, y = np.array([0.5, 0.5, 1.0]), np.array([1.5, 0.5, 1.0])
    disp = pair_displacement(manifold, x[None], y[None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (1e-210, 1e-300):
            assert heat_kernel(manifold, u, x, y) == 0.0
        block = heat_kernel_grid(manifold, np.array([1e-300, 1e-210, 0.01, 1.0]), disp)
    assert np.all(block[:2] == 0.0) and np.all(block[2:] > 0.0)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_kernel_at_a_subnormal_diffusion_time(name):
    # -1/(4u) overflowed below u ~ 1.4e-309: at d > 0 the kernel was 0 with a
    # warning, at d = 0 NaN.  Now both are as at u = 1e-300: 0 with no
    # warning, and +inf (e^b overflows, the one warning there)
    manifold = MANIFOLDS[name]
    x, y = np.array([0.5, 0.5, 1.0]), np.array([1.5, 0.5, 1.0])
    disp = pair_displacement(manifold, np.array([x, x]), np.array([y, x]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (1e-310, 5e-324, 1e-300):
            assert heat_kernel(manifold, u, x, y) == 0.0
            with np.errstate(over="ignore"):
                assert heat_kernel(manifold, u, x, x) == math.inf
                block = heat_kernel_grid(manifold, np.array([u, 1.0]), disp)
            assert block[0, 0] == 0.0 and block[0, 1] == math.inf and np.all(block[1] > 0.0)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_kernel_rows_slices_match_rows_built_per_call(name, monkeypatch):
    # a heat trace builds the rows of a ladder extension once and passes a
    # slice per u-panel: each slice is the rows of its own u, and its block
    # is the block of rows built for that u alone, bit for bit.  u spans the
    # row-scale switch (u ~ 1e-4), and on the torus the Euclidean, image and
    # mode rows; the torus rows carry the Euclidean factors of its flat rows,
    # so a block on a slice builds no rows of its own
    manifold = MANIFOLDS[name]
    rng = np.random.default_rng(5)
    X = rng.uniform(0.5, 3.0, (40, 3))
    disp = pair_displacement(manifold, X, X + rng.uniform(-1.5, 1.5, (40, 3)) * [1, 1, 0.1])
    geometry = kernel_geometry(manifold, disp)
    u = np.concatenate([np.geomspace(1e-7, 50.0, 48), np.geomspace(2e-5, 3e-4, 24)])
    scaled = -1.5 * np.log(4.0 * math.pi * u) > ROW_SCALE_EXPONENT
    assert scaled.any() and not scaled.all()
    rows = kernel_rows(manifold, u)
    assert rows.size == np.size(rows) == u.size and np.shape(rows) == u.shape
    np.testing.assert_array_equal(np.asarray(rows), u)
    assert np.asarray(rows, dtype=np.longdouble).dtype == np.longdouble
    built = []
    radial_rows = curvebound.manifolds._radial_rows
    monkeypatch.setattr(curvebound.manifolds, "_radial_rows",
                        lambda u, a=None: built.append(len(u)) or radial_rows(u, a))
    for i, j in ((0, 72), (0, 36), (36, 72), (10, 30), (30, 48), (48, 60), (70, 72), (5, 5)):
        part, ref = rows[i:j], kernel_rows(manifold, u[i:j])
        for field in ("u", "cols", "scale"):
            got, want = getattr(part, field), getattr(ref, field)
            assert (got is None) == (want is None), (i, j, field)
            if want is not None:
                np.testing.assert_array_equal(got, want)
        for k in (40, 7):
            built.clear()
            block = heat_kernel_grid(manifold, part, geometry[:k])
            assert built == []
            np.testing.assert_array_equal(block, heat_kernel_grid(manifold, u[i:j], disp[:k]))
    assert rows[30:48].scale is None and rows[0:10].scale is not None


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_manifold_lengths_must_be_finite(bad):
    # heat_kernel returned NaN on either manifold once it was accepted
    with pytest.raises(DomainError):
        FlatTorus3((bad, 1.0, 1.0))
    with pytest.raises(DomainError):
        Hyperbolic3(bad)


def test_torus_circumferences_are_a_hashable_tuple_of_floats():
    t = FlatTorus3([5, 5, 5])
    assert t.circumferences == (5.0, 5.0, 5.0)
    assert all(type(c) is float for c in t.circumferences)
    assert hash(t) == hash(FlatTorus3((5.0, 5.0, 5.0))) and t == FlatTorus3((5.0, 5.0, 5.0))


@pytest.mark.parametrize("L", [0.7, 2.0 * math.pi, 5.0])
def test_circle_kernel_truncation_matches_full_series(L):
    # the reference is the full series, 13 images below the switch and 6 modes
    # at or above it; the per-call truncation may only drop terms below rounding
    from curvebound.manifolds import POISSON_SWITCH

    u = L**2 * np.logspace(-12.0, 2.0, 1401)
    xi = np.concatenate([np.linspace(-L, L, 161), [-0.5 * L, 0.5 * L, np.nextafter(0.5 * L, 0)]])
    switch = POISSON_SWITCH * L**2
    uc = u[:, None]
    modes = np.ones((len(u), len(xi)))
    for n in range(1, 7):
        modes = modes + 2.0 * np.exp(-4.0 * math.pi**2 * n**2 * uc / L**2) * np.cos(
            2.0 * math.pi * n * xi / L)
    # the minimal image of each xi in [-L, L], exact: a shift by L is exact there
    wrapped = np.where(xi > 0.5 * L, xi - L, np.where(xi < -0.5 * L, xi + L, xi))
    images = np.zeros((len(u), len(xi)))
    for k in range(-6, 7):
        images = images + np.exp(-((wrapped + k * L) ** 2) / (4.0 * uc))
    ref = np.where(uc >= switch, modes / L, images / np.sqrt(4.0 * math.pi * uc))
    scale = np.where(ref > 0, ref, 1.0)

    def check(got, want, where):
        assert np.all(np.abs(got - want) <= 2e-16 * where), np.max(np.abs(got - want) / where)

    for lo in range(0, len(u), 7):  # column-by-row grid calls, one side each but one
        check(circle_heat_kernel(u[lo:lo + 7, None], xi, L), ref[lo:lo + 7], scale[lo:lo + 7])
    check(circle_heat_kernel(u[:, None], xi, L), ref, scale)  # straddles the switch
    assert u[0] < switch <= u[-1]
    for b in range(0, len(xi), 20):  # u along the last axis: a row per element
        check(circle_heat_kernel(u, float(xi[b]), L), ref[:, b], scale[:, b])
    for a in range(0, len(u), 50):
        for b in range(0, len(xi), 20):
            got = circle_heat_kernel(float(u[a]), float(xi[b]), L)
            assert isinstance(got, float)
            check(got, ref[a, b], scale[a, b])


@pytest.mark.parametrize("L", [0.7, 1.0, 2.0 * math.pi, 5.0, 100.0])
def test_circle_series_lengths_stay_short(L):
    # why the kernel needs no truncation caps: over u in [1e-12, 1e2] L^2 no
    # row sums more than 4 images below the switch or 3 modes at or above it
    from curvebound.manifolds import POISSON_SWITCH, _image_radii, _mode_count

    u = L**2 * np.logspace(-12.0, 2.0, 1401)
    switch = POISSON_SWITCH * L**2
    below, above = u[u < switch], u[u >= switch]
    assert len(below) and len(above)
    assert np.max(_image_radii(below, 0.5 * L, L)) <= 4
    assert max(_mode_count(float(v), L) for v in above) <= 3
    assert _image_radii(np.array([switch]), 0.5 * L, L)[0] <= 4 and _mode_count(switch, L) <= 3


@pytest.mark.parametrize("L", [0.7, 1.0, 2.0 * math.pi, 5.0])
def test_images_beyond_the_underflow_cap_are_exact_zeros(L):
    # on a panel u in [u_max/4, u_max], each image beyond a row's radius is
    # below e^-GAUSSIAN_TAIL of image 0 at the largest |xi|, x, and exactly
    # +0.0 at every |xi| <= x where the underflow cap sets the radius; the
    # radius goes down to 0
    from curvebound.manifolds import EXP_UNDERFLOW, GAUSSIAN_TAIL, _image_radii

    xi = np.linspace(-0.5 * L, 0.5 * L, 201)
    radii, capped = set(), 0
    for u_max in L**2 * np.geomspace(1e-5, 2e-2, 40):
        u = np.geomspace(0.25 * u_max, u_max, 12)
        for x in (0.5 * L, 0.1 * L, 0.0):
            row = xi[np.abs(xi) <= x]
            radius = _image_radii(u, x, L)
            radii.update(radius.tolist())
            for v, r in zip(u, radius.tolist()):
                cap = x * x + 4.0 * GAUSSIAN_TAIL * v > 4.0 * EXP_UNDERFLOW * v
                capped += cap
                for k in range(r + 1, 8):
                    for image in (row + k * L, row - k * L):
                        dropped = np.exp(-(image**2) / (4.0 * v))
                        assert np.all(dropped <= math.exp(-GAUSSIAN_TAIL - x * x / (4.0 * v)))
                        assert not cap or not np.any(dropped)
    assert 0 in radii and 1 in radii and capped
    u = np.geomspace(1e-6, 8e-5, 12) * L**2  # the cap is 0 up to u = L^2/12000
    assert np.max(_image_radii(u, 0.5 * L, L)) == 0


def test_hyperbolic_kernel_far_apart_raises_no_warning():
    # sinh overflows beyond ~710 curvature radii; the kernel there is an exact 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = heat_kernel_grid(Hyperbolic3(1.0), np.array([1e-3, 1.0, 300.0]),
                                 np.array([1.0, 800.0]))
    assert np.all(np.isfinite(block))
    assert np.all(block[:, 0] > 0) and np.all(block[:, 1] == 0.0)


def test_log_sinh_ratio_matches_its_direct_form():
    # log(rho/sinh rho) enters an exponent, so its absolute error is what counts
    rho = np.geomspace(1e-3, 700.0, 20001)
    direct = np.log(rho / np.sinh(rho))
    np.testing.assert_allclose(_log_sinh_ratio(rho), direct, rtol=0,
                               atol=4.0 * np.spacing(np.abs(direct)).max())
    near = rho < 30
    np.testing.assert_allclose(_log_sinh_ratio(rho[near]), direct[near], rtol=0, atol=1e-14)
    far = np.array([800.0, 1e5, 1e300])
    np.testing.assert_allclose(_log_sinh_ratio(far), np.log(2.0 * far) - far, rtol=1e-15)


def test_wrap_keeps_differences_in_range_exact():
    # (delta + L/2) % L - L/2 rounds delta to a multiple of ulp(L/2)
    assert _wrap(1e-13, 2.0 * math.pi) == 1e-13
    delta = np.array([1e-15, -3e-14, 0.5, -2.0, 2.0])
    np.testing.assert_array_equal(_wrap(delta, 4.0), delta)
    np.testing.assert_allclose(_wrap(np.array([5.0, -7.5, 9.0 + 1e-13]), 4.0),
                               [1.0, 0.5, 1.0 + 1e-13], rtol=0, atol=1e-15)
