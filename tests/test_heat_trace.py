"""One heat trace per curve pair, contracted per energy.

spectral_flow, ground_state_energy and feynman_hellman_residual contract the
traces with each energy's weight; the result must be the per-energy assemble
to rounding, and the kernel work must not grow with the number of energies.
The traces of a family are built once per (manifold, quadrature config) and
shared by every later call on it: a later call evaluates only the u-panels
no earlier call needed, returns what the same call returns on a fresh
family, and the traces die with the family.  Each pair enters a trace only
on the u-panels above its own boundary-layer floor; the result must be the
all-pairs evaluation to rounding.
"""

import gc
import importlib
import math
import os
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import curvebound
from curvebound import (
    Circle,
    Euclidean3,
    FlatTorus3,
    Hyperbolic3,
    MinimalBoundState,
    ParametricSamples,
    QuadratureConfig,
    RGScale,
    TorusLoop,
    assemble,
    derivative_matrix,
    family_geometry,
    feynman_hellman_residual,
    geodesic_distance,
    ground_state_energy,
    pair_displacement,
    resample_arclength,
    spectral_flow,
)
from curvebound import principal, quadrature
from curvebound.manifolds import (
    circle_heat_kernel,
    displacement_distance,
    heat_kernel_grid,
    kernel_geometry,
    kernel_rows,
)
from curvebound.principal import _counterterm_weight, _inner_grid, _pair_rule, _trace_store
from curvebound.quadrature import (
    BAND_GROWTH,
    BOUNDARY_LAYER,
    DEFAULT_QUADRATURE,
    PROXY_NODES,
    PROXY_SPREAD,
    _chebyshev_proxies,
    _leggauss,
    u_panel_breaks,
    weight_plain,
    weight_renormalized,
)
from curvebound.rgflow import beta

from conftest import circle_family

EUCLID = Euclidean3()
TORUS = FlatTorus3((4.0, 5.0, 6.0))


def _torus_loop_family():
    loop = resample_arclength(TorusLoop((1, 0, 0), (0.3, 0.2, 0.1)), 64, TORUS)
    return family_geometry([loop], TORUS, [0.1])


CASES = {
    "circle_pair": (lambda: circle_family([1.0], mus=[0.1, -0.2]), MinimalBoundState(), EUCLID),
    "torus_loop": (_torus_loop_family, MinimalBoundState(), TORUS),
    "rg_pair": (lambda: circle_family([1.0]), RGScale(mu=0.5, lambda_R=100.0), EUCLID),
}


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectral_flow_matches_per_energy_assemble(name):
    make, p, manifold = CASES[name]
    family = make()
    energies = np.linspace(-0.8, 0.3, 6)
    flow = spectral_flow(family, energies, p, manifold)
    for k, E in enumerate(energies):
        ref = np.linalg.eigvalsh(assemble(family, float(E), p, manifold).entries)
        assert _rel(flow.eigenvalues[k], ref) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_ground_state_matches_per_energy_assemble(name):
    make, p, manifold = CASES[name]
    family = make()
    bracket = (-0.9, 0.45) if isinstance(p, RGScale) else None
    gs = ground_state_energy(family, p, manifold, bracket=bracket)
    assert gs.status == "converged"
    M = assemble(family, gs.E_gr, p, manifold)
    omega = np.linalg.eigvalsh(M.entries)[0]
    assert abs(gs.residual - omega) <= 1e-12 * float(np.max(np.abs(M.entries)))


def test_feynman_hellman_matches_per_energy_matrices():
    family = circle_family([1.0], mus=[0.1, -0.2])
    E, h = -0.3, 1e-4
    res = feynman_hellman_residual(family, E, h=h)
    vals, vecs = np.linalg.eigh(assemble(family, E).entries)
    analytic = np.einsum("ik,ij,jk->k", vecs, derivative_matrix(family, E), vecs)
    fd = (np.linalg.eigvalsh(assemble(family, E + h).entries)
          - np.linalg.eigvalsh(assemble(family, E - h).entries)) / (2.0 * h)
    assert _rel(res.analytic_slopes, analytic) <= 1e-12
    assert np.allclose(res.fd_slopes, fd, rtol=1e-7, atol=0.0)


@pytest.fixture
def kernel_counter(monkeypatch):
    """Count heat_kernel_grid values, and in [1] its calls, wherever the package refers to it."""
    count = [0, 0]
    original = curvebound.manifolds.heat_kernel_grid

    def counted(manifold, u, disp, *args, **kwargs):
        count[0] += int(np.size(u)) * int(np.shape(disp)[0])
        count[1] += 1
        return original(manifold, u, disp, *args, **kwargs)

    for name in ("quadrature", "principal", "spectrum"):
        module = importlib.import_module(f"curvebound.{name}")
        if hasattr(module, "heat_kernel_grid"):
            monkeypatch.setattr(module, "heat_kernel_grid", counted)
    return count


def test_spectral_flow_kernel_work_is_one_assembly(kernel_counter):
    energies = np.linspace(-0.7, 0.2, 6)
    assemble(circle_family([1.0], mus=[0.1, -0.2]), -0.7)
    one = kernel_counter[0]
    kernel_counter[0] = 0
    # a fresh family: the first one's traces are already built
    spectral_flow(circle_family([1.0], mus=[0.1, -0.2]), energies)
    assert 0 < kernel_counter[0] <= 1.2 * one


def test_single_curve_at_mu_evaluates_no_kernel(kernel_counter, single_family):
    assert assemble(single_family, 0.0).entries[0, 0] == 0.0
    assert ground_state_energy(single_family).E_gr == 0.0
    assert kernel_counter[0] == 0


def test_panel_ladders_nest_across_energies():
    cfg = QuadratureConfig()
    for d in (0.0, 1e-9, 0.05, 1.0, 40.0):
        low = u_panel_breaks(d, 1.0, 0.1, cfg)
        high = u_panel_breaks(d, 1.0, 0.99, cfg)
        assert len(high) > len(low)
        assert np.array_equal(high[: len(low)], low)
        assert high[-1] >= 45.0 / (1.0 - 0.99**2)


def _fresh_trace(name="gap_circles", ij=(0, 1)):
    make, _, manifold, _ = PRUNING_CASES[name]
    return _trace_store(make(), manifold, DEFAULT_QUADRATURE).traces[ij]


@pytest.mark.parametrize("name,ij", [("gap_circles", (0, 1)), ("polyline_diagonal", (0, 0)),
                                     ("torus_circle", (0, 0))])
def test_half_rule_is_the_even_nodes_at_twice_the_weight(name, ij):
    # one uniform grid in t = log u across the whole ladder; the half rule,
    # of step 2h, weighs its even nodes by exactly twice the full rule's
    u, G, _ = _fresh_trace(name, ij).rules(1.0, 0.9)
    t = np.log(u)
    h = G[0, 0] / u[0]
    np.testing.assert_allclose(np.diff(t), h, rtol=1e-9, atol=0)
    np.testing.assert_allclose(G[0], h * u, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(G[1, 0::2], 2.0 * G[0, 0::2])
    assert not np.any(G[1, 1::2])


def test_ladder_for_a_smaller_e_max_is_a_prefix_of_a_larger_one():
    # two fresh traces: the rules of the shorter ladder are the first nodes,
    # weights and kernel rows of the longer one, bit for bit
    (u, G, T), (u_long, G_long, T_long) = (_fresh_trace().rules(1.0, e) for e in (0.3, 0.9))
    n = len(u)
    assert 0 < n < len(u_long)
    np.testing.assert_array_equal(u, u_long[:n])
    np.testing.assert_array_equal(G, G_long[:, :n])
    np.testing.assert_array_equal(T, T_long[:n])


def test_more_u_nodes_give_a_smaller_step():
    # the benchmark's reference config stays finer than the default
    fine = QuadratureConfig(u_nodes=32,
                            sing_window=quadrature.SingWindowConfig(log_nodes=28, far_nodes=32))
    configs = (DEFAULT_QUADRATURE, fine)
    rules = [quadrature._log_trapezoid(cfg) for cfg in configs]
    steps = [g[0, 0] for _, g in rules]  # h times x_0 = 1
    assert steps[1] < steps[0] < 0.18
    for cfg, (x, _) in zip(configs, rules):  # an even count of steps spans each panel
        assert len(x) % 2 == 0
        assert len(x) * math.log(x[1]) == pytest.approx(math.log(cfg.panel_ratio), rel=1e-14)


def test_hyperbolic_distance_resolves_near_coincidence():
    # acosh(1 + q) rounds q < 1e-16 to zero; the band nodes of the diagonal
    # xi grid sit that close
    H = Hyperbolic3(1.0)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1e-10, 0.0, 1.0])
    assert geodesic_distance(H, x, y) == pytest.approx(1e-10, rel=1e-12)
    d = pair_displacement(H, x[None, :], y[None, :])
    assert d[0] == pytest.approx(1e-10, rel=1e-12)


@pytest.mark.parametrize("command", [None, "bounds", "flow", "solve", "scan", "validate"],
                         ids=["import", "bounds", "flow", "solve", "scan", "validate"])
def test_cli_leaves_scipy_unloaded(tmp_path, command):
    """Neither the import nor any subcommand loads any part of scipy.

    erfcx is NumPy, the flow builds its Laguerre rules and its ODE cross-check
    in NumPy, and the resolvent oracle of validate is Gauss-Legendre panels.
    """
    code = "import sys, curvebound.cli\n"
    if command is not None:
        cfg = Path(__file__).parents[1] / "perfbench" / "configs" / f"{command}.json"
        argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
        code += f"assert curvebound.cli.main({argv!r}) == 0\n"
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(curvebound.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_family_geometry_cannot_move_in_place():
    # the traces of a family are built once, so an in-place edit of a curve
    # would leave later calls on stale traces
    f = circle_family([1.0])
    assemble(f, -0.5, manifold=EUCLID)
    with pytest.raises(ValueError):
        f.curves[1].points[:, 0] += 5


def _polyline_family():
    """A 64-node closed polyline: an ellipse with an out-of-plane wobble."""
    th = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    pts = np.stack([1.2 * np.cos(th), 0.8 * np.sin(th), 0.12 * np.sin(3.0 * th)], axis=1)
    with warnings.catch_warnings():
        # a polyline always has fewer than 4 nodes per curvature window at 64
        # nodes; the geometry estimate is not what these tests check
        warnings.filterwarnings("ignore", message="only .* nodes per delta window")
        curve = resample_arclength(ParametricSamples(tuple(map(tuple, pts))), 64)
    return family_geometry([curve], EUCLID, [-0.3])


def _circles(manifold, centers, radius, mus):
    curves = [resample_arclength(Circle(center=c, radius=radius, normal=(0.0, 0.0, 1.0)), 64,
                                 manifold) for c in centers]
    return family_geometry(curves, manifold, mus)


def _rule_pairs(ci, cj, manifold):
    """(displacements, coefficient columns) of the pair rule of curves ci, cj
    (cj is ci on a diagonal)."""
    x, y, coeffs = _pair_rule(ci, cj, DEFAULT_QUADRATURE.sing_window)
    return pair_displacement(manifold, x, y), np.atleast_2d(coeffs)


PRUNING_CASES = {
    "polyline_diagonal": (_polyline_family, MinimalBoundState(), EUCLID, -0.6),
    "gap_circles": (lambda: circle_family([0.05], mus=[-0.2, -0.3]), MinimalBoundState(),
                    EUCLID, -0.5),
    "torus_circle": (lambda: _circles(TORUS, [(1.0, 1.0, 1.0)], 0.8, [-0.3]),
                     MinimalBoundState(), TORUS, -0.6),
    "hyperbolic_pair": (lambda: _circles(Hyperbolic3(1.2), [(0, 0, 2.0), (2.5, 0, 2.0)], 0.7,
                                         [-0.3, -0.35]), MinimalBoundState(), Hyperbolic3(1.2),
                        -0.7),
    "rg_counterterm": (lambda: circle_family([1.0]), RGScale(mu=0.5, lambda_R=100.0), EUCLID,
                       -0.3),
}


@pytest.mark.parametrize("name", sorted(PRUNING_CASES))
def test_pruned_traces_match_all_pairs(name):
    make, p, manifold, E = PRUNING_CASES[name]
    family = make()
    store = _trace_store(family, manifold, DEFAULT_QUADRATURE)
    curves = family.curves
    rg = isinstance(p, RGScale)

    def minus_plain(u):
        return -weight_plain(u, E, 1.0)

    checks = []  # (trace, all-pairs kernel(u), coefficients, weight, ladder's e_max)
    for (i, j), trace in store.traces.items():
        disp, coeffs = _rule_pairs(curves[i], curves[j], manifold)
        if i != j:
            weight, e_max = minus_plain, abs(E)
        else:
            weight = minus_plain if rg else (
                lambda u, mu=family.mu[i]: weight_renormalized(u, E, mu, 1.0))
            e_max = abs(E) if rg else max(abs(E), abs(family.mu[i]))
        checks.append((trace, lambda u, disp=disp: heat_kernel_grid(manifold, u, disp),
                       coeffs, weight, e_max))
    for i in range(len(curves)) if rg else ():
        xi, cols = _inner_grid(curves[i], DEFAULT_QUADRATURE.sing_window)
        L = curves[i].length
        checks.append((store.counterterm(i),
                       lambda u, xi=xi, L=L: circle_heat_kernel(u[:, None], xi, L),
                       cols, _counterterm_weight(p.mu),
                       abs(E)))
    for trace, kernel, coeffs, weight, e_max in checks:
        full, half = trace.integrate(weight, 1.0, e_max)
        u, G, _ = trace.rules(1.0, e_max)
        ref_full, ref_half = (G * weight(u)) @ (kernel(u) @ coeffs.T)
        scale = np.max(np.abs(ref_full))
        assert np.max(np.abs(full - ref_full)) <= 1e-14 * scale
        assert np.max(np.abs(np.abs(full - half) - np.abs(ref_full - ref_half))) <= 1e-14 * scale


def test_polyline_kernel_work_skips_pairs_below_their_floor(kernel_counter):
    family, E = _polyline_family(), -0.6
    assemble(family, E)
    evaluated = kernel_counter[0]
    trace = _trace_store(family, EUCLID, DEFAULT_QUADRATURE).traces[0, 0]
    pairs = len(_rule_pairs(family.curves[0], family.curves[0], EUCLID)[0])
    u_nodes = len(trace.rules(1.0, abs(E))[0])
    assert 0 < evaluated <= 0.35 * pairs * u_nodes


def test_torus_kernel_sums_only_live_series_terms(monkeypatch):
    # each row truncates its image and mode sums to its own u: well under the
    # full series of 13 images, and at most 3 modes
    summed = {"images": [0, 0], "modes": [0, 0]}  # [terms, elements]
    images_of, modes_of = curvebound.manifolds._image_sum, curvebound.manifolds._mode_sum

    def images(out, u, xi, L, radius):
        summed["images"][0] += int(np.sum(2 * radius + 1)) * len(xi)
        summed["images"][1] += len(u) * len(xi)
        return images_of(out, u, xi, L, radius)

    def modes(out, u, cosines, L):
        summed["modes"][0] += cosines.shape[0] * out.size
        summed["modes"][1] += out.size
        return modes_of(out, u, cosines, L)

    monkeypatch.setattr(curvebound.manifolds, "_image_sum", images)
    monkeypatch.setattr(curvebound.manifolds, "_mode_sum", modes)
    store = _trace_store(_torus_loop_family(), TORUS, DEFAULT_QUADRATURE)
    assert store.traces[0, 0].rules(1.0, 0.6)
    images, image_elements = summed["images"]
    modes, mode_elements = summed["modes"]
    assert image_elements > 0 and mode_elements > 0
    assert images <= 0.3 * 13 * image_elements
    assert modes <= 3 * mode_elements


def test_torus_traces_sum_no_image_that_underflows_everywhere(monkeypatch):
    # an image term whose every element on a row is +0.0 adds nothing but a
    # slow exp
    summed, dead = [0], []
    original = curvebound.manifolds._image_sum

    def checked(out, u, xi, L, radius):
        for v, r in zip(u, radius):
            for k in range(-int(r), int(r) + 1):
                summed[0] += 1
                if not np.any(np.exp(-((xi + k * L) ** 2) / (4.0 * v))):
                    dead.append((k, L, float(v)))
        return original(out, u, xi, L, radius)

    monkeypatch.setattr(curvebound.manifolds, "_image_sum", checked)
    loop = _trace_store(_torus_loop_family(), TORUS, DEFAULT_QUADRATURE)
    assert loop.traces[0, 0].rules(1.0, 0.6)
    circle = circle_family([1.0], mus=[0.0, 0.0])
    spectral_flow(circle, [-0.6, -0.3], manifold=TORUS)
    assert summed[0] > 0
    assert dead == []


def test_assemble_then_derivative_evaluates_each_kernel_node_once(kernel_counter):
    family, E = _polyline_family(), -0.6
    assemble(family, E)
    derivative_matrix(family, E)
    # one diagonal trace, on the ladder both calls need: on each panel, every
    # node of its rule (the half rule's are among them) times the k pairs
    # above their own floor, the j of the near band by its PROXY_NODES
    # proxies.  A panel from a grows the band to the active pairs with
    # d^2 - D0 <= PROXY_SPREAD a once that adds BAND_GROWTH pairs or the
    # last ones
    cfg = DEFAULT_QUADRATURE
    d = np.sort(_rule_pairs(family.curves[0], family.curves[0], EUCLID)[0])
    d2 = d * d
    breaks = u_panel_breaks(float(d[0]), 1.0, max(abs(E), abs(family.mu[0])), cfg)
    nodes = len(_trace_store(family, EUCLID, cfg).traces[0, 0]._x)
    expected, j, part_band_panels = 0, 0, 0
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = int(np.searchsorted(d2, BOUNDARY_LAYER * b))
        grown = min(k, int(np.count_nonzero(d2 - d2[0] <= PROXY_SPREAD * a)))
        if grown - j >= BAND_GROWTH or grown == len(d2) > j:
            j = grown
        part_band_panels += 0 < j < k
        expected += nodes * ((PROXY_NODES if j else 0) + k - j)
    assert part_band_panels > 0 and j == len(d2)
    assert kernel_counter[0] == expected


PROXY_CASES = {
    "polyline_diagonal": (_polyline_family, EUCLID, (0, 0)),
    "circle_offdiagonal": (lambda: circle_family([0.05], mus=[-0.2, -0.3]), EUCLID, (0, 1)),
    "hyperbolic_pair": (PRUNING_CASES["hyperbolic_pair"][0], Hyperbolic3(1.2), (0, 1)),
}


@pytest.mark.parametrize("name", sorted(PROXY_CASES))
def test_proxy_panel_matches_all_pairs_at_the_threshold(name, kernel_counter):
    # the first panel that may take the proxies, z = (D1 - D0)/(8a) = 1 at
    # u = a: every column (the diagonal's band column too) within 1e-14 of the
    # sum over all pairs, from one kernel call on PROXY_NODES pairs
    make, manifold, (i, j) = PROXY_CASES[name]
    family = make()
    disp, coeffs = _rule_pairs(family.curves[i], family.curves[j], manifold)
    d2 = displacement_distance(manifold, disp) ** 2
    a = (d2.max() - d2.min()) / PROXY_SPREAD
    u = _threshold_nodes(a)
    trace = _trace_store(family, manifold, DEFAULT_QUADRATURE).traces[i, j]
    got = trace._panel(kernel_rows(manifold, u), len(d2), a)
    assert kernel_counter == [PROXY_NODES * len(u), 1]
    ref = heat_kernel_grid(manifold, u, disp) @ coeffs.T
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def _threshold_nodes(a):
    """The full- then the half-order rule's nodes on a panel [a, 4a], the
    full rule led by u = a itself, where z = 1 for a band grown from a."""
    full, half = (a + 1.5 * a * (_leggauss(q)[0] + 1.0) for q in (24, 12))
    return np.concatenate([[a], full, half])


def _sorted_pairs(name):
    """(trace, displacements, coefficient columns, d^2) of a fresh PROXY_CASES
    trace, the pairs in the trace's distance order."""
    make, manifold, (i, j) = PROXY_CASES[name]
    family = make()
    disp, coeffs = _rule_pairs(family.curves[i], family.curves[j], manifold)
    d = displacement_distance(manifold, disp)
    order = np.argsort(d, kind="stable")
    trace = _trace_store(family, manifold, DEFAULT_QUADRATURE).traces[i, j]
    return trace, disp[order], coeffs[:, order], d[order] ** 2


def _long_double_basis(lo, hi, x):
    """The basis of _chebyshev_proxies in long double, from the nodes' closed form on."""
    lo, hi, n = np.longdouble(lo), np.longdouble(hi), PROXY_NODES
    angle = (2 * np.arange(n, dtype=np.longdouble) + 1) * (np.longdouble(math.pi) / (2 * n))
    nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(angle)
    basis = np.where(np.arange(n) % 2, -1, 1)[:, None] * np.sin(angle)[:, None] / (
        np.asarray(x, dtype=np.longdouble) - nodes[:, None])
    return basis / basis.sum(axis=0)


def test_chebyshev_proxies_reproduce_polynomials_and_points_at_a_node():
    # sum_p c_p f(x_p) = sum_k W_k f(node_k) for f of degree < PROXY_NODES,
    # also where some x_p lie exactly on a node (they carry their c there),
    # with no floating-point warning
    rng = np.random.default_rng(3)
    nodes = _chebyshev_proxies(2.0, 5.0, np.array([3.0]), np.ones((1, 1)))[0]
    x = np.concatenate([rng.uniform(2.0, 5.0, 40), nodes[[0, 7, 15]]])
    c = rng.standard_normal((len(x), 2))
    f = np.polynomial.Chebyshev(rng.standard_normal(PROXY_NODES), domain=[2.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, W = _chebyshev_proxies(2.0, 5.0, x, c)
    np.testing.assert_array_equal(got, nodes)
    assert np.all(np.isfinite(W))
    np.testing.assert_allclose(W.T @ f(nodes), c.T @ f(x), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(PROXY_CASES))
def test_grown_band_matches_a_band_built_from_scratch(name):
    # each growth re-interpolates the old proxies and adds the new pairs
    # alone; the W it leaves is the W of one build over all the band's pairs
    # on the band's interval, to rounding.  Against that build in long double
    # both the grown W and the same build in double are within 1e-14 of the
    # largest entry (up to 6.4e-15 here, either way)
    trace, disp, coeffs, d2 = _sorted_pairs(name)
    manifold = PROXY_CASES[name][1]
    h = np.exp(kernel_geometry(manifold, disp).rows[2:].sum(axis=0))
    bands = []
    for q in (0.25, 0.5, 0.75, 1.0):
        a = float(np.quantile(d2 - d2[0], q)) / PROXY_SPREAD
        trace._panel(kernel_rows(manifold, _threshold_nodes(a)), len(d2), a)
        j = trace._band
        bands.append(j)
        lo, hi, c = d2[0], d2[0] + PROXY_SPREAD * a, (coeffs[:, :j] * h[:j]).T
        exact = _long_double_basis(lo, hi, d2[:j]) @ c.astype(np.longdouble)
        scale = float(np.max(np.abs(exact)))
        scratch = _chebyshev_proxies(lo, hi, d2[:j], c)[1]
        grown = trace._coeffs[j:j + PROXY_NODES]
        for W in (scratch, grown):
            assert float(np.max(np.abs(W - exact))) <= 1e-14 * scale
    assert 0 < bands[0] < bands[1] < bands[2] < bands[3] == len(d2)


@pytest.mark.parametrize("name", sorted(PROXY_CASES))
def test_grown_band_matches_all_pairs_at_the_threshold(name, kernel_counter):
    # a band grown over half the pairs, then over all of them, each on the
    # first panel that may take them, z = 1 at u = a: every column within
    # 1e-14 of the sum over all pairs, from one kernel call on the proxies
    # and the pairs beyond the band
    trace, disp, coeffs, d2 = _sorted_pairs(name)
    manifold = PROXY_CASES[name][1]
    for q in (0.5, 1.0):
        a = float(np.quantile(d2 - d2[0], q)) / PROXY_SPREAD
        u = _threshold_nodes(a)
        kernel_counter[:] = [0, 0]
        got = trace._panel(kernel_rows(manifold, u), len(d2), a)
        j = trace._band
        assert 0 < j <= len(d2) and (j == len(d2)) == (q == 1.0)
        assert kernel_counter == [(PROXY_NODES + len(d2) - j) * len(u), 1]
        ref = heat_kernel_grid(manifold, u, disp) @ coeffs.T
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_torus_and_counterterm_traces_take_no_proxies(monkeypatch):
    built = []
    original = quadrature._chebyshev_proxies

    def counted(lo, hi, x, c):
        built.append(len(x))
        return original(lo, hi, x, c)

    monkeypatch.setattr(quadrature, "_chebyshev_proxies", counted)
    torus = _trace_store(_torus_loop_family(), TORUS, DEFAULT_QUADRATURE)
    rg = _trace_store(circle_family([1.0]), EUCLID, DEFAULT_QUADRATURE)
    others = [*torus.traces.values(), rg.counterterm(0), rg.counterterm(1)]
    for e_max in (0.3, 0.99):  # ladders out to u ~ 2300
        for trace in others:
            trace.rules(1.0, e_max)
    assert built == [] and all(trace._band == 0 for trace in others)
    # the Euclidean traces of the same family grow theirs until it holds every pair
    for e_max in (0.3, 0.99):
        for trace in rg.traces.values():
            trace.rules(1.0, e_max)
    assert len(built) >= len(rg.traces) == 3
    assert all(trace._band == len(trace._d2) for trace in rg.traces.values())


def test_assemble_at_the_ground_state_evaluates_no_kernel(kernel_counter):
    family = circle_family([1.0], mus=[0.1, -0.2])
    gs = ground_state_energy(family)
    assert gs.status == "converged" and kernel_counter[0] > 0
    kernel_counter[0] = 0
    assemble(family, gs.E_gr)
    assert kernel_counter[0] == 0


def _history_calls(p, manifold):
    """(name, call) pairs; each call maps a family to an array of its results."""
    narrow, wide = [-0.3, -0.2], [-0.9, -0.4, 0.1, 0.4]
    bracket = (-0.9, 0.45) if isinstance(p, RGScale) else None

    def matrix(family):
        M = assemble(family, -0.25, p, manifold)
        return np.concatenate([M.entries, M.err, [M.band_contributions]])

    def fh(family):
        res = feynman_hellman_residual(family, -0.35, manifold, p=p)
        return np.concatenate([res.analytic_slopes, res.fd_slopes])

    return [
        ("flow_narrow", lambda f: spectral_flow(f, narrow, p, manifold).eigenvalues),
        ("flow_wide", lambda f: spectral_flow(f, wide, p, manifold).eigenvalues),
        ("assemble", matrix),
        ("derivative", lambda f: derivative_matrix(f, -0.25, manifold)),
        ("ground_state", lambda f: np.array(
            [ground_state_energy(f, p, manifold, bracket=bracket).E_gr])),
        ("feynman_hellman", fh),
    ]


HISTORY_CASES = {
    "circle_pair": CASES["circle_pair"],
    "rg_pair": CASES["rg_pair"],
    "torus_loop": CASES["torus_loop"],
    "hyperbolic_pair": PRUNING_CASES["hyperbolic_pair"][:3],
}


@pytest.mark.parametrize("name", sorted(HISTORY_CASES))
def test_results_do_not_depend_on_call_history(name):
    # each call on a family used before, in either order, narrow ladders
    # before wide ones and back, equals the same call on a fresh family bit
    # for bit: both contract the same u-panels in the same order
    make, p, manifold = HISTORY_CASES[name]
    calls = _history_calls(p, manifold)
    fresh = {key: call(make()) for key, call in calls}
    for order in (calls, calls[::-1]):
        family = make()
        for key, call in order:
            got = call(family)
            np.testing.assert_array_equal(got, fresh[key], err_msg=key)


def test_traces_die_with_their_family():
    gc.disable()  # no cycle may hold a family or its traces
    try:
        stores = len(principal._STORES)
        family = circle_family([1.0], mus=[0.1, -0.2])
        ground_state_energy(family)
        assemble(family, -0.3, RGScale(mu=0.5, lambda_R=100.0))
        store = weakref.ref(_trace_store(family, EUCLID, DEFAULT_QUADRATURE))
        alive = weakref.ref(family)
        assert len(principal._STORES) == stores + 1
        del family
        assert alive() is None and store() is None
        assert len(principal._STORES) == stores
    finally:
        gc.enable()


def test_each_new_panel_is_one_kernel_call(kernel_counter):
    # a panel's full and half-order rule, and the counterterm's algebraic tail
    # panel, come from one heat_kernel_grid call over the nodes of both rules
    store = _trace_store(circle_family([1.0]), EUCLID, DEFAULT_QUADRATURE)
    for trace, tail in ((store.traces[0, 1], 0), (store.counterterm(0), 1)):
        held = kernel_counter[1] = 0  # panels held, kernel calls made
        width, weighted = len(trace._x), trace._g > 0  # a panel's nodes, and where each rule weighs
        if tail:  # Gauss-Legendre: the full rule's nodes, then the half rule's
            full = DEFAULT_QUADRATURE.u_nodes
            assert np.array_equal(weighted, (np.arange(width) < full) ^ [[False], [True]])
        else:  # the trapezoid rule: the half rule is the even nodes
            assert np.array_equal(weighted, [[True], [False]] | (np.arange(width) % 2 == 0))
        for e_max in (0.3, 0.9):  # a fresh ladder, then the panels a longer one adds
            u, G, T = trace.rules(1.0, e_max)
            assert G.shape == (2, len(u)) and len(T) == len(u)
            # panel-major, each panel's nodes weighted by each rule exactly
            # where that rule has a node
            G = G.reshape(2, -1, width)
            assert np.all(G.transpose(1, 0, 2)[:, weighted] > 0)
            assert not np.any(G.transpose(1, 0, 2)[:, ~weighted])
            panels = len(u) // width - tail
            assert kernel_counter[1] == panels - held + tail > tail
            held, kernel_counter[1] = panels, 0


def test_rg_assemble_makes_no_circle_heat_kernel_call(kernel_counter, monkeypatch):
    # the counterterm is a heat trace on the curve's own circle, through
    # heat_kernel_grid like every other trace; circle_heat_kernel is the
    # public reference alone
    def unused(*args):
        raise AssertionError("circle_heat_kernel called")

    for name in ("manifolds", "quadrature", "principal", "spectrum"):
        module = importlib.import_module(f"curvebound.{name}")
        if hasattr(module, "circle_heat_kernel"):
            monkeypatch.setattr(module, "circle_heat_kernel", unused)
    family, p = circle_family([1.0]), RGScale(mu=0.5, lambda_R=100.0)
    assemble(family, -0.5, p)
    spectral_flow(family, [-0.6, -0.2], p)
    assert kernel_counter[1] > 0


def test_a_ladder_extension_builds_its_kernel_rows_once(kernel_counter, monkeypatch):
    # what depends on u alone is built once per ladder extension, over the
    # nodes of all its new panels, panel-major; each panel is still one
    # kernel call, on its own slice
    built = []
    original = quadrature.kernel_rows

    def counted(manifold, u):
        built.append(original(manifold, u))
        return built[-1]

    monkeypatch.setattr(quadrature, "kernel_rows", counted)
    trace = _trace_store(_polyline_family(), EUCLID, DEFAULT_QUADRATURE).traces[0, 0]
    width = len(trace._x)  # a panel's nodes
    held = 0
    for e_max in (0.3, 0.9):  # a fresh ladder, then the panels a longer one adds
        u = trace.rules(1.0, e_max)[0]
        panels = len(u) // width
        assert len(built) == 1 and kernel_counter[1] == panels - held > 0
        rows = built.pop()
        assert rows.size == np.size(rows) == (panels - held) * width
        assert np.shape(rows) == (rows.size,)
        np.testing.assert_array_equal(np.asarray(rows), u[held * width:])
        held, kernel_counter[1] = panels, 0
    trace.rules(1.0, 0.3)  # a shorter ladder adds no panel
    assert built == [] and kernel_counter[1] == 0


def test_contraction_evaluates_the_weight_once(monkeypatch):
    # one call of each weight per trace on the nodes of both rules: a one-circle
    # diagonal is w_mu - w_E, so two weight_plain calls on built traces
    family = circle_family([], mus=[-0.2])
    assemble(family, -0.5)
    calls = [0]
    original = curvebound.quadrature.weight_plain

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(curvebound.quadrature, "weight_plain", counted)
    assemble(family, -0.4)
    assert calls[0] == 2


def test_assemble_evaluates_each_weight_once_for_all_entries(monkeypatch):
    # the nodes of all six traces of three circles form one vector: one w_E
    # evaluation per energy, and one w_mu_i per diagonal
    family = circle_family([1.0, 0.5], mus=[0.1, -0.2, 0.05])
    assemble(family, -0.5)
    energies = []
    original = curvebound.quadrature.weight_plain

    def counted(u, E, m):
        energies.append(E)
        return original(u, E, m)

    monkeypatch.setattr(curvebound.quadrature, "weight_plain", counted)
    M = assemble(family, -0.4)
    assert sorted(energies) == sorted([-0.4, 0.1, -0.2, 0.05])
    # each entry is its own trace's contraction, bit for bit
    mu = family.mu
    for (i, j), trace in _trace_store(family, EUCLID, DEFAULT_QUADRATURE).traces.items():
        if i == j:
            ref = trace.integrate(lambda u: weight_renormalized(u, -0.4, mu[i], 1.0), 1.0,
                                  max(0.4, abs(mu[i])))[0, 0]
        else:
            ref = -trace.integrate(lambda u: weight_plain(u, -0.4, 1.0), 1.0, 0.4)[0, 0]
        assert M.entries[i, j] == ref


def _long_double_circle(u, xi, L):
    """The circle kernel in long double: 21 images below u = L^2/(4 pi), 10
    modes from there on, each dropped term below e^-150 of the sum."""
    u, xi, L = (np.asarray(a, dtype=np.longdouble) for a in (u, xi, L))
    k = np.arange(-10, 11, dtype=np.longdouble)[:, None, None]
    images = (np.exp(-(xi + k * L) ** 2 / (4 * u)).sum(axis=0)
              / np.sqrt(4 * np.longdouble(math.pi) * u))
    n = np.arange(1, 11, dtype=np.longdouble)[:, None, None]
    two_pi = 2 * np.longdouble(math.pi)
    modes = (1 + 2 * (np.exp(-(two_pi * n) ** 2 * u / L**2)
                      * np.cos(two_pi * n * xi / L)).sum(axis=0)) / L
    return np.where(u < L * L / (2 * two_pi), images, modes)


def test_rg_pair_matches_a_long_double_kernel(monkeypatch):
    # where log(4 pi u) is large, (4 pi u)^{-3/2} is a row factor, so the
    # near-coincident pairs at tiny u keep their last bits through the
    # counterterm subtraction; the counterterm's circle kernel, whose flat
    # rows carry (4 pi u)^{-1/2} the same way, is checked in long double too
    p, E = RGScale(mu=0.5, lambda_R=100.0), -0.5
    got = assemble(circle_family([3.6]), E, p).entries

    def long_double(manifold, u, disp):
        u = np.asarray(u, dtype=np.longdouble)[:, None]
        if disp.xi is not None:  # a curve's own circle, one axis
            (L,), (xi,) = manifold.circumferences, disp.xi
            return _long_double_circle(u, xi, L).astype(float)
        d2 = np.asarray(disp.rows[0], dtype=np.longdouble)
        return (np.exp(-d2 / (4 * u)) / (np.longdouble(4.0 * math.pi) * u) ** 1.5).astype(float)

    monkeypatch.setattr(curvebound.quadrature, "heat_kernel_grid", long_double)
    ref = assemble(circle_family([3.6]), E, p).entries
    assert np.max(np.abs(got - ref)) <= 5e-15 * np.max(np.abs(ref))


@pytest.fixture
def exp_counter(monkeypatch):
    """[results, subnormal results] of np.exp in manifolds."""
    results = [0, 0]

    def exp(*args, **kwargs):
        out = np.exp(*args, **kwargs)
        results[0] += np.size(out)
        results[1] += int(np.count_nonzero((out != 0) & (np.abs(out) < np.finfo(float).tiny)))
        return out

    counting = types.ModuleType("numpy_counting_exp")
    counting.__getattr__ = lambda name: getattr(np, name)
    counting.exp = exp
    monkeypatch.setattr(curvebound.manifolds, "np", counting)
    return results


def test_torus_traces_make_no_subnormal_exp(exp_counter):
    # a subnormal exp result takes a slow path, ~100 times a normal one; torus
    # traces like the benchmark's (an axis loop and a tilted circle on a torus
    # of side ~5) make none
    torus = FlatTorus3((4.7, 5.1, 5.3))
    for shape in (TorusLoop((0, 1, 0), (1.2, 0.4, 3.1)),
                  Circle((2.0, 2.5, 1.5), 0.9, (0.3, -0.5, 0.8))):
        family = family_geometry([resample_arclength(shape, 64, torus)], torus, [-0.35])
        spectral_flow(family, [-0.8, -0.65, -0.5], manifold=torus)
    assert exp_counter[0] > 0
    assert exp_counter[1] == 0


@pytest.mark.parametrize("call", ["beta", "rg_assemble"])
def test_circle_kernel_calls_make_no_subnormal_exp(exp_counter, call):
    # the circle kernel of beta and of the RGScale counterterm traces sums
    # images with a per-row radius; a radius per call made 1038 and 620
    # subnormal results here
    if call == "beta":
        beta(1.0)
    else:
        assemble(circle_family([1.0]), -0.5, RGScale(mu=0.5, lambda_R=100.0))
    assert exp_counter[0] > 0
    assert exp_counter[1] == 0


def _counterterm_traces(store):
    return [store.counterterm(i) for i in range(len(store._curves))]


def _count_panel_geometry(monkeypatch, function, case, traces_of):
    # what depends on the pairs alone is evaluated once per trace, before its
    # first panel, and never per u-panel
    make, _, manifold, _ = PRUNING_CASES[case]
    calls = [0]
    original = getattr(curvebound.manifolds, function)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for module in (curvebound.manifolds, quadrature):
        if hasattr(module, function):
            monkeypatch.setattr(module, function, counted)
    traces = traces_of(_trace_store(make(), manifold, DEFAULT_QUADRATURE))
    assert calls[0] == 0
    for e_max in (0.3, 0.9):
        for trace in traces:
            trace.rules(1.0, e_max)
    return calls[0], len(traces)


def test_trace_panels_reuse_the_kernel_geometry(monkeypatch):
    # log(rho/sinh rho) of each hyperbolic pair
    calls, n_traces = _count_panel_geometry(
        monkeypatch, "_log_sinh_ratio", "hyperbolic_pair",
        lambda store: list(store.traces.values()))
    assert calls == n_traces == 3


def test_counterterm_panels_reuse_the_kernel_geometry(monkeypatch):
    # the wrapped arc separations and their cosine table
    calls, n_traces = _count_panel_geometry(
        monkeypatch, "kernel_geometry", "rg_counterterm", _counterterm_traces)
    assert calls == n_traces >= 2
