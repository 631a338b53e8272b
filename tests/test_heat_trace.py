"""One heat trace per curve pair, contracted per energy.

spectral_flow, ground_state_energy and feynman_hellman_residual evaluate the
kernel once per call and contract the traces with each energy's weight; the
result must be the per-energy assemble to rounding, and the kernel work must
not grow with the number of energies.  Each pair enters a trace only on the
u-panels above its own boundary-layer floor; the result must be the
all-pairs evaluation to rounding.
"""

import importlib
import math
import os
import subprocess
import sys
import warnings
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
from curvebound.manifolds import circle_heat_kernel, heat_kernel_grid
from curvebound.principal import _counterterm_weight, _FamilyTraces, _inner_grid
from curvebound.quadrature import (
    DEFAULT_QUADRATURE,
    u_panel_breaks,
    weight_plain,
    weight_renormalized,
)

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
    """Count heat_kernel_grid values wherever the package refers to it."""
    count = [0]
    original = curvebound.manifolds.heat_kernel_grid

    def counted(manifold, u, disp, *args, **kwargs):
        count[0] += int(np.size(u)) * int(np.shape(disp)[0])
        return original(manifold, u, disp, *args, **kwargs)

    for name in ("quadrature", "principal", "spectrum"):
        module = importlib.import_module(f"curvebound.{name}")
        if hasattr(module, "heat_kernel_grid"):
            monkeypatch.setattr(module, "heat_kernel_grid", counted)
    return count


def test_spectral_flow_kernel_work_is_one_assembly(kernel_counter):
    family = circle_family([1.0], mus=[0.1, -0.2])
    energies = np.linspace(-0.7, 0.2, 6)
    assemble(family, -0.7)
    one = kernel_counter[0]
    kernel_counter[0] = 0
    spectral_flow(family, energies)
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


def test_hyperbolic_distance_resolves_near_coincidence():
    # acosh(1 + q) rounds q < 1e-16 to zero; the band nodes of the diagonal
    # xi grid sit that close
    H = Hyperbolic3(1.0)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1e-10, 0.0, 1.0])
    assert geodesic_distance(H, x, y) == pytest.approx(1e-10, rel=1e-12)
    d = pair_displacement(H, x[None, :], y[None, :])
    assert d[0] == pytest.approx(1e-10, rel=1e-12)


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, curvebound.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(curvebound.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


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


def _diagonal_pairs(curve, manifold):
    """(displacements, [whole, band] coefficients) of every (outer node, xi) pair."""
    xi, wt, band = _inner_grid(curve, DEFAULT_QUADRATURE.sing_window)
    outer = curve.nodes[:1] if curve.homogeneous else curve.nodes
    disp = pair_displacement(manifold, np.repeat(curve.point_at(outer), len(xi), axis=0),
                             curve.point_at((outer[:, None] + xi).ravel()))
    cols = np.stack([wt, np.where(band, wt, 0.0)])
    return disp, np.tile(cols, len(outer)) / len(outer)


def _offdiagonal_pairs(ci, cj, manifold):
    ni, nj = len(ci.nodes), len(cj.nodes)
    disp = pair_displacement(manifold, np.repeat(ci.points, nj, axis=0),
                             np.tile(cj.points, (ni, 1)))
    return disp, np.full((1, ni * nj), math.sqrt(ci.length * cj.length) / (ni * nj))


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
    traces = _FamilyTraces(family, p, manifold, DEFAULT_QUADRATURE, [E])
    curves = family.curves

    def minus_plain(u):
        return -weight_plain(u, E, 1.0)

    checks = []  # (trace, all-pairs kernel(u), coefficients, weight)
    for (i, j), trace in traces.traces.items():
        if i != j:
            disp, coeffs = _offdiagonal_pairs(curves[i], curves[j], manifold)
            weight = minus_plain
        else:
            disp, coeffs = _diagonal_pairs(curves[i], manifold)
            weight = minus_plain if isinstance(p, RGScale) else (
                lambda u, mu=family.mu[i]: weight_renormalized(u, E, mu, 1.0))
        checks.append((trace, lambda u, disp=disp: heat_kernel_grid(manifold, u, disp),
                       coeffs, weight))
    for i, trace in traces.counter.items():
        xi, wt, band = _inner_grid(curves[i], DEFAULT_QUADRATURE.sing_window)
        L = curves[i].length
        checks.append((trace, lambda u, xi=xi, L=L: circle_heat_kernel(u[:, None], xi, L),
                       np.stack([wt, np.where(band, wt, 0.0)]), _counterterm_weight(p.mu)))
    for trace, kernel, coeffs, weight in checks:
        full, half = trace.integrate(weight)
        ref_full, ref_half = [(w * weight(u)) @ (kernel(u) @ coeffs.T) for u, w, _ in trace.rules]
        scale = np.max(np.abs(ref_full))
        assert np.max(np.abs(full - ref_full)) <= 1e-14 * scale
        assert np.max(np.abs(np.abs(full - half) - np.abs(ref_full - ref_half))) <= 1e-14 * scale


def test_polyline_kernel_work_skips_pairs_below_their_floor(kernel_counter):
    family, E = _polyline_family(), -0.6
    assemble(family, E)
    evaluated = kernel_counter[0]
    traces = _FamilyTraces(family, MinimalBoundState(), EUCLID, DEFAULT_QUADRATURE, [E])
    pairs = len(_diagonal_pairs(family.curves[0], EUCLID)[0])
    u_nodes = sum(len(u) for u, _, _ in traces.traces[0, 0].rules)
    assert 0 < evaluated <= 0.35 * pairs * u_nodes
