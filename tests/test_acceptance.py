"""Acceptance suite: thirteen numbered criteria, one test (one line) each.

Each test states its tolerance inline and fails loudly if the property
degrades; together they pin the closed-form anchors, the dual-route
equivalences, the spectral structure, the analytic bounds, the coupling flow
and the deterministic output contract.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import k1

from curvebound import (
    assemble,
    beta,
    circle_heat_kernel,
    eigen_decompose,
    feynman_hellman_residual,
    flat_resolvent_oracle,
    flow_coupling,
    gersgorin_threshold,
    ground_state_energy,
    near_diagonal_envelope,
    ode_flow_values,
    pair_kernel_plain,
    rg_invariance_residual,
    spectral_flow,
)
from curvebound.cli import main
from curvebound.manifolds import FlatTorus3, heat_kernel, pair_displacement, heat_kernel_grid

from conftest import circle_family


def _report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_yukawa_anchor():
    worst = 0.0
    for d in (0.5, 1.0, 3.0):
        got = pair_kernel_plain(0.0, np.zeros(3), np.array([d, 0, 0]), 1.0).value
        ref = math.exp(-d) / (8.0 * math.pi * d)
        worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-8
    _report(1, f"Yukawa anchor, worst relative deviation {worst:.2e}")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for E in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for d in (0.1, 1.0, 5.0):
            got = pair_kernel_plain(E, np.zeros(3), np.array([d, 0, 0]), 1.0).value
            ref = flat_resolvent_oracle(E, d, 1.0)
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    _report(2, f"15-point oracle grid, worst {worst:.2e}, {elapsed:.2f}s")


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5])
def test_criterion_03_minimal_fixed_point(mu):
    fam = circle_family([], mus=[mu])
    gs = ground_state_energy(fam)
    assert gs.status == "converged"
    assert abs(gs.E_gr - mu) < 1e-8
    _report(3, f"single circle mu={mu}: E_gr = {gs.E_gr:.10f}")


def test_criterion_04_feynman_hellman(pair_family_d10):
    worst = 0.0
    for E in np.linspace(-0.8, -0.05, 5):
        r = feynman_hellman_residual(pair_family_d10, float(E))
        live = ~np.asarray(r.skipped)
        assert live.any()
        assert np.all(r.analytic_slopes[live] < 0)
        worst = max(worst, float(np.max(r.residuals[live])))
    assert worst < 1e-5
    _report(4, f"slope agreement over 5 energies, worst residual {worst:.2e}")


def test_criterion_05_perron_uniqueness(pair_family_d10, pair_family_d30):
    for fam in (pair_family_d10, pair_family_d30):
        for E in (-0.6, -0.2):
            M = assemble(fam, E)
            _, V = eigen_decompose(M)
            v = V[:, 0]
            if v[int(np.argmax(np.abs(v)))] < 0:
                v = -v
            assert np.all(v > 0)
    grid = np.concatenate([np.linspace(-0.9, -1e-3, 25), [-1e-6]])
    lowest = spectral_flow(pair_family_d10, grid).eigenvalues[:, 0]
    changes = int(np.sum(np.sign(lowest[:-1]) != np.sign(lowest[1:])))
    assert changes == 1
    _report(5, "lowest eigenvector entrywise positive; single zero crossing")


def test_criterion_06_two_curve_splitting(pair_family_d10, pair_family_d30):
    g10 = ground_state_energy(pair_family_d10)
    g30 = ground_state_energy(pair_family_d30)
    assert g10.E_gr < 0
    assert abs(g30.E_gr) < abs(g10.E_gr)
    M = assemble(pair_family_d10, -0.1)
    _, V = eigen_decompose(M)
    assert np.allclose(np.abs(V), 1.0 / math.sqrt(2.0), atol=1e-8)
    _report(6, f"E_gr(10) = {g10.E_gr:.3e} < 0, |E_gr(30)| = {abs(g30.E_gr):.3e} smaller; "
               "eigenvectors (1,+-1)/sqrt(2)")


def test_criterion_07_gersgorin_ordering(pair_family_d10, pair_family_d30):
    for fam, sep in ((pair_family_d10, 10), (pair_family_d30, 30)):
        g = gersgorin_threshold(fam)
        gs = ground_state_energy(fam)
        assert gs.status == "converged"
        assert g.E_star <= gs.E_gr
    _report(7, "E* <= E_gr at separations 10 and 30")


def test_criterion_08_near_diagonal_envelope(single_family):
    M = assemble(single_family, -0.5)
    band = float(M.band_contributions[0])
    curve = single_family.curves[0]
    env = near_diagonal_envelope(-0.5, 0.0, 1.0,
                                 kappa_delta=curve.kappa_star * curve.delta_window)
    assert 0 < band <= env
    _report(8, f"band contribution {band:.5f} <= envelope {env:.5f}")


def test_criterion_09_beta_function():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        got = beta(lam)
        ref = -lam * lam / (4.0 * math.pi)
        assert got < 0
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-6
    _report(9, f"4-fold quadrature vs -lambda^2/(4 pi), worst {worst:.2e}")


def test_criterion_10_flow_consistency():
    taus = np.geomspace(0.5, 2.0, 15)
    lams = np.array([flow_coupling(1.0, float(t)) for t in taus])
    ode = ode_flow_values(1.0, taus)
    ode_gap = float(np.max(np.abs(ode - lams) / lams))
    assert ode_gap < 1e-8
    semi = 0.0
    for t1, t2 in ((0.5, 0.9), (1.2, 1.6), (0.8, 2.0)):
        once = flow_coupling(1.0, t1 * t2)
        twice = flow_coupling(flow_coupling(1.0, t1), t2)
        semi = max(semi, abs(once - twice) / once)
    assert semi < 1e-10
    _report(10, f"ODE gap {ode_gap:.2e}, semigroup defect {semi:.2e}")


def test_criterion_11_rg_invariance(unit_circle):
    worst = 0.0
    for tau in (0.5, 2.0):
        worst = max(worst, rg_invariance_residual(unit_circle, 0.0, 1.0, 0.5, 1.0, tau))
    assert worst < 1e-6
    _report(11, f"scaling identity residual {worst:.2e} at tau in {{1/2, 2}}")


def test_criterion_12_kernel_properties():
    # honest 3-torus semigroup: grid convolution over the fundamental domain
    t = FlatTorus3((1.0, 1.0, 1.0))
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([0.6, 0.9, 0.15])
    u, v = 0.04, 0.07
    n = 48
    axes = [np.linspace(0.0, 1.0, n, endpoint=False)] * 3
    Z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    ku = heat_kernel_grid(t, np.array([u]), pair_displacement(t, np.broadcast_to(x, Z.shape), Z))[0]
    kv = heat_kernel_grid(t, np.array([v]), pair_displacement(t, Z, np.broadcast_to(y, Z.shape)))[0]
    conv = float(np.sum(ku * kv)) / n**3
    direct = heat_kernel(t, u + v, x, y)
    semi_gap = abs(conv - direct) / direct
    assert semi_gap < 1e-8

    from curvebound.manifolds import _image_sum, _mode_sum
    L = 2.0 * math.pi
    uu = np.array([L**2 / (4.0 * math.pi**2)])
    xi = np.array([L / 3.0])
    a, b = np.empty((1, 1)), np.empty((1, 1))
    _mode_sum(a, uu, np.cos(2.0 * math.pi * np.arange(1, 13)[:, None] * xi / L), L)
    _image_sum(b, uu, xi, L, np.array([12]))
    poisson_gap = abs(a[0, 0] - b[0, 0]) / a[0, 0]
    assert poisson_gap < 1e-12

    for z in (0.1, 1.0, 10.0):
        val = float(k1(z))
        assert math.exp(-z) / z < val < math.exp(-z) * (1.0 + 1.0 / z)
    _report(12, f"torus semigroup {semi_gap:.2e}, Poisson duality {poisson_gap:.2e}, "
                "K1 sandwich holds")


def test_criterion_13_deterministic_scan(tmp_path):
    doc = {
        "mass": 1.0,
        "curves": [
            {"shape": {"kind": "circle", "center": [0, 0, 0], "radius": 1.0}, "mu": 0.0},
            {"shape": {"kind": "circle", "center": [12, 0, 0], "radius": 1.0}, "mu": 0.0},
        ],
        "task": {"kind": "scan", "E_min": -0.9, "E_max": -0.1, "points": 5},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "scan.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(13, f"repeated scan byte-identical ({len(outs[0])} bytes)")
