"""One heat trace per curve pair, contracted per energy.

spectral_flow, ground_state_energy and feynman_hellman_residual evaluate the
kernel once per call and contract the traces with each energy's weight; the
result must be the per-energy assemble to rounding, and the kernel work must
not grow with the number of energies.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvebound
from curvebound import (
    Euclidean3,
    FlatTorus3,
    Hyperbolic3,
    MinimalBoundState,
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
from curvebound.quadrature import u_panel_breaks

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
