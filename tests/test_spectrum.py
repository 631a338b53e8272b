import math

import numpy as np
import pytest

from curvebound import (
    Circle,
    DomainError,
    Euclidean3,
    MinimalBoundState,
    RGScale,
    assemble,
    eigen_decompose,
    family_geometry,
    feynman_hellman_residual,
    ground_state_energy,
    resample_arclength,
    spectral_flow,
)

from conftest import circle_family

EUCLID = Euclidean3()


def test_decompose_scalar():
    vals, vecs = eigen_decompose(np.array([[3.5]]))
    assert vals[0] == pytest.approx(3.5)
    assert abs(vecs[0, 0]) == pytest.approx(1.0)


def test_decompose_empty_matrix():
    vals, vecs = eigen_decompose(np.zeros((0, 0)))
    assert vals.shape == (0,) and vecs.shape == (0, 0)


def test_decompose_symmetric_pair():
    a, b = 2.0, -0.7
    vals, vecs = eigen_decompose(np.array([[a, b], [b, a]]))
    assert vals[0] == pytest.approx(a + b, rel=1e-14)
    assert vals[1] == pytest.approx(a - b, rel=1e-14)
    v = vecs[:, 0]
    assert np.allclose(np.abs(v), 1.0 / math.sqrt(2.0), rtol=1e-12)


def test_decompose_orthonormal():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    A = 0.5 * (A + A.T)
    _, V = eigen_decompose(A)
    assert np.max(np.abs(V.T @ V - np.eye(5))) < 1e-12


def test_decompose_rejects_nonsymmetric():
    with pytest.raises(DomainError):
        eigen_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5])
def test_single_circle_ground_state_at_mu(mu):
    fam = circle_family([], mus=[mu])
    gs = ground_state_energy(fam)
    assert gs.status == "converged"
    assert gs.E_gr == pytest.approx(mu, abs=1e-8)


def test_two_circle_binding(pair_family_d10, pair_family_d30):
    g10 = ground_state_energy(pair_family_d10)
    g30 = ground_state_energy(pair_family_d30)
    assert g10.status == "converged" and g30.status == "converged"
    assert g10.E_gr < 0
    assert abs(g30.E_gr) < abs(g10.E_gr)
    # regression pin for the d_min=10 level: the root that Newton and
    # bisection to 1e-15 agree on
    assert g10.E_gr == pytest.approx(-2.5211383094e-06, abs=1e-12)


def test_two_circle_eigenvectors(pair_family_d10):
    M = assemble(pair_family_d10, -0.1)
    _, V = eigen_decompose(M)
    ref = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(V), ref, atol=1e-8)


def test_spectral_flow_monotone_and_positive(pair_family_d10):
    energies = np.linspace(-0.8, -0.05, 5)
    flow = spectral_flow(pair_family_d10, energies)
    assert np.all(np.diff(flow.eigenvalues, axis=0) < 0)
    assert np.all(flow.ground_vector > 0)
    assert flow.eigenvalues.shape == (5, 2)


def test_unique_zero_of_lowest_branch(pair_family_d10):
    grid = np.concatenate([np.linspace(-0.9, -1e-3, 25), [-1e-6]])
    flow = spectral_flow(pair_family_d10, grid)
    lowest = flow.eigenvalues[:, 0]
    changes = int(np.sum(np.sign(lowest[:-1]) != np.sign(lowest[1:])))
    assert changes == 1


def test_no_bound_state_in_bracket(single_family):
    gs = ground_state_energy(single_family, bracket=(-0.9, -0.5))
    assert gs.status == "no_bound_state_in_bracket"
    assert math.isnan(gs.E_gr)


def test_degenerate_flag_for_remote_pair(pair_family_d100, pair_family_d10):
    far = ground_state_energy(pair_family_d100)
    near = ground_state_energy(pair_family_d10)
    assert far.possibly_degenerate
    assert not near.possibly_degenerate


def test_feynman_hellman_scalar(single_family):
    r = feynman_hellman_residual(single_family, -0.3)
    assert not r.skipped[0]
    assert r.residuals[0] < 1e-6
    assert r.analytic_slopes[0] < 0


def test_feynman_hellman_pair(pair_family_d10):
    r = feynman_hellman_residual(pair_family_d10, -0.4)
    live = ~np.asarray(r.skipped)
    assert live.any()
    assert np.all(r.analytic_slopes[live] < 0)
    assert np.all(r.residuals[live] < 1e-5)


def test_feynman_hellman_random_family():
    rng = np.random.default_rng(42)
    shapes, mus = [], []
    for k in range(3):
        shapes.append(Circle(center=(7.0 * k, 0.0, 0.0),
                             radius=float(0.8 + 0.4 * rng.random()),
                             normal=(0.0, 0.0, 1.0)))
        mus.append(float(-0.2 + 0.4 * rng.random()))
    curves = [resample_arclength(s, 48) for s in shapes]
    fam = family_geometry(curves, EUCLID, mus)
    r = feynman_hellman_residual(fam, -0.5)
    live = ~np.asarray(r.skipped)
    assert np.all(r.residuals[live] < 1e-5)
    assert np.all(r.analytic_slopes[live] < 0)


def test_ground_state_bracket_validation(single_family):
    with pytest.raises(DomainError):
        ground_state_energy(single_family, bracket=(-0.5, -0.9))


def test_rg_scale_default_bracket_stays_below_mu():
    # the flow prescription needs E < mu, so the default top is the double below mu
    fam = circle_family([1.0])
    gs = ground_state_energy(fam, RGScale(mu=0.5, lambda_R=100.0))
    assert gs.bracket[1] == math.nextafter(0.5, -math.inf)
    assert gs.status == "converged"
    # the same to 1.4e-10 at log_depth 32; 0.39842194, frozen while the
    # periodic wrap rounded the band's separations, moved to 0.3868 there
    assert gs.E_gr == pytest.approx(0.39842000037915726, abs=1e-8)


@pytest.mark.parametrize("mu", [-0.999, -0.9995, -0.9999995])
def test_default_bracket_floor_lies_below_min_mu(mu):
    # min mu at or below the usual floor -0.999 m: the floor moves between -m and min mu
    gs = ground_state_energy(circle_family([1.0], mus=[mu, mu]))
    lo, hi = gs.bracket
    assert -1.0 < lo < hi == mu
    assert gs.status == "no_bound_state_in_bracket"


def test_ground_state_newton_takes_few_steps():
    # three circles, two of them 0.05 apart: Newton on the exact slope
    # v^T Phi'(E) v ends within 8 evaluations of Phi, and well inside the
    # 1e-8 tolerance of the root that bisection to 1e-13 finds
    fam = circle_family([0.05, 0.7], mus=[0.2, 0.2, 0.15])
    gs = ground_state_energy(fam)
    assert gs.status == "converged"
    assert gs.iterations <= 8
    a, b = gs.bracket
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if np.linalg.eigvalsh(assemble(fam, mid).entries)[0] > 0:
            a = mid
        else:
            b = mid
    assert abs(gs.E_gr - 0.5 * (a + b)) <= 1e-10
