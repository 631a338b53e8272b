import dataclasses
import math
import warnings

import numpy as np
import pytest

from curvebound import (
    Circle,
    ConvergenceError,
    DomainError,
    Euclidean3,
    MinimalBoundState,
    ParametricSamples,
    QuadratureConfig,
    RGScale,
    assemble,
    derivative_matrix,
    family_geometry,
    resample_arclength,
)
from curvebound.principal import _inner_grid, family_fingerprint, rg_assemble
from curvebound.quadrature import DEFAULT_QUADRATURE, pair_kernel_plain, pair_kernel_renormalized

from conftest import circle_family

EUCLID = Euclidean3()

# unit circle, mu = 0, minimal prescription: (1/L) iint G_ren over the chord
# profile d(xi) = 2 sin(xi/2), frozen from adaptive quadrature of the
# momentum-representation resolvent difference (epsrel 1e-12)
PHI_CIRCLE_FROZEN = {
    -0.5: 3.4293936214841787e-02,
    -0.1: 8.0819270226558382e-03,
}
# same geometry: dPhi/dE at E = 0 reduces to -(1/L) iint K0(chord)/(4 pi^2)
DPHI_CIRCLE_E0 = -8.4836694908102542e-02


def test_single_circle_zero_at_mu(single_family):
    M = assemble(single_family, 0.0)
    assert M.n == 1
    assert M.entries[0, 0] == 0.0


@pytest.mark.parametrize("E", sorted(PHI_CIRCLE_FROZEN))
def test_single_circle_frozen_values(single_family, E):
    M = assemble(single_family, E)
    assert M.entries[0, 0] == pytest.approx(PHI_CIRCLE_FROZEN[E], rel=1e-8)
    assert M.entries[0, 0] > 0


def test_two_circle_structure(pair_family_d10):
    M = assemble(pair_family_d10, -0.1)
    assert M.entries[0, 0] == pytest.approx(M.entries[1, 1], rel=1e-13)
    assert M.entries[0, 1] == M.entries[1, 0]
    assert M.entries[0, 1] < 0
    assert abs(M.entries[0, 1]) < M.entries[0, 0]
    # the diagonal does not see the partner curve
    assert M.entries[0, 0] == pytest.approx(PHI_CIRCLE_FROZEN[-0.1], rel=1e-8)


def test_hermiticity_asymmetric_family():
    a = resample_arclength(Circle(center=(0, 0, 0), radius=1.0, normal=(0, 0, 1)), 64)
    b = resample_arclength(Circle(center=(6, 0, 0), radius=2.0, normal=(0, 1, 1)), 48)
    fam = family_geometry([a, b], EUCLID, [0.1, -0.2])
    M = assemble(fam, -0.5)
    assert np.array_equal(M.entries, M.entries.T)
    assert M.err.shape == (2, 2)
    assert np.all(M.err >= 0)


def test_derivative_frozen_value(single_family):
    D = derivative_matrix(single_family, 0.0)
    assert D[0, 0] == pytest.approx(DPHI_CIRCLE_E0, rel=1e-8)


def test_derivative_finite_difference(single_family):
    h = 1e-4
    hi = assemble(single_family, -0.2 + h).entries[0, 0]
    lo = assemble(single_family, -0.2 - h).entries[0, 0]
    D = derivative_matrix(single_family, -0.2)
    assert D[0, 0] == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)


def test_derivative_all_entries_negative(pair_family_d10):
    D = derivative_matrix(pair_family_d10, -0.3)
    assert np.all(D < 0)


def test_matrix_monotone_in_energy(pair_family_d10):
    u = assemble(pair_family_d10, -0.6).entries
    v = assemble(pair_family_d10, -0.2).entries
    wu = np.linalg.eigvalsh(u)
    wv = np.linalg.eigvalsh(v)
    assert np.all(wu > wv)


def test_rg_prescription_coupling_shift(single_family):
    p1 = RGScale(mu=0.5, lambda_R=1.0)
    p2 = RGScale(mu=0.5, lambda_R=2.0)
    a = assemble(single_family, 0.0, p1).entries[0, 0]
    b = assemble(single_family, 0.0, p2).entries[0, 0]
    assert a - b == pytest.approx(0.5, rel=1e-12)


def test_rg_prescription_infinite_coupling_finite(single_family):
    p = RGScale(mu=0.5, lambda_R=math.inf)
    base = assemble(single_family, 0.0, p).entries[0, 0]
    fine = assemble(single_family, 0.0, p, EUCLID,
                    QuadratureConfig(t_nodes=64, u_nodes=48)).entries[0, 0]
    assert math.isfinite(base)
    assert abs(base - fine) <= 1e-8 * max(abs(base), abs(fine)) + 1e-11


def test_rg_prescription_requires_energy_below_mu(single_family):
    with pytest.raises(DomainError):
        assemble(single_family, 0.6, RGScale(mu=0.5, lambda_R=1.0))


def test_rg_assemble_matches_assemble(single_family):
    p = RGScale(mu=0.5, lambda_R=1.0)
    a = assemble(single_family, 0.0, p).entries[0, 0]
    b = rg_assemble(single_family.curves[0], 0.0, 0.5, 1.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_rg_assemble_raises_convergence_error_like_assemble():
    # no unchecked Phi_R (1.0695 here) where assemble on the same family raises
    curve = resample_arclength(Circle((0, 0, 0), 1.0), 64)
    tight = QuadratureConfig(u_nodes=16, rel_tol=1e-300, abs_tol=1e-300)
    with pytest.raises(ConvergenceError):
        rg_assemble(curve, -0.3, 0.5, 1.0, cfg=tight)


def test_band_contribution_recorded(single_family):
    M = assemble(single_family, -0.5)
    assert M.band_contributions.shape == (1,)
    assert 0 < M.band_contributions[0] < M.entries[0, 0]


def _graded(curve, a=0.5):
    """The curve on the non-uniform periodic rule s = t - (aL/2pi) sin(2pi t/L),
    w = (L/n)(1 - a cos(2pi t/L)) over uniform t, its points from point_at."""
    L, n = curve.length, len(curve.nodes)
    t = 2.0 * math.pi * np.arange(n) / n
    s = (L / (2.0 * math.pi)) * (t - a * np.sin(t))
    return dataclasses.replace(curve, nodes=s, points=curve.point_at(s),
                               weights=(L / n) * (1.0 - a * np.cos(t)))


def test_fingerprint_stability_and_sensitivity(single_family):
    f1 = family_fingerprint(single_family, EUCLID)
    f2 = family_fingerprint(single_family, EUCLID)
    assert f1 == f2 and len(f1) == 16
    other = circle_family([10.0], mus=[0.0, 0.1])
    assert family_fingerprint(other, EUCLID) != f1
    # the same points on other quadrature rules
    c = single_family.curves[0]
    graded = _graded(c)
    prints = {family_fingerprint(family_geometry([r], EUCLID, [0.0]), EUCLID)
              for r in (dataclasses.replace(c, weights=graded.weights), graded)}
    assert len(prints | {f1}) == 3


def test_offdiagonal_entry_follows_each_curves_rule():
    E = -0.5
    ci, cj = (_graded(resample_arclength(Circle(center=(x, 0, 0), radius=1.0), 16))
              for x in (0.0, 2.5))
    M = assemble(family_geometry([ci, cj], EUCLID, [0.1, -0.2]), E)
    ref = -sum(wa * wb * pair_kernel_plain(E, xa, yb, 1.0).value
               for xa, wa in zip(ci.points, ci.weights)
               for yb, wb in zip(cj.points, cj.weights)) / math.sqrt(ci.length * cj.length)
    assert M.entries[0, 1] == pytest.approx(ref, rel=1e-9)


def test_diagonal_entry_follows_the_curves_outer_rule():
    E, mu = -0.6, -0.3
    th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    pts = np.stack([1.2 * np.cos(th), 0.8 * np.sin(th), 0.12 * np.sin(3.0 * th)], axis=1)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="only .* nodes per delta window")
        c = _graded(resample_arclength(ParametricSamples(tuple(map(tuple, pts))), 8))
    xi, cols = _inner_grid(c, DEFAULT_QUADRATURE.sing_window)
    ref = sum(wa * cols[0] @ [pair_kernel_renormalized(E, mu, xa, y, 1.0).value
                              for y in c.point_at(sa + xi)]
              for sa, wa, xa in zip(c.nodes, c.weights, c.points)) / c.length
    M = assemble(family_geometry([c], EUCLID, [mu]), E)
    assert M.entries[0, 0] == pytest.approx(ref, rel=1e-9)


def test_assemble_rejects_energy_outside_window(single_family):
    with pytest.raises(DomainError):
        assemble(single_family, 1.0)
    with pytest.raises(DomainError):
        assemble(single_family, -1.0)


def test_convergence_error_reports_entry(single_family):
    tight = QuadratureConfig(t_nodes=16, u_nodes=16, rel_tol=1e-300, abs_tol=1e-300)
    with pytest.raises(ConvergenceError) as exc:
        assemble(single_family, -0.5, MinimalBoundState(), EUCLID, tight)
    assert exc.value.err_value > exc.value.tolerance
