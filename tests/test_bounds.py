import json
import math

import numpy as np
import pytest

from curvebound import (
    BoundConstants,
    Circle,
    DomainError,
    Euclidean3,
    assemble,
    diagonal_lower_bound,
    euclidean_constants,
    family_geometry,
    gersgorin_threshold,
    ground_state_energy,
    near_diagonal_envelope,
    offdiagonal_upper_bound,
    parse_config,
    resample_arclength,
)
from curvebound import cli
from curvebound.bounds import _phi_term

from conftest import circle_family

EUCLID = Euclidean3()


def test_constants_defaults():
    c = euclidean_constants()
    assert (c.A, c.B, c.C, c.D) == (0.5, 1.0, 1.0, 1.0)
    assert math.isinf(c.V)
    with pytest.raises(DomainError):
        BoundConstants(A=-1.0)


def test_envelope_zero_at_equal_scales():
    assert near_diagonal_envelope(0.0, 0.0, 1.0) == 0.0
    assert near_diagonal_envelope(0.3, 0.3, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_envelope_closed_form_value():
    # E=-1/2, mu=0, m=1: the bracket collapses to log(3/2)
    got = near_diagonal_envelope(-0.5, 0.0, 1.0)
    assert got == pytest.approx(math.log(1.5) / (4.0 * math.pi), rel=1e-12)
    assert got == pytest.approx(0.03227, abs=5e-6)


def test_envelope_curvature_window_divergence():
    near = near_diagonal_envelope(-0.5, 0.0, 1.0, kappa_delta=1.0 - 1e-8)
    nearer = near_diagonal_envelope(-0.5, 0.0, 1.0, kappa_delta=1.0 - 4e-8)
    assert near / nearer == pytest.approx(2.0, rel=1e-2)
    with pytest.raises(DomainError):
        near_diagonal_envelope(-0.5, 0.0, 1.0, kappa_delta=1.0)


def test_phi_term_limit_and_series_switch():
    assert _phi_term(1e-12, 1.0) == pytest.approx(1.0, abs=1e-10)
    # series branch agrees with the exact form where it takes over
    for x in (0.99e-4, -0.99e-4):
        exact = -math.log1p(-x) / x
        assert _phi_term(x, 1.0) == pytest.approx(exact, rel=1e-12)


def test_diagonal_bound_vanishes_at_mu():
    v = diagonal_lower_bound(-1e-10, 0.0, 1.0, 10.0)
    assert abs(v) < 1e-9


def test_diagonal_bound_below_actual_entry():
    # circle of circumference 10, mu=0: the closed-form bound stays under Phi_11
    radius = 10.0 / (2.0 * math.pi)
    c = resample_arclength(Circle(center=(0, 0, 0), radius=radius, normal=(0, 0, 1)), 64)
    fam = family_geometry([c], EUCLID, [0.0])
    actual = assemble(fam, -0.5).entries[0, 0]
    bound = diagonal_lower_bound(-0.5, 0.0, 1.0, 10.0)
    assert 0 < bound <= actual


def test_diagonal_bound_domain():
    with pytest.raises(DomainError):
        diagonal_lower_bound(0.2, 0.0, 1.0, 10.0)  # needs E < mu_min


def test_offdiagonal_closed_form_value():
    got = offdiagonal_upper_bound(0.0, 1.0, 10.0, 2.0 * math.pi)
    assert got == pytest.approx(1.1 / (20.0 * math.pi), rel=1e-12)
    assert got == pytest.approx(0.01751, abs=5e-6)


def test_offdiagonal_limits():
    assert offdiagonal_upper_bound(0.0, 1.0, 1e6, 2.0 * math.pi) < 1e-6
    assert offdiagonal_upper_bound(1.0 - 1e-9, 1.0, 10.0, 2.0 * math.pi) > 1e6


def test_offdiagonal_bounds_actual_offdiagonal(pair_family_d10):
    M = assemble(pair_family_d10, -0.3)
    L = pair_family_d10.curves[0].length
    ub = offdiagonal_upper_bound(-0.3, 1.0, 10.0, L)
    assert abs(M.entries[0, 1]) <= ub


def test_gersgorin_single_disk(single_family):
    g = gersgorin_threshold(single_family)
    assert g.status == "single_disk"
    assert g.E_star == 0.0


def test_gersgorin_close_pair_vacuous(pair_family_d10):
    g = gersgorin_threshold(pair_family_d10)
    assert g.status == "no_exclusion"
    assert g.E_star == -1.0


def test_gersgorin_far_pair_crossing(pair_family_d100):
    g = gersgorin_threshold(pair_family_d100)
    assert g.status == "crossing"
    assert g.E_star == pytest.approx(-0.45657109831, abs=1e-8)
    assert -1.0 < g.E_star < 0.0


def test_gersgorin_monotone_with_separation(pair_family_d10, pair_family_d100):
    near = gersgorin_threshold(pair_family_d10)
    far = gersgorin_threshold(pair_family_d100)
    assert far.E_star > near.E_star  # closer to mu_min


def test_gersgorin_grid_stays_below_mu_min():
    # mu_min within 1e-6 m of -m: the whole grid still lies inside (-m, mu_min)
    mu = -0.9999995
    g = gersgorin_threshold(circle_family([1.0], mus=[mu, mu]))
    lo, hi = g.bracket
    assert -1.0 < lo < hi < mu
    assert g.status == "no_exclusion" and g.E_star == -1.0


@pytest.mark.parametrize("fixture", ["pair_family_d10", "pair_family_d100"])
def test_gersgorin_ordering(request, fixture):
    fam = request.getfixturevalue(fixture)
    g = gersgorin_threshold(fam)
    gs = ground_state_energy(fam)
    assert gs.status == "converged"
    assert g.E_star <= gs.E_gr


def test_energy_domain_checks():
    with pytest.raises(DomainError):
        near_diagonal_envelope(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        offdiagonal_upper_bound(-0.5, 1.0, -1.0, 2.0 * math.pi)


def _bounds_pair(manifold, shapes, mus):
    """A bounds config of two curves on the given manifold, with their mu."""
    return {"manifold": manifold, "curves": [{"shape": s, "mu": mu} for s, mu in zip(shapes, mus)],
            "task": {"kind": "bounds"}}


def _torus_pair(side, shapes, mu):
    """A bounds config of two curves with equal mu on the cubic torus of the given side."""
    return _bounds_pair({"kind": "flat_torus3", "circumferences": [side] * 3}, shapes, [mu] * 2)


def _hyperbolic_pair(a, radius, centers, mus):
    """A bounds config of two horizontal circles of one radius on Hyperbolic3(a)."""
    return _bounds_pair({"kind": "hyperbolic3", "curvature_radius": a},
                        [{"kind": "circle", "center": c, "radius": radius, "normal": [0, 0, 1]}
                         for c in centers], mus)


def _x_loop(offset):
    return {"kind": "torus_loop", "winding": [1, 0, 0], "offset": offset}


def _circle_at(z):
    return {"kind": "circle", "center": [1.5, 1.5, z], "radius": 0.6, "normal": [0, 0, 1]}


BOUNDS_CASES = {
    "loops_1.41_apart": _torus_pair(2.0, [_x_loop([0, 0, 0]), _x_loop([0, 1, 1])], 0.9),
    "loops_0.5_apart": _torus_pair(2.0, [_x_loop([0, 0, 0]), _x_loop([0, 0.5, 0])], 0.5),
    "circles_1.2_apart": _torus_pair(3.0, [_circle_at(0.9), _circle_at(2.1)], 0.5),
    # Hyperbolic3, where the bounds are checked, not assumed: at most 0.037,
    # 0.30 and 0.010 of the off-diagonal bound, and at least 0.0008, 0.0016
    # and 0.0012 above the diagonal one
    "hyperbolic_side_by_side": _hyperbolic_pair(1.0, 0.6, [[0, 0, 2], [1.6, 0, 2]],
                                                [-0.3, -0.35]),
    "hyperbolic_stacked": _hyperbolic_pair(1.5, 0.5, [[0, 0, 3], [0, 0, 4.5]], [0.5, 0.5]),
    "hyperbolic_low": _hyperbolic_pair(1.0, 0.4, [[0, 0, 1], [0.9, 0, 1]], [0.8, 0.8]),
}


@pytest.mark.parametrize("name", sorted(BOUNDS_CASES))
def test_cli_bounds_constants_hold_on_the_torus(name, tmp_path, monkeypatch):
    # the torus kernel tends to 1/V at long times, so bounds must pass the
    # torus volume: with V = inf |Phi_12| reaches 1.98 times
    # offdiagonal_upper_bound on the loops 1.41 apart.  The Hyperbolic3 cases
    # hold with the constants bounds passes there
    doc = BOUNDS_CASES[name]
    passed = []

    def spy(family, constants=BoundConstants()):
        passed.append((family, constants))
        return gersgorin_threshold(family, constants)

    monkeypatch.setattr(cli, "gersgorin_threshold", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    (family, constants), = passed
    manifold = parse_config(cfg.read_text()).manifold
    m, mu_min = family.mass, float(np.min(family.mu))
    lengths = [c.length for c in family.curves]
    for E in np.linspace(-0.95, mu_min - 0.01, 12):
        M = assemble(family, float(E), manifold=manifold).entries
        assert abs(M[0, 1]) <= offdiagonal_upper_bound(E, m, family.d_matrix[0, 1], max(lengths),
                                                       constants)
        assert np.min(np.diag(M)) >= diagonal_lower_bound(E, mu_min, m, min(lengths), constants)
