"""Invariant suite behind the `validate` task.

Each check exercises one published property of the library on the configured
family, mass or quadrature (kernel anchors, operator structure, spectral
monotonicity, band envelopes, the beta function, the rescaling identity) and
reports pass/fail/skip with a one-line detail.  Properties that no config
can change (Bessel bounds, circle-kernel identities, the closed-form flow)
are pinned by the test suite instead.
Checks that only make sense on a flat ambient space are skipped elsewhere
rather than failed.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import near_diagonal_envelope
from .config import RunConfig
from .curves import CurveFamily
from .manifolds import Euclidean3, Hyperbolic3
from .principal import RGScale, assemble, derivative_matrix
from .quadrature import flat_resolvent_oracle, pair_kernel_plain, pair_kernel_renormalized
from .rgflow import FlowPoleError, beta, rg_invariance_residual
from .spectrum import _sign_fix, eigen_decompose, spectral_flow


def _probe_points(manifold, d):
    """Two manifold-valid points at coordinate separation d along axis 1."""
    if isinstance(manifold, Hyperbolic3):
        a = manifold.curvature_radius
        return np.array([0.0, 0.0, a]), np.array([d, 0.0, a])
    return np.zeros(3), np.array([d, 0.0, 0.0])


def _mu_ref(family: CurveFamily, prescription) -> float:
    """Lowest subtraction scale in play: min_i mu_i, or the counterterm scale if lower."""
    mu = float(np.min(family.mu))
    return min(mu, prescription.mu) if isinstance(prescription, RGScale) else mu


def _gap(rel):
    """A relative gap for a detail line.

    A gap of a few ulps is rounding: print it as such, so that a last-bit
    change leaves the report unchanged.
    """
    return "below 1e-12" if rel < 1e-12 else f"{rel:.3e}"


def _check_yukawa(cfg: RunConfig):
    if not isinstance(cfg.manifold, Euclidean3):
        return "skip", "flat-space anchor; manifold is not Euclidean3"
    m = cfg.mass
    worst = 0.0
    for d in (0.5 / m, 1.0 / m, 3.0 / m):
        x, y = _probe_points(cfg.manifold, d)
        got = pair_kernel_plain(0.0, x, y, m, cfg.manifold, cfg.quadrature).value
        ref = math.exp(-m * d) / (8.0 * math.pi * d)
        worst = max(worst, abs(got - ref) / ref)
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max relative deviation from exp(-m d)/(8 pi d): {_gap(worst)}"


def _check_oracle(cfg: RunConfig):
    if not isinstance(cfg.manifold, Euclidean3):
        return "skip", "resolvent oracle is flat-space only"
    m = cfg.mass
    worst = 0.0
    for e_frac in (-0.9, 0.0, 0.9):
        for d in (0.1 / m, 1.0 / m, 5.0 / m):
            x, y = _probe_points(cfg.manifold, d)
            got = pair_kernel_plain(e_frac * m, x, y, m, cfg.manifold, cfg.quadrature).value
            ref = flat_resolvent_oracle(e_frac * m, d, m)
            worst = max(worst, abs(got - ref) / ref)
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max relative gap to the direct resolvent integral: {_gap(worst)}"


def _check_monotone_kernel(cfg: RunConfig):
    m = cfg.mass
    d = 1.0 / m
    x, y = _probe_points(cfg.manifold, d)
    grid = [-0.9 * m, -0.5 * m, 0.0, 0.5 * m, 0.9 * m]
    plain = [pair_kernel_plain(E, x, y, m, cfg.manifold, cfg.quadrature).value for E in grid]
    ren = [
        pair_kernel_renormalized(E, 0.95 * m, x, y, m, cfg.manifold, cfg.quadrature).value
        for E in grid
    ]
    ok = all(b > a for a, b in zip(plain, plain[1:])) and all(
        b < a for a, b in zip(ren, ren[1:])
    )
    return ("pass" if ok else "fail",
            "G_plain strictly increasing and G_ren strictly decreasing on the sample grid")


def _check_hermiticity(M):
    sym = float(np.max(np.abs(M.entries - M.entries.T)))
    off = M.entries[~np.eye(M.n, dtype=bool)]
    ok = sym <= 1e-12 * max(1.0, float(np.max(np.abs(M.entries)))) and np.all(off <= 0)
    return ("pass" if ok else "fail",
            f"symmetry defect {sym:.3e}; off-diagonal entries all <= 0: {bool(np.all(off <= 0))}")


def _check_derivative_negativity(cfg: RunConfig, family, E_test):
    D = derivative_matrix(family, E_test, cfg.manifold, cfg.quadrature)
    rng = np.random.default_rng(20260816)
    worst = -math.inf
    for _ in range(20):
        v = rng.standard_normal(len(family))
        v /= np.linalg.norm(v)
        worst = max(worst, float(v @ D @ v))
    return ("pass" if worst < 0 else "fail",
            f"max quadratic form of dPhi/dE over 20 random directions: {worst:.3e}")


def _check_monotone_flow(cfg: RunConfig, family, mu_min):
    m = family.mass
    energies = np.linspace(-0.9 * m, mu_min - 0.05 * (mu_min + m), 5)
    flow = spectral_flow(family, energies, cfg.prescription, cfg.manifold, cfg.quadrature)
    diffs = np.diff(flow.eigenvalues, axis=0)
    ok = bool(np.all(diffs < 0))
    return ("pass" if ok else "fail",
            "every eigenvalue branch strictly decreasing over a 5-point energy grid" if ok
            else f"non-decreasing step found, max diff {float(np.max(diffs)):.3e}")


def _check_perron(M):
    off = np.abs(M.entries[~np.eye(M.n, dtype=bool)])
    if M.n > 1 and float(np.min(off)) < 1e-14:
        return "skip", "family numerically disconnected; lowest eigenvector need not be positive"
    _, vecs = eigen_decompose(M)
    v = _sign_fix(vecs[:, 0])
    ok = bool(np.all(v > 0))
    return ("pass" if ok else "fail",
            f"ground eigenvector strictly positive: min component {float(np.min(v)):.3e}")


def _check_band_envelope(cfg: RunConfig, family, E_test, M):
    if not isinstance(cfg.manifold, Euclidean3):
        return "skip", "envelope constants are calibrated for Euclidean3"
    rg = isinstance(cfg.prescription, RGScale)
    worst = -math.inf
    for i, curve in enumerate(family.curves):
        mu = cfg.prescription.mu if rg else float(family.mu[i])
        env = near_diagonal_envelope(E_test, mu, family.mass,
                                     kappa_delta=curve.kappa_star * curve.delta_window)
        worst = max(worst, float(M.band_contributions[i]) - env)
    return ("pass" if worst <= 0 else "fail",
            f"max (band contribution - envelope) over curves: {worst:.3e}")


def _check_beta(cfg: RunConfig):
    lam = 1.0
    got = beta(lam, cfg=cfg.quadrature)
    ref = -lam * lam / (4.0 * math.pi)
    rel = abs(got - ref) / abs(ref)
    return ("pass" if rel < 1e-6 else "fail",
            f"quadrature beta vs -lambda^2/(4 pi): relative gap {_gap(rel)}")


def _check_rg_invariance(cfg: RunConfig, family):
    if not isinstance(cfg.manifold, Euclidean3):
        return "skip", "rescaling identity is checked on Euclidean3 only"
    m = family.mass
    mu = cfg.prescription.mu if isinstance(cfg.prescription, RGScale) else 0.5 * m
    lam = cfg.prescription.lambda_R if isinstance(cfg.prescription, RGScale) else 1.0
    if not math.isfinite(lam):
        lam = 1.0
    E = -0.2 * m
    worst = 0.0
    for tau in (0.5, 2.0):
        if tau * abs(E) >= tau * m or tau * E >= mu:  # keep the scaled point subcritical
            return "skip", "scaled test energy leaves the valid window for this prescription"
        try:
            residual = rg_invariance_residual(family.curves[0], E, m, mu, lam, tau,
                                              cfg.quadrature)
        except FlowPoleError as exc:  # the running coupling does not exist at tau
            return "skip", (f"tau = {tau} lies at or below the flow pole "
                            f"tau* = {exc.tau_critical:.6e} of lambda_R = {lam}")
        worst = max(worst, residual)
    return ("pass" if worst < 1e-6 else "fail",
            f"max relative rescaling residual at tau in {{1/2, 2}}: {worst:.3e}")


def run_validation_suite(cfg: RunConfig) -> list:
    """Run every applicable invariant check; returns a list of result dicts."""
    family = cfg.build_family()
    mu_ref = _mu_ref(family, cfg.prescription)
    E_test = mu_ref - 0.3 * (mu_ref + family.mass)

    def phi():  # a repeat is one contraction of the family's traces
        return assemble(family, E_test, cfg.prescription, cfg.manifold, cfg.quadrature)

    named = [
        ("yukawa_anchor", lambda: _check_yukawa(cfg)),
        ("oracle_equivalence", lambda: _check_oracle(cfg)),
        ("kernel_monotonicity", lambda: _check_monotone_kernel(cfg)),
        ("matrix_hermiticity", lambda: _check_hermiticity(phi())),
        ("derivative_negativity", lambda: _check_derivative_negativity(cfg, family, E_test)),
        ("eigenvalue_monotonicity", lambda: _check_monotone_flow(cfg, family, mu_ref)),
        ("perron_positivity", lambda: _check_perron(phi())),
        ("band_envelope", lambda: _check_band_envelope(cfg, family, E_test, phi())),
        ("beta_closed_form", lambda: _check_beta(cfg)),
        ("rg_invariance", lambda: _check_rg_invariance(cfg, family)),
    ]
    report = []
    for name, fn in named:
        try:
            status, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", f"raised {type(exc).__name__}: {exc}"
        report.append({"name": name, "status": status, "detail": detail})
    return report
