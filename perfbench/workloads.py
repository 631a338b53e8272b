"""Seeded job generators, job runners and output checks for the two workloads.

A job spec is a plain JSON-able dict made only from (seed, job index); the
library sees nothing but the curve families and configs built from it.
Jobs call the library through ``curvebound.__all__`` (looked up at call time,
so the tracer's wrappers are seen) and the CLI through ``python3 -m
curvebound.cli``.  Every non-Euclidean call passes ``manifold=`` explicitly:
the library defaults to Euclidean3 and a family does not carry its manifold.

An in-process job is a list of parts, each one family with its manifold and
energies.  Every job of a workload has the same parts and the seed moves
positions, orientations, mu and energies over ranges narrow enough that a
job's cost depends on the workload, not on the seed.

Why each workload (the same text, shortened, is in BENCHMARK.json):

* inprocess: five parts through the Python API, timed together as one job.
  - solve: ground_state_energy on three Euclidean circles, two of them equal,
    coplanar and 0.05 apart.  Root finder plus ~30 assemblies; the close pair
    keeps the off-diagonal curve-quadrature error visible.
  - torus_loop, torus_circle: spectral_flow at 3 energies on one FlatTorus3
    axis-aligned TorusLoop and on one FlatTorus3 circle (the torus circle
    kernel).  No root finding.  Single-curve torus families keep each part
    short, and a straight loop has an independent 1-d reference.
  - polyline, hyperbolic: assemble + derivative_matrix at one energy on a
    smooth non-homogeneous polyline (64 outer nodes; the diagonal's
    outer-node loop) and on a Hyperbolic3 circle pair.
* cli_mix: one CLI subprocess per job cycling bounds, solve, bounds, scan,
  bounds, flow, bounds, validate.  Interpreter start, import, config, rgflow,
  bounds, validate and serialization; the only workload that pays import per
  job.  Half the jobs are one-curve bounds runs, import-dominated, so
  import-time work weighs heavily in the mean job time.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

# scipy is imported inside the reference functions: the set-up probe imports
# this module, and a top-level scipy.integrate import would hide a lazier
# import in curvebound from setup_s.

WORKLOADS = ("inprocess", "cli_mix")
NODES = 64
CLOSE_GAP = 0.05
CLI_COMMANDS = ("bounds", "solve", "bounds", "scan", "bounds", "flow", "bounds", "validate")

# Jobs checked against references: a fixed number from the start of the job
# stream, so the accuracy metric does not depend on how many jobs a run fits.
ACCURACY_JOBS = {"inprocess": 4, "cli_mix": len(CLI_COMMANDS)}

# Share of each job class in a workload's job cycle, the weights of job_mean_s.
CLASS_WEIGHTS = {"inprocess": {"inprocess": 1},
                 "cli_mix": {c: CLI_COMMANDS.count(c) for c in CLI_COMMANDS}}

# Relative deviation above which a job counts as failed.  Curve-quadrature
# limited results (close gaps, polylines) are allowed percent-level error;
# closed forms and the independent 1-d loop reference much less.
LOOSE_TOL = 5e-2
TIGHT_TOL = 1e-6

_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(workload, seed, job):
    return np.random.default_rng([int(seed), _WORKLOAD_IDS[workload], int(job)])


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _perpendicular(rng, n):
    v = rng.standard_normal(3)
    v -= np.dot(v, n) * n
    return v / np.linalg.norm(v)


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _circle(center, radius, normal):
    return {"kind": "circle", "center": [float(x) for x in center], "radius": float(radius),
            "normal": [float(x) for x in normal]}


# ---------------------------------------------------------------------------
# generators


def _solve_part(rng):
    """An equal coplanar pair CLOSE_GAP apart plus a circle 0.5 to 1 away.

    The pair shares one mu: a symmetric pair's E_gr depends on the
    off-diagonal entry to first order, so its quadrature error shows.
    """
    r0, mu0 = rng.uniform(0.9, 1.1), rng.uniform(0.1, 0.3)
    n = _unit(rng)
    c0 = rng.uniform(-2.0, 2.0, 3)
    circles = [(c0, r0, n), (c0 + (2.0 * r0 + CLOSE_GAP) * _perpendicular(rng, n), r0, n)]
    while len(circles) < 3:
        r = rng.uniform(0.8, 1.0)
        anchor = circles[rng.integers(2)]
        c = anchor[0] + (anchor[1] + r + rng.uniform(0.5, 1.0)) * _unit(rng)
        # center distance minus both radii bounds the closest approach
        if all(np.linalg.norm(c - ci) - ri - r >= 0.5 for ci, ri, _ in circles):
            circles.append((c, r, _unit(rng)))
    return {"kind": "solve", "manifold": {"kind": "euclidean3"},
            "curves": [_circle(*c) for c in circles],
            "mu": [mu0, mu0, rng.uniform(0.1, 0.3)]}


def _torus_parts(rng):
    ls = rng.uniform(4.5, 5.5, 3)
    manifold = {"kind": "flat_torus3", "circumferences": ls.tolist()}
    axis = int(rng.integers(3))
    winding = [0, 0, 0]
    winding[axis] = 1
    loop = {"kind": "torus_loop", "winding": winding,
            "offset": (rng.uniform(0.0, 1.0, 3) * ls).tolist()}
    circle = _circle(rng.uniform(0.0, 1.0, 3) * ls, rng.uniform(0.8, 1.0), _unit(rng))
    parts = []
    for kind, curve in (("torus_loop", loop), ("torus_circle", circle)):
        mu = float(rng.uniform(-0.4, -0.3))
        energies = mu - np.array([0.45, 0.3, 0.15]) + rng.uniform(-0.02, 0.02, 3)
        parts.append({"kind": kind, "manifold": manifold, "curves": [curve], "mu": [mu],
                      "energies": energies.tolist()})
    return parts


def _smooth_polyline(rng, vertices=96):
    """A rotated, shifted ellipse with a third-harmonic out-of-plane wobble."""
    a, b, c = rng.uniform(1.15, 1.25), rng.uniform(0.75, 0.85), rng.uniform(0.1, 0.15)
    th = np.linspace(0.0, 2.0 * math.pi, vertices, endpoint=False)
    pts = np.stack([a * np.cos(th), b * np.sin(th), c * np.sin(3.0 * th)], axis=1)
    pts = pts @ _rotation(rng).T + rng.uniform(-2.0, 2.0, 3)
    return {"kind": "polyline", "points": pts.tolist()}


def _curved_parts(rng):
    mu = float(rng.uniform(-0.4, -0.3))
    polyline = {"kind": "polyline", "manifold": {"kind": "euclidean3"},
                "curves": [_smooth_polyline(rng)], "mu": [mu],
                "energies": [mu - float(rng.uniform(0.25, 0.35))]}
    r0, r1 = rng.uniform(0.4, 0.8, 2)
    c0 = np.array([0.0, 0.0, rng.uniform(1.8, 2.5)])
    direction = np.array([*_perpendicular(rng, np.array([0.0, 0.0, 1.0]))[:2],
                          rng.uniform(-0.2, 0.2)])
    direction /= np.linalg.norm(direction)
    c1 = c0 + (r0 + r1 + rng.uniform(0.3, 0.8)) * direction
    mus = rng.uniform(-0.4, -0.3, 2)
    hyperbolic = {"kind": "hyperbolic",
                  "manifold": {"kind": "hyperbolic3", "curvature_radius": float(rng.uniform(0.8, 1.5))},
                  "curves": [_circle(c0, r0, _unit(rng)), _circle(c1, r1, _unit(rng))],
                  "mu": mus.tolist(), "energies": [float(mus.min()) - float(rng.uniform(0.25, 0.35))]}
    return [polyline, hyperbolic]


def make_job(workload, seed, job):
    rng = _rng(workload, seed, job)
    spec = {"workload": workload, "id": job, "class": workload}
    if workload == "inprocess":
        spec["parts"] = [_solve_part(rng)] + _torus_parts(rng) + _curved_parts(rng)
    elif workload == "cli_mix":
        command = CLI_COMMANDS[job % len(CLI_COMMANDS)]
        spec.update({"class": command, "config": _cli_config(command, rng)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def _cli_config(command, rng):
    """Fill the committed template for a subcommand with seeded parameters."""
    template = json.loads((Path(__file__).parent / "configs" / f"{command}.json").read_text())
    if command == "solve":
        r0, r1 = rng.uniform(0.8, 1.2, 2)
        x1 = r0 + r1 + rng.uniform(0.5, 1.5)
        template["curves"][0]["shape"].update(radius=float(r0))
        template["curves"][1]["shape"].update(radius=float(r1), center=[float(x1), 0.0, 0.0],
                                              normal=_unit(rng).tolist())
        for c in template["curves"]:
            c["mu"] = float(rng.uniform(-0.5, -0.2))
    elif command == "scan":
        ls = rng.uniform(4.0, 6.0, 3)
        template["manifold"]["circumferences"] = ls.tolist()
        template["curves"][0]["shape"]["offset"] = (rng.uniform(0.0, 1.0, 3) * ls).tolist()
        mu = float(rng.uniform(-0.5, -0.2))
        template["curves"][0]["mu"] = mu
        template["task"].update(E_min=float(rng.uniform(-0.9, -0.7)), E_max=mu - 0.1)
    elif command in ("bounds", "validate"):
        shape = template["curves"][0]["shape"]
        shape.update(radius=float(rng.uniform(0.7, 1.3)), normal=_unit(rng).tolist())
        template["curves"][0]["mu"] = float(rng.uniform(-0.5, -0.2))
    elif command == "flow":
        template["task"].update(lambda_R=float(rng.uniform(0.5, 2.0)),
                                tau_min=float(rng.uniform(0.05, 0.5)),
                                tau_max=float(rng.uniform(2.0, 20.0)))
    return template


# ---------------------------------------------------------------------------
# building families through the public API


def manifold_of(cb, part):
    m = part["manifold"]
    if m["kind"] == "euclidean3":
        return cb.Euclidean3()
    if m["kind"] == "flat_torus3":
        return cb.FlatTorus3(tuple(m["circumferences"]))
    return cb.Hyperbolic3(m["curvature_radius"])


def _shape(cb, c):
    if c["kind"] == "circle":
        return cb.Circle(tuple(c["center"]), c["radius"], tuple(c["normal"]))
    if c["kind"] == "polyline":
        return cb.ParametricSamples(tuple(tuple(p) for p in c["points"]))
    return cb.TorusLoop(tuple(c["winding"]), tuple(c["offset"]))


def build_family(cb, part, nodes=NODES):
    """(family, manifold) of one job part."""
    manifold = manifold_of(cb, part)
    with warnings.catch_warnings():
        # polylines always warn that fewer than 4 nodes span the curvature
        # window at 64 nodes; the geometry estimate is not what is measured
        warnings.filterwarnings("ignore", message="only .* nodes per delta window")
        curves = [cb.resample_arclength(_shape(cb, c), nodes, manifold) for c in part["curves"]]
    return cb.family_geometry(curves, manifold, part["mu"]), manifold


def build_families(cb, spec):
    return [build_family(cb, part) for part in spec["parts"]]


def _run_part(cb, part, family, manifold):
    kind = part["kind"]
    if kind == "solve":
        gs = cb.ground_state_energy(family, manifold=manifold)
        return {"E_gr": gs.E_gr, "status": gs.status, "iterations": gs.iterations}
    if kind.startswith("torus"):
        sf = cb.spectral_flow(family, part["energies"], manifold=manifold)
        return {"eigenvalues": sf.eigenvalues.tolist()}
    E = part["energies"][0]
    M = cb.assemble(family, E, manifold=manifold)
    D = cb.derivative_matrix(family, E, manifold=manifold)
    return {"entries": M.entries.tolist(), "deriv": D.tolist()}


def run_job(cb, spec, built):
    """The timed calls of an in-process job; returns its JSON-able outputs."""
    return [_run_part(cb, part, *fm) for part, fm in zip(spec["parts"], built)]


# ---------------------------------------------------------------------------
# references and checks (run after the timed phase)


def refined_quadrature(cb):
    """Finer u-rule and singular-window rules than the library defaults."""
    return cb.QuadratureConfig(u_nodes=32, sing_window=cb.SingWindowConfig(log_nodes=28, far_nodes=32))


def _weight(u, E, m=1.0):
    """w_E(u) = (1/2) e^{-m^2 u} e^{E^2 u} erfc(-E sqrt u), overflow-safe."""
    from scipy.special import erfcx

    z = abs(E) * math.sqrt(u)
    if E < 0:
        return 0.5 * math.exp(-m * m * u) * erfcx(z)
    return math.exp(-(m * m - E * E) * u) - 0.5 * math.exp(-m * m * u) * erfcx(z)


def _theta(u, L, terms=10):
    """Circle heat kernel at zero separation, K^{S1,L}_u(0)."""
    if u >= L * L / (4.0 * math.pi):
        return (1.0 + 2.0 * sum(math.exp(-4.0 * math.pi**2 * n * n * u / (L * L))
                                for n in range(1, terms + 1))) / L
    return (1.0 + 2.0 * sum(math.exp(-(k * L) ** 2 / (4.0 * u))
                            for k in range(1, terms + 1))) / math.sqrt(4.0 * math.pi * u)


def loop_phi(E, mu, ls, axis, m=1.0):
    """Phi(E) of one axis-aligned TorusLoop on a flat torus, by 1-d quadrature.

    Along the loop the torus kernel factorizes and its integral over the loop
    coordinate is 1, so Phi(E) = int_0^inf du (w_mu - w_E)(u) theta_a theta_b
    with theta the zero-separation circle kernels of the two other axes.  No
    arc quadrature is involved; u = t^2 removes the u^{-1/2} end point.
    """
    from scipy.integrate import quad

    la, lb = [ls[i] for i in range(3) if i != axis]

    def f(t):
        u = t * t
        return 2.0 * t * (_weight(u, mu, m) - _weight(u, E, m)) * _theta(u, la) * _theta(u, lb)

    t_top = math.sqrt(80.0 / (m * m - max(E * E, mu * mu)))
    total = 0.0
    for a, b in ((0.0, 0.3), (0.3, 1.5), (1.5, 4.0), (4.0, t_top)):
        if a < t_top:
            v, _ = quad(f, a, min(b, t_top), epsabs=0.0, epsrel=1e-13, limit=200)
            total += v
    return total


def newton_reference(cb, part, E, manifold):
    """Ground state from the refined matrix, one Newton step from E.

    The refined matrix uses 192 nodes per curve and the finer quadrature;
    the slope v^T dPhi/dE v comes from the default family, which only has to
    be accurate to a few digits because the step is small.
    """
    fam_ref, _ = build_family(cb, part, nodes=192)
    M = cb.assemble(fam_ref, E, manifold=manifold, cfg=refined_quadrature(cb))
    w, V = np.linalg.eigh(M.entries)
    fam, _ = build_family(cb, part)
    slope = float(V[:, 0] @ cb.derivative_matrix(fam, E, manifold=manifold) @ V[:, 0])
    return E - float(w[0]) / slope


def _rel(a, b):
    return abs(a - b) / abs(b)


def _check_part(cb, part, out, accurate):
    """Problems found in one part's output, and its reference deviation.

    Ground state energies lie in (-m, m) with m = 1, so their deviation is
    taken in units of the mass rather than relative to E_gr, which can be
    near 0.
    """
    kind, problems, err = part["kind"], [], None
    if kind == "solve":
        E = out["E_gr"]
        if out["status"] != "converged":
            return [f"status {out['status']}"], None
        if not -1.0 < E < min(part["mu"]):
            problems.append(f"E_gr {E} outside (-m, min mu)")
        if accurate and not problems:
            err = abs(E - newton_reference(cb, part, E, manifold_of(cb, part)))
            if err > LOOSE_TOL:
                problems.append(f"E_gr deviates by {err:.3e}")
        return problems, err
    if kind.startswith("torus"):
        ev = np.array(out["eigenvalues"])
        if not np.all(np.isfinite(ev)):
            return ["non-finite eigenvalue"], None
        if not np.all(np.diff(ev[:, 0]) < 0):
            problems.append("omega_min does not fall with E")
        if accurate:
            family, _ = build_family(cb, part)
            E, mu = part["energies"][0], part["mu"][0]
            flat = cb.assemble(family, E, manifold=cb.Euclidean3()).entries[0, 0]
            if _rel(ev[0, 0], flat) < 1e-6:
                problems.append("torus value equals the Euclidean evaluation")
            if kind == "torus_loop":
                axis = part["curves"][0]["winding"].index(1)
                ls = part["manifold"]["circumferences"]
                err = max(_rel(ev[k, 0], loop_phi(Ek, mu, ls, axis))
                          for k, Ek in enumerate(part["energies"]))
                if err > TIGHT_TOL:
                    problems.append(f"loop eigenvalue deviates by {err:.3e}")
        return problems, err
    M, D = np.array(out["entries"]), np.array(out["deriv"])
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(D))):
        return ["non-finite matrix"], None
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * np.abs(M).max()):
        problems.append("Phi not symmetric")
    if not np.all(np.diag(D) < 0):
        problems.append("dPhi/dE diagonal not negative")
    _, V = np.linalg.eigh(M)
    if not float(V[:, 0] @ D @ V[:, 0]) < 0:
        problems.append("omega_min does not fall with E")
    if accurate:
        family, manifold = build_family(cb, part)
        E = part["energies"][0]
        if kind == "hyperbolic":
            flat = cb.assemble(family, E, manifold=cb.Euclidean3()).entries
            if np.max(np.abs(flat - M)) <= 1e-6 * np.abs(M).max():
                problems.append("hyperbolic matrix equals the Euclidean evaluation")
        else:
            fam_ref, _ = build_family(cb, part, nodes=128)
            ref = cb.assemble(fam_ref, E, manifold=manifold, cfg=refined_quadrature(cb)).entries
            err = float(np.max(np.abs(M - ref)) / np.max(np.abs(ref)))
            if err > LOOSE_TOL:
                problems.append(f"Phi deviates by {err:.3e}")
    return problems, err


def check_inprocess(cb, spec, outs, accurate):
    """Structural checks on every job; reference deviation on accuracy jobs.

    Returns (problems, worst deviation or None when no part has a reference:
    hyperbolic and torus circle parts, or a job outside the accuracy set).
    """
    problems, errs = [], []
    for part, out in zip(spec["parts"], outs):
        p, e = _check_part(cb, part, out, accurate)
        problems += [f"{part['kind']}: {x}" for x in p]
        if e is not None:
            errs.append(e)
    return problems, (max(errs) if errs else None)


# ---------------------------------------------------------------------------
# CLI jobs


def cli_output_name(command):
    return {"solve": "solve.json", "scan": "scan.csv", "bounds": "bounds.json",
            "flow": "flow.csv", "validate": "validate.json"}[command]


def _csv_rows(text):
    return [[float(x) for x in line.split(",")] for line in text.splitlines()
            if line and not line.startswith("#")]


def check_cli(cb, spec, exit_code, text, accurate):
    """Checks of one CLI job's exit code and output file text."""
    command, cfg = spec["class"], spec["config"]
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    if text is None:
        return ["no output file"], None
    problems, err, tol = [], None, TIGHT_TOL
    if command == "solve":
        out = json.loads(text)
        if out["status"] != "converged":
            return [f"status {out['status']}"], None
        if accurate:
            part = {"manifold": {"kind": "euclidean3"},
                    "curves": [c["shape"] for c in cfg["curves"]],
                    "mu": [c["mu"] for c in cfg["curves"]]}
            err = abs(out["E_gr"] - newton_reference(cb, part, out["E_gr"], cb.Euclidean3()))
            tol = LOOSE_TOL
    elif command == "scan":
        rows = _csv_rows(text)
        omega = [r[1] for r in rows]
        if not all(b < a for a, b in zip(omega, omega[1:])):
            problems.append("omega_1 does not fall with E")
        if accurate:
            shape, mu = cfg["curves"][0]["shape"], cfg["curves"][0]["mu"]
            ls = cfg["manifold"]["circumferences"]
            axis = shape["winding"].index(1)
            err = max(_rel(r[1], loop_phi(r[0], mu, ls, axis)) for r in rows)
    elif command == "bounds":
        out = json.loads(text)
        mu = cfg["curves"][0]["mu"]
        if not out["ordering_ok"] or out["threshold_status"] != "single_disk":
            problems.append("bounds ordering or status wrong")
        # one curve: E* = E_gr = mu exactly
        err = max(_rel(out["E_gr"], mu), _rel(out["E_star"], mu))
    elif command == "flow":
        task = cfg["task"]
        lam = task["lambda_R"]
        header = [line for line in text.splitlines() if line.startswith("# beta_quadrature")][0]
        b_quad = float(header.split()[2])
        closed = -lam * lam / (4.0 * math.pi)
        err = _rel(b_quad, closed)
        for tau, lam_tau, beta_tau, _ in _csv_rows(text):
            exact = lam / (1.0 + lam / (4.0 * math.pi) * math.log(tau))
            err = max(err, _rel(lam_tau, exact), _rel(beta_tau, -exact * exact / (4.0 * math.pi)))
    else:  # validate
        out = json.loads(text)
        failed = [c["name"] for c in out["checks"] if c["status"] == "fail"]
        if not out["all_passed"] or failed:
            problems.append(f"validation checks failed: {failed}")
        return problems, None
    if err is not None and err > tol:
        problems.append(f"{command} output deviates by {err:.3e}")
    return problems, (err if accurate else None)
