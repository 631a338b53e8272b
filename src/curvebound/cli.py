"""Command-line orchestration: solve | scan | bounds | flow | validate.

Each subcommand reads one JSON configuration (whose task block must name the
same task), runs it, and writes deterministic artifacts into --out: JSON for
solve/bounds/validate, CSV for scan/flow.  Floats are printed with 17
significant digits and every file carries the tool version and the sha256 of
the raw config text, so byte-identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 convergence/flow failure,
4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundConstants, gersgorin_threshold
from .config import ConfigError, FlowTask, RunConfig, ScanTask, SolveTask, parse_config
from .curves import ValidationError
from .manifolds import DomainError, volume
from .principal import ConvergenceError, assemble
from .rgflow import FlowPoleError, beta, flow_profile
from .spectrum import ground_state_energy, spectral_flow
from .validate import run_validation_suite

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CONVERGENCE = 3
_EXIT_VALIDATION = 4


def _fmt(x: float) -> str:
    return "%.17g" % x


def _metadata(cfg: RunConfig, threads: int) -> dict:
    return {
        "tool": "curvebound",
        "version": __version__,
        "config_sha256": cfg.fingerprint,
        "threads": threads,
        "effective_config": cfg.effective,
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, cfg: RunConfig, threads: int, columns, rows, extra=()):
    lines = [
        f"# curvebound {__version__}",
        f"# config_sha256 {cfg.fingerprint}",
        f"# threads {threads}",
        "# units: lengths and energies in units set by the mass scale",
        *extra,
        "# columns: " + ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _safe_float(x):
    return None if x is None or (isinstance(x, float) and math.isnan(x)) else x


# ---------------------------------------------------------------------------
# task runners


def _run_solve(cfg: RunConfig, out: Path, threads: int) -> int:
    family = cfg.build_family()
    task: SolveTask = cfg.task
    gs = ground_state_energy(family, cfg.prescription, cfg.manifold, cfg.quadrature,
                             bracket=task.bracket)
    payload = {
        "task": "solve",
        "status": gs.status,
        "E_gr": _safe_float(gs.E_gr),
        "residual": _safe_float(gs.residual),
        "iterations": gs.iterations,
        "bracket": list(gs.bracket),
        "possibly_degenerate": gs.possibly_degenerate,
        "metadata": _metadata(cfg, threads),
    }
    if gs.status == "converged":
        M = assemble(family, gs.E_gr, cfg.prescription, cfg.manifold, cfg.quadrature)
        payload["matrix"] = [[float(x) for x in row] for row in M.entries]
        payload["matrix_err"] = [[float(x) for x in row] for row in M.err]
        payload["fingerprint"] = M.fingerprint
    _write_json(out / "solve.json", payload)
    return _EXIT_OK


def _run_scan(cfg: RunConfig, out: Path, threads: int) -> int:
    family = cfg.build_family()
    task: ScanTask = cfg.task
    energies = np.linspace(task.E_min, task.E_max, task.points)
    flow = spectral_flow(family, energies, cfg.prescription, cfg.manifold, cfg.quadrature)
    n = len(family)
    columns = ["E"] + [f"omega_{k + 1}" for k in range(n)] + [f"v_{k + 1}" for k in range(n)]
    rows = [
        [float(flow.energies[i])] + [float(x) for x in flow.eigenvalues[i]]
        + [float(x) for x in flow.ground_vector[i]]
        for i in range(len(energies))
    ]
    _write_csv(out / "scan.csv", cfg, threads, columns, rows)
    return _EXIT_OK


def _run_bounds(cfg: RunConfig, out: Path, threads: int) -> int:
    family = cfg.build_family()
    g = gersgorin_threshold(family, BoundConstants(V=volume(cfg.manifold)))
    gs = ground_state_energy(family, cfg.prescription, cfg.manifold, cfg.quadrature)
    e_gr = _safe_float(gs.E_gr)
    ordering = None if e_gr is None else bool(g.E_star <= gs.E_gr)
    payload = {
        "task": "bounds",
        "E_star": g.E_star,
        "threshold_status": g.status,
        "solver_status": gs.status,
        "E_gr": e_gr,
        "ordering_ok": ordering,
        "metadata": _metadata(cfg, threads),
    }
    _write_json(out / "bounds.json", payload)
    return _EXIT_OK


def _run_flow(cfg: RunConfig, out: Path, threads: int) -> int:
    task: FlowTask = cfg.task
    profile = flow_profile(task.lambda_R, task.tau_min, task.tau_max, task.points)
    rows = zip(profile.tau_grid, profile.lambda_values, profile.beta_values, profile.residuals)
    # both beta routes at the input coupling, so the convention stays auditable
    b_quad = beta(task.lambda_R, cfg=cfg.quadrature, method="quadrature")
    b_closed = beta(task.lambda_R, method="closed_form")
    extra = (f"# beta_quadrature { _fmt(b_quad) }  beta_closed_form { _fmt(b_closed) }"
             f"  discrepancy { _fmt(abs(b_quad - b_closed)) }",)
    _write_csv(out / "flow.csv", cfg, threads, ["tau", "lambda", "beta", "residual"], rows,
               extra=extra)
    return _EXIT_OK


def _run_validate(cfg: RunConfig, out: Path, threads: int) -> int:
    report = run_validation_suite(cfg)
    payload = {
        "task": "validate",
        "all_passed": all(c["status"] != "fail" for c in report),
        "checks": report,
        "metadata": _metadata(cfg, threads),
    }
    _write_json(out / "validate.json", payload)
    return _EXIT_OK if payload["all_passed"] else _EXIT_VALIDATION


_RUNNERS = {
    "solve": _run_solve,
    "scan": _run_scan,
    "bounds": _run_bounds,
    "flow": _run_flow,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvebound",
        description="Bound states, spectral bounds and coupling flow for "
                    "curve-supported contact interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "find the ground-state energy"),
        ("scan", "eigenvalue flow over an energy grid (CSV)"),
        ("bounds", "Gersgorin threshold E* and ordering check"),
        ("flow", "coupling flow profile (CSV)"),
        ("validate", "run the invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the output metadata only; execution is single-threaded")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown configuration keys")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print("error: --threads must be a positive integer", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        cfg = parse_config(text, strict=args.strict)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    runner = _RUNNERS[args.command]
    if cfg.task.kind != args.command:
        print(f"error: config.task.kind: is {cfg.task.kind!r} but the "
              f"{args.command!r} subcommand was invoked", file=sys.stderr)
        return _EXIT_CONFIG

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        return runner(cfg, out, args.threads)
    except FlowPoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except ConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
