import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvebound import (
    BoundConstants,
    Circle,
    ConfigError,
    DomainError,
    Euclidean3,
    Hyperbolic3,
    QuadratureConfig,
    RGScale,
    SingWindowConfig,
    TorusLoop,
    ValidationError,
    beta,
    circle_heat_kernel,
    diagonal_lower_bound,
    eigen_decompose,
    family_geometry,
    feynman_hellman_residual,
    flow_coupling,
    flow_profile,
    geodesic_distance,
    heat_kernel,
    ode_flow_values,
    offdiagonal_upper_bound,
    parse_config,
    resample_arclength,
)
from curvebound.cli import main
from curvebound.config import FlowTask, ScanTask

MINIMAL = {
    "mass": 1.0,
    "curves": [
        {"shape": {"kind": "circle", "center": [0, 0, 0], "radius": 1.0}, "mu": 0.0}
    ],
    "task": {"kind": "solve"},
}

PAIR = {
    "mass": 1.0,
    "curves": [
        {"shape": {"kind": "circle", "center": [0, 0, 0], "radius": 1.0}, "mu": 0.0},
        {"shape": {"kind": "circle", "center": [12, 0, 0], "radius": 1.0}, "mu": 0.0},
    ],
    "task": {"kind": "scan", "E_min": -0.9, "E_max": -0.01, "points": 4},
}


TORUS = {"kind": "flat_torus3", "circumferences": [5.0, 5.0, 5.0]}


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_minimal_defaults_echoed():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.task.kind == "solve"
    eff = cfg.effective
    assert eff["manifold"]["kind"] == "euclidean3"
    assert eff["prescription"]["kind"] == "minimal"
    assert eff["sampling"]["nodes"] == 64
    assert eff["quadrature"]["t_nodes"] == 32
    assert len(cfg.fingerprint) == 64
    fam = cfg.build_family()
    assert len(fam) == 1


def test_parse_rejects_bad_mass():
    doc = dict(MINIMAL, mass=-1.0)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert "config.mass" in str(exc.value)


def test_parse_rejects_unknown_key_strict():
    doc = dict(MINIMAL, extra=1)
    parse_config(json.dumps(doc))  # tolerated by default
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc), strict=True)


def test_parse_rejects_bad_task_fields():
    doc = dict(MINIMAL, task={"kind": "scan", "E_min": 0.5, "E_max": -0.5, "points": 4})
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    doc = dict(MINIMAL, task={"kind": "warp"})
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_parse_rejects_mu_at_mass():
    doc = json.loads(json.dumps(MINIMAL))
    doc["curves"][0]["mu"] = 1.5
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert "mu" in str(exc.value)


def test_parse_torus_loop_needs_torus():
    doc = json.loads(json.dumps(MINIMAL))
    doc["curves"][0]["shape"] = {"kind": "torus_loop", "winding": [1, 0, 0]}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_cli_solve_minimal(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["status"] == "converged"
    assert abs(payload["E_gr"]) < 1e-8
    assert payload["metadata"]["version"]
    assert payload["metadata"]["config_sha256"]


def test_cli_scan_deterministic_and_monotone(tmp_path):
    cfg = write(tmp_path, PAIR)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scan", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "scan.csv").read_bytes()
    assert b1 == (out2 / "scan.csv").read_bytes()
    rows = [line.split(",") for line in b1.decode().splitlines()
            if line and not line.startswith("#")]
    data = np.array([[float(x) for x in r] for r in rows])
    assert data.shape == (4, 5)
    assert np.all(np.diff(data[:, 1]) < 0)  # omega_1 strictly decreasing in E
    assert np.all(np.diff(data[:, 2]) < 0)


@pytest.mark.parametrize("command", ["solve", "scan", "bounds", "flow", "validate"])
def test_cli_reruns_are_byte_identical(tmp_path, command):
    cfg = Path(__file__).parents[1] / "perfbench" / "configs" / f"{command}.json"
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _unit_circle_family(mass=1.0, mu=0.0):
    curve = resample_arclength(Circle((0, 0, 0), 1.0), 64)
    return family_geometry([curve], Euclidean3(), [mu], mass=mass)


# the Python API's range checks reject NaN, and an infinity wherever it would
# break the result, before any floating-point warning (the CLI rejects
# non-finite numbers before they get here)
NON_FINITE = {
    "QuadratureConfig.rel_tol=nan": (DomainError, lambda: QuadratureConfig(rel_tol=math.nan)),
    "QuadratureConfig.abs_tol=nan": (DomainError, lambda: QuadratureConfig(abs_tol=math.nan)),
    "QuadratureConfig.panel_ratio=nan": (DomainError,
                                         lambda: QuadratureConfig(panel_ratio=math.nan)),
    "QuadratureConfig.panel_ratio=inf": (DomainError,
                                         lambda: QuadratureConfig(panel_ratio=math.inf)),
    "SingWindowConfig.log_depth=nan": (DomainError, lambda: SingWindowConfig(log_depth=math.nan)),
    "SingWindowConfig.log_depth=inf": (DomainError, lambda: SingWindowConfig(log_depth=math.inf)),
    "SingWindowConfig.far_panel_ratio=nan": (
        DomainError, lambda: SingWindowConfig(far_panel_ratio=math.nan)),
    "Circle.radius=nan": (ValidationError, lambda: Circle((0, 0, 0), math.nan)),
    "Circle.radius=inf": (ValidationError, lambda: Circle((0, 0, 0), math.inf)),
    "family_geometry.mass=nan": (DomainError, lambda: _unit_circle_family(mass=math.nan)),
    "family_geometry.mass=inf": (DomainError, lambda: _unit_circle_family(mass=math.inf)),
    "family_geometry.mu=nan": (DomainError, lambda: _unit_circle_family(mu=math.nan)),
    "beta.lambda_R=nan": (DomainError, lambda: beta(math.nan)),
    "beta.lambda_R=inf": (DomainError, lambda: beta(math.inf)),
    "beta.closed_form.lambda_R=inf": (DomainError,
                                      lambda: beta(math.inf, method="closed_form")),
    "beta.L=inf": (DomainError, lambda: beta(1.0, L=math.inf)),
    "flow_coupling.lambda=nan": (DomainError, lambda: flow_coupling(math.nan, 2.0)),
    "flow_coupling.lambda=inf": (DomainError, lambda: flow_coupling(math.inf, 1.0)),
    "flow_coupling.tau=nan": (DomainError, lambda: flow_coupling(1.0, math.nan)),
    "BoundConstants.A=nan": (DomainError, lambda: BoundConstants(A=math.nan)),
    "BoundConstants.B=inf": (DomainError, lambda: BoundConstants(B=math.inf)),
    "BoundConstants.V=nan": (DomainError, lambda: BoundConstants(V=math.nan)),
    "diagonal_lower_bound.L_min=nan": (
        DomainError, lambda: diagonal_lower_bound(-0.5, 0.3, 1.0, math.nan)),
    "offdiagonal_upper_bound.d_min=nan": (
        DomainError, lambda: offdiagonal_upper_bound(-0.5, 1.0, math.nan, 1.0)),
    "offdiagonal_upper_bound.L_max=nan": (
        DomainError, lambda: offdiagonal_upper_bound(-0.5, 1.0, 1.0, math.nan)),
    "RGScale.mu=inf": (DomainError, lambda: RGScale(math.inf, 1.0)),
    "SampledCurve.rescaled=nan": (
        DomainError, lambda: resample_arclength(Circle((0, 0, 0), 1.0), 16).rescaled(math.nan)),
    # an infinite tau would march the ODE for ~2^53 steps
    "ode_flow_values.tau=nan": (DomainError, lambda: ode_flow_values(1.0, [math.nan])),
    "ode_flow_values.tau=inf": (DomainError, lambda: ode_flow_values(1.0, [math.inf])),
    "flow_profile.tau_max=inf": (DomainError, lambda: flow_profile(1.0, 0.5, math.inf, 3)),
    "circle_heat_kernel.L=inf": (DomainError, lambda: circle_heat_kernel(1.0, 0.3, math.inf)),
    "heat_kernel.x=nan": (DomainError,
                          lambda: heat_kernel(Euclidean3(), 1.0, (math.nan, 0, 0), (0, 0, 0))),
    "heat_kernel.hyperbolic.x3=nan": (
        DomainError, lambda: heat_kernel(Hyperbolic3(1.0), 1.0, (0, 0, math.nan), (0, 0, 1))),
    "geodesic_distance.x=inf": (
        DomainError, lambda: geodesic_distance(Euclidean3(), (math.inf, 0, 0), (0, 0, 0))),
    "TorusLoop.offset=nan": (ValidationError, lambda: TorusLoop((1, 0, 0), (math.nan, 0, 0))),
    "feynman_hellman_residual.h=nan": (
        DomainError, lambda: feynman_hellman_residual(_unit_circle_family(), -0.5, h=math.nan)),
    "feynman_hellman_residual.h=inf": (
        DomainError, lambda: feynman_hellman_residual(_unit_circle_family(), -0.5, h=math.inf)),
    # not non-finite, but a step of 0 divides by zero and a negative one is no step
    "feynman_hellman_residual.h=0": (
        DomainError, lambda: feynman_hellman_residual(_unit_circle_family(), -0.5, h=0.0)),
    "feynman_hellman_residual.h<0": (
        DomainError, lambda: feynman_hellman_residual(_unit_circle_family(), -0.5, h=-1e-4)),
    # not non-finite either, but a 1-d array has no second axis to compare
    "eigen_decompose.1d": (DomainError, lambda: eigen_decompose(np.ones(3))),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_range_checks_reject_non_finite_values(case):
    error, make = NON_FINITE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            make()


NOT_INTEGER = {
    "QuadratureConfig.t_nodes=16.5": lambda: QuadratureConfig(t_nodes=16.5),
    "QuadratureConfig.u_nodes=16.5": lambda: QuadratureConfig(u_nodes=16.5),
    "QuadratureConfig.u_nodes=24.0": lambda: QuadratureConfig(u_nodes=24.0),
    "SingWindowConfig.log_nodes=4.5": lambda: SingWindowConfig(log_nodes=4.5),
    "SingWindowConfig.far_nodes=24.0": lambda: SingWindowConfig(far_nodes=24.0),
    "resample_arclength.n=8.5": lambda: resample_arclength(Circle((0, 0, 0), 1.0), 8.5),
    "resample_arclength.n=64.0": lambda: resample_arclength(Circle((0, 0, 0), 1.0), 64.0),
    "ScanTask.points=2.5": lambda: ScanTask(-0.5, 0.0, 2.5),
    "FlowTask.points=2.5": lambda: FlowTask(1.0, 0.5, 2.0, 2.5),
    "flow_profile.points=3.5": lambda: flow_profile(1.0, 0.5, 2.0, 3.5),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGER))
def test_node_counts_must_be_integers(case):
    # a fractional count would fail deep in numpy's Gauss-Legendre rule or
    # np.geomspace, round up silently in beta's Laguerre rule, or pass a
    # task's range check
    with pytest.raises(DomainError):
        NOT_INTEGER[case]()
    assert QuadratureConfig(t_nodes=np.int64(20), u_nodes=np.int64(20)).u_nodes == 20


def test_cli_task_kind_mismatch(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_overlapping_curves_config_error(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["curves"].append(doc["curves"][0])
    cfg = write(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_bad_threads(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_cli_flow_pole_exit_code(tmp_path):
    doc = dict(MINIMAL,
               task={"kind": "flow", "lambda_R": 30.0, "tau_min": 0.01,
                     "tau_max": 1.0, "points": 5})
    cfg = write(tmp_path, doc)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_cli_flow_output(tmp_path):
    doc = dict(MINIMAL,
               task={"kind": "flow", "lambda_R": 1.0, "tau_min": 0.5,
                     "tau_max": 2.0, "points": 5})
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "flow.csv").read_text()
    assert "# beta_quadrature" in text
    rows = [r.split(",") for r in text.splitlines() if r and not r.startswith("#")]
    taus = [float(r[0]) for r in rows]
    lams = [float(r[1]) for r in rows]
    assert taus[0] == 0.5 and taus[-1] == 2.0
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_cli_flow_with_many_t_nodes(tmp_path):
    doc = dict(MINIMAL, quadrature={"t_nodes": 400},
               task={"kind": "flow", "lambda_R": 1.0, "tau_min": 0.5,
                     "tau_max": 2.0, "points": 3})
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    header = next(line for line in (out / "flow.csv").read_text().splitlines()
                  if line.startswith("# beta_quadrature"))
    assert float(header.split()[2]) == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-12)


def test_cli_bounds_output(tmp_path):
    doc = json.loads(json.dumps(PAIR))
    doc["task"] = {"kind": "bounds"}
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["E_star"] <= payload["E_gr"]
    assert payload["ordering_ok"] is True


def test_cli_validate_default_passes(tmp_path):
    doc = dict(MINIMAL, task={"kind": "validate"})
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    assert payload["all_passed"] is True
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["oracle_equivalence"] == "pass"
    assert statuses["rg_invariance"] == "pass"
    assert "fail" not in statuses.values()


def test_cli_validate_skips_rg_invariance_below_flow_pole(tmp_path):
    # lambda_R = 100 puts the flow pole at exp(-4 pi / 100) ~ 0.88, above the
    # tau = 1/2 of the rescaling identity: the check cannot apply there
    doc = json.loads(json.dumps(PAIR))
    doc["curves"][1]["shape"]["center"] = [3, 0, 0]
    doc["prescription"] = {"kind": "rg_scale", "mu": 0.5, "lambda_R": 100.0}
    doc["task"] = {"kind": "validate"}
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["rg_invariance"] == "skip"
    assert payload["all_passed"] is True


VALIDATE_ELSEWHERE = {
    "torus": {"manifold": TORUS,
              "curves": [{"shape": {"kind": "torus_loop", "winding": [1, 0, 0]}, "mu": 0.0}]},
    "hyperbolic": {"manifold": {"kind": "hyperbolic3", "curvature_radius": 1.0},
                   "curves": [{"shape": {"kind": "circle", "center": [x, 0, 3], "radius": 0.5},
                               "mu": 0.0} for x in (0, 2)]},
}


@pytest.mark.parametrize("where", sorted(VALIDATE_ELSEWHERE))
def test_cli_validate_off_euclidean_space(tmp_path, where):
    # the four flat-space checks skip; the hyperbolic probe points and every
    # other check run and pass
    doc = dict(MINIMAL, task={"kind": "validate"}, **VALIDATE_ELSEWHERE[where])
    out = tmp_path / "o"
    assert main(["validate", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    payload = json.loads((out / "validate.json").read_text())
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    skipped = {"yukawa_anchor", "oracle_equivalence", "band_envelope", "rg_invariance"}
    assert {name for name, status in statuses.items() if status == "skip"} == skipped
    assert len(statuses) == 10
    assert all(statuses[name] == "pass" for name in statuses.keys() - skipped)
    assert payload["all_passed"] is True


def test_cli_exit_code_on_convergence_error(tmp_path, capsys):
    doc = json.loads(json.dumps(PAIR))
    doc["curves"][1]["shape"]["center"] = [3, 0, 0]
    doc["quadrature"] = {"u_nodes": 16, "rel_tol": 1e-300, "abs_tol": 1e-300}
    doc["task"] = {"kind": "solve"}
    out = tmp_path / "o"
    assert main(["solve", "--config", write(tmp_path, doc), "--out", str(out)]) == 3
    assert "quadrature did not converge" in capsys.readouterr().err
    assert not (out / "solve.json").exists()


def test_validate_phi_checks_each_report_a_convergence_error():
    from curvebound.validate import run_validation_suite

    doc = dict(MINIMAL, task={"kind": "validate"},
               quadrature={"u_nodes": 16, "rel_tol": 1e-300, "abs_tol": 1e-300})
    report = {c["name"]: c for c in run_validation_suite(parse_config(json.dumps(doc)))}
    for name in ("matrix_hermiticity", "perron_positivity", "band_envelope"):
        assert report[name]["status"] == "fail"
        assert report[name]["detail"].startswith("raised ConvergenceError")


def test_validate_beta_detail_ignores_last_bit_changes(monkeypatch):
    from curvebound import validate

    cfg = parse_config(json.dumps(dict(MINIMAL, task={"kind": "validate"})))
    ref = -1.0 / (4.0 * math.pi)
    details = []
    for got in (math.nextafter(ref, 0.0), math.nextafter(math.nextafter(ref, 0.0), 0.0),
                ref * (1.0 + 1e-9)):
        monkeypatch.setattr(validate, "beta", lambda lam, cfg=None, got=got: got)
        status, detail = validate._check_beta(cfg)
        assert status == "pass"
        details.append(detail)
    assert details[0] == details[1]
    assert details[0].endswith("relative gap below 1e-12")
    assert details[2].endswith("relative gap 1.000e-09")


@pytest.mark.parametrize("check", ["yukawa", "oracle"])
def test_validate_anchor_details_ignore_last_bit_changes(monkeypatch, check):
    from types import SimpleNamespace

    from curvebound import validate

    cfg = parse_config(json.dumps(dict(MINIMAL, task={"kind": "validate"})))
    details = []
    for shift in (1, 2, None):  # ulps below the reference, or a 1e-9 gap

        def kernel(E, x, y, m, manifold, quadrature, shift=shift):
            d = float(np.linalg.norm(y - x))
            ref = (math.exp(-m * d) / (8.0 * math.pi * d) if check == "yukawa"
                   else validate.flat_resolvent_oracle(E, d, m))
            if shift is None:
                return SimpleNamespace(value=ref * (1.0 - 1e-9))
            for _ in range(shift):
                ref = math.nextafter(ref, 0.0)
            return SimpleNamespace(value=ref)

        monkeypatch.setattr(validate, "pair_kernel_plain", kernel)
        status, detail = getattr(validate, f"_check_{check}")(cfg)
        assert status == "pass"
        details.append(detail)
    assert details[0] == details[1]
    assert details[0].endswith(": below 1e-12")
    assert details[2].endswith(": 1.000e-09")


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize("mu", [-0.9995, -0.9999995])
def test_cli_min_mu_near_threshold_without_bracket(tmp_path, command, mu):
    # the default root bracket and the Gersgorin grid both lie inside (-m, min mu)
    doc = json.loads(json.dumps(PAIR))
    doc["curves"][1]["shape"]["center"] = [3, 0, 0]
    for c in doc["curves"]:
        c["mu"] = mu
    doc["task"] = {"kind": command}
    out = tmp_path / "o"
    assert main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    payload = json.loads((out / f"{command}.json").read_text())
    assert payload["solver_status" if command == "bounds" else "status"] == \
        "no_bound_state_in_bracket"


def test_cli_solve_seventeen_digit_roundtrip(tmp_path):
    cfg = write(tmp_path, PAIR)
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "scan.csv").read_text()
    row = next(r for r in text.splitlines() if r and not r.startswith("#"))
    first = row.split(",")[0]
    # %.17g formatting round-trips doubles exactly
    assert float(first) == -0.9


def _doc(**changes):
    """MINIMAL with top-level keys replaced and `curves[0].shape` keys updated."""
    doc = json.loads(json.dumps(MINIMAL))
    doc["curves"][0]["shape"].update(changes.pop("shape", {}))
    doc.update(changes)
    return doc


SCAN = {"kind": "scan", "E_min": -0.9, "E_max": -0.1, "points": 3}
FLOW = {"kind": "flow", "lambda_R": 1.0, "tau_min": 0.5, "tau_max": 2.0, "points": 3}

REJECTED = [
    # (id, document, strict, the path the error must start with)
    ("json", "{", False, "config"),
    ("root_not_object", [], False, "config"),
    ("missing_task", {"curves": MINIMAL["curves"]}, False, "config.task"),
    ("unknown_root_key", _doc(extra=1), True, "config.extra"),
    ("mass_zero", _doc(mass=0), False, "config.mass"),
    ("mass_bool", _doc(mass=True), False, "config.mass"),
    ("mass_infinite", '{"mass": Infinity, "curves": [], "task": {"kind": "solve"}}', False,
     "config.mass"),
    ("radius_beyond_double", json.dumps(MINIMAL).replace('"radius": 1.0', '"radius": 1' + "0" * 400),
     False, "config.curves[0].shape.radius"),
    ("manifold_kind", _doc(manifold={"kind": "sphere"}), False, "config.manifold.kind"),
    ("torus_circumference", _doc(manifold={"kind": "flat_torus3", "circumferences": [5, 0, 5]}),
     False, "config.manifold"),
    ("torus_missing_key", _doc(manifold={"kind": "flat_torus3"}), False,
     "config.manifold.circumferences"),
    ("hyperbolic_radius", _doc(manifold={"kind": "hyperbolic3", "curvature_radius": -1}), False,
     "config.manifold"),
    ("curves_empty", _doc(curves=[]), False, "config.curves"),
    ("radius_negative", _doc(shape={"radius": -1.0}), False, "config.curves[0].shape"),
    ("radius_string", _doc(shape={"radius": "1"}), False, "config.curves[0].shape.radius"),
    ("center_length", _doc(shape={"center": [0, 0]}), False, "config.curves[0].shape.center"),
    ("normal_zero", _doc(shape={"normal": [0, 0, 0]}), False, "config.curves[0].shape"),
    ("shape_unknown_key", _doc(shape={"colour": "red"}), True, "config.curves[0].shape.colour"),
    ("polyline_short", _doc(curves=[{"shape": {"kind": "parametric_samples",
                                               "points": [[0, 0, 0], [1, 0, 0]]}, "mu": 0.0}]),
     False, "config.curves[0].shape"),
    ("winding_zero", _doc(manifold=TORUS, curves=[{"shape": {"kind": "torus_loop",
                                                             "winding": [0, 0, 0]}, "mu": 0.0}]),
     False, "config.curves[0].shape"),
    ("winding_gcd", _doc(manifold=TORUS, curves=[{"shape": {"kind": "torus_loop",
                                                            "winding": [2, 2, 0]}, "mu": 0.0}]),
     False, "config.curves[0].shape"),
    ("winding_float", _doc(manifold=TORUS, curves=[{"shape": {"kind": "torus_loop",
                                                              "winding": [1.0, 0, 0]}, "mu": 0.0}]),
     False, "config.curves[0].shape.winding[0]"),
    ("loop_off_torus", _doc(curves=[{"shape": {"kind": "torus_loop", "winding": [1, 0, 0]},
                                     "mu": 0.0}]), False, "config.curves"),
    ("mu_at_mass", _doc(curves=[dict(MINIMAL["curves"][0], mu=-1.0)]), False, "config.curves[0].mu"),
    ("prescription_mu_at_mass", _doc(prescription={"kind": "rg_scale", "mu": 1.0, "lambda_R": 1.0}),
     False, "config.prescription.mu"),
    ("prescription_coupling", _doc(prescription={"kind": "rg_scale", "mu": 0.5, "lambda_R": 0}),
     False, "config.prescription"),
    ("t_nodes_small", _doc(quadrature={"t_nodes": 8}), False, "config.quadrature"),
    ("u_nodes_float", _doc(quadrature={"u_nodes": 24.0}), False, "config.quadrature.u_nodes"),
    ("abs_tol_zero", _doc(quadrature={"abs_tol": 0}), False, "config.quadrature"),
    ("panel_ratio_one", _doc(quadrature={"panel_ratio": 1}), False, "config.quadrature"),
    ("series_not_a_key", _doc(quadrature={"series": {}}), True, "config.quadrature.series"),
    ("log_nodes_small", _doc(quadrature={"sing_window": {"log_nodes": 2}}), False,
     "config.quadrature.sing_window"),
    # at 1.0 the far grid divided by log(1); below 1 it silently used one panel
    ("far_panel_ratio_one", _doc(quadrature={"sing_window": {"far_panel_ratio": 1.0}}), False,
     "config.quadrature.sing_window"),
    ("far_panel_ratio_half", _doc(quadrature={"sing_window": {"far_panel_ratio": 0.5}}), False,
     "config.quadrature.sing_window"),
    ("sampling_nodes", _doc(sampling={"nodes": 4}), False, "config.sampling.nodes"),
    ("task_kind", _doc(task={"kind": "warp"}), False, "config.task.kind"),
    ("task_kind_list", _doc(task={"kind": ["solve"]}), False, "config.task.kind"),
    ("bracket_null", _doc(task={"kind": "solve", "bracket": None}), False, "config.task.bracket"),
    ("bracket_order", _doc(task={"kind": "solve", "bracket": [-0.1, -0.5]}), False,
     "config.task.bracket"),
    ("bracket_outside", _doc(task={"kind": "solve", "bracket": [-1.0, 0.5]}), False,
     "config.task.bracket"),
    ("scan_points", _doc(task=dict(SCAN, points=1)), False, "config.task"),
    ("scan_order", _doc(task=dict(SCAN, E_min=0.1)), False, "config.task"),
    ("scan_outside", _doc(task=dict(SCAN, E_max=1.0)), False, "config.task"),
    ("scan_missing", _doc(task={"kind": "scan", "E_min": -0.5, "E_max": 0.5}), False,
     "config.task.points"),
    ("flow_tau_order", _doc(task=dict(FLOW, tau_min=3.0)), False, "config.task"),
    ("flow_coupling", _doc(task=dict(FLOW, lambda_R=-1.0)), False, "config.task"),
    ("task_unknown_key", _doc(task={"kind": "bounds", "E": 0}), True, "config.task.E"),
]


@pytest.mark.parametrize("doc,strict,prefix", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_rejected_config_names_its_object(tmp_path, capsys, doc, strict, prefix):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(ConfigError) as exc:
        parse_config(text, strict=strict)
    assert exc.value.path.startswith(prefix)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    flags = ["--strict"] if strict else []
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


def test_effective_config_golden():
    doc = {
        "manifold": {"kind": "euclidean3"},
        "mass": 2,
        "curves": [
            {"shape": {"kind": "circle", "center": [0, 0, 0], "radius": 1}, "mu": 0.5},
            {"shape": {"kind": "parametric_samples",
                       "points": [[5, 0, 0], [6, 0, 0], [5, 1, 0.5]]}, "mu": -0.25},
        ],
        "prescription": {"kind": "rg_scale", "mu": 1.5, "lambda_R": 3},
        "quadrature": {"t_nodes": 40, "rel_tol": 1e-7, "panel_ratio": 3,
                       "sing_window": {"log_depth": 20, "far_panel_ratio": 4}},
        "sampling": {"nodes": 48},
        "task": {"kind": "scan", "E_min": -1.5, "E_max": 1, "points": 5},
    }
    assert parse_config(json.dumps(doc), strict=True).effective == {
        "manifold": {"kind": "euclidean3"},
        "mass": 2.0,
        "curves": [
            {"shape": {"kind": "circle", "center": [0.0, 0.0, 0.0], "radius": 1.0,
                       "normal": [0.0, 0.0, 1.0]}, "mu": 0.5},
            {"shape": {"kind": "parametric_samples",
                       "points": [[5.0, 0.0, 0.0], [6.0, 0.0, 0.0], [5.0, 1.0, 0.5]]},
             "mu": -0.25},
        ],
        "prescription": {"kind": "rg_scale", "mu": 1.5, "lambda_R": 3.0},
        "quadrature": {"t_nodes": 40, "u_nodes": 24, "rel_tol": 1e-7, "abs_tol": 1e-11,
                       "panel_ratio": 3.0,
                       "sing_window": {"log_depth": 20.0, "log_nodes": 20,
                                       "far_panel_ratio": 4.0, "far_nodes": 24}},
        "sampling": {"nodes": 48},
        "task": {"kind": "scan", "E_min": -1.5, "E_max": 1.0, "points": 5},
        "units": "lengths and energies in units set by the mass scale",
    }


def test_cli_solve_rg_scale_default_bracket(tmp_path):
    doc = dict(PAIR, task={"kind": "solve"},
               prescription={"kind": "rg_scale", "mu": 0.5, "lambda_R": 100.0})
    doc["curves"] = [dict(PAIR["curves"][0]),
                     {"shape": {"kind": "circle", "center": [3, 0, 0], "radius": 1.0}, "mu": 0.0}]
    cfg = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["status"] == "converged"
    assert payload["E_gr"] == pytest.approx(0.39842000037915726, abs=1e-8)  # as in test_spectrum
