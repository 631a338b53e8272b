import json
import math

import numpy as np
import pytest

from curvebound import ConfigError, parse_config
from curvebound.cli import main

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


TORUS = {"kind": "flat_torus3", "circumferences": [5.0, 5.0, 5.0]}
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
    assert payload["E_gr"] == pytest.approx(0.3984219414436173, abs=1e-8)
