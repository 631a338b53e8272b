"""Declarative run configuration: a single JSON document, strictly validated.

Each JSON object is loaded into a library dataclass by converting its fields
by type hint; manifold, shape, prescription and task pick their class by
`kind`.  Unknown keys are errors under strict mode and ignored otherwise;
missing required keys are always errors.  Range checks are the dataclasses'
own and name the object (config.curves[1].shape: circle radius must be
positive); checks against the mass live in `parse_config`.  The effective
configuration is read back from the loaded objects.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .curves import (
    Circle,
    CurveSpec,
    ParametricSamples,
    TorusLoop,
    ValidationError,
    family_geometry,
    resample_arclength,
)
from .manifolds import DomainError, Euclidean3, FlatTorus3, Hyperbolic3, ManifoldSpec, _check_count
from .principal import MinimalBoundState, Prescription, RGScale
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SolveTask:
    bracket: tuple[float, float] | None = None
    kind: str = "solve"


@dataclass(frozen=True)
class ScanTask:
    E_min: float
    E_max: float
    points: int
    kind: str = "scan"

    def __post_init__(self):
        _check_count("points", self.points, 2)
        if not self.E_min < self.E_max:
            raise DomainError("need E_min < E_max")


@dataclass(frozen=True)
class BoundsTask:
    kind: str = "bounds"


@dataclass(frozen=True)
class FlowTask:
    lambda_R: float
    tau_min: float
    tau_max: float
    points: int
    kind: str = "flow"

    def __post_init__(self):
        for name in ("lambda_R", "tau_min", "tau_max"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")
        _check_count("points", self.points, 2)
        if not self.tau_min <= self.tau_max:
            raise DomainError("need tau_min <= tau_max")


@dataclass(frozen=True)
class ValidateTask:
    kind: str = "validate"


Task = Union[SolveTask, ScanTask, BoundsTask, FlowTask, ValidateTask]


@dataclass(frozen=True, eq=False)
class RunConfig:
    manifold: object
    mass: float
    curve_shapes: tuple
    curve_mus: tuple
    prescription: object
    quadrature: QuadratureConfig
    sampling_nodes: int
    task: Task
    effective: dict  # the full configuration with defaults filled in
    fingerprint: str  # sha256 of the raw config text

    def build_family(self):
        curves = [resample_arclength(s, self.sampling_nodes, self.manifold) for s in self.curve_shapes]
        return family_geometry(curves, self.manifold, list(self.curve_mus), mass=self.mass)


# ---------------------------------------------------------------------------
# document schema: the library dataclasses plus three containers


@dataclass(frozen=True)
class _Curve:
    shape: CurveSpec
    mu: float


@dataclass(frozen=True)
class _Sampling:
    nodes: int = 64


@dataclass(frozen=True, kw_only=True)
class _Document:
    manifold: ManifoldSpec = Euclidean3()
    mass: float = 1.0
    curves: tuple[_Curve, ...]
    prescription: Prescription = MinimalBoundState()
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE
    sampling: _Sampling = _Sampling()
    task: Task


_KINDS = {
    ManifoldSpec: {"euclidean3": Euclidean3, "flat_torus3": FlatTorus3, "hyperbolic3": Hyperbolic3},
    CurveSpec: {"circle": Circle, "parametric_samples": ParametricSamples, "torus_loop": TorusLoop},
    Prescription: {"minimal": MinimalBoundState, "rg_scale": RGScale},
    Task: {"solve": SolveTask, "scan": ScanTask, "bounds": BoundsTask, "flow": FlowTask,
           "validate": ValidateTask},
}
_KIND_OF = {cls: kind for table in _KINDS.values() for kind, cls in table.items()}


def _keys(cls):
    """The fields a document sets: all but the kind tag."""
    return [f for f in fields(cls) if f.name != "kind"]


def _load(cls, value, path, strict):
    """Build dataclass `cls` (or the kind-tagged union `cls`) from a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    if cls in _KINDS:
        if "kind" not in value:
            raise ConfigError(f"{path}.kind", "required key missing")
        kind, table = value["kind"], _KINDS[cls]
        if not isinstance(kind, str) or kind not in table:
            raise ConfigError(f"{path}.kind", f"expected one of {sorted(table)}, got {kind!r}")
        cls, value = table[kind], {k: v for k, v in value.items() if k != "kind"}
    hints = get_type_hints(cls)
    kwargs = {}
    for f in _keys(cls):
        if f.name in value:
            kwargs[f.name] = _convert(hints[f.name], value[f.name], f"{path}.{f.name}", strict)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}", "required key missing")
    unknown = [key for key in value if key not in kwargs]
    if strict and unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key (strict mode)")
    try:
        return cls(**kwargs)
    except (DomainError, ValidationError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _convert(hint, value, path, strict):
    if get_origin(hint) is UnionType:  # X | None: an optional key, loaded as X
        hint = get_args(hint)[0]
    if hint in _KINDS or is_dataclass(hint):
        return _load(hint, value, path, strict)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {type(value).__name__}")
        args = get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(path, f"expected a list of {len(args)} items")
        return tuple(_convert(a, x, f"{path}[{i}]", strict)
                     for i, (a, x) in enumerate(zip(args, value)))
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {type(value).__name__}")
        if not abs(value) <= sys.float_info.max:  # inf, nan, or an int beyond any double
            raise ConfigError(path, "must be finite")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _echo(value):
    """JSON form of a loaded value: kind tag plus fields, None omitted."""
    if is_dataclass(value):
        tag = {"kind": _KIND_OF[type(value)]} if type(value) in _KIND_OF else {}
        items = ((f.name, getattr(value, f.name)) for f in _keys(type(value)))
        return tag | {name: _echo(v) for name, v in items if v is not None}
    if isinstance(value, tuple):
        return [_echo(x) for x in value]
    return value


def parse_config(text: str, strict: bool = False) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    doc = _load(_Document, doc, "config", strict)

    m = doc.mass
    if m <= 0:
        raise ConfigError("config.mass", "must be a positive number")
    if not doc.curves:
        raise ConfigError("config.curves", "expected a non-empty list of curves")
    for i, curve in enumerate(doc.curves):
        if abs(curve.mu) >= m:
            raise ConfigError(f"config.curves[{i}].mu", f"|mu| must be below the mass {m}")
        if isinstance(curve.shape, TorusLoop) and not isinstance(doc.manifold, FlatTorus3):
            raise ConfigError("config.curves", "torus_loop curves require a flat_torus3 manifold")
    if isinstance(doc.prescription, RGScale) and doc.prescription.mu >= m:
        raise ConfigError("config.prescription.mu", f"counterterm scale must be below the mass {m}")
    if doc.sampling.nodes < 8:
        raise ConfigError("config.sampling.nodes", "must be at least 8")
    task = doc.task
    if isinstance(task, SolveTask) and task.bracket is not None and not -m < task.bracket[0] < task.bracket[1] < m:
        raise ConfigError("config.task.bracket", f"need -m < E_lo < E_hi < m with m = {m}")
    if isinstance(task, ScanTask) and not (-m < task.E_min and task.E_max < m):
        raise ConfigError("config.task", f"need -m < E_min < E_max < m with m = {m}")

    return RunConfig(
        manifold=doc.manifold,
        mass=m,
        curve_shapes=tuple(c.shape for c in doc.curves),
        curve_mus=tuple(c.mu for c in doc.curves),
        prescription=doc.prescription,
        quadrature=doc.quadrature,
        sampling_nodes=doc.sampling.nodes,
        task=task,
        effective={**_echo(doc), "units": "lengths and energies in units set by the mass scale"},
        fingerprint=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
