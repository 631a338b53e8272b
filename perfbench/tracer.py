"""Span tracer installed from outside the library.

Each traced function is replaced by a wrapper in every ``curvebound`` module
that holds a reference to it, so calls made inside the library (for example
``spectrum`` calling ``principal.assemble``) open a span too.  A span records
its name, start, end, parent span, job id, an optional work count and the
name of the exception it raised, if any.  Spans stay in memory until the
caller writes them out.

A target that no longer exists in the library is reported as absent, so the
benchmark keeps running after refactors that remove or rename internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# (module, function, work) where work names the argument(s) or result that
# give the span's work count, or None.
TARGETS = (
    ("manifolds", "heat_kernel_grid", "kernel_evals"),
    ("manifolds", "circle_heat_kernel", None),
    ("quadrature", "pair_plain_batch", "pairs"),
    ("quadrature", "pair_renormalized_batch", "pairs"),
    ("quadrature", "pair_derivative_batch", "pairs"),
    ("quadrature", "rg_pair_batch", "pairs"),
    ("quadrature", "u_panel_breaks", "panels"),
    ("quadrature", "weight_plain", None),
    ("quadrature", "weight_renormalized", None),
    ("quadrature", "weight_derivative", None),
    ("principal", "assemble", None),
    ("principal", "derivative_matrix", None),
    ("spectrum", "ground_state_energy", None),
    ("spectrum", "spectral_flow", None),
    ("curves", "resample_arclength", None),
    ("curves", "family_geometry", None),
    ("rgflow", "beta", None),
    ("rgflow", "ode_flow_values", None),
    ("bounds", "gersgorin_threshold", None),
    ("validate", "run_validation_suite", None),
    ("config", "parse_config", None),
    ("cli", "main", None),
)

# span fields
NAME, START, END, PARENT, JOB, WORK, ERROR = range(7)


def _arg_getter(fn, name):
    """Fetch argument `name` of a call to fn from (args, kwargs), or None."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return lambda args, kwargs: None
    idx = params.index(name)

    def get(args, kwargs):
        return args[idx] if len(args) > idx else kwargs.get(name)

    return get


def _work_counter(fn, kind):
    """Return f(args, kwargs, result) -> work count for the span, or None."""
    if kind == "kernel_evals":
        get_u, get_disp = _arg_getter(fn, "u"), _arg_getter(fn, "disp")

        def count(args, kwargs, result):
            u, disp = get_u(args, kwargs), get_disp(args, kwargs)
            if u is None or disp is None:
                return None
            return int(np.size(u)) * int(np.shape(disp)[0])

        return count
    if kind == "pairs":
        get_disp = _arg_getter(fn, "disp")

        def count(args, kwargs, result):
            disp = get_disp(args, kwargs)
            return None if disp is None else int(np.shape(np.atleast_1d(disp))[0])

        return count
    if kind == "panels":
        return lambda args, kwargs, result: max(int(np.size(result)) - 1, 0)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.job = None
        self._stack = []
        self._rebound = []  # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[WORK] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package="curvebound"):
        """Wrap every target and rebind it wherever the package refers to it."""
        self.absent = []
        found = {}
        for mod_name in dict.fromkeys(m for m, _, _ in TARGETS):
            try:
                found[mod_name] = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, work in TARGETS:
            fn = getattr(found.get(mod_name), fn_name, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(f"{mod_name}.{fn_name}", fn, _work_counter(fn, work))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
                        self._rebound.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._rebound):
            setattr(m, attr, fn)
        self._rebound.clear()

    def export(self):
        """Spans as plain lists, for JSON."""
        return [list(s) for s in self.spans]


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(span_sets, n_jobs, import_times=()):
    """Per-job layer metrics from one or more span lists.

    Each list is self-contained (its parent indices point into itself), so
    spans from separate processes can be aggregated together.
    """
    calls, incl, excl, work, errors = {}, {}, {}, {}, {}
    solves = solve_assemblies = 0
    for spans in span_sets:
        selfs = _self_times(spans)
        for s, st in zip(spans, selfs):
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (s[END] - s[START])
            excl[name] = excl.get(name, 0.0) + st
            if s[WORK] is not None:
                work[name] = work.get(name, 0) + s[WORK]
            if s[ERROR] is not None:
                errors[(name, s[ERROR])] = errors.get((name, s[ERROR]), 0) + 1
        for s in spans:
            if s[NAME] == "spectrum.ground_state_energy":
                solves += 1
            elif s[NAME] == "principal.assemble":
                p = s[PARENT]
                while p >= 0 and spans[p][NAME] != "spectrum.ground_state_energy":
                    p = spans[p][PARENT]
                solve_assemblies += p >= 0

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    batches = ("quadrature.pair_plain_batch", "quadrature.pair_renormalized_batch",
               "quadrature.pair_derivative_batch", "quadrature.rg_pair_batch")
    weights = ("quadrature.weight_plain", "quadrature.weight_renormalized",
               "quadrature.weight_derivative")
    per_job = {
        "manifolds.heat_kernel_grid.calls": (total(calls, "manifolds.heat_kernel_grid"), "count/job"),
        "manifolds.heat_kernel_grid.self_s": (total(excl, "manifolds.heat_kernel_grid"), "s/job"),
        "manifolds.circle_heat_kernel.self_s": (total(excl, "manifolds.circle_heat_kernel"), "s/job"),
        "manifolds.kernel_evals": (total(work, "manifolds.heat_kernel_grid"), "count/job"),
        "quadrature.pair_batch.calls": (total(calls, *batches), "count/job"),
        "quadrature.pair_batch.self_s": (total(excl, *batches), "s/job"),
        "quadrature.pairs": (total(work, *batches), "count/job"),
        "quadrature.u_panels": (total(work, "quadrature.u_panel_breaks"), "count/job"),
        "quadrature.weight.self_s": (total(excl, *weights), "s/job"),
        "principal.assemble.calls": (total(calls, "principal.assemble"), "count/job"),
        "principal.assemble.s": (total(incl, "principal.assemble"), "s/job"),
        "principal.assemble.self_s": (total(excl, "principal.assemble"), "s/job"),
        "principal.derivative_matrix.s": (total(incl, "principal.derivative_matrix"), "s/job"),
        "principal.convergence_errors": (total(errors, ("principal.assemble", "ConvergenceError")),
                                         "count/job"),
        "spectrum.ground_state_energy.s": (total(incl, "spectrum.ground_state_energy"), "s/job"),
        "spectrum.self_s": (total(excl, "spectrum.ground_state_energy", "spectrum.spectral_flow"),
                            "s/job"),
        "spectrum.spectral_flow.s": (total(incl, "spectrum.spectral_flow"), "s/job"),
        "curves.resample_arclength.s": (total(incl, "curves.resample_arclength"), "s/job"),
        "curves.family_geometry.s": (total(incl, "curves.family_geometry"), "s/job"),
        "rgflow.beta.s": (total(incl, "rgflow.beta"), "s/job"),
        "rgflow.ode_flow_values.s": (total(incl, "rgflow.ode_flow_values"), "s/job"),
        "bounds.gersgorin_threshold.s": (total(incl, "bounds.gersgorin_threshold"), "s/job"),
        "validate.run_validation_suite.s": (total(incl, "validate.run_validation_suite"), "s/job"),
        "config.parse_config.s": (total(incl, "config.parse_config"), "s/job"),
        "cli.main.s": (total(incl, "cli.main"), "s/job"),
        "cli.main.self_s": (total(excl, "cli.main"), "s/job"),
    }
    out = {k: {"value": v / max(n_jobs, 1), "unit": u} for k, (v, u) in per_job.items()}
    out["spectrum.assemblies_per_solve"] = {
        "value": solve_assemblies / solves if solves else 0.0, "unit": "count"}
    out["cli.import_s"] = {
        "value": sum(import_times) / len(import_times) if import_times else 0.0, "unit": "s"}
    return out
