"""In-memory span recorder and the wrappers that put spans around fraclane's
layers from the outside.

A span is (name, start, end, parent span, case id).  Spans nest strictly,
because the benchmark runs one case at a time on one thread, so a span's
self time is its duration minus the durations of its direct children.
Columns are stored in `array`s so a sweep's few hundred thousand spans cost
a few megabytes, not a Python object each.

Each wrapper is installed on the attribute its caller looks up: `cli`
imports `build_grid`, `assemble`, `solve_system` and the analysis functions
by value, `solvers` imports the energy functions by value, `analysis` calls
its own module-level `boundary_quotient` and `boundary_trace`, Cholesky is
`fraclane.operator.cho_factor`, and the dense Newton solve is
`numpy.linalg.solve` called inside `newton_polish`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import fraclane.analysis
import fraclane.cli
import fraclane.operator
import fraclane.solvers
from fraclane.operator import FractionalOperator
from fraclane.solvers import SolverConfig


class Tracer:
    """Spans and per-case counters, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = -1
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def add(self, counter: str, value: float) -> None:
        self.counters[self.case_id][counter] += value

    def columns(self) -> dict:
        """The spans as NumPy columns, plus each span's self time."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": start, "end": end, "parent": parent,
            "case": np.array(self.case, dtype=np.int32),
            "dur": dur, "self": dur - child,
        }

    def save(self, path) -> None:
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


# ---------------------------------------------------------------------------
# hooks that read iteration counts from the public solver results


def _config(fn, args, kwargs) -> SolverConfig:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["cfg"]


def _solver_trace(result, exc) -> list:
    return result.trace if exc is None else getattr(exc, "trace", [])


def _after_sublinear(tracer, fn, args, kwargs, result, exc):
    cfg = _config(fn, args, kwargs)
    stages = Counter(e["stage"] for e in _solver_trace(result, exc)
                     if str(e.get("stage", "")).startswith("descent"))
    per_stage = max(1, cfg.max_iter // max(len(cfg.smoothing_schedule), 1))
    tracer.add("solvers.descent_iters", sum(stages.values()))
    tracer.add("solvers.descent_stages", len(cfg.smoothing_schedule))
    tracer.add("solvers.descent_stages_exhausted",
               sum(1 for n in stages.values() if n >= per_stage))


def _after_mountain_pass(tracer, fn, args, kwargs, result, exc):
    # each collapsed polish appends one restart marker (iter == -1)
    tracer.add("solvers.mp_restarts",
               sum(1 for e in _solver_trace(result, exc) if e.get("iter") == -1))
    tracer.add("solvers.mp_accepted", int(exc is None))


def _after_newton(tracer, fn, args, kwargs, result, exc):
    if exc is None:
        tracer.add("solvers.newton_iters", result.iterations)
        tracer.add("solvers.newton_converged", int(result.converged))


def _after_apply(tracer, fn, args, kwargs, result, exc):
    n = args[0].n_nodes
    tracer.add("operator.apply.bytes", 8 * n * n)


def _in_newton(tracer) -> bool:
    return tracer.current() == "solvers.newton_polish"


# (owner, attribute, span name, after-hook, only-when predicate)
SETUP_TARGETS = [
    (fraclane.cli, "build_grid", "domains.build_grid", None, None),
    (fraclane.cli, "assemble", "operator.assemble", None, None),
    (fraclane.operator, "cho_factor", "operator.cholesky", None, None),
]

LAYER_TARGETS = SETUP_TARGETS + [
    (fraclane.analysis, "boundary_trace", "domains.boundary_trace", None, None),
    (FractionalOperator, "apply", "operator.apply", _after_apply, None),
    (FractionalOperator, "solve", "operator.solve", None, None),
    (fraclane.solvers, "energy", "energy.energy", None, None),
    (fraclane.solvers, "energy_gradient", "energy.energy_gradient", None, None),
    (fraclane.solvers, "euler_lagrange_residual", "energy.euler_lagrange_residual", None, None),
    (fraclane.cli, "solve_system", "solvers.solve_system", None, None),
    (fraclane.solvers, "minimize_sublinear", "solvers.minimize_sublinear", _after_sublinear, None),
    (fraclane.solvers, "mountain_pass", "solvers.mountain_pass", _after_mountain_pass, None),
    (fraclane.solvers, "newton_polish", "solvers.newton_polish", _after_newton, None),
    (np.linalg, "solve", "solvers.newton_dense_solve", None, _in_newton),
    (fraclane.cli, "rellich_residual", "analysis.rellich_residual", None, None),
    (fraclane.cli, "boundary_quotient", "analysis.boundary_quotient", None, None),
    (fraclane.analysis, "boundary_quotient", "analysis.boundary_quotient", None, None),
    (fraclane.cli, "boundary_exponent_fit", "analysis.boundary_exponent_fit", None, None),
    (fraclane.cli, "uniqueness_gap", "analysis.uniqueness_gap", None, None),
]


def _wrap(tracer, fn, name, after, when):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(tracer):
            return fn(*args, **kwargs)
        idx = tracer.enter(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            tracer.exit(idx)
            if after is not None:
                after(tracer, fn, args, kwargs, result, exc)
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Wrap `targets` for the duration of one case, then restore them."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    for (owner, attr, name, after, when), (_, _, original) in zip(targets, saved):
        setattr(owner, attr, _wrap(tracer, original, name, after, when))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced case

# name -> unit; "count" metrics are exact and repeat run to run at a fixed
# BLAS thread count, "s" metrics are times.
LAYER_METRICS = {
    "domains.build_grid.busy_s": "s",
    "domains.boundary_trace.calls": "count",
    "operator.assemble.busy_s": "s",
    "operator.cholesky.calls": "count",
    "operator.cholesky.busy_s": "s",
    "operator.apply.calls": "count",
    "operator.apply.busy_s": "s",
    "operator.apply.bytes": "B",
    "operator.solve.calls": "count",
    "operator.solve.busy_s": "s",
    "energy.energy.calls": "count",
    "energy.energy.self_s": "s",
    "energy.energy_gradient.calls": "count",
    "energy.energy_gradient.self_s": "s",
    "energy.euler_lagrange_residual.calls": "count",
    "energy.euler_lagrange_residual.self_s": "s",
    "solvers.minimize_sublinear.self_s": "s",
    "solvers.descent_iters": "count",
    "solvers.armijo_trials": "count",
    "solvers.armijo_accept_ratio": "ratio",
    "solvers.descent_stages_exhausted": "count",
    "solvers.mountain_pass.self_s": "s",
    "solvers.mp_sweeps": "count",
    "solvers.mp_restarts": "count",
    "solvers.mp_accept_ratio": "ratio",
    "solvers.newton_polish.calls": "count",
    "solvers.newton_polish.self_s": "s",
    "solvers.newton_iters": "count",
    "solvers.newton_dense_solve.calls": "count",
    "solvers.newton_dense_solve.busy_s": "s",
    "solvers.newton_converged_ratio": "ratio",
    "analysis.rellich_residual.busy_s": "s",
    "analysis.boundary_quotient.calls": "count",
    "analysis.boundary_quotient.busy_s": "s",
    "analysis.boundary_exponent_fit.busy_s": "s",
    "analysis.uniqueness_gap.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def case_layer_metrics(tracer: Tracer, cols: dict, case: int) -> dict:
    """Every LAYER_METRICS value for one case, from its spans and counters."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_case = cols["case"] == case
    nid = cols["name_id"]
    parent = cols["parent"]
    parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
    counters = tracer.counters[case]

    def mask(name, under=None):
        m = in_case & (nid == ids.get(name, -2))
        return m if under is None else m & (parent_nid == ids.get(under, -2))

    def calls(name, under=None):
        return float(np.count_nonzero(mask(name, under)))

    def busy(name):
        return float(np.sum(cols["dur"][mask(name)]))

    def self_s(name):
        return float(np.sum(cols["self"][mask(name)]))

    iters = counters["solvers.descent_iters"]
    trials = calls("energy.energy", "solvers.minimize_sublinear") - counters["solvers.descent_stages"]
    polishes = calls("solvers.newton_polish")
    mp_attempts = calls("solvers.newton_polish", "solvers.mountain_pass")
    values = {
        "operator.apply.bytes": counters["operator.apply.bytes"],
        "solvers.descent_iters": iters,
        "solvers.armijo_trials": trials,
        "solvers.armijo_accept_ratio": _ratio(iters, trials),
        "solvers.descent_stages_exhausted": counters["solvers.descent_stages_exhausted"],
        "solvers.mp_sweeps": calls("energy.energy_gradient", "solvers.mountain_pass"),
        "solvers.mp_restarts": counters["solvers.mp_restarts"],
        "solvers.mp_accept_ratio": _ratio(counters["solvers.mp_accepted"], mp_attempts),
        "solvers.newton_iters": counters["solvers.newton_iters"],
        "solvers.newton_converged_ratio": _ratio(counters["solvers.newton_converged"], polishes),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": counters["cli.bytes_written"],
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        values[metric] = {"calls": calls, "busy_s": busy, "self_s": self_s}[kind](span)
    return values
