"""Outside-in tracing of wingsafe.

Nothing here edits the program: wrappers replace public functions and
methods in the already imported `wingsafe.*` modules, at every module
attribute bound to the original object, so calls made through any import
site are seen.  Two kinds of boundary:

* spans, at coarse boundaries (`Simulation.step`, `filter_controls`,
  `solve_qp`, ...): one in-memory record per call (name, operation, parent
  span, start, end, self time);
* aggregates, at hot inner boundaries (`h_value`, `in_sensor_set`, ...):
  call count, total time and child time only.  Per-call spans there would
  mean millions of records per run.

Self time is a boundary's duration minus the time its child boundaries
cover.  Each wrapper charges its own bookkeeping to the enclosing boundary's
children, so only the bare cost of calling the wrapper leaks into the
parent's self time.

A boundary that no longer exists is reported as missing (its metrics are
None), so a program whose internals were restructured still runs the same
benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

perf = time.perf_counter

# Controls per vehicle in the stacked QP variable (speed, turn rate, climb
# rate); used to read the vehicle coupling of each QP row.
CONTROLS_PER_VEHICLE = 3

FALLBACK_EVENT_MARKERS = ("qp-infeasible", "domain-error", "fallback")


class Patcher:
    """Replace functions or methods inside the wingsafe package, and undo."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, home: str, name: str, make_wrapper) -> bool:
        """Wrap `home.name` at every wingsafe module attribute bound to it.
        Returns False when the function does not exist."""
        try:
            orig = getattr(importlib.import_module(home), name)
        except (ImportError, AttributeError):
            return False
        if not callable(orig):
            return False
        wrapper = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wingsafe" or mod_name.startswith("wingsafe.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))
        return True

    def method(self, cls: type, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, make_wrapper(orig))
        self._undo.append((cls, name, orig))

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def find_method(home: str, qualname: str):
    """(class, method name) for 'Class.method' in module home, or None."""
    cls_name, _, meth = qualname.partition(".")
    try:
        cls = getattr(importlib.import_module(home), cls_name)
    except (ImportError, AttributeError):
        return None
    return (cls, meth) if meth in cls.__dict__ else None


def controller_classes() -> list[type]:
    """Concrete classes in wingsafe modules that define a `control` method
    (the nominal controllers); protocol classes are skipped."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("wingsafe."):
            continue
        for obj in vars(mod).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == mod_name
                and "control" in obj.__dict__
                and not getattr(obj, "_is_protocol", False)
            ):
                found.append(obj)
    return found


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    count: int = 0  # boundary-specific work count (e.g. batch elements)

    @property
    def self_s(self) -> float:
        return self.total - self.child


@dataclass
class QPRecord:
    rows: int
    components: int
    active: int = 0
    infeasible: bool = False
    seconds: float = 0.0


@dataclass
class Tracer:
    """Span and aggregate recorder; one per traced pass."""

    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    missing: set[str] = field(default_factory=set)
    op: int = 0
    qp: list[QPRecord] = field(default_factory=list)
    pairs_evaluated: int = 0
    pairs_sensed: int = 0
    check_samples: int = 0
    bytes_written: int = 0
    events: int = 0
    fallbacks: int = 0

    def __post_init__(self):
        self._stack = [0.0]  # child-time accumulator per open boundary
        self._span_ids = [-1]
        self._patcher = Patcher()

    # -- wrappers ---------------------------------------------------------

    def _aggregate(self, name: str, count=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stat.calls += 1
                    stat.total += t1 - t0
                    stat.child += stack.pop()
                    if count is not None:
                        stat.count += count(args, kwargs)
                    stack[-1] += perf() - t0

            return wrapper

        return make

    def _span(self, name: str, before=None, after=None):
        """before(args, kwargs) -> info runs outside the span's interval;
        after(info, args, kwargs, result, exc, seconds) runs after it."""
        stat = self.stats.setdefault(name, Stat())
        stack, span_ids, spans = self._stack, self._span_ids, self.spans

        def make(fn):
            def wrapper(*args, **kwargs):
                t_in = perf()
                info = before(args, kwargs) if before else None
                sid = len(spans)
                spans.append(None)
                parent = span_ids[-1]
                span_ids.append(sid)
                stack.append(0.0)
                result = exc = None
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    t1 = perf()
                    child = stack.pop()
                    span_ids.pop()
                    spans[sid] = (name, self.op, parent, t0, t1, t1 - t0 - child)
                    stat.calls += 1
                    stat.total += t1 - t0
                    stat.child += child
                    if after:
                        after(info, args, kwargs, result, exc, t1 - t0)
                    stack[-1] += perf() - t_in

            return wrapper

        return make

    # -- hooks ------------------------------------------------------------

    def _before_filter(self, args, kwargs):
        world = args[0] if args else kwargs["world"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        n = len(world)
        self.pairs_evaluated += n * (n - 1) // 2
        if n > 1:
            pos = np.array([[s.px, s.py] for s in world])
            d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
            r = config.sensor.range_m
            self.pairs_sensed += int(np.count_nonzero(np.triu(d2 <= r * r, 1)))

    def _before_qp(self, args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        rows = problem.rows
        if not len(rows):
            return QPRecord(0, 0)
        coeffs = np.array([r.coeffs for r in rows])
        touched = coeffs.reshape(len(rows), -1, CONTROLS_PER_VEHICLE).any(axis=2)
        return QPRecord(len(rows), _components(touched))

    def _after_qp(self, rec, args, kwargs, result, exc, seconds):
        rec.seconds = seconds
        if exc is not None:
            rec.infeasible = type(exc).__name__ == "QPInfeasibleError"
        else:
            rec.active = int(np.count_nonzero(np.asarray(result[1])[: rec.rows] > 0.0))
        self.qp.append(rec)

    def _after_metrics(self, info, args, kwargs, result, exc, seconds):
        if exc is None:
            self.events += int(result.n_events)
            trace = args[0] if args else kwargs["trace"]
            self.fallbacks += sum(
                any(m in str(e) for m in FALLBACK_EVENT_MARKERS) for e in trace.events
            )

    def _after_write(self, info, args, kwargs, result, exc, seconds):
        out = args[0] if args else kwargs["out_dir"]
        with os.scandir(out) as it:
            self.bytes_written += sum(e.stat().st_size for e in it if e.is_file())

    def _after_check(self, info, args, kwargs, result, exc, seconds):
        if exc is None:
            self.check_samples += int(result.samples)

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        p = self._patcher
        agg, span = self._aggregate, self._span
        functions = [
            ("h_value", "wingsafe.barrier", "h_value", agg("h_value")),
            ("lie_derivatives", "wingsafe.barrier", "lie_derivatives", agg("lie_derivatives")),
            ("in_sensor_set", "wingsafe.shaping", "in_sensor_set", agg("in_sensor_set")),
            ("shape_h", "wingsafe.shaping", "shape_h", agg("shape_h")),
            ("step_rk4", "wingsafe.dynamics", "step_rk4", agg("step_rk4")),
            ("h_batch", "wingsafe.barrier", "h_batch",
             agg("h_batch", count=lambda a, k: len((a[0] if a else k["pair_arrays"])[0]))),
            ("filter_controls", "wingsafe.safety_filter", "filter_controls",
             span("filter_controls", before=self._before_filter)),
            ("solve_qp", "wingsafe.qp", "solve_qp",
             span("solve_qp", before=self._before_qp, after=self._after_qp)),
            ("compute_metrics", "wingsafe.sim", "compute_metrics",
             span("compute_metrics", after=self._after_metrics)),
            ("write_outputs", "wingsafe.cli", "write_outputs",
             span("write_outputs", after=self._after_write)),
            ("check_sensor_compatible", "wingsafe.shaping", "check_sensor_compatible",
             span("check_sensor_compatible", after=self._after_check)),
        ]
        for name, home, attr, make in functions:
            if not p.function(home, attr, make):
                self.missing.add(name)
        for name, home, qual in (
            ("Simulation.step", "wingsafe.sim", "Simulation.step"),
            ("Simulation.finalize", "wingsafe.sim", "Simulation.finalize"),
        ):
            found = find_method(home, qual)
            if found is None:
                self.missing.add(name)
            else:
                p.method(*found, span(name))
        controllers = controller_classes()
        if not controllers:
            self.missing.add("Controller.control")
        make_control = agg("Controller.control")
        for cls in controllers:
            p.method(cls, "control", make_control)

    def uninstall(self) -> None:
        self._patcher.undo()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float | int | None]:
        """Per-layer metrics keyed by BENCHMARK.json name; None = missing."""
        out: dict[str, float | int | None] = {}

        def put(boundary, **values):
            for key, fn in values.items():
                out[key] = None if boundary in self.missing else fn(self.stats[boundary])

        calls, total, self_s = (lambda s: s.calls), (lambda s: s.total), (lambda s: s.self_s)
        put("h_value", **{"barrier.h_calls": calls, "barrier.h_s": total})
        put("lie_derivatives", **{"barrier.lie_calls": calls, "barrier.lie_s": total})
        put("h_batch", **{"barrier.batch_calls": calls, "barrier.batch_elems": lambda s: s.count,
                          "barrier.batch_s": total})
        put("in_sensor_set", **{"shaping.sensor_calls": calls, "shaping.sensor_s": total})
        put("shape_h", **{"shaping.shape_calls": calls, "shaping.shape_s": total})
        put("check_sensor_compatible", **{"shaping.check_s": total,
                                          "shaping.check_samples": lambda s: self.check_samples})
        put("filter_controls", **{
            "safety_filter.calls": calls,
            "safety_filter.self_s": self_s,
            "safety_filter.pairs_evaluated": lambda s: self.pairs_evaluated,
            "safety_filter.pairs_sensed": lambda s: self.pairs_sensed,
            "safety_filter.sensed_ratio": lambda s: _ratio(self.pairs_sensed, self.pairs_evaluated),
        })
        qp = self.qp
        durations = sorted(r.seconds for r in qp)
        put("solve_qp", **{
            "qp.solves": calls,
            "qp.solve_s": total,
            "qp.solve_p99_ms": lambda s: 1e3 * percentile(durations, 99.0),
            "qp.rows_mean": lambda s: _ratio(sum(r.rows for r in qp), len(qp)),
            "qp.rows_max": lambda s: max((r.rows for r in qp), default=0),
            "qp.active_max": lambda s: max((r.active for r in qp), default=0),
            "qp.infeasible": lambda s: sum(r.infeasible for r in qp),
            "qp.components_max": lambda s: max((r.components for r in qp), default=0),
            "qp.multi_component_share": lambda s: _ratio(
                sum(r.components > 1 for r in qp), len(qp)),
        })
        out["safety_filter.binding_ratio"] = (
            None if {"solve_qp", "filter_controls"} & self.missing
            else _ratio(sum(r.rows for r in qp), self.pairs_evaluated)
        )
        put("compute_metrics", **{"safety_filter.events": lambda s: self.events,
                                  "safety_filter.fallbacks": lambda s: self.fallbacks,
                                  "sim.metrics_s": total})
        put("step_rk4", **{"dynamics.rk4_calls": calls, "dynamics.rk4_s": total})
        put("Controller.control", **{"sim.nominal_calls": calls, "sim.nominal_s": total})
        put("Simulation.step", **{"sim.step_self_s": self_s})
        put("Simulation.finalize", **{"sim.finalize_s": total})
        put("write_outputs", **{"cli.write_s": total, "cli.bytes_written": lambda s: self.bytes_written})
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "op": op, "parent": parent, "start": t0, "end": t1, "self": s}
            for n, op, parent, t0, t1, s in self.spans
        ]


# Layers grouped the way the workloads are expected to split, for naming the
# layer that holds a workload's time.  The filter's self time is its loop
# over pairs (PairState and PairDiagnostics per pair, row assembly); with one
# pair per step, as in `encounters`, it is a per-step cost instead.
LAYER_GROUPS = {
    "pair loop (safety_filter self)": ("safety_filter.self_s",),
    "pair evaluation (h, lie, sensing, shaping)": (
        "barrier.h_s", "barrier.lie_s", "shaping.sensor_s", "shaping.shape_s"),
    "qp": ("qp.solve_s",),
    "per-step fixed (step self, nominal, rk4)": (
        "sim.step_self_s", "sim.nominal_s", "dynamics.rk4_s"),
    "outputs (finalize, metrics, write)": ("sim.finalize_s", "sim.metrics_s", "cli.write_s"),
    "check (check_sensor_compatible, h_batch)": ("shaping.check_s",),
}


def layer_groups(metrics: dict) -> dict[str, float]:
    return {
        group: sum(metrics.get(k) or 0.0 for k in keys) for group, keys in LAYER_GROUPS.items()
    }


def _components(touched: np.ndarray) -> int:
    """Connected components among the vehicles that QP rows touch; rows
    couple the vehicles they touch.  touched is (rows, vehicles) bool."""
    used = touched.any(axis=0)
    label = np.arange(touched.shape[1])
    while True:
        # every row takes the smallest label among its vehicles
        row_min = np.where(touched, label[None, :], touched.shape[1]).min(axis=1)
        new = np.minimum(label, np.where(touched, row_min[:, None], touched.shape[1]).min(axis=0))
        new = new[new]  # pointer jumping
        if np.array_equal(new, label):
            return int(np.unique(label[used]).size)
        label = new


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an ascending sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
