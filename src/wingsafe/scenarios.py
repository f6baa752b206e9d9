"""Declarative scenario configuration, builtin experiments, and run_scenario.

A scenario is a JSON-compatible description of vehicles (initial state plus
nominal controller), actuator limits, the barrier (maneuver + safety
parameters), sensor range, shaping, class-K gain, and integration settings.
parse/serialize round-trip exactly.

SCHEMA is that JSON form: each field once, with its JSON kinds, the
condition on its value and, where it may be left out, its default.  Both
config_from_dict and ScenarioConfig (on its own config_to_dict) read
through it, so builtins, dataclasses.replace and command-line overrides meet
the checks a file meets.  A fault is a ValueError that starts "config field"
and names the path, or the section for a value type's own check.

Builtin scenarios:

* example1  - two vehicles circle toward a head-on geometry they cannot
  sense in time; the raw straight-maneuver barrier starts safe yet the run
  reaches h = -ds.  Demonstrates that a barrier which varies outside the
  sensor set cannot guarantee safety.
* example2  - two vehicles approach head-on and first sense each other
  exactly at the range where the raw turn barrier is about to hit zero, so
  the filter slams in a full-authority turn in one step.  Demonstrates the
  actuation discontinuity that shaping removes.
* sweep     - the two-vehicle crossing experiment; min distance vs sensor
  range, meaningful for R above the minimum sensing range (~318.4 with the
  default parameters).
* circle20  - twenty vehicles on a 1250-radius circle with timed arrival at
  the origin, sensor range 350, shaped barrier, centralized filter.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field
from typing import Any, Callable, NamedTuple

from .barrier import (
    BarrierConfig,
    LinearGain,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
)
from .dynamics import ActuatorLimits, VehicleState
from .safety_filter import FilterConfig
from .shaping import SensorModel, ShapingParams, min_sensing_range, xi_from_range
from .sim import (
    CircleController,
    Controller,
    GoalController,
    Metrics,
    Simulation,
    SimTrace,
    compute_metrics,
)

DEFAULT_V_MIN = 15.0
DEFAULT_V_MAX = 25.0
DEFAULT_OMEGA_MAX = math.radians(13.0)
DEFAULT_ZETA_MAX = 5.0
DEFAULT_LIMITS = ActuatorLimits(DEFAULT_V_MIN, DEFAULT_V_MAX, DEFAULT_OMEGA_MAX, DEFAULT_ZETA_MAX)

# evading turn of the headline experiments: v = 0.9*v_min + 0.1*v_max,
# w = 0.9*omega_max, sigma = 1, delta = 0.01, ds = 5
DEFAULT_EVADE_SPEED = 0.9 * DEFAULT_V_MIN + 0.1 * DEFAULT_V_MAX
DEFAULT_EVADE_RATE = 0.9 * DEFAULT_OMEGA_MAX
DEFAULT_TURN = TurnManeuver(sigma=1.0, speed=DEFAULT_EVADE_SPEED, turn_rate=DEFAULT_EVADE_RATE)
DEFAULT_SAFETY = SafetyParams(delta=0.01, ds=5.0)


@dataclass(frozen=True)
class VehicleSpec:
    state: VehicleState
    controller: dict[str, Any]  # JSON-shaped controller description, as given


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A scenario.  Construction checks config_to_dict(self) against SCHEMA,
    alpha_slope * dt <= 1 and the maneuver against the box (FilterConfig),
    then computes n_steps (at least 1), r_min (NaN for the straight
    barrier) and the controllers once.  R <= R_min with "auto" shaping is
    left to resolve_shaping: `check` reports it as incompatibility, not a
    bad config."""

    vehicles: tuple[VehicleSpec, ...]
    barrier: BarrierConfig
    sensor_range: float
    dt: float
    duration: float
    limits: ActuatorLimits = DEFAULT_LIMITS
    shaping_xi: float | str | None = None  # numeric, "auto", or None for the raw barrier
    shaping_beta: float = 0.9
    alpha_slope: float = 1.0
    mode: str = "centralized"
    seed: int = 42
    n_steps: int = field(init=False, repr=False, compare=False)
    r_min: float = field(init=False, repr=False, compare=False)
    _controllers: tuple[Controller, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = _read(SCHEMA, config_to_dict(self), "")
        # the raw barrier's JSON form has no beta, but `check` reads it
        _read(SCHEMA.holds["shaping"].holds["beta"], self.shaping_beta, "shaping.beta")
        # a held step lets h fall by about alpha*h*dt: past zero once alpha*dt > 1
        _read(Field(("number",), lambda v: v <= 1.0, "at most 1 as slope * dt"),
              self.alpha_slope * self.dt, "alpha.slope, dt")
        _build("barrier, limits", FilterConfig, self.barrier, SensorModel(self.sensor_range),
               self.limits)
        if self.shaping_xi not in (None, "auto"):  # "auto" waits for resolve_shaping
            _build("shaping", ShapingParams, self.shaping_xi, self.shaping_beta)
        derived = {  # name: (the fields it comes from, its value)
            "n_steps": ("dt, duration", lambda: round(self.duration / self.dt)),
            "r_min": ("barrier", lambda: math.nan if self.barrier.kind != "turn"
                      else min_sensing_range(self.barrier.maneuver, self.barrier.safety)),
        }
        for name, (involved, value) in derived.items():
            try:
                object.__setattr__(self, name, value())
            except (OverflowError, ValueError):  # min_sensing_range raises ValueError
                raise ValueError(f"config field {involved}: {name} overflows") from None
        if self.n_steps < 1:  # else a run writes a header-only trace and exits 0
            raise ValueError("config field dt, duration: require round(duration / dt) >= 1, "
                             f"got {self.n_steps}")
        controllers = tuple(_controller(v["controller"]) for v in checked["vehicles"])
        object.__setattr__(self, "_controllers", controllers)

    def resolve_shaping(self) -> ShapingParams | None:
        if self.shaping_xi is None:
            return None
        if self.shaping_xi == "auto":
            if self.barrier.kind != "turn":
                raise ValueError('shaping "auto" requires the turn barrier')
            xi = xi_from_range(self.sensor_range, self.barrier.maneuver, self.barrier.safety)
        else:
            xi = float(self.shaping_xi)
        return ShapingParams(xi, self.shaping_beta)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(self.barrier, SensorModel(self.sensor_range), self.limits,
                            LinearGain(self.alpha_slope), self.resolve_shaping())

    def controllers(self) -> list[Controller]:
        return list(self._controllers)


def _controller(spec: dict[str, Any]) -> Controller:
    """The nominal controller of a controller spec read through SCHEMA."""
    if spec["type"] == "circle":
        return CircleController(*spec["center"], spec["radius"], spec["direction"], spec["speed"])
    return GoalController(*spec["goal"], cruise_speed=spec["cruise_speed"],
                          arrival_time=spec["arrival_time"])


def _build(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from its own checks prefixed by section."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ValueError(f"config field {section}: {err}") from None


# ---------------------------------------------------------------------------
# the JSON form

# the Python types of each JSON kind (true and false are of none)
_KINDS = {"number": (int, float), "integer": int, "string": str, "null": type(None),
          "array": (list, tuple), "object": dict}


class Field(NamedTuple):
    """A field of the JSON form: its JSON kinds, the condition on its value
    (a test, and its wording in an error), its default (MISSING: required),
    and what it holds: an array's entry Field, an object's {key: Field}, or,
    when the object's key `tag` picks its variant, {variant: {key: Field}}."""

    kinds: tuple[str, ...]
    test: Callable[[Any], bool] = lambda v: True
    rule: str = ""
    default: Any = MISSING
    holds: Any = None
    tag: str | None = None


def _array(entry: Field, sizes: tuple[int, ...], rule: str) -> Field:
    return Field(("array",), lambda v: len(v) in sizes, rule, holds=entry)


_FINITE = Field(("number",), math.isfinite, "finite")
_POSITIVE = Field(("number",), lambda v: 0.0 < v < math.inf, "finite and > 0")  # False for NaN
_MODES = ("centralized", "split", "off")
_SAFETY = {"delta": _FINITE, "ds": _FINITE}

# The ranges of limits, barrier and the maneuver speeds are the value types' checks.
SCHEMA = Field(("object",), holds={
    "vehicles": Field(("array",), len, "nonempty", holds=Field(("object",), holds={
        "state": _array(_FINITE, (3, 4), "[px, py, heading, pz] with pz optional"),
        "controller": Field(("object",), tag="type", holds={
            "goal": {
                "goal": _array(_FINITE, (2, 3), "[x, y, z] with z optional"),
                "cruise_speed": _FINITE._replace(default=GoalController.cruise_speed),
                "arrival_time": Field(("number", "null"), lambda v: v is None or _POSITIVE.test(v),
                                      "finite and > 0, or null", GoalController.arrival_time),
            },
            "circle": {
                "center": _array(_FINITE, (2,), "[x, y]"),
                "radius": _POSITIVE,
                "direction": Field(("number",), lambda v: v in (1, -1), "1 or -1"),
                "speed": _FINITE,
            },
        }),
    })),
    "limits": Field(("object",), holds=dict.fromkeys(("v_min", "v_max", "omega_max", "zeta_max"),
                                                     _FINITE)),
    "barrier": Field(("object",), tag="kind", holds={
        "turn": {"sigma": _FINITE, "speed": _FINITE, "turn_rate": _FINITE, **_SAFETY},
        "straight": {"v1": _FINITE, "v2": _FINITE,
                     "zeta1": _FINITE._replace(default=StraightManeuver.zeta1),
                     "zeta2": _FINITE._replace(default=StraightManeuver.zeta2),
                     **_SAFETY},
    }),
    "sensor_range": Field(("number",), lambda v: v > 0.0, "> 0 (+Infinity for full sensing)"),
    "shaping": Field(("object", "null"), default=None, holds={
        "xi": Field(("number", "string", "null"),
                    lambda v: v in (None, "auto") or not isinstance(v, str) and _POSITIVE.test(v),
                    'finite and > 0, "auto" or null'),
        "beta": Field(("number",), lambda v: 0.0 < v < 1.0, "> 0 and < 1",
                      ScenarioConfig.shaping_beta),
    }),
    "alpha": Field(("object",), default={}, holds={
        "kind": Field(("string",), lambda v: v == "linear", '"linear"', "linear"),
        "slope": _POSITIVE._replace(default=ScenarioConfig.alpha_slope),
    }),
    "dt": _POSITIVE,
    "duration": _POSITIVE,
    "mode": Field(("string",), lambda v: v in _MODES, "one of " + ", ".join(_MODES),
                  ScenarioConfig.mode),
    "seed": Field(("integer",), lambda v: v >= 0, ">= 0", ScenarioConfig.seed),
})


def _read(schema: Field, value, path: str):
    """value checked against schema, as a copy with each field left out set
    to its default; a ValueError naming the path otherwise."""
    where = path or "(top level)"
    types = tuple(_KINDS[kind] for kind in schema.kinds)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"config field {where} must be a JSON {' or '.join(schema.kinds)}, "
                         f"got {value!r}")
    if "number" in schema.kinds and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"config field {where} must fit in a float, "
                         f"got an integer of {value.bit_length()} bits")
    if not schema.test(value):
        raise ValueError(f"config field {where} must be {schema.rule}, got {value!r}")
    if isinstance(value, (list, tuple)):
        return [_read(schema.holds, x, f"{path}[{i}]") for i, x in enumerate(value)]
    if not isinstance(value, dict):
        return value
    known = schema.holds
    if schema.tag is not None:
        variant = value.get(schema.tag)
        tag = Field(("string",), known.__contains__, "one of " + ", ".join(known))
        known = {schema.tag: tag, **(known.get(variant, {}) if isinstance(variant, str) else {})}
    checked = {}
    for key, sub in known.items():
        at = f"{path}.{key}" if path else key
        if key in value:
            checked[key] = _read(sub, value[key], at)
        elif sub.default is MISSING:
            raise ValueError(f"config field {at} is required")
        else:
            checked[key] = _read(sub, sub.default, at)
    for key in value:
        if key not in known:
            raise ValueError(f"config field {f'{path}.{key}' if path else key} is unknown")
    return checked


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    barrier = cfg.barrier
    return {
        "vehicles": [{"state": list(v.state), "controller": v.controller} for v in cfg.vehicles],
        "limits": asdict(cfg.limits),
        "barrier": {"kind": barrier.kind, **asdict(barrier.maneuver), **asdict(barrier.safety)},
        "sensor_range": cfg.sensor_range,
        "shaping": None if cfg.shaping_xi is None else {"xi": cfg.shaping_xi,
                                                        "beta": cfg.shaping_beta},
        "alpha": {"kind": "linear", "slope": cfg.alpha_slope},
        "dt": cfg.dt,
        "duration": cfg.duration,
        "mode": cfg.mode,
        "seed": cfg.seed,
    }


def config_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """Read the JSON form of a scenario through SCHEMA.  A fault raises a
    ValueError that starts "config field" and names the field."""
    c = _read(SCHEMA, d, "")
    barrier = c["barrier"]
    maneuver = TurnManeuver if barrier.pop("kind") == "turn" else StraightManeuver
    safety = _build("barrier", SafetyParams, barrier.pop("delta"), barrier.pop("ds"))
    shaping = c["shaping"] or {}  # null: the raw barrier
    return ScenarioConfig(
        vehicles=tuple(VehicleSpec(VehicleState(*v["state"]), raw["controller"])
                       for v, raw in zip(c["vehicles"], d["vehicles"])),
        limits=_build("limits", ActuatorLimits, **c["limits"]),
        barrier=_build("barrier", BarrierConfig, _build("barrier", maneuver, **barrier), safety),
        **{f"shaping_{key}": value for key, value in shaping.items()},
        alpha_slope=c["alpha"]["slope"],
        **{k: c[k] for k in ("sensor_range", "dt", "duration", "mode", "seed")},
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# builtin scenarios


def scenario_example1() -> ScenarioConfig:
    """Circling vehicles meet head-on exactly at sensing range with the raw
    straight barrier: starts safe, ends with h = -ds."""
    v1, v2 = 16.0, 20.0
    omega = DEFAULT_EVADE_RATE
    r1, r2 = v1 / omega, v2 / omega
    R = 100.0  # sensor range
    vehicles = (
        VehicleSpec(
            VehicleState(r1 + R / 2, r1, -math.pi / 2, 0.0),
            {"type": "circle", "center": [R / 2, r1], "radius": r1, "direction": -1, "speed": v1},
        ),
        VehicleSpec(
            VehicleState(-r2 - R / 2, r2, -math.pi / 2, 0.0),
            {"type": "circle", "center": [-R / 2, r2], "radius": r2, "direction": 1, "speed": v2},
        ),
    )
    return ScenarioConfig(
        vehicles=vehicles,
        barrier=BarrierConfig(StraightManeuver(v1=v1, v2=v2), DEFAULT_SAFETY),
        sensor_range=R,
        dt=0.01,
        duration=12.0,
    )


def example2_geometry() -> tuple[float, float]:
    """(onset separation, turn radius) of the loss-of-smoothness demo.

    The separation is chosen so the raw turn barrier is just barely positive
    when the vehicles first sense each other: d = (ds + 2r)*cos(eta) + 4*delta
    with sin(eta) = r / (r + ds/2).
    """
    r = DEFAULT_V_MIN / DEFAULT_OMEGA_MAX
    ds, delta = DEFAULT_SAFETY.ds, DEFAULT_SAFETY.delta
    eta = math.asin(r / (r + ds / 2))
    return (ds + 2 * r) * math.cos(eta) + 4 * delta, r


def scenario_example2() -> ScenarioConfig:
    """Head-on approach that first senses exactly at the barely-safe
    separation; the raw turn barrier then demands a full-authority turn in a
    single step.

    epsilon = 1.0 with dt = 0.01 at cruise 25 m/s puts the sensing onset
    exactly on a step boundary (the pair closes 0.5 per step).  The sensor
    range carries half a step of slack so floating-point drift cannot delay
    the onset past the intended separation.
    """
    epsilon, dt = 1.0, 0.01
    d_onset, _ = example2_geometry()
    vehicles = (
        VehicleSpec(
            VehicleState(d_onset / 2 + epsilon, 0.0, -math.pi, 0.0),
            {"type": "goal", "goal": [-1000.0, 0.0, 0.0], "cruise_speed": DEFAULT_V_MAX},
        ),
        VehicleSpec(
            VehicleState(-d_onset / 2 - epsilon, 0.0, 0.0, 0.0),
            {"type": "goal", "goal": [1000.0, 0.0, 0.0], "cruise_speed": DEFAULT_V_MAX},
        ),
    )
    evade = TurnManeuver(sigma=1.0, speed=DEFAULT_V_MIN, turn_rate=DEFAULT_OMEGA_MAX)
    return ScenarioConfig(
        vehicles=vehicles,
        barrier=BarrierConfig(evade, DEFAULT_SAFETY),
        sensor_range=d_onset + DEFAULT_V_MAX * dt / 2,
        dt=dt,
        duration=12.0,
    )


def scenario_sweep(sensor_range: float = 350.0) -> ScenarioConfig:
    """Two-vehicle crossing with the shaped turn barrier; min distance vs R."""
    vehicles = (
        VehicleSpec(
            VehicleState(-200.0, 0.0, 0.0, 0.0),
            {"type": "goal", "goal": [200.0, 0.0, 0.0], "cruise_speed": 20.0},
        ),
        VehicleSpec(
            VehicleState(200.0, 0.0, math.pi, 0.0),
            {"type": "goal", "goal": [-200.0, 0.0, 0.0], "cruise_speed": 20.0},
        ),
    )
    return ScenarioConfig(
        vehicles=vehicles,
        barrier=BarrierConfig(DEFAULT_TURN, DEFAULT_SAFETY),
        sensor_range=sensor_range,
        shaping_xi="auto",
        dt=0.01,
        duration=30.0,
    )


def scenario_circle20(start_radius: float = 1250.0) -> ScenarioConfig:
    """Twenty vehicles, equally spaced on a circle, headings at the origin,
    timed to arrive simultaneously; neighbors start outside sensing range."""
    n = 20
    cruise = 20.0
    arrival = start_radius / cruise
    vehicles = []
    for k in range(n):
        ang = 2 * math.pi * k / n
        vehicles.append(
            VehicleSpec(
                VehicleState(
                    start_radius * math.cos(ang),
                    start_radius * math.sin(ang),
                    ang + math.pi,  # wrapped toward the origin by VehicleState
                    0.0,
                ),
                {"type": "goal", "goal": [0.0, 0.0, 0.0], "arrival_time": arrival},
            )
        )
    return ScenarioConfig(
        vehicles=tuple(vehicles),
        barrier=BarrierConfig(DEFAULT_TURN, DEFAULT_SAFETY),
        sensor_range=350.0,
        shaping_xi="auto",
        dt=0.01,
        duration=80.0,
    )


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    return {
        "example1": scenario_example1(),
        "example2": scenario_example2(),
        "sweep": scenario_sweep(),
        "circle20": scenario_circle20(),
    }


def run_scenario(config: ScenarioConfig) -> tuple[SimTrace, Metrics]:
    """Run duration/dt closed-loop steps and summarize.

    Invalid configurations (including infeasible "auto" shaping and step
    counts too large to record) raise ValueError here, before any stepping.
    """
    sim = Simulation(
        states=[v.state for v in config.vehicles],
        controllers=config.controllers(),
        fconfig=config.filter_config(),
        mode=config.mode,
        dt=config.dt,
        n_steps=config.n_steps,
    )
    for _ in range(config.n_steps):
        sim.step()
    trace = sim.finalize()
    return trace, compute_metrics(trace, config.barrier.safety.ds)
