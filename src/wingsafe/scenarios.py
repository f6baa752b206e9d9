"""Declarative scenario configuration, builtin experiments, and run_scenario.

A scenario is a JSON-compatible description of vehicles (initial state plus
nominal controller), actuator limits, the barrier (maneuver + safety
parameters), sensor range, shaping, class-K gain, and integration settings.
parse/serialize round-trip exactly.

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
from dataclasses import dataclass
from typing import Any

from .barrier import (
    BarrierConfig,
    LinearGain,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
)
from .dynamics import ActuatorLimits, VehicleState
from .safety_filter import FilterConfig
from .shaping import SensorModel, ShapingParams, make_quadratic_psi, xi_from_range
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
    controller: dict[str, Any]  # JSON-shaped controller description


@dataclass(frozen=True)
class ScenarioConfig:
    vehicles: tuple[VehicleSpec, ...]
    limits: ActuatorLimits
    barrier: BarrierConfig
    sensor_range: float
    shaping_xi: float | str | None  # numeric, "auto", or None for the raw barrier
    shaping_beta: float
    alpha_slope: float
    dt: float
    duration: float
    mode: str
    seed: int = 42

    def __post_init__(self):
        if not self.vehicles:
            raise ValueError("at least one vehicle required")
        if not 0 < self.dt < math.inf:  # also rejects NaN
            raise ValueError("dt must be finite and > 0")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and > 0")
        if self.mode not in ("centralized", "split", "off"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        xi = self.shaping_xi
        if not (xi is None or xi == "auto"
                or isinstance(xi, (int, float)) and not isinstance(xi, bool)):
            raise ValueError(
                f'config field shaping.xi must be a JSON number, "auto" or null, got {xi!r}')
        if isinstance(xi, int):
            _typed(xi, "shaping.xi")  # an integer too large for a float
        # note: "auto" feasibility (R above the minimum sensing range) is
        # checked by resolve_shaping, before any run starts
        for k, v in enumerate(self.vehicles):
            build_controller(v.controller, f"vehicles[{k}].controller")  # reject at load

    def resolve_shaping(self) -> ShapingParams | None:
        if self.shaping_xi is None:
            return None
        if self.shaping_xi == "auto":
            if self.barrier.kind != "turn":
                raise ValueError('shaping "auto" requires the turn barrier')
            xi = xi_from_range(self.sensor_range, self.barrier.maneuver, self.barrier.safety)
        else:
            xi = float(self.shaping_xi)
        return make_quadratic_psi(xi, self.shaping_beta)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            barrier=self.barrier,
            sensor=SensorModel(self.sensor_range),
            limits=self.limits,
            gain=LinearGain(self.alpha_slope),
            shaping=self.resolve_shaping(),
        )

    def controllers(self) -> list[Controller]:
        return [build_controller(v.controller) for v in self.vehicles]

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.dt)


def build_controller(spec: dict[str, Any], where: str = "controller") -> Controller:
    """The nominal controller a JSON-shaped spec describes.  A missing field
    raises KeyError, and a field of the wrong JSON type or not finite a
    ValueError naming it as where.<field>, as does a circle's radius <= 0 or
    direction other than 1 or -1."""

    def num(key: str, *default):
        return _finite(spec.get(key, *default) if default else spec[key], f"{where}.{key}")

    def point(key: str, sizes: tuple[int, ...]) -> list:
        value = _typed(spec[key], f"{where}.{key}", "array")
        if len(value) not in sizes:
            raise ValueError(f"config field {where}.{key} must have "
                             f"{' or '.join(map(str, sizes))} entries, got {value!r}")
        return [_finite(x, f"{where}.{key}[{i}]") for i, x in enumerate(value)]

    kind = spec.get("type")
    if kind == "circle":
        center = point("center", (2,))
        radius = num("radius")
        if not radius > 0.0:
            raise ValueError(f"config field {where}.radius must be > 0, got {radius!r}")
        direction = num("direction")
        if direction not in (1, -1):
            raise ValueError(f"config field {where}.direction must be 1 or -1, got {direction!r}")
        return CircleController(center[0], center[1], radius, direction, num("speed"))
    if kind == "goal":
        goal = point("goal", (2, 3))
        return GoalController(
            goal_x=goal[0],
            goal_y=goal[1],
            goal_z=goal[2] if len(goal) > 2 else 0.0,
            cruise_speed=num("cruise_speed", 20.0),
            arrival_time=None if spec.get("arrival_time") is None else num("arrival_time"),
        )
    raise ValueError(f"config field {where}.type: unknown controller type {kind!r}")


# ---------------------------------------------------------------------------
# JSON serialization

LIMIT_FIELDS = ("v_min", "v_max", "omega_max", "zeta_max")


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    man = cfg.barrier.maneuver
    if isinstance(man, TurnManeuver):
        barrier = {
            "kind": "turn",
            "sigma": man.sigma,
            "speed": man.speed,
            "turn_rate": man.turn_rate,
        }
    else:
        barrier = {
            "kind": "straight",
            "v1": man.v1,
            "v2": man.v2,
            "zeta1": man.zeta1,
            "zeta2": man.zeta2,
        }
    barrier["delta"] = cfg.barrier.safety.delta
    barrier["ds"] = cfg.barrier.safety.ds
    return {
        "vehicles": [
            {
                "state": [v.state.px, v.state.py, v.state.heading, v.state.pz],
                "controller": v.controller,
            }
            for v in cfg.vehicles
        ],
        "limits": {k: getattr(cfg.limits, k) for k in LIMIT_FIELDS},
        "barrier": barrier,
        "sensor_range": cfg.sensor_range,
        "shaping": None
        if cfg.shaping_xi is None
        else {"xi": cfg.shaping_xi, "beta": cfg.shaping_beta},
        "alpha": {"kind": "linear", "slope": cfg.alpha_slope},
        "dt": cfg.dt,
        "duration": cfg.duration,
        "mode": cfg.mode,
        "seed": cfg.seed,
    }


def _typed(value, field: str, kind: str = "number"):
    """value if its JSON type is kind (true and false have none), else a
    ValueError naming the field, as for a number too large for a float.
    An integer stays an integer."""
    types = {"number": (int, float), "integer": int, "object": dict, "array": (list, tuple)}
    if isinstance(value, bool) or not isinstance(value, types[kind]):
        raise ValueError(f"config field {field} must be a JSON {kind}, got {value!r}")
    if kind == "number" and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"config field {field} must fit in a float, "
                         f"got an integer of {len(str(abs(value)))} digits")
    return value


def _finite(value, field: str):
    """value if it is a finite JSON number, else a ValueError naming the field."""
    if not math.isfinite(_typed(value, field)):
        raise ValueError(f"config field {field} must be finite, got {value!r}")
    return value


def config_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """Parse the JSON form of a scenario.  A missing field raises KeyError,
    and a field of the wrong JSON type a ValueError naming the field."""

    def num(section: dict, prefix: str, key: str, *default):
        return _typed(section.get(key, *default) if default else section[key], prefix + key)

    b = _typed(_typed(d, "(top level)", "object")["barrier"], "barrier", "object")
    safety = SafetyParams(delta=num(b, "barrier.", "delta"), ds=num(b, "barrier.", "ds"))
    if b["kind"] == "turn":
        man = TurnManeuver(*(num(b, "barrier.", k) for k in ("sigma", "speed", "turn_rate")))
    elif b["kind"] == "straight":
        zetas = (num(b, "barrier.", k, 0.0) for k in ("zeta1", "zeta2"))
        man = StraightManeuver(num(b, "barrier.", "v1"), num(b, "barrier.", "v2"), *zetas)
    else:
        raise ValueError(f"unknown barrier kind {b['kind']!r}")
    lim = _typed(d["limits"], "limits", "object")
    shaping = None if d.get("shaping") is None else _typed(d["shaping"], "shaping", "object")
    alpha = _typed(d.get("alpha", {"kind": "linear", "slope": 1.0}), "alpha", "object")
    if alpha.get("kind", "linear") != "linear":
        raise ValueError(f"unknown alpha kind {alpha.get('kind')!r}")
    vehicles = []
    for k, v in enumerate(_typed(d["vehicles"], "vehicles", "array")):
        where = f"vehicles[{k}]"
        state = _typed(_typed(v, where, "object")["state"], f"{where}.state", "array")
        if len(state) not in (3, 4):
            raise ValueError(f"config field {where}.state must be [px, py, heading, pz] "
                             f"with pz optional, got {state!r}")
        state = VehicleState(*(_typed(x, f"{where}.state[{i}]") for i, x in enumerate(state)))
        controller = _typed(v["controller"], f"{where}.controller", "object")
        vehicles.append(VehicleSpec(state, controller))
    return ScenarioConfig(
        vehicles=tuple(vehicles),
        limits=ActuatorLimits(*(num(lim, "limits.", k) for k in LIMIT_FIELDS)),
        barrier=BarrierConfig(man, safety),
        sensor_range=num(d, "", "sensor_range"),
        shaping_xi=None if shaping is None else shaping["xi"],
        shaping_beta=0.9 if shaping is None else num(shaping, "shaping.", "beta", 0.9),
        alpha_slope=num(alpha, "alpha.", "slope", 1.0),
        dt=num(d, "", "dt"),
        duration=num(d, "", "duration"),
        mode=d.get("mode", "centralized"),
        seed=_typed(d.get("seed", 42), "seed", "integer"),
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
        limits=DEFAULT_LIMITS,
        barrier=BarrierConfig(StraightManeuver(v1=v1, v2=v2), DEFAULT_SAFETY),
        sensor_range=R,
        shaping_xi=None,
        shaping_beta=0.9,
        alpha_slope=1.0,
        dt=0.01,
        duration=12.0,
        mode="centralized",
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
        limits=DEFAULT_LIMITS,
        barrier=BarrierConfig(evade, DEFAULT_SAFETY),
        sensor_range=d_onset + DEFAULT_V_MAX * dt / 2,
        shaping_xi=None,
        shaping_beta=0.9,
        alpha_slope=1.0,
        dt=dt,
        duration=12.0,
        mode="centralized",
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
        limits=DEFAULT_LIMITS,
        barrier=BarrierConfig(DEFAULT_TURN, DEFAULT_SAFETY),
        sensor_range=sensor_range,
        shaping_xi="auto",
        shaping_beta=0.9,
        alpha_slope=1.0,
        dt=0.01,
        duration=30.0,
        mode="centralized",
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
        limits=DEFAULT_LIMITS,
        barrier=BarrierConfig(DEFAULT_TURN, DEFAULT_SAFETY),
        sensor_range=350.0,
        shaping_xi="auto",
        shaping_beta=0.9,
        alpha_slope=1.0,
        dt=0.01,
        duration=80.0,
        mode="centralized",
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
