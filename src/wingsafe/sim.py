"""Deterministic multi-vehicle closed-loop simulation.

Each step: evaluate every vehicle's nominal controller, filter the stacked
controls through the barrier QP (which clamps them into the actuator box),
and integrate every vehicle one RK4 step.  All pair barrier values are
recorded every step (the trace is omniscient; the *filter* only uses sensed
pairs), so metrics like the minimum shaped-barrier value over a run are
exact.

Everything is pure floating-point arithmetic in a fixed evaluation order:
identical configurations produce bitwise-identical traces.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .dynamics import (
    ActuatorLimits,
    ControlInput,
    VehicleState,
    clamp_input,
    step_rk4,
    wrap_angle,
)
from .safety_filter import FilterConfig, filter_controls, pair_index


class Controller(Protocol):
    def control(self, state: VehicleState, t: float, limits: ActuatorLimits) -> ControlInput: ...


@dataclass(frozen=True)
class CircleController:
    """Track a circle: exact feed-forward turn rate on the circle, heading
    correction toward the tangent otherwise.

    direction +1 = counterclockwise, -1 = clockwise.  A vehicle placed on the
    circle with tangent heading receives exactly (speed, direction*speed/radius, 0).
    """

    center_x: float
    center_y: float
    radius: float
    direction: int
    speed: float
    k_heading: float = 1.0
    k_radial: float = 2.0

    def control(self, state: VehicleState, t: float, limits: ActuatorLimits) -> ControlInput:
        dx = state.px - self.center_x
        dy = state.py - self.center_y
        dist = math.hypot(dx, dy)
        bearing = math.atan2(dy, dx)
        tangent = bearing + self.direction * math.pi / 2
        err_radial = (dist - self.radius) / self.radius
        desired = tangent + self.direction * math.atan(self.k_radial * err_radial)
        turn = self.direction * self.speed / self.radius + self.k_heading * wrap_angle(
            desired - state.heading
        )
        return clamp_input(ControlInput(self.speed, turn, 0.0), limits)


@dataclass(frozen=True)
class GoalController:
    """Steer toward a fixed goal point.

    Heading: proportional correction toward the goal bearing (saturates at
    the turn-rate limit).  Speed: remaining distance over remaining time when
    an arrival time is set (clamped into the speed box), else the cruise
    speed.  Altitude: proportional correction toward the goal altitude.
    """

    goal_x: float
    goal_y: float
    goal_z: float = 0.0
    cruise_speed: float = 20.0
    arrival_time: float | None = None
    k_heading: float = 1.0
    k_climb: float = 1.0

    def control(self, state: VehicleState, t: float, limits: ActuatorLimits) -> ControlInput:
        dx = self.goal_x - state.px
        dy = self.goal_y - state.py
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            turn = 0.0
        else:
            turn = self.k_heading * wrap_angle(math.atan2(dy, dx) - state.heading)
        if self.arrival_time is not None:
            remaining = max(self.arrival_time - t, 1e-9)
            speed = dist / remaining
        else:
            speed = self.cruise_speed
        climb = self.k_climb * (self.goal_z - state.pz)
        return clamp_input(ControlInput(speed, turn, climb), limits)


@dataclass
class SimTrace:
    """Per-step records of a run of T steps (built by Simulation.finalize):
    times (T,), states (T, N, 4), nominal/filtered (T, N, 3), pair_* (T, P) in
    pairs order, events as (step, message), and state and time after the run."""

    pairs: list[tuple[int, int]]
    times: np.ndarray
    states: np.ndarray
    nominal: np.ndarray
    filtered: np.ndarray
    pair_h: np.ndarray
    pair_h_shaped: np.ndarray
    pair_in_sensor: np.ndarray
    events: list[tuple[int, str]]
    final_states: np.ndarray
    final_time: float

    @property
    def n_steps(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Metrics:
    """Run summary: worst pairwise separation and barrier value, per-vehicle
    worst step-to-step control change, and when each pair was closest."""

    min_distance: float
    min_h_shaped: float
    max_control_jump: tuple[float, ...]
    closest_approach: dict[str, tuple[float, float]]
    violation: bool
    n_steps: int
    n_events: int


class Simulation:
    """Step-by-step runner that accumulates the trace.

    Filter and barrier failures never abort a step; they surface as events
    with the evading-maneuver fallback applied (see safety_filter).
    """

    def __init__(self, states, controllers, fconfig: FilterConfig, mode: str, dt: float):
        self.t = 0.0
        self.states: list[VehicleState] = list(states)
        self.controllers = list(controllers)
        self.fconfig = fconfig
        self.mode = mode
        self.dt = dt
        self.pairs = list(zip(*pair_index(len(self.states)).tolist()))
        self._times: list[float] = []
        self._vehicles = array("d")  # per step and vehicle: state, nominal, filtered
        self._pair_rows: list[tuple[np.ndarray, ...]] = []  # (h, h_shaped, in_sensor)
        self._events: list[tuple[int, str]] = []
        self._active: list[int] = []  # the last step's QP active set, warm-starts the next

    def step(self):
        states, t = self.states, self.t
        limits = self.fconfig.limits
        nominal = [c.control(s, t, limits) for c, s in zip(self.controllers, states)]
        res = filter_controls(states, nominal, self.fconfig, mode=self.mode, hint=self._active)
        self._active = res.active
        self.states = [step_rk4(s, u, self.dt) for s, u in zip(states, res.controls)]
        self._vehicles.extend([
            x
            for s, u, f in zip(states, nominal, res.controls)
            for x in (s.px, s.py, s.heading, s.pz, u.speed, u.turn_rate, u.climb_rate,
                      f.speed, f.turn_rate, f.climb_rate)
        ])
        self._pair_rows.append((res.h, res.h_shaped, res.in_sensor))
        self._events.extend((len(self._times), e) for e in res.events)
        self._times.append(t)
        self.t = t + self.dt

    def finalize(self) -> SimTrace:
        n_steps, n_pairs = len(self._times), len(self.pairs)
        per_vehicle = np.array(self._vehicles).reshape(n_steps, len(self.states), 10)
        h, h_shaped, in_sensor = (
            np.array([r[c] for r in self._pair_rows], dtype).reshape(n_steps, n_pairs)
            for c, dtype in enumerate((float, float, bool))
        )
        return SimTrace(
            pairs=self.pairs,
            times=np.array(self._times, float),
            states=per_vehicle[:, :, 0:4],
            nominal=per_vehicle[:, :, 4:7],
            filtered=per_vehicle[:, :, 7:10],
            pair_h=h,
            pair_h_shaped=h_shaped,
            pair_in_sensor=in_sensor,
            events=self._events,
            final_states=np.array([[s.px, s.py, s.heading, s.pz] for s in self.states]),
            final_time=self.t,
        )


def compute_metrics(trace: SimTrace, ds: float) -> Metrics:
    """Metrics over all recorded states plus the final state."""
    all_states = np.concatenate([trace.states, trace.final_states[None]], axis=0)
    ii, jj = np.array(trace.pairs, int).reshape(-1, 2).T
    px, py = all_states[:, :, 0], all_states[:, :, 1]
    dx = px[:, ii]
    dx -= px[:, jj]
    dy = py[:, ii]
    dy -= py[:, jj]
    dist = np.hypot(dx, dy, out=dx)  # (T+1, P), built in place: this sets a run's peak memory
    min_distance = float(dist.min(initial=math.inf))
    min_h_shaped = float(np.fmin.reduce(trace.pair_h_shaped, axis=None, initial=math.inf))
    jumps = np.linalg.norm(np.diff(trace.filtered, axis=0), axis=2).max(axis=0, initial=0.0)
    steps = dist.argmin(axis=0)  # each pair's closest step, the first on ties
    times = np.append(trace.times, trace.final_time)[steps].tolist()
    d_min = dist[steps, np.arange(len(trace.pairs))].tolist()
    return Metrics(
        min_distance=min_distance,
        min_h_shaped=min_h_shaped,
        max_control_jump=tuple(jumps.tolist()),
        closest_approach={f"{i}-{j}": (t, d) for (i, j), t, d in zip(trace.pairs, times, d_min)},
        violation=min_distance < ds,
        n_steps=trace.n_steps,
        n_events=len(trace.events),
    )
