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
from dataclasses import dataclass, field
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
    """Per-step records of one run; arrays are built by finalize()."""

    pairs: list[tuple[int, int]]
    times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    states: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 4)))
    nominal: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 3)))
    filtered: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 3)))
    pair_h: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    pair_h_shaped: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    pair_margin: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    pair_in_sensor: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), bool))
    events: list[tuple[int, str]] = field(default_factory=list)
    final_states: np.ndarray | None = None

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
        self._pair_rows: list[tuple[np.ndarray, ...]] = []  # (h, h_shaped, margin, in_sensor)
        self._events: list[tuple[int, str]] = []

    def step(self):
        states, t = self.states, self.t
        limits = self.fconfig.limits
        nominal = [c.control(s, t, limits) for c, s in zip(self.controllers, states)]
        res = filter_controls(states, nominal, self.fconfig, mode=self.mode)
        self.states = [step_rk4(s, u, self.dt) for s, u in zip(states, res.controls)]
        self._vehicles.extend([
            x
            for s, u, f in zip(states, nominal, res.controls)
            for x in (s.px, s.py, s.heading, s.pz, u.speed, u.turn_rate, u.climb_rate,
                      f.speed, f.turn_rate, f.climb_rate)
        ])
        self._pair_rows.append((res.h, res.h_shaped, res.margin, res.in_sensor))
        self._events.extend((len(self._times), e) for e in res.events)
        self._times.append(t)
        self.t = t + self.dt

    def finalize(self) -> SimTrace:
        trace = SimTrace(pairs=self.pairs)
        if self._times:
            trace.times = np.array(self._times)
            per_vehicle = np.array(self._vehicles).reshape(
                len(self._times), len(self.states), 10
            )
            trace.states = per_vehicle[:, :, 0:4]
            trace.nominal = per_vehicle[:, :, 4:7]
            trace.filtered = per_vehicle[:, :, 7:10]
            trace.pair_h, trace.pair_h_shaped, trace.pair_margin, trace.pair_in_sensor = (
                np.stack(column) for column in zip(*self._pair_rows)
            )
        trace.events = self._events
        trace.final_states = np.array(
            [[s.px, s.py, s.heading, s.pz] for s in self.states]
        )
        return trace


def compute_metrics(trace: SimTrace, ds: float) -> Metrics:
    """Metrics over all recorded states plus the final state."""
    pairs = trace.pairs
    if not pairs:
        jumps = (
            tuple(
                float(np.max(np.linalg.norm(np.diff(trace.filtered[:, v], axis=0), axis=1)))
                if trace.n_steps > 1
                else 0.0
                for v in range(trace.filtered.shape[1])
            )
            if trace.n_steps
            else ()
        )
        return Metrics(math.inf, math.inf, jumps, {}, False, trace.n_steps, len(trace.events))

    all_states = np.concatenate([trace.states, trace.final_states[None]], axis=0)
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    dx = all_states[:, ii, 0] - all_states[:, jj, 0]
    dy = all_states[:, ii, 1] - all_states[:, jj, 1]
    dist = np.hypot(dx, dy)  # (T+1, P)
    min_distance = float(dist.min())

    finite = trace.pair_h_shaped[np.isfinite(trace.pair_h_shaped)]
    min_h_shaped = float(finite.min()) if finite.size else math.inf

    n_vehicles = trace.states.shape[1]
    jumps = tuple(
        float(np.max(np.linalg.norm(np.diff(trace.filtered[:, v], axis=0), axis=1)))
        if trace.n_steps > 1
        else 0.0
        for v in range(n_vehicles)
    )

    closest: dict[str, tuple[float, float]] = {}
    times = np.concatenate([trace.times, [trace.times[-1] + (trace.times[1] - trace.times[0])]]) \
        if trace.n_steps > 1 else np.concatenate([trace.times, trace.times])
    for k, (i, j) in enumerate(pairs):
        step = int(np.argmin(dist[:, k]))
        closest[f"{i}-{j}"] = (float(times[step]), float(dist[step, k]))

    return Metrics(
        min_distance=min_distance,
        min_h_shaped=min_h_shaped,
        max_control_jump=jumps,
        closest_approach=closest,
        violation=min_distance < ds,
        n_steps=trace.n_steps,
        n_events=len(trace.events),
    )
