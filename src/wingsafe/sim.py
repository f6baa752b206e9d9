"""Deterministic multi-vehicle closed-loop simulation.

Each step: evaluate every vehicle's nominal controller (its raw command),
filter the commands through the barrier QP, which clamps them into the
actuator box once and carries them as one (N, 3) array, and integrate every
vehicle one RK4 step.  Each step records O(N) values: every vehicle's state,
clamped nominal and filtered control, and its least shaped barrier value
over all its pairs, sensed or not (the trace is omniscient; the *filter*
only uses sensed pairs), so the minimum shaped-barrier value over a run is
exact.  Per-pair values are not kept: they follow from the recorded states.

Everything is pure floating-point arithmetic in a fixed evaluation order:
identical configurations produce bitwise-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Protocol

import numpy as np

from .dynamics import VehicleState, step_rk4, wrap_angle
from .safety_filter import FilterConfig, FilterRun, filter_controls


class Controller(Protocol):
    """A nominal controller: the raw command for one vehicle at time t, as a
    triple of floats (speed, turn_rate, climb_rate), such as a plain tuple.
    The filter, not the controller, checks that it is finite and clamps it
    into the actuator box."""

    def control(self, state: VehicleState, t: float) -> tuple[float, float, float]: ...


@dataclass(frozen=True)
class CircleController:
    """Track a circle: exact feed-forward turn rate on the circle, heading
    correction (unit gain) toward the tangent otherwise, tilted by
    atan(2 * relative radial error).

    direction +1 = counterclockwise, -1 = clockwise.  A vehicle placed on the
    circle with tangent heading receives exactly (speed, direction*speed/radius, 0).
    """

    center_x: float
    center_y: float
    radius: float
    direction: int
    speed: float

    def control(self, state: VehicleState, t: float) -> tuple[float, float, float]:
        dx = state.px - self.center_x
        dy = state.py - self.center_y
        dist = math.hypot(dx, dy)
        bearing = math.atan2(dy, dx)
        tangent = bearing + self.direction * math.pi / 2
        err_radial = (dist - self.radius) / self.radius
        desired = tangent + self.direction * math.atan(2.0 * err_radial)
        turn = self.direction * self.speed / self.radius + wrap_angle(desired - state.heading)
        return self.speed, turn, 0.0


@dataclass(frozen=True)
class GoalController:
    """Steer toward a fixed goal point.

    Heading: proportional correction (unit gain) toward the goal bearing.
    Speed: remaining distance over remaining time when an arrival time is
    set, else the cruise speed.  Altitude: proportional correction (unit
    gain) toward the goal altitude.  The command is raw: the filter saturates it at the actuator
    box (the turn-rate limit, the speed box).
    """

    goal_x: float
    goal_y: float
    goal_z: float = 0.0
    cruise_speed: float = 20.0
    arrival_time: float | None = None

    def control(self, state: VehicleState, t: float) -> tuple[float, float, float]:
        dx = self.goal_x - state.px
        dy = self.goal_y - state.py
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            turn = 0.0
        else:
            turn = wrap_angle(math.atan2(dy, dx) - state.heading)
        if self.arrival_time is not None:
            remaining = max(self.arrival_time - t, 1e-9)
            speed = dist / remaining
        else:
            speed = self.cruise_speed
        climb = self.goal_z - state.pz
        return speed, turn, climb


@dataclass
class SimTrace:
    """Per-step records of a run of T steps (built by Simulation.finalize):
    times (T,), states (T, N, 4), nominal/filtered (T, N, 3), each vehicle's
    minimum shaped barrier over its pairs (T, N; NaN where none is defined),
    events as (step, message), and state and time after the run."""

    pairs: list[tuple[int, int]]
    times: np.ndarray
    states: np.ndarray
    nominal: np.ndarray
    filtered: np.ndarray
    min_pair_h_shaped: np.ndarray
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
    """Step-by-step runner that records each step into arrays sized once, at
    construction, for the run's n_steps steps.

    Filter and barrier failures never abort a step; they surface as events
    with the evading-maneuver fallback applied (see safety_filter).
    """

    def __init__(self, states, controllers, fconfig: FilterConfig, mode: str, dt: float,
                 n_steps: int):
        self.t = 0.0
        self.states: list[VehicleState] = list(states)
        self.controllers = list(controllers)
        self.mode, self.dt = mode, dt
        n = len(self.states)
        self.run = FilterRun(fconfig, n)
        self.pairs = list(zip(*self.run.pairs.tolist()))
        # each vehicle's pairs in pair order, one run of n - 1 per vehicle: an
        # np.fmin.reduceat of values.take(_gather) at _starts is each one's least
        self._gather = np.argsort(self.run.pairs.T.ravel(), kind="stable") // 2
        self._starts = np.arange(n) * (n - 1)
        try:
            self._times = np.empty(n_steps)
            self._states = np.empty((n_steps, n, 4))
            self._nominal = np.empty((n_steps, n, 3))
            self._filtered = np.empty((n_steps, n, 3))
            # without pairs (n = 1) no step writes it: it stays NaN
            self._min_h = np.full((n_steps, n), np.nan)
        except (ValueError, MemoryError) as err:
            raise ValueError(f"cannot record a run of {n_steps:.6g} steps: {err}") from None
        self._step = 0  # steps recorded so far
        self._events: list[tuple[int, str]] = []

    def step(self):
        k, states, t, run = self._step, self.states, self.t, self.run
        if k == len(self._times):
            raise IndexError(f"all {k} steps of this run are recorded")
        nominal = [c.control(s, t) for c, s in zip(self.controllers, states)]
        res = filter_controls(states, nominal, run.config, mode=self.mode, run=run)
        self.states = [step_rk4(s, u, self.dt) for s, u in zip(states, res.controls.tolist())]
        self._states[k].flat = np.fromiter(chain.from_iterable(states), float, 4 * len(states))
        self._nominal[k] = res.nominal
        self._filtered[k] = res.controls
        if self.pairs:
            np.fmin.reduceat(res.h_shaped.take(self._gather), self._starts, out=self._min_h[k])
        self._events.extend((k, e) for e in res.events)
        self._times[k] = t
        self._step = k + 1
        self.t = t + self.dt

    def finalize(self) -> SimTrace:
        """The steps recorded so far, as views of the recording arrays."""
        k = self._step
        return SimTrace(
            pairs=self.pairs,
            times=self._times[:k],
            states=self._states[:k],
            nominal=self._nominal[:k],
            filtered=self._filtered[:k],
            min_pair_h_shaped=self._min_h[:k],
            events=self._events,
            final_states=np.array([[s.px, s.py, s.heading, s.pz] for s in self.states]),
            final_time=self.t,
        )


METRIC_BLOCK_ELEMS = 1 << 13  # pair distances compute_metrics holds in one temporary
METRIC_BLOCK_MIN_STEPS = 32  # fewest steps per block, whatever the pair count


def metric_block_steps(n_pairs: int) -> int:
    """Steps per compute_metrics block: METRIC_BLOCK_ELEMS pair distances,
    but at least METRIC_BLOCK_MIN_STEPS, since each block pays a fixed cost
    over all P pairs (about 170 us at P = 3,160)."""
    return max(METRIC_BLOCK_MIN_STEPS, METRIC_BLOCK_ELEMS // max(n_pairs, 1))


def compute_metrics(trace: SimTrace, ds: float) -> Metrics:
    """Metrics over all recorded states plus the final state.

    Control jumps are computed metric_block_steps(P) steps at a time, and
    pair distances as many steps for at most METRIC_BLOCK_ELEMS // steps
    pairs at a time, so memory grows neither with the run's length nor with
    its P pairs.  Each pair's least distance in a block replaces its running
    one where an argmin over (running, block) would pick the block: the
    earlier step wins ties and a NaN wins, as one argmin over all steps
    would have it."""
    ii, jj = np.array(trace.pairs, int).reshape(-1, 2).T
    cols = np.arange(len(trace.pairs))
    best = np.full(len(cols), math.inf)  # each pair's least distance so far
    at = np.zeros(len(cols), int)  # the step of it
    jumps = np.zeros(trace.filtered.shape[1])
    block_steps = metric_block_steps(len(cols))
    chunk = max(1, METRIC_BLOCK_ELEMS // block_steps)  # one chunk while P <= 256
    for b0 in range(0, trace.n_steps + 1, block_steps):
        b1 = b0 + block_steps
        # the jump into each of the block's steps, so blocks overlap by one row
        changes = np.diff(trace.filtered[max(b0 - 1, 0):b1], axis=0)
        np.maximum(jumps, np.linalg.norm(changes, axis=2).max(axis=0, initial=0.0), out=jumps)
        block = trace.states[b0:b1, :, 0:2]
        if b1 > trace.n_steps:  # the last block ends at the final state
            block = np.concatenate([block, trace.final_states[None, :, 0:2]])
        # pairs by steps, so that each pair's steps are one contiguous row
        x, y = block.T
        for c0 in range(0, len(cols), chunk):
            c = slice(c0, c0 + chunk)
            dx = x.take(ii[c], 0)
            dx -= x.take(jj[c], 0)
            dy = y.take(ii[c], 0)
            dy -= y.take(jj[c], 0)
            dist = np.hypot(dx, dy, out=dx)
            steps = dist.argmin(axis=1)
            least = dist[cols[:len(dist)], steps]
            best_c, at_c = best[c], at[c]
            take = ~(best_c <= least) & (best_c == best_c)
            np.copyto(best_c, least, where=take)
            np.copyto(at_c, steps + b0, where=take)
    min_distance = float(best.min(initial=math.inf))
    min_h_shaped = float(np.fmin.reduce(trace.min_pair_h_shaped, axis=None, initial=math.inf))
    times = np.append(trace.times, trace.final_time)[at].tolist()
    d_min = best.tolist()
    return Metrics(
        min_distance=min_distance,
        min_h_shaped=min_h_shaped,
        max_control_jump=tuple(jumps.tolist()),
        closest_approach={f"{i}-{j}": (t, d) for (i, j), t, d in zip(trace.pairs, times, d_min)},
        violation=min_distance < ds,
        n_steps=trace.n_steps,
        n_events=len(trace.events),
    )
