"""Shared fixtures: the headline experiment parameter set, pair samplers, and
per-pair values of recorded runs."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from wingsafe.barrier import (
    BarrierConfig,
    PairState,
    SafetyParams,
    StraightManeuver,
    StraightPass,
    TurnManeuver,
    h_value,
    lie_derivatives,
    pair_rows,
    phasor_rows,
    role_weights,
)
from wingsafe.dynamics import ActuatorLimits, VehicleState
from wingsafe.qp import QPInfeasibleError, QPProblem, solve_qp
from wingsafe.safety_filter import FilterConfig, FilterRun, filter_controls, pair_index, pair_pass
from wingsafe.shaping import SensorModel, psi_deriv_batch

# Examples run whole solves and simulations whose time varies with the host,
# so no example has a deadline.
settings.register_profile("wingsafe", deadline=None)
settings.load_profile("wingsafe")

# Experiment parameter set used by the headline scenarios: v_min = 15 m/s,
# v_max = 25 m/s, omega_max = 13 deg/s; evading turn at v = 0.9*v_min +
# 0.1*v_max and w = 0.9*omega_max; delta = 0.01 m^2, D_s = 5 m, sigma = 1.
V_MIN = 15.0
V_MAX = 25.0
OMEGA_MAX = math.radians(13.0)
EVADE_SPEED = 0.9 * V_MIN + 0.1 * V_MAX
EVADE_RATE = 0.9 * OMEGA_MAX
DELTA = 0.01
DS = 5.0


@pytest.fixture(scope="session")
def limits():
    return ActuatorLimits(v_min=V_MIN, v_max=V_MAX, omega_max=OMEGA_MAX, zeta_max=5.0)


@pytest.fixture(scope="session")
def turn_maneuver():
    return TurnManeuver(sigma=1.0, speed=EVADE_SPEED, turn_rate=EVADE_RATE)


@pytest.fixture(scope="session")
def safety():
    return SafetyParams(delta=DELTA, ds=DS)


@pytest.fixture(scope="session")
def turn_config(turn_maneuver, safety):
    return BarrierConfig(turn_maneuver, safety)


def random_state(rng, span=200.0):
    return VehicleState(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-50, 50),
    )


def random_pair_columns(rng, n, span=200.0):
    """n pair states, each vehicle drawn as random_state draws it, as the
    columns of an (8, n) array [a.px, a.py, a.heading, a.pz, b.px, ...]."""
    lim = np.array([span, span, math.pi, 50.0] * 2)
    return rng.uniform(-lim, lim, (n, 8)).T


def pairs_pass(pairs, config):
    """h_value over PairStates, from their phasor_rows through pair_rows (the
    filter's pair pass, without its gather), and the pairs' heading phasors
    e1, e2 as a (P, 2) array."""
    rows = phasor_rows([s for pair in pairs for s in (pair.a, pair.b)])
    g = np.ascontiguousarray(rows.reshape(-1, 2, 4).transpose(1, 2, 0))  # (2, 4, P)
    return h_value(pair_rows(g, role_weights(config)), config), g[:, 1].T


def pair_h(pair, config) -> float:
    """The barrier value h of one pair; NaN outside the barrier's domain."""
    return float(pairs_pass([pair], config)[0].s[0]) - config.safety.ds


def pair_lie(pair, config) -> np.ndarray:
    """L_g h (6,) of one pair, whose gradient is defined (s > 0)."""
    p, e = pairs_pass([pair], config)
    assert p.s[0] > 0.0, "gradient undefined"
    return lie_derivatives(p, e, config)[1][0]


def minimizer_tau(p, config) -> np.ndarray:
    """Smallest nonnegative minimizing time of each pair of an h_value pass:
    the turn radicand's minimum is first reached at
    tau* = ((arg(pq) + pi) mod 2pi)/w (0 when M = 0)."""
    if isinstance(p, StraightPass):
        return p.tau
    w = config.maneuver.turn_rate
    return np.where(p.M == 0.0, 0.0, np.mod(np.angle(p.pq) + np.pi, 2.0 * np.pi) / w)


def random_valid_pair(rng, config, span=200.0, require_safe=False):
    """Sample a pair state inside the barrier domain (rejection sampling)."""
    while True:
        pair = PairState(random_state(rng, span), random_state(rng, span))
        h = pair_h(pair, config)
        if math.isnan(h) or require_safe and h < 0.0:
            continue
        return pair


def random_turn_config(rng):
    man = TurnManeuver(
        sigma=rng.uniform(0.2, 1.0),
        speed=rng.uniform(2.0, 25.0),
        turn_rate=rng.uniform(0.05, 1.0),
    )
    safety = SafetyParams(delta=rng.uniform(1e-4, 0.1), ds=rng.uniform(1.0, 10.0))
    return BarrierConfig(man, safety)


def random_straight_config(rng):
    v1 = rng.uniform(2.0, 25.0)
    v2 = rng.uniform(2.0, 25.0)
    while v2 == v1:
        v2 = rng.uniform(2.0, 25.0)
    man = StraightManeuver(v1=v1, v2=v2, zeta1=rng.uniform(-2, 2), zeta2=rng.uniform(-2, 2))
    safety = SafetyParams(delta=rng.uniform(1e-4, 0.1), ds=rng.uniform(1.0, 10.0))
    return BarrierConfig(man, safety)


class RecordedState(NamedTuple):
    """A recorded state row as the pair pass reads it.  Unlike VehicleState
    it does not wrap the heading again, so a replay sees the recorded floats."""

    px: float
    py: float
    heading: float
    pz: float


def replay_pairs(trace, fconfig):
    """Raw barrier h, shaped barrier h_shaped and sensor membership per step
    and pair, (T, P) in pairs order, recomputed from a run's recorded states
    with the filter's array pass: the values the run's filter saw."""
    shape = (trace.n_steps, len(trace.pairs))
    h, h_shaped, in_sensor = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    run = FilterRun(fconfig, trace.states.shape[1])
    for k, world in enumerate(trace.states.tolist()):
        p = pair_pass([RecordedState(*s) for s in world], run)
        h[k], h_shaped[k], in_sensor[k] = p.h, p.h_shaped, p.in_sensor
    return h, h_shaped, in_sensor


def vehicle_minima(pair_values, n):
    """(T, N) per-vehicle minimum of (T, P) pair values over the vehicle's
    pairs, NaN-skipping and in pair_index order; NaN where none is defined."""
    ii, jj = pair_index(n)
    return np.stack([
        np.fmin.reduce(pair_values[:, (ii == v) | (jj == v)], axis=1, initial=np.nan)
        for v in range(n)
    ], axis=1)


def achieved_margins(world, controls, config: FilterConfig) -> np.ndarray:
    """The pair row L_g h_shaped . (u_i, u_j) + alpha(h_shaped) of each pair
    (i < j), in pair_index order, under the (N, 3) controls: the barrier's
    Lie rows scaled by psi'(h) below the shaping threshold (the zero row on
    the plateau), for the sensed pairs whose barrier is defined (s > 0);
    NaN elsewhere."""
    n = len(world)
    p = pair_pass(world, FilterRun(config, n))
    idx = ii, jj = pair_index(n)
    th = np.array([s.heading for s in world]).take(idx).T  # (P, 2)
    u = np.asarray(controls, dtype=float)
    with np.errstate(all="ignore"):  # the rows of undefined pairs, NaN below
        _, lg = lie_derivatives(p.barrier, np.cos(th) + 1j * np.sin(th), config.barrier)
        if config.shaping is not None:
            lg *= np.where(p.lie, psi_deriv_batch(p.h, config.shaping), 0.0)[:, None]
        margins = (lg * np.hstack([u[ii], u[jj]])).sum(axis=1) + config.gain(p.h_shaped)
    return np.where(p.in_sensor & (p.barrier.s > 0.0), margins, np.nan)


def reference_clamp(u: tuple, limits: ActuatorLimits) -> tuple:
    """Scalar projection of one (speed, turn_rate, climb_rate) control onto
    the actuator box, u itself if inside: the reference the filter's array
    clamp matches bit for bit."""
    if limits.contains(u):
        return u
    speed, turn_rate, climb_rate = u
    return (
        min(max(speed, limits.v_min), limits.v_max),
        min(max(turn_rate, -limits.omega_max), limits.omega_max),
        min(max(climb_rate, -limits.zeta_max), limits.zeta_max),
    )


def filter_clamp(controls, limits: ActuatorLimits) -> np.ndarray:
    """The filter's one clamp of the given controls into limits: the (N, 3)
    FilterResult.nominal of filter_controls in mode off."""
    # an evading turn on the box's edge, so that every box admits it
    man = TurnManeuver(sigma=1.0, speed=limits.v_min, turn_rate=limits.omega_max)
    fc = FilterConfig(BarrierConfig(man, SafetyParams(DELTA, DS)), SensorModel(350.0), limits)
    world = [VehicleState(1000.0 * k, 0.0, 0.0) for k in range(len(controls))]
    return filter_controls(world, list(controls), fc, mode="off").nominal


def reference_split(run, result, u, pairs, lg, offset):
    """Split mode from the binding rows on, one scalar row at a time and one
    QP for every vehicle with a nonzero half-row: the reference that
    safety_filter._usable_rows followed by _filter_split on the usable rows
    matches bit for bit, in u, events and fallback.  The arguments are
    _filter_split's, with the rows before that rule: a pair row with a
    non-finite entry, or a zero pair row with a negative offset, fails (an
    event names the pair and both vehicles fall back), and other zero pair
    rows hold for every control.  The box and the evading controls come from
    run.config's fields, not from the run."""
    config = run.config
    lim = config.limits
    lo = np.array([lim.v_min, -lim.omega_max, -lim.zeta_max])
    hi = np.array([lim.v_max, lim.omega_max, lim.zeta_max])
    gamma = np.array([x for control in config.barrier.maneuver.controls() for x in control])
    ri, rj = pairs
    usable = []
    for k in range(len(offset)):
        i, j = int(ri[k]), int(rj[k])
        if not all(math.isfinite(x) for x in lg[k]):
            result.events.append(f"domain-error pair=({i},{j}) non-finite constraint row")
        elif any(lg[k]):
            usable.append(k)
            continue
        elif offset[k] < 0.0:
            result.events.append(f"qp-infeasible mode=split zero row pair=({i},{j})")
        else:
            continue
        result.fallback.update((i, j))
    for v in range(len(u)):
        coeffs, halves = [], []
        stuck = False
        for k in usable:
            if v not in (ri[k], rj[k]):
                continue
            first = ri[k] == v
            mine, theirs = (lg[k, :3], lg[k, 3:]) if first else (lg[k, 3:], lg[k, :3])
            g_mine, g_theirs = (gamma[:3], gamma[3:]) if first else (gamma[3:], gamma[:3])
            corr = 0.5 * (float(theirs @ g_theirs) - float(mine @ g_mine))
            half = 0.5 * float(offset[k]) + corr
            if mine.any():
                coeffs.append(mine)
                halves.append(half)
            elif half < 0.0:
                # no actuation authority over a violated half-row
                result.events.append(f"qp-infeasible mode=split vehicle={v} zero row")
                result.fallback.add(v)
                stuck = True
                break
        if stuck or not halves:
            continue
        try:
            u_star, _ = solve_qp(QPProblem(u[v].copy(), np.array(coeffs), halves, lo, hi))
        except QPInfeasibleError as err:
            result.events.append(f"qp-infeasible mode=split vehicle={v} {err}")
            result.fallback.add(v)
        else:
            # an entry strictly outside the box moves to the bound; every
            # other keeps its bits, the sign of a zero included
            u[v] = reference_clamp(u_star.tolist(), config.limits)
