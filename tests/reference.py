"""Independent references that the tests check the program against.

* The safety functions rho_straight and rho_turn, evaluated on one pair.
* The exact constant-input trajectories: propagate_turn (a circular arc) and
  propagate_straight (a straight line).
* h_oracle, a brute-force barrier value: a dense time grid plus
  golden-section refinement along the exact trajectories.  It shares no code
  with the closed forms it checks (the phasor and closest-approach
  reductions of wingsafe.barrier); test_reference checks that it imports
  none of them.
* kkt_residual, an optimality verifier for the QP: it reconstructs
  multipliers with scipy's nonnegative least squares, not the solver's own
  machinery, and reports the worst KKT violation.

Tests import these names as they import from conftest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from wingsafe.barrier import (
    BarrierConfig,
    DomainError,
    PairState,
    SafetyParams,
    TurnManeuver,
)
from wingsafe.dynamics import VehicleState
from wingsafe.qp import QPProblem

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# safety functions


def squared_planar_distance(pair: PairState) -> float:
    """Squared planar distance between the two vehicles (altitude ignored)."""
    dx = pair.a.px - pair.b.px
    dy = pair.a.py - pair.b.py
    return dx * dx + dy * dy


def rho_straight(pair: PairState, ds: float) -> float:
    """sqrt(d12) - ds."""
    return math.sqrt(squared_planar_distance(pair)) - ds


def rho_turn(pair: PairState, params: SafetyParams) -> float:
    """sqrt(d12 - 2*delta + delta*sin(th1) - delta*cos(th1)) - ds.

    Raises DomainError when the radicand is negative (state outside the
    barrier domain).
    """
    d = squared_planar_distance(pair)
    th1 = pair.a.heading
    rad = d - 2.0 * params.delta + params.delta * math.sin(th1) - params.delta * math.cos(th1)
    if rad < 0.0:
        raise DomainError(f"negative radicand {rad} in turn safety function")
    return math.sqrt(rad) - params.ds


# ---------------------------------------------------------------------------
# exact constant-input trajectories


def propagate_turn(state: VehicleState, speed: float, turn_rate: float, tau: float) -> VehicleState:
    """Exact constant-rate-turn propagation over tau seconds.

    The trajectory is a circular arc of radius speed/turn_rate:

        p(tau) = p0 + (v/w) * [sin(th0 + w*tau) - sin(th0),
                               -cos(th0 + w*tau) + cos(th0)]

    turn_rate must be nonzero (use propagate_straight otherwise).
    """
    if turn_rate == 0.0:
        raise ValueError("turn_rate must be nonzero; use propagate_straight")
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    th0 = state.heading
    th1 = th0 + turn_rate * tau
    rr = speed / turn_rate
    return VehicleState(
        state.px + rr * (math.sin(th1) - math.sin(th0)),
        state.py + rr * (-math.cos(th1) + math.cos(th0)),
        th1,
        state.pz,
    )


def propagate_straight(state: VehicleState, speed: float, climb_rate: float, tau: float) -> VehicleState:
    """Exact straight-line propagation over tau seconds (heading unchanged)."""
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    return VehicleState(
        state.px + tau * speed * math.cos(state.heading),
        state.py + tau * speed * math.sin(state.heading),
        state.heading,
        state.pz + tau * climb_rate,
    )


# ---------------------------------------------------------------------------
# brute-force oracle


def _rho_along(pair: PairState, config: BarrierConfig, tau: float) -> float:
    """Safety function evaluated on the maneuver trajectory at time tau,
    using the exact propagators (independent of the phasor/CPA reductions)."""
    man = config.maneuver
    if isinstance(man, TurnManeuver):
        a = propagate_turn(pair.a, man.sigma * man.speed, man.turn_rate, tau)
        b = propagate_turn(pair.b, man.speed, man.turn_rate, tau)
        return rho_turn(PairState(a, b), config.safety)
    a = propagate_straight(pair.a, man.v1, man.zeta1, tau)
    b = propagate_straight(pair.b, man.v2, man.zeta2, tau)
    return rho_straight(PairState(a, b), config.safety.ds)


def default_horizon(pair: PairState, config: BarrierConfig) -> float:
    """Search horizon guaranteed to contain the infimum: one full period for
    the turn maneuver, twice the CPA-time bound plus slack for the straight one."""
    man = config.maneuver
    if isinstance(man, TurnManeuver):
        return 2.0 * math.pi / man.turn_rate
    dvx = man.v1 * math.cos(pair.a.heading) - man.v2 * math.cos(pair.b.heading)
    dvy = man.v1 * math.sin(pair.a.heading) - man.v2 * math.sin(pair.b.heading)
    speed = math.hypot(dvx, dvy)
    if speed == 0.0:
        raise ValueError("relative velocity vanishes (maneuver precondition violated)")
    return 2.0 * (math.hypot(pair.a.px - pair.b.px, pair.a.py - pair.b.py) / speed + 1.0)


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of f on [lo, hi] to interval width tol."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def h_oracle(
    pair: PairState,
    config: BarrierConfig,
    horizon: float | None = None,
    n: int = 4096,
    refine_tol: float = 1e-10,
) -> float:
    """Brute-force barrier value: dense n-point grid over [0, horizon] followed
    by golden-section refinement around the best grid cell.

    Domain errors from the safety function propagate.  The grid evaluation
    uses the batch closed-form trajectory only through the exact propagators,
    keeping the oracle independent of the CPA/phasor reductions it checks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    min_h = default_horizon(pair, config)
    if horizon is None:
        horizon = min_h
    elif horizon < min_h:
        raise ValueError(f"horizon {horizon} below required {min_h}")

    man = config.maneuver
    taus = np.linspace(0.0, horizon, n)
    if isinstance(man, TurnManeuver):
        th1 = pair.a.heading + man.turn_rate * taus
        th2 = pair.b.heading + man.turn_rate * taus
        r1, r2 = man.r1, man.r2
        ax = pair.a.px + r1 * (np.sin(th1) - math.sin(pair.a.heading))
        ay = pair.a.py + r1 * (-np.cos(th1) + math.cos(pair.a.heading))
        bx = pair.b.px + r2 * (np.sin(th2) - math.sin(pair.b.heading))
        by = pair.b.py + r2 * (-np.cos(th2) + math.cos(pair.b.heading))
        d = (ax - bx) ** 2 + (ay - by) ** 2
        de = config.safety.delta
        rad = d - 2.0 * de + de * np.sin(th1) - de * np.cos(th1)
        if np.any(rad < 0.0):
            raise DomainError("negative radicand along evading trajectory")
        rho = np.sqrt(rad) - config.safety.ds
    else:
        ax = pair.a.px + taus * man.v1 * math.cos(pair.a.heading)
        ay = pair.a.py + taus * man.v1 * math.sin(pair.a.heading)
        bx = pair.b.px + taus * man.v2 * math.cos(pair.b.heading)
        by = pair.b.py + taus * man.v2 * math.sin(pair.b.heading)
        rho = np.hypot(ax - bx, ay - by) - config.safety.ds

    i = int(np.argmin(rho))
    lo = taus[max(0, i - 1)]
    hi = taus[min(n - 1, i + 1)]
    _, refined = _golden_section(lambda t: _rho_along(pair, config, t), lo, hi, refine_tol)
    return min(float(rho[i]), refined)


# ---------------------------------------------------------------------------
# QP optimality verifier


def kkt_residual(problem: QPProblem, u: np.ndarray, active_tol: float = 1e-6) -> float:
    """Worst KKT violation at u with multipliers reconstructed by NNLS.

    Components: primal feasibility, stationarity of u - u_hat against the
    cone of near-active normals, dual feasibility (guaranteed by NNLS), and
    complementary slackness of the reconstructed multipliers.
    """
    u = np.asarray(u, dtype=float)
    A, b = problem.stacked()
    if A.shape[0] == 0:
        return float(np.linalg.norm(u - problem.u_hat, ord=np.inf))
    slack = A @ u - b
    primal = max(0.0, float(-slack.min()))
    act = np.where(slack <= active_tol)[0]
    grad = u - problem.u_hat
    if act.size:
        lam_act, _ = nnls(A[act].T, grad)
        stationarity = float(np.linalg.norm(grad - A[act].T @ lam_act, ord=np.inf))
        comp = float(np.max(lam_act * np.abs(slack[act]))) if lam_act.size else 0.0
    else:
        stationarity = float(np.linalg.norm(grad, ord=np.inf))
        comp = 0.0
    return max(primal, stationarity, comp)
