"""Fixed-wing kinematic model: vehicle state, actuator box and RK4 step.

State of one vehicle: [px, py, heading, pz] with

    px_dot = v * cos(heading)
    py_dot = v * sin(heading)
    heading_dot = omega
    pz_dot = zeta

where v is airspeed, omega the turn rate and zeta the climb rate.
Headings are kept wrapped to (-pi, pi].  Simulations integrate with a
classical RK4 step; the exact constant-input trajectories (circular arcs /
straight lines) that the tests compare it with are in tests/reference.py.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from math import cos, isfinite, sin
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    w = (theta + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


class _VehicleStateFields(NamedTuple):
    px: float
    py: float
    heading: float
    pz: float = 0.0


class VehicleState(_VehicleStateFields):
    """Planar position, heading and altitude of one vehicle (SI units).

    An immutable named tuple of finite fields; the heading is wrapped to
    (-pi, pi] on construction."""

    __slots__ = ()

    def __new__(cls, px, py, heading, pz=0.0):
        if isfinite(px) and isfinite(py) and isfinite(heading) and isfinite(pz):
            return tuple.__new__(cls, (px, py, wrap_angle(heading), pz))
        raw = tuple.__new__(cls, (px, py, heading, pz))
        raise ValueError(f"non-finite state field in {raw!r}")

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)


@dataclass(frozen=True)
class ActuatorLimits:
    """Box bounds on the control input: v in [v_min, v_max], |omega| <= omega_max,
    |zeta| <= zeta_max."""

    v_min: float
    v_max: float
    omega_max: float
    zeta_max: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise ValueError("require 0 < v_min <= v_max")
        if not self.omega_max > 0.0:  # also rejects NaN
            raise ValueError("require omega_max > 0")
        if not self.zeta_max >= 0.0:
            raise ValueError("require zeta_max >= 0")

    def contains(self, u: Sequence[float]) -> bool:
        """Whether the (speed, turn_rate, climb_rate) triple u lies in the box."""
        speed, turn_rate, climb_rate = u
        return (
            self.v_min <= speed <= self.v_max
            and abs(turn_rate) <= self.omega_max
            and abs(climb_rate) <= self.zeta_max
        )


def step_rk4(state: VehicleState, u: Sequence[float], dt: float) -> VehicleState:
    """One classical 4th-order Runge-Kutta step with the input u = (speed,
    turn rate, climb rate) held constant, any 3-sequence of floats.

    Heading is re-wrapped after the step.  dt must be positive.  A result
    with a non-finite field, an overflowed heading included, raises
    ValueError naming the state.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")
    # heading evolves linearly (heading_dot = omega is state-independent),
    # so the RK4 stage headings are exact samples of the true heading.
    v, om, ze = u
    px, py, th, pz = state
    th2 = th + 0.5 * dt * om
    th4 = th + dt * om

    try:
        k1x, k1y = v * cos(th), v * sin(th)
        k2x, k2y = v * cos(th2), v * sin(th2)
        k4x, k4y = v * cos(th4), v * sin(th4)
    except ValueError:  # an overflowed heading; VehicleState rejects it by name
        return VehicleState(math.nan, math.nan, th4, pz + dt * ze)
    k3x, k3y = k2x, k2y

    px = px + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    py = py + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    pz = pz + dt * ze
    # VehicleState's own checks and heading wrap, without the class call
    return VehicleState.__new__(VehicleState, px, py, th4, pz)
