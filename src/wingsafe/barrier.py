"""Pairwise safety functions, evading maneuvers, and worst-case barriers.

A barrier value for a vehicle pair is the worst (lowest) future value of a
safety function rho along the trajectory generated by a fixed evading
maneuver:

    h(x) = inf_{tau >= 0} rho(x_hat(tau))

Two maneuver/safety-function families are supported:

* straight: both vehicles hold heading at fixed speeds (v1 != v2) and the
  safety function is  rho = sqrt(d12) - D_s  with d12 the squared planar
  distance.  The infimum is the classical closest-point-of-approach (CPA)
  of two constant-velocity points.

* turn: both vehicles turn at the same rate w > 0 with speeds sigma*v and v
  (circle radii r1 = sigma*v/w, r2 = v/w) and the safety function carries a
  heading-dependent regularization:
  rho = sqrt(d12 - 2*delta + delta*sin(th1) - delta*cos(th1)) - D_s.
  Because both headings advance at the common rate w, the expression under
  the square root reduces to  A + M*cos(w*tau - phi)  (two same-frequency
  sinusoids combined by phasor addition), so the infimum is sqrt(A - M) - D_s.

Gradients are obtained with the envelope theorem: differentiate
rho(x_hat(tau*)) through the closed-form trajectory map holding the
minimizing time tau* fixed.  The tests check both closed forms against a
brute-force oracle (dense time grid plus golden-section refinement along the
exact trajectories) in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Union

import numpy as np

from .dynamics import VehicleState

BarrierKind = Literal["turn", "straight"]


def _constant(x) -> np.ndarray:
    """x as a read-only float64 array.  Constant operands of the array code
    are such arrays: a ufunc converts a Python float afresh on every call,
    which costs as much as the call itself on one pair."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PairState:
    """States of the two vehicles of one pair; the (a, b) order fixes which
    vehicle plays role 1 / role 2 of the maneuver for the whole run."""

    a: VehicleState
    b: VehicleState


@dataclass(frozen=True)
class TurnManeuver:
    """Synchronized constant-rate turn: vehicle 1 flies at sigma*v, vehicle 2
    at v, both turning at rate turn_rate > 0 (climb rates zero)."""

    sigma: float
    speed: float
    turn_rate: float

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("require 0 < sigma <= 1")
        for name in ("speed", "turn_rate"):
            if not abs(getattr(self, name)) < math.inf:  # also rejects NaN
                raise ValueError(f"require finite {name}")
        if not self.turn_rate > 0.0:
            raise ValueError("require turn_rate > 0")
        if not self.speed > 0.0:
            raise ValueError("require speed > 0")
        # the turn sweeps the pair's distance by at most 2 * (r1 + r2) (see R_min)
        if not 2.0 * (self.r1 + self.r2) < math.inf:
            raise ValueError(f"require finite 2 * (r1 + r2), got r1 = {self.r1!r}, r2 = {self.r2!r}")

    @property
    def r1(self) -> float:
        return self.sigma * self.speed / self.turn_rate

    @property
    def r2(self) -> float:
        return self.speed / self.turn_rate

    def controls(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Per-vehicle (speed, turn_rate, climb_rate) of the maneuver."""
        return (
            (self.sigma * self.speed, self.turn_rate, 0.0),
            (self.speed, self.turn_rate, 0.0),
        )


@dataclass(frozen=True)
class StraightManeuver:
    """Both vehicles hold heading at positive airspeeds; speeds must differ
    so the relative velocity can never vanish."""

    v1: float
    v2: float
    zeta1: float = 0.0
    zeta2: float = 0.0

    def __post_init__(self):
        for name in ("v1", "v2", "zeta1", "zeta2"):
            if not abs(getattr(self, name)) < math.inf:  # also rejects NaN
                raise ValueError(f"require finite {name}")
        if not (self.v1 > 0.0 and self.v2 > 0.0):  # also rejects -0.0
            raise ValueError("require v1 > 0 and v2 > 0")
        if self.v1 == self.v2:
            raise ValueError("require v1 != v2")

    def controls(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        return ((self.v1, 0.0, self.zeta1), (self.v2, 0.0, self.zeta2))


Maneuver = Union[TurnManeuver, StraightManeuver]


@dataclass(frozen=True)
class SafetyParams:
    """delta: regularization scalar (m^2) of the turn safety function;
    ds: minimum allowed inter-vehicle distance (m)."""

    delta: float
    ds: float

    def __post_init__(self):
        if not self.delta > 0.0:  # also rejects NaN
            raise ValueError("require delta > 0")
        if not self.ds > 0.0:
            raise ValueError("require ds > 0")


@dataclass(frozen=True)
class LinearGain:
    """Linear extended class-K gain alpha(h) = slope * h.

    Linear gains have a non-increasing derivative everywhere, which is what
    the permissiveness comparison of the shaped barrier requires.
    """

    slope: float = 1.0
    _slope: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.slope < math.inf:  # also rejects NaN
            raise ValueError("require 0 < slope < inf")
        vars(self)["_slope"] = _constant(self.slope)  # frozen: set past __setattr__

    def __call__(self, value: float) -> float:
        return self._slope * value


@dataclass(frozen=True)
class BarrierConfig:
    """Maneuver plus safety parameters; the barrier kind is implied by the
    maneuver type."""

    maneuver: Maneuver
    safety: SafetyParams
    # what lie_derivatives multiplies by, as float64 arrays: (r1, -r2, delta/2)
    # of the turn, each 0-d, or [-v1, v2] of the straight kind
    lie_constants: tuple | np.ndarray = field(init=False, compare=False, repr=False)
    # 2*delta as a 0-d float64 array, the turn radicand's offset in h_value
    two_delta: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # The turn radicand A - M is a difference of terms of size up to
        # 4 * (r1 + r2)^2, so it carries a rounding error of up to that times
        # 2^-52; once that reaches ds^2, h near zero is rounding noise.
        man, ds = self.maneuver, self.safety.ds
        if isinstance(man, TurnManeuver) and 4.0 * (r := man.r1 + man.r2) * r >= ds * ds / 2.0**-52:
            raise ValueError(f"require 4 * (r1 + r2)^2 < ds^2 * 2^52, got r1 = {man.r1!r}, "
                             f"r2 = {man.r2!r}, ds = {ds!r}")
        if isinstance(man, TurnManeuver):
            lie = tuple(map(_constant, (man.r1, -man.r2, 0.5 * self.safety.delta)))
        else:
            lie = _constant([-man.v1, man.v2])
        # frozen: the derived fields are set past the dataclass's __setattr__
        vars(self).update(lie_constants=lie, two_delta=_constant(2.0 * self.safety.delta))

    @property
    def kind(self) -> BarrierKind:
        return "turn" if isinstance(self.maneuver, TurnManeuver) else "straight"


# ---------------------------------------------------------------------------
# closed forms over arrays of pairs
#
# Vehicles enter as complex phasor rows [z, e, conj(e), (1 - i)*conj(e)]:
# position z = px + i*py, heading phasor e = cos(th) + i*sin(th); one
# weighted difference of two vehicles' rows then yields every row a pass
# reads (see pair_rows).  g, shape (2, 4, P), holds the rows of every pair's
# first (g[0]) and second (g[1]) vehicle; the straight kind reads only its
# first two.
_ZERO, _ONE, _TINY, _NAN = map(_constant, (0.0, 1.0, 5e-324, math.nan))


def phasor_rows(states) -> np.ndarray:
    """Phasor rows (N, 4) of vehicle states, one row per vehicle."""
    flat = []  # each vehicle's 8 floats in turn: one np.array call, not one per row
    for px, py, th, _ in states:
        c, sn = math.cos(th), math.sin(th)
        flat += (px, py, c, sn, c, -sn, c - sn, -(sn + c))
    return np.array(flat, dtype=float).reshape(-1, 8).view(complex)


def role_weights(config: BarrierConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-role weights of the phasor rows, for pair_rows; FilterRun
    computes them once per run."""
    man = config.maneuver
    if isinstance(man, TurnManeuver):
        de = config.safety.delta
        return (
            np.array([[1.0], [1j * man.r1], [2j * man.r1], [de]]),
            np.array([[1.0], [1j * man.r2], [2j * man.r2], [0.0]]),
        )
    return np.array([[1.0], [man.v1]]), np.array([[1.0], [man.v2]])


def pair_rows(g, weights: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The rows y the closed forms read, from C-contiguous pair phasor rows
    g (2, R, P), R at least the weights' length, and the barrier's
    role_weights: for the turn [dz, i*v, 2i*conj(v), delta*(1 - i)*conj(e1)]
    with v = r1*e1 - r2*e2, for the straight kind [dz, dv] with
    dv = v1*e1 - v2*e2.  y is C-contiguous, as the passes' float views need."""
    if not g.flags.c_contiguous:
        raise ValueError(f"pair_rows needs C-contiguous pair phasor rows g, got shape {g.shape} "
                         f"and strides {g.strides}")
    wa, wb = weights
    return np.subtract(g[0, : len(wa)] * wa, g[1, : len(wb)] * wb)


def flat_pair_rows(pair_arrays, config: BarrierConfig) -> np.ndarray:
    """pair_rows computed from pair_arrays = (apx, apy, ath, bpx, bpy, bth) row
    by row: the same values, with less memory traffic than the phasor rows
    on large batches."""
    apx, apy, ath, bpx, bpy, bth = pair_arrays
    c1, s1, c2, s2 = np.cos(ath), np.sin(ath), np.cos(bth), np.sin(bth)
    man = config.maneuver
    y = np.empty((4 if isinstance(man, TurnManeuver) else 2, len(c1)), complex)
    y[0].real, y[0].imag = apx - bpx, apy - bpy
    if isinstance(man, TurnManeuver):
        de = config.safety.delta
        y[1].real, y[1].imag = man.r2 * s2 - man.r1 * s1, man.r1 * c1 - man.r2 * c2
        np.multiply(y[1].conj(), -2.0, out=y[2])  # 2i*conj(v) = -2*conj(i*v)
        y[3].real, y[3].imag = (c1 - s1) * de, -(s1 + c1) * de
    else:
        y[1].real, y[1].imag = man.v1 * c1 - man.v2 * c2, man.v1 * s1 - man.v2 * s2
    return y


class TurnPass(NamedTuple):
    """Turn barrier per pair: d2 = |dz|^2, distance term s = sqrt(rad) (h = s - ds;
    NaN where the radicand's infimum rad is negative), the pair rows y, and
    the phasor pq with modulus M."""

    d2: np.ndarray
    s: np.ndarray
    rad: np.ndarray
    y: np.ndarray
    pq: np.ndarray
    M: np.ndarray


class StraightPass(NamedTuple):
    """Straight barrier per pair: d2 = |dz|^2, distance term s = |d| (h = s - ds),
    relative position d at the closest-approach time tau, and p0 . dv."""

    d2: np.ndarray
    s: np.ndarray
    d: np.ndarray
    tau: np.ndarray
    proj: np.ndarray


def _turn_phasor(y, two_delta: np.ndarray) -> TurnPass:
    """radicand(tau) = A + Re(conj(pq) * exp(i*w*tau)), infimum A - M, M = |pq|.

    Each turn circle's center is c_k = p_k + i*r_k*e_k; along the maneuver
    the relative position is  dc - i*exp(i*w*tau)*v  with dc = c1 - c2 and
    v = r1*e1 - r2*e2, so A = |dc|^2 + |v|^2 - 2*delta and the cross term is
    2*Re(conj(dc)*(-i)*v*exp(i*w*tau)); the heading terms of the safety
    function add delta*Re(-(1 + i)*e1*exp(i*w*tau)).  In real form
    pq = P + iQ with radicand = A + P*cos(w tau) + Q*sin(w tau).  two_delta
    is 2*delta as a 0-d array (BarrierConfig.two_delta).
    """
    sq = np.square(y[:2].view(float))
    d2v2 = sq[:, 0::2] + sq[:, 1::2]
    d2, v2 = d2v2[0], d2v2[1]  # |dz|^2, |v|^2 (indexing, not unpacking: iterating costs more)
    dc = y[0] + y[1]
    dcq = np.square(dc.view(float))
    A = dcq[0::2] + dcq[1::2] + v2 - two_delta
    pq = dc * y[2] - y[3]
    M = np.abs(pq)
    rad = A - M
    s = np.sqrt(np.where(rad >= _ZERO, rad, _NAN))
    return TurnPass(d2, s, rad, y, pq, M)


def _straight_relative(y) -> StraightPass:
    """Closest approach of the constant-velocity pair:
    tau* = max(0, -p0 . dv / |dv|^2)."""
    dz, dv = y
    proj = dz.real * dv.real + dz.imag * dv.imag
    tau = np.maximum(0.0, -proj / (dv.real**2 + dv.imag**2))
    d = dz + tau * dv
    return StraightPass(dz.real**2 + dz.imag**2, np.abs(d), d, tau, proj)


def h_value(y, config: BarrierConfig) -> TurnPass | StraightPass:
    """The closed-form barrier of every pair from its rows y (see pair_rows),
    as the pass that lie_derivatives reads: h = s - ds, with s NaN where the
    pair lies outside the barrier's domain (see domain_errors)."""
    if isinstance(config.maneuver, TurnManeuver):
        return _turn_phasor(y, config.two_delta)
    return _straight_relative(y)


def lie_derivatives(p: TurnPass | StraightPass, e, config: BarrierConfig):
    """(n, L_g h) of the pairs of a pass: n is the unit relative position at
    the minimizing time (complex), so dh/dp1 = (n.real, n.imag) = -dh/dp2,
    and L_g h is (P, 6) over the stacked control (v1, w1, zeta1, v2, w2, zeta2).

    With the driftless factorization x_dot = g(x) u, L_f h = 0 and
    L_g h = grad_h . g(x); the zeta columns vanish because the safety
    functions are planar.  By the envelope theorem the minimizing time tau*
    is stationary (interior minimizer) or locally constant (tau* = 0 with the
    distance diverging), so the gradient equals that of rho(x_hat(tau*)) with
    tau* held fixed.  A row with s = 0, NaN or subnormal has non-finite
    entries, and floating-point warnings unless the caller silences them with
    np.errstate.  Of a turn pass it reads s, y[:2], pq and M; of a straight
    one s, d and tau.
    """
    lg = np.zeros((len(e), 6))  # e: (P, 2) heading phasors e1, e2
    if isinstance(p, StraightPass):
        n = p.d / p.s
        w = n.conj()[:, None] * e
        lg[:, 1::3] = w.imag * (p.tau[:, None] * config.lie_constants)  # columns 1 and 4
    else:
        r1, neg_r2, half_delta = config.lie_constants
        # exp(i*w*tau*) - 1, from the minimizer condition exp(i*w*tau*) = -pq/M
        qm1 = -(p.pq + p.M) / np.maximum(p.M, _TINY)  # 0 where M = 0 (pq = 0)
        n = (p.y[0] - qm1 * p.y[1]) / p.s
        w = n.conj()[:, None] * e
        wq = (w * qm1[:, None]).real
        # plus the heading term of the turn rho: delta*(cos + sin)(th1 + w tau*) / (2 s)
        e1q = e[:, 0] + e[:, 0] * qm1
        lg[:, 1] = r1 * wq[:, 0] + half_delta * (e1q.real + e1q.imag) / p.s
        lg[:, 4] = neg_r2 * wq[:, 1]
    lg[:, 0], lg[:, 3] = w[:, 0].real, -w[:, 1].real
    return n, lg


def domain_errors(
    p: TurnPass | StraightPass, config: BarrierConfig, need_grad
) -> list[tuple[int, str]]:
    """(row, message) per pair whose barrier is undefined (negative radicand)
    or, where need_grad is set, whose gradient is undefined (s == 0)."""
    undefined = np.isnan(p.s)
    rows = np.flatnonzero(undefined | (need_grad & (p.s == 0.0)))
    if config.kind == "turn":
        no_gradient = "gradient undefined at the domain boundary"
    else:
        no_gradient = "coincident closest approach; gradient undefined"
    return [
        (k, f"negative radicand {float(p.rad[k])} in turn barrier" if undefined[k] else no_gradient)
        for k in rows.tolist()
    ]


# pairs per barrier pass in h_batch: the (4, 2048) complex rows take 128 KiB,
# glibc's default threshold for mapping fresh pages per allocation, so the
# pass's temporaries stay cache resident and are reused between chunks
H_BATCH_CHUNK = 2048


def h_batch(pair_arrays, config: BarrierConfig) -> np.ndarray:
    """Barrier values over arrays of pair states, pair_arrays =
    (apx, apy, ath, bpx, bpy, bth); NaN where the radicand is negative
    instead of raising."""
    arrays = [np.asarray(a, dtype=float) for a in pair_arrays]
    h = np.empty(arrays[0].shape)
    for i in range(0, h.size, H_BATCH_CHUNK):
        chunk = [a[i : i + H_BATCH_CHUNK] for a in arrays]
        h[i : i + H_BATCH_CHUNK] = h_value(flat_pair_rows(chunk, config), config).s
    return h - config.safety.ds
