"""Sensor model, barrier shaping, and sensor-compatibility verification.

With an omnidirectional sensor of range R, a pair state is observable iff
its squared planar distance is at most R^2.  A barrier h built without
sensing in mind generally varies outside that set, so its admissible-control
constraint cannot be evaluated there.  The fix is to reshape h with a
quadratic interpolant psi so the shaped barrier

    h_shaped = h           for h <= beta*xi
             = psi(h)      for beta*xi < h < xi
             = psi(xi)     for h >= xi

is a positive constant wherever h >= xi.  If every unobservable state has
h > xi (for the synchronized-turn barrier this holds whenever
R > 2*r1 + 2*r2 + sqrt(ds^2 + 4*delta)), the shaped barrier needs no sensing
outside range: the constraint is vacuous there.

The interpolant must satisfy psi(beta*xi) = beta*xi, psi'(beta*xi) = 1 and
psi'(xi) = 0 so the shaped barrier stays continuously differentiable; the
quadratic

    psi(e) = c1*e^2 + c2*e + c3,   c1 = -1/(2*xi*(1-beta)),
    c2 = -2*xi*c1,  c3 = beta*xi - c1*(beta*xi)^2 - c2*beta*xi

does exactly that, with psi' > 0 and psi'' < 0 on (beta*xi, xi).

alpha2(h) = psi'(h)^-1 * alpha(psi(h)) is the effective class-K gain under
which the raw barrier reproduces the shaped constraint's sign; it dominates
alpha pointwise, which is why shaping only enlarges the admissible control
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    _ONE,
    _constant,
    BarrierConfig,
    PairState,
    SafetyParams,
    TurnManeuver,
    h_batch,
)
from .dynamics import VehicleState


@dataclass(frozen=True)
class SensorModel:
    """Omnidirectional sensor: a pair is observable iff their planar distance
    is at most range_m (boundary included)."""

    range_m: float

    def __post_init__(self):
        if not self.range_m > 0.0:  # also rejects NaN
            raise ValueError("require range_m > 0")


def in_sensor_set(d2: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Whether each pair is observable, from its squared planar distance d2
    and the squared sensing range r2: the boundary is included."""
    return d2 <= r2


@dataclass(frozen=True)
class ShapingParams:
    """The quadratic interpolant for (xi, beta): its coefficients c1, c2, c3
    are derived at construction so that psi meets the blending conditions at
    beta*xi and xi (see module docstring).  They take no part in comparison,
    and must be finite floats, which rules out an xi so small that
    2*xi*(1 - beta) underflows.  arrays holds (xi, beta*xi, c1, c2, c3, 2*c1)
    as 0-d float64 arrays, the operands of shape_h and psi_deriv_batch
    (see barrier)."""

    xi: float
    beta: float
    c1: float = field(init=False, compare=False)
    c2: float = field(init=False, compare=False)
    c3: float = field(init=False, compare=False)
    arrays: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        xi, beta = self.xi, self.beta
        if not 0.0 < xi < math.inf:  # also rejects NaN
            raise ValueError("require 0 < xi < inf")
        if not (0.0 < beta < 1.0):
            raise ValueError("require 0 < beta < 1")
        span = 2.0 * xi * (1.0 - beta)
        c1 = -1.0 / span if span else -math.inf
        c2 = -2.0 * xi * c1
        bx = beta * xi
        c3 = bx - c1 * bx * bx - c2 * bx
        if not all(map(math.isfinite, (c1, c2, c3))):
            raise ValueError(f"require finite psi coefficients, got c1={c1!r} c2={c2!r} "
                             f"c3={c3!r} for xi={xi!r} beta={beta!r}")
        arrays = tuple(map(_constant, (xi, bx, c1, c2, c3, 2.0 * c1)))
        # frozen: the derived fields are set past the dataclass's __setattr__
        vars(self).update(c1=c1, c2=c2, c3=c3, arrays=arrays)


def shape_h(h: np.ndarray, params: ShapingParams) -> np.ndarray:
    """Shaped barrier value: h up to beta*xi, psi(h) up to xi, and the
    plateau psi(xi) beyond (NaN passes through)."""
    xi, bx, c1, c2, c3, _ = params.arrays
    e = np.minimum(h, xi)
    quad = (c1 * e + c2) * e + c3
    return np.where(e <= bx, e, quad)


def psi_deriv_batch(eta: np.ndarray, params: ShapingParams) -> np.ndarray:
    """Interpolant slope psi'(eta): 1 up to beta*xi, 2*c1*eta + c2 beyond."""
    _, bx, _, c2, _, two_c1 = params.arrays
    return np.where(eta <= bx, _ONE, two_c1 * eta + c2)


def min_sensing_range(m: TurnManeuver, params: SafetyParams) -> float:
    """Smallest sensor range for which the shaped turn barrier can be made
    sensor compatible:  R_min = 2*r1 + 2*r2 + sqrt(ds^2 + 4*delta).

    Outside range the synchronized turn can shrink the planar distance by at
    most 2*r1 + 2*r2, so requiring
    sqrt((R - 2*r1 - 2*r2)^2 - 4*delta) - ds > 0 bounds the worst future
    safety value from below.
    """
    try:
        return 2.0 * m.r1 + 2.0 * m.r2 + math.sqrt(params.ds**2 + 4.0 * params.delta)
    except OverflowError:  # from ds**2
        raise ValueError(f"require ds**2 finite for R_min, got ds = {params.ds!r}") from None


def xi_from_range(R: float, m: TurnManeuver, params: SafetyParams) -> float:
    """Largest provably valid shaping threshold for sensor range R:
    xi = sqrt((R - 2*r1 - 2*r2)^2 - 4*delta) - ds.

    Raises for R at or below min_sensing_range (no positive xi exists) and
    for an R with no finite xi (R not finite, or so large that xi overflows).
    """
    rmin = min_sensing_range(m, params)
    if R <= rmin:
        raise ValueError(f"no positive xi exists: R = {R} <= R_min = {rmin}")
    reach = R - 2.0 * m.r1 - 2.0 * m.r2
    xi = math.sqrt(reach * reach - 4.0 * params.delta) - params.ds
    if not xi < math.inf:  # also NaN
        raise ValueError(f"auto shaping needs a finite sensor range with a finite xi, got R = {R}")
    return xi


def analytic_compatible(
    config: BarrierConfig, shaping: ShapingParams | None, sensor: SensorModel
) -> bool:
    """The analytic sensor-compatibility condition: the shaped turn barrier
    with R > R_min and xi <= xi(R).  It bounds h above xi at every pair
    outside the sensor set, so the shaped barrier is constant there.  The
    raw barrier (shaping None) and the straight barrier never meet it (a
    head-on straight pair outside range has h = -ds < 0 < xi)."""
    if shaping is None or config.kind != "turn":
        return False
    try:
        return shaping.xi <= xi_from_range(sensor.range_m, config.maneuver, config.safety)
    except ValueError:  # R <= R_min, R not finite, or xi(R) overflows: nothing is shown
        return False


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of a sensor-compatibility check.

    ok requires both the sampled search to find no witness and, for the turn
    barrier, the analytic range condition R > R_min with xi <= xi(R).  A
    witness is a pair state outside the sensor set whose barrier value is not
    above xi (or is undefined), so the shaped barrier would not be constant
    there.
    """

    ok: bool
    samples: int
    analytic_ok: bool
    witness: PairState | None = None
    witness_h: float | None = None
    min_h_outside: float = math.inf


def _heading_grid_min(config: BarrierConfig, d: float, th1s, th2s):
    """Minimum of h over a heading-pair grid at separation d (vehicle 1 at the
    origin, vehicle 2 on the +x axis).  Returns (min_h, th1, th2); min_h is
    -inf when h is undefined somewhere on the grid."""
    g1, g2 = np.meshgrid(th1s, th2s, indexing="ij")
    g1, g2 = g1.ravel(), g2.ravel()
    zeros = np.zeros_like(g1)
    hs = h_batch((zeros, zeros, g1, np.full_like(g1, d), zeros, g2), config)
    bad = ~np.isfinite(hs)
    if np.any(bad):
        i = int(np.argmax(bad))
        return -math.inf, float(g1[i]), float(g2[i])
    i = int(np.argmin(hs))
    return float(hs[i]), float(g1[i]), float(g2[i])


def _worst_case_probe(config: BarrierConfig, R: float) -> tuple[float, PairState]:
    """Adversarial search for the lowest h just outside sensing range.

    Coarse heading-pair grid followed by one local refinement, at several
    separations approaching R from above.  Covers the head-on straight-line
    collision course as well as the near-tangent synchronized-turn worst
    case without kind-specific geometry.
    """
    best = (math.inf, 0.0, 0.0, R)
    coarse = np.linspace(-math.pi, math.pi, 90, endpoint=False)
    step = coarse[1] - coarse[0]
    for eps in (1e-9, 1e-3, 0.1):
        d = R * (1.0 + eps)
        h0, t1, t2 = _heading_grid_min(config, d, coarse, coarse)
        if math.isfinite(h0):
            fine1 = np.linspace(t1 - 1.5 * step, t1 + 1.5 * step, 60)
            fine2 = np.linspace(t2 - 1.5 * step, t2 + 1.5 * step, 60)
            hf, tf1, tf2 = _heading_grid_min(config, d, fine1, fine2)
            if hf < h0:
                h0, t1, t2 = hf, tf1, tf2
        if h0 < best[0]:
            best = (h0, t1, t2, d)
    h0, t1, t2, d = best
    pair = PairState(VehicleState(0.0, 0.0, t1, 0.0), VehicleState(d, 0.0, t2, 0.0))
    return h0, pair


def check_sensor_compatible(
    config: BarrierConfig,
    shaping: ShapingParams,
    sensor: SensorModel,
    sample_count: int = 100_000,
    seed: int = 42,
) -> CompatibilityReport:
    """Sampled verification that the shaped barrier is constant outside the
    sensor set: every sampled pair outside range must have h > xi.

    Random pairs are drawn just outside range (distances in (R, 2R]), where
    violations live if they exist, and a handful of adversarial worst-case
    geometries is always probed.  The analytic bound (analytic_compatible)
    is also evaluated.
    """
    if sample_count < 1:
        raise ValueError("require sample_count >= 1")
    R = sensor.range_m
    analytic_ok = analytic_compatible(config, shaping, sensor)

    probe_h, probe_pair = _worst_case_probe(config, R)
    min_h = probe_h
    if not (probe_h > shaping.xi):  # also triggers on -inf (h undefined)
        return CompatibilityReport(False, 0, analytic_ok, probe_pair, probe_h, min_h)

    rng = np.random.default_rng(seed)
    checked = 0
    batch = 20_000
    while checked < sample_count:
        n = min(batch, sample_count - checked)
        d = rng.uniform(R, 2.0 * R, n)
        ang = rng.uniform(-math.pi, math.pi, n)
        th1 = rng.uniform(-math.pi, math.pi, n)
        th2 = rng.uniform(-math.pi, math.pi, n)
        zeros = np.zeros(n)
        hs = h_batch((zeros, zeros, th1, d * np.cos(ang), d * np.sin(ang), th2), config)
        bad = ~(hs > shaping.xi)  # catches NaN (undefined h) as well
        if np.any(bad):
            i = int(np.argmax(bad))
            pair = PairState(
                VehicleState(0.0, 0.0, float(th1[i]), 0.0),
                VehicleState(
                    float(d[i] * math.cos(ang[i])),
                    float(d[i] * math.sin(ang[i])),
                    float(th2[i]),
                    0.0,
                ),
            )
            hv = float(hs[i]) if math.isfinite(hs[i]) else -math.inf
            finite = hs[np.isfinite(hs)]
            if finite.size:
                min_h = min(min_h, float(np.min(finite)))
            return CompatibilityReport(False, checked + n, analytic_ok, pair, hv, min_h)
        min_h = min(min_h, float(np.min(hs)))
        checked += n

    return CompatibilityReport(analytic_ok, checked, analytic_ok, None, None, min_h)
