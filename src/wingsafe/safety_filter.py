"""Assembly of per-pair barrier constraints and the minimal-deviation filter.

Each sensed pair contributes one linear constraint on the stacked control:

    Lg_shaped . u_pair + alpha(h_shaped) >= 0

where Lg_shaped = psi'(h) * Lg h below the shaping threshold and the zero
row on the plateau (vacuously satisfied there since alpha(psi(xi)) > 0).
Pairs outside the sensor set contribute nothing: for a sensor-compatible
barrier every control is admissible there, so no constraint needs to be
evaluated - which is the whole point, since h could not be computed without
sensing anyway.

All pairs (i < j) are evaluated in one array pass in lexicographic order;
gradients are computed only for the rows that can bind (sensed, barrier
defined, and below the shaping threshold - or every such row of the raw
barrier).

Modes:

* centralized: one QP over all vehicles' stacked controls with one row per
  sensed pair, warm-started from a hint of its active set (the previous
  step's, see FilterResult.active).
* split: per-vehicle QPs.  A pair row is divided between its two vehicles:
  each enforces its own Lie-derivative share plus half the class-K offset,
  with a symmetrization term that charges the neighbor's contribution at the
  neighbor's evading-maneuver control.  Satisfying both halves implies the
  full pair row, and each half is always satisfiable by the vehicle's own
  evading control when the pair is safe.
* off: nominal controls pass through (clamped).

On QP infeasibility (or a barrier domain error) the affected vehicles fall
back to their evading-maneuver control, which FilterConfig checks lies in
the actuator box; the event is reported, never raised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .barrier import (
    BarrierConfig,
    DomainError,
    LinearGain,
    PairState,
    StraightPass,
    TurnPass,
    barrier_pass,
    domain_errors,
    lie_rows,
    maneuver_control_vector,
    pair_rows,
    phasor_rows,
)
from .dynamics import ActuatorLimits, ControlInput, VehicleState, clamp_input
from .qp import ConstraintRow, QPInfeasibleError, QPProblem, solve_qp
from .shaping import SensorModel, ShapingParams, psi_deriv_batch, shape_h_batch


@dataclass(frozen=True)
class FilterConfig:
    """Everything the filter needs besides the world state."""

    barrier: BarrierConfig
    sensor: SensorModel
    limits: ActuatorLimits
    gain: LinearGain = LinearGain(1.0)
    shaping: ShapingParams | None = None  # None = raw barrier (no reshaping)

    def __post_init__(self):
        # The barrier's guarantee is the evading maneuver; it must be an
        # actually flyable control, else the fallback silently stops being
        # the maneuver the barrier reasons about.
        for u in self.barrier.maneuver.controls():
            if clamp_input(ControlInput(*u), self.limits) != ControlInput(*u):
                raise ValueError(
                    f"evading maneuver control {u} lies outside the actuator box"
                )


@dataclass
class FilterResult:
    """Filtered controls plus one entry per pair (i < j), in the order of
    pair_index: raw barrier h and shaped barrier h_shaped (NaN outside the
    barrier domain), the pair-row margin under the final controls (NaN where
    the pair constrains nothing: unsensed, undefined, or mode off), and
    whether the pair is in the sensor set.

    active lists the constraints with a positive multiplier at the
    centralized QP optimum, as stable ids: the pair number for a pair row,
    P + the stacked face index for an actuator box face (P pairs).  It is
    empty when no centralized QP ran or it was infeasible.  Passed as the
    next step's hint, it warm-starts that step's QP."""

    controls: list[ControlInput]
    h: np.ndarray
    h_shaped: np.ndarray
    margin: np.ndarray
    in_sensor: np.ndarray
    events: list[str] = field(default_factory=list)
    fallback: set[int] = field(default_factory=set)
    active: list[int] = field(default_factory=list)


@lru_cache(maxsize=None)
def pair_index(n: int) -> np.ndarray:
    """Vehicle indices of all pairs i < j in lexicographic order, as the
    (2, P) array [i, j]."""
    idx = np.array(np.triu_indices(n, 1)).reshape(2, -1)
    idx.flags.writeable = False
    return idx


class PairPass(NamedTuple):
    """The array pass over all pairs (see pair_index), and which rows carry a
    gradient if sensed: below the shaping threshold, or every defined row of
    the raw barrier."""

    g: np.ndarray
    barrier: TurnPass | StraightPass
    in_sensor: np.ndarray
    h: np.ndarray
    h_shaped: np.ndarray
    lie: np.ndarray


def pair_pass(world: list[VehicleState], config: FilterConfig) -> PairPass:
    g = phasor_rows(world).take(pair_index(len(world)), 1).transpose(1, 0, 2)
    b = barrier_pass(pair_rows(g, config.barrier), config.barrier)
    h = b.s - config.barrier.safety.ds
    if config.shaping is None:
        h_shaped, lie = h, b.s >= 0.0
    else:
        h_shaped, lie = shape_h_batch(h, config.shaping), h < config.shaping.xi
    r2 = config.sensor.range_m * config.sensor.range_m
    return PairPass(g, b, b.d2 <= r2, h, h_shaped, lie)


def _shaped_rows(p: PairPass, rows, config: FilterConfig) -> np.ndarray:
    """Constraint coefficients psi'(h) * L_g h of the given rows, all of which
    lie below the shaping threshold."""
    e = p.g[:, 1].take(rows, 1).T  # heading phasors e1, e2 of the rows
    b = type(p.barrier)(*(a.take(rows, -1) for a in p.barrier))  # the pass at the rows
    _, lg = lie_rows(b, e, config.barrier)
    if config.shaping is not None:
        lg *= psi_deriv_batch(p.h.take(rows), config.shaping)[:, None]
    return lg


def assemble_pair_constraint(pair: PairState, config: FilterConfig) -> ConstraintRow | None:
    """Barrier constraint row over the pair's stacked control
    (v1, w1, zeta1, v2, w2, zeta2), or None when the pair is outside the
    sensor set.  Barrier domain errors propagate to the caller."""
    p = pair_pass([pair.a, pair.b], config)
    if not p.in_sensor[0]:
        return None
    for _, msg in domain_errors(p.barrier, config.barrier, p.lie):
        raise DomainError(msg)
    lg = _shaped_rows(p, [0], config)[0] if p.lie[0] else np.zeros(6)
    return ConstraintRow(lg, config.gain(p.h_shaped[0]))


@lru_cache(maxsize=None)
def _box(limits: ActuatorLimits, n_vehicles: int):
    """Read-only bounds of the stacked control, and the number of finite
    faces (the box rows of the QP)."""
    lo = np.array([limits.v_min, -limits.omega_max, -limits.zeta_max] * n_vehicles)
    hi = np.array([limits.v_max, limits.omega_max, limits.zeta_max] * n_vehicles)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi, int(np.isfinite(lo).sum() + np.isfinite(hi).sum())


def _control_array(controls: list[ControlInput]) -> np.ndarray:
    return np.array([(c.speed, c.turn_rate, c.climb_rate) for c in controls], dtype=float)


def filter_controls(
    world: list[VehicleState],
    nominal: list[ControlInput],
    config: FilterConfig,
    mode: str = "centralized",
    hint: Sequence[int] = (),
) -> FilterResult:
    """Filter nominal controls through the barrier QP.

    Barrier values are recorded for every pair (the simulator is omniscient
    even where the vehicles are not), but only sensed pairs constrain the QP.
    hint, in the ids of FilterResult.active (usually the previous step's),
    is the centralized QP's guess of its active set; it does not change the
    result beyond the solver's tolerance.  Ids naming no constraint of this
    step are ignored.
    """
    if mode not in ("centralized", "split", "off"):
        raise ValueError(f"unknown filter mode {mode!r}")
    n = len(world)
    if len(nominal) != n:
        raise ValueError("one nominal control per vehicle required")
    controls = [clamp_input(u, config.limits) for u in nominal]
    p = pair_pass(world, config)
    result = FilterResult(controls, p.h, p.h_shaped, None, p.in_sensor)  # margin set below
    ok = p.in_sensor  # sensed rows whose constraint can be evaluated
    failed_rows = []  # sensed rows whose constraint cannot be evaluated
    if not p.barrier.s.min(initial=np.inf) > 0.0:  # some barrier may be undefined (NaN)
        ii, jj = pair_index(n)
        failed = np.zeros(p.h.shape, bool)
        for k, msg in domain_errors(p.barrier, config.barrier, p.lie):
            result.events.append(f"domain-error pair=({ii[k]},{jj[k]}) {msg}")
            failed[k] = True
        ok = ok & ~failed
        failed_rows = np.flatnonzero(p.in_sensor & failed).tolist()
    if mode == "off":
        result.margin = np.full(p.h.shape, np.nan)
        return result
    offset = config.gain(p.h_shaped)
    result.margin = np.where(ok, offset, np.nan)
    need = ok & p.lie  # rows that can bind; sensed plateau rows are vacuous
    if not np.count_nonzero(need) and not failed_rows:
        return result  # no row can bind: the nominal stands

    ii, jj = idx = pair_index(n)
    for k in failed_rows:
        # cannot evaluate the constraint: treat both vehicles as conflicted
        result.fallback.update((int(ii[k]), int(jj[k])))
    rows = np.flatnonzero(need)
    lg = _shaped_rows(p, rows, config)
    pairs, row_offset = idx.take(rows, 1), offset.take(rows)  # pairs: (2, rows) vehicles
    margin = _row_margins(lg, row_offset, result.controls, pairs)
    if mode == "split" or failed_rows or np.count_nonzero(margin < 0.0):
        # the clamped nominal violates a pair row; otherwise the centralized
        # QP would return it unchanged (split mode divides the rows, and a
        # half-row can be violated while its pair row holds)
        if mode == "centralized":
            _filter_centralized(config, result, rows, pairs, lg, row_offset, n, hint)
        else:
            _filter_split(config, result, pairs, lg, row_offset, n)
        if result.fallback:
            # each vehicle's role in the lowest-indexed sensed pair containing
            # it, else in the lowest-indexed pair that could not be evaluated
            order = np.flatnonzero(ok).tolist() + failed_rows
            u1, u2 = config.barrier.maneuver.controls()
            for v in sorted(result.fallback):
                first = next(k for k in order if v in (ii[k], jj[k]))
                result.controls[v] = ControlInput(*(u1 if ii[first] == v else u2))
        margin = _row_margins(lg, row_offset, result.controls, pairs)

    # achieved pair margins under the final controls
    result.margin[rows] = margin
    return result


def _row_margins(lg, offset, controls: list[ControlInput], pairs) -> np.ndarray:
    """lg . (u_i, u_j) + offset of each row under the given controls."""
    u_pairs = _control_array(controls).take(pairs.T, 0)  # (rows, 2, 3)
    return (lg.reshape(-1, 2, 3) * u_pairs).sum(axis=(1, 2)) + offset


def _filter_centralized(config, result, rows, pairs, lg, offset, n, hint):
    binding = lg.any(axis=1)
    if not binding.all():
        # zero rows (plateau-like): with a positive offset they never bind
        rows, pairs, lg, offset = rows[binding], pairs[:, binding], lg[binding], offset[binding]
    k = len(offset)
    if not k:
        return
    coeffs = np.zeros((k, n, 3))
    coeffs[np.arange(k), pairs] = lg.reshape(k, 2, 3).transpose(1, 0, 2)
    lo, hi, n_faces = _box(config.limits, n)
    qp_rows = [ConstraintRow(c, o) for c, o in zip(coeffs.reshape(k, 3 * n), offset.tolist())]
    problem = QPProblem(_control_array(result.controls).ravel(), qp_rows, lo, hi)
    # stable ids of the stacked constraints: the pair number of row s < k,
    # P + s - k of box face s >= k
    n_pairs, pair_ids = len(result.h), rows.tolist()
    slot = {i: s for s, i in enumerate(pair_ids)}
    guess = [
        slot[i] if i < n_pairs else k + i - n_pairs
        for i in hint
        if i in slot or n_pairs <= i < n_pairs + n_faces
    ]
    try:
        u_star, mult = solve_qp(problem, guess=guess)
    except QPInfeasibleError as err:
        result.events.append(f"qp-infeasible mode=centralized {err}")
        result.fallback.update(pairs.ravel().tolist())
        return
    result.active = [
        pair_ids[s] if s < k else n_pairs + s - k for s in np.flatnonzero(mult > 0.0).tolist()
    ]
    # the solver meets the box to its tolerance; clamp into it exactly
    u_star = np.clip(u_star, lo, hi).reshape(n, 3)
    result.controls = [ControlInput(*u) for u in u_star.tolist()]


def _filter_split(config, result, pairs, lg, offset, n):
    """Per-vehicle QPs with the pair rows divided half-and-half.

    For pair (i, j) with full row  lg_i . u_i + lg_j . u_j + off >= 0,
    vehicle i receives

        lg_i . u_i + off/2 + (lg_j . g_j - lg_i . g_i)/2 >= 0

    (g = the pair's evading controls).  Adding the two vehicle rows
    recovers exactly the full pair row, and each vehicle row evaluated at
    the vehicle's own evading control equals (lg . g + off)/2 >= 0 whenever
    the pair is safe, so the halves are individually satisfiable.
    """
    gamma = maneuver_control_vector(config.barrier.maneuver)
    lo, hi, _ = _box(config.limits, 1)
    ri, rj = pairs
    for v in range(n):
        my_rows = []
        stuck = False
        for k in np.flatnonzero((ri == v) | (rj == v)):
            first = ri[k] == v
            mine, theirs = (lg[k, :3], lg[k, 3:]) if first else (lg[k, 3:], lg[k, :3])
            g_mine, g_theirs = (gamma[:3], gamma[3:]) if first else (gamma[3:], gamma[:3])
            corr = 0.5 * (float(theirs @ g_theirs) - float(mine @ g_mine))
            half = 0.5 * float(offset[k]) + corr
            if mine.any():
                my_rows.append(ConstraintRow(mine, half))
            elif half < 0.0:
                # no actuation authority over a violated half-row
                result.events.append(f"qp-infeasible mode=split vehicle={v} zero row")
                result.fallback.add(v)
                stuck = True
                break
        if stuck or not my_rows:
            continue
        c = result.controls[v]
        problem = QPProblem(np.array([c.speed, c.turn_rate, c.climb_rate]), my_rows, lo, hi)
        try:
            u_star, _ = solve_qp(problem)
        except QPInfeasibleError as err:
            result.events.append(f"qp-infeasible mode=split vehicle={v} {err}")
            result.fallback.add(v)
        else:
            result.controls[v] = ControlInput(*np.clip(u_star, lo, hi).tolist())
