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
  sensed pair.  When no vehicle is in two binding rows, every row is a
  problem of its own and solve_row_batch solves them in closed form;
  otherwise solve_qp (Goldfarb-Idnani) does, warm-started from the
  previous step's active set (FilterRun.active).
* split: per-vehicle QPs.  Each vehicle enforces its half of every sensed
  pair's row (see _filter_split).  All half-rows are built in one array
  pass, and only a vehicle with a half-row violated at its clamped nominal
  gets a QP: elsewhere the QP's optimum is that nominal itself.
* off: the clamped nominal controls pass through.

A binding row fails in both modes if a coefficient is non-finite (domain error)
or if it is zero with a negative offset (infeasible).  On a failed row, a domain
error or QP infeasibility the affected vehicles fall back to their evading-maneuver
control, which FilterConfig checks lies in the box; the event is reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .barrier import (
    BarrierConfig,
    LinearGain,
    StraightPass,
    TurnPass,
    barrier_pass,
    domain_errors,
    lie_rows,
    pair_rows,
    phasor_rows,
    role_weights,
)
from .dynamics import ActuatorLimits, ControlInput, VehicleState
from .qp import QPInfeasibleError, QPProblem, solve_qp, solve_row_batch
from .shaping import SensorModel, ShapingParams, psi_deriv_batch, shape_h_batch


def pair_index(n: int) -> np.ndarray:
    """Vehicle indices of all pairs i < j in lexicographic order, as the
    (2, P) array [i, j]."""
    idx = np.array(np.triu_indices(n, 1)).reshape(2, -1)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class FilterConfig:
    """Everything the filter needs besides the world state; FilterRun
    derives the run's constants from it."""

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
            if not self.limits.contains(ControlInput(*u)):
                raise ValueError(
                    f"evading maneuver control {u} lies outside the actuator box"
                )


class FilterRun:
    """The filter state of one run of n vehicles under one FilterConfig,
    built once and passed to each step's filter_controls.  Read-only: pairs,
    the (2, P) pair_index; box, the (2, 3n) box of the stacked control, each
    vehicle's lower and upper bounds with zero signs as the limits give them;
    face, the (2, 3n) ids of each entry's lower and upper face (-1 for an
    infinite bound); evading, the evading maneuver as the 6-vector
    (v1, w1, z1, v2, w2, z2); weights, the barrier's role_weights; r2, the
    squared sensing range; gather and starts, which reduce per-pair values
    per vehicle.  active, the ids of the constraints with a positive
    multiplier at the last step's centralized QP optimum (a pair row's is its
    pair number, a box face's P + its stacked index), empty if that step
    solved no such QP, is the next step's guess of its QP's active set."""

    def __init__(self, config: FilterConfig, n: int):
        self.config, self.n, self.active = config, n, []
        self.pairs = ii, jj = pair_index(n)
        lim = config.limits
        one = [[lim.v_min, -lim.omega_max, -lim.zeta_max], [lim.v_max, lim.omega_max, lim.zeta_max]]
        self.box = box = np.tile(one, n)  # np.copyto is slower with a broadcast bound
        finite = np.isfinite(box)
        # box faces follow the pair rows in QPProblem.stacked order
        self.face = np.where(finite, n * (n - 1) // 2 - 1 + np.cumsum(finite).reshape(2, -1), -1)
        self.evading = np.ravel(config.barrier.maneuver.controls())
        box.flags.writeable = self.face.flags.writeable = self.evading.flags.writeable = False
        self.weights = role_weights(config.barrier)
        self.r2 = config.sensor.range_m * config.sensor.range_m
        # each vehicle's pairs in pair order, one run of n - 1 per vehicle: an
        # np.fmin.reduceat of values.take(gather) at starts is each one's least
        self.gather = np.argsort(np.stack([ii, jj], axis=1).ravel(), kind="stable") // 2
        self.starts = np.arange(n) * (n - 1)


@dataclass
class FilterResult:
    """Clamped nominal (the QP's u_hat) and filtered controls as (N, 3)
    arrays (controls is nominal itself when nothing changed them), plus one
    entry per pair (i < j), in the order of pair_index: raw barrier h and
    shaped barrier h_shaped (NaN outside the barrier domain), the pair-row
    margin under the final controls (NaN where the pair constrains nothing:
    unsensed, undefined, failed, or mode off), and whether the pair is sensed."""

    nominal: np.ndarray
    controls: np.ndarray
    h: np.ndarray
    h_shaped: np.ndarray
    margin: np.ndarray
    in_sensor: np.ndarray
    events: list[str] = field(default_factory=list)
    fallback: set[int] = field(default_factory=set)


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


def pair_pass(world: list[VehicleState], run: FilterRun) -> PairPass:
    config = run.config
    g = phasor_rows(world).take(run.pairs, 1).transpose(1, 0, 2)
    b = barrier_pass(pair_rows(g, run.weights), config.barrier)
    h = b.s - config.barrier.safety.ds
    if config.shaping is None:
        h_shaped, lie = h, b.s >= 0.0
    else:
        h_shaped, lie = shape_h_batch(h, config.shaping), h < config.shaping.xi
    return PairPass(g, b, b.d2 <= run.r2, h, h_shaped, lie)


def _shaped_rows(p: PairPass, rows, config: FilterConfig) -> np.ndarray:
    """Constraint coefficients psi'(h) * L_g h of the given rows, all of which
    lie below the shaping threshold."""
    e = p.g[:, 1].take(rows, 1).T  # heading phasors e1, e2 of the rows
    b = type(p.barrier)(*(a.take(rows, -1) for a in p.barrier))  # the pass at the rows
    _, lg = lie_rows(b, e, config.barrier)
    if config.shaping is not None:
        lg *= psi_deriv_batch(p.h.take(rows), config.shaping)[:, None]
    return lg


def filter_controls(
    world: list[VehicleState],
    nominal: list[ControlInput],
    config: FilterConfig,
    mode: str = "centralized",
    run: FilterRun | None = None,
) -> FilterResult:
    """Clamp the nominal controls into the actuator box, once, as one (N, 3)
    array (FilterResult.nominal), and filter them through the barrier QP.

    Barrier values are computed for every pair (the simulator is omniscient
    even where the vehicles are not), but only sensed pairs constrain the QP.
    run, built for config itself and N vehicles, carries the filter state
    from step to step (see FilterRun.active), which this call reads and
    updates; without one, the call builds a fresh run.
    """
    if mode not in ("centralized", "split", "off"):
        raise ValueError(f"unknown filter mode {mode!r}")
    n = len(world)
    if len(nominal) != n:
        raise ValueError("one nominal control per vehicle required")
    run = run or FilterRun(config, n)
    if run.config is not config or run.n != n:
        raise ValueError("the run was built for another FilterConfig or vehicle count")
    hint, run.active = run.active, []
    idx, (lo, hi) = run.pairs, run.box
    ii, jj = idx
    u_hat = _clamp(np.fromiter(chain.from_iterable(nominal), float, 3 * n), lo, hi).reshape(n, 3)
    p = pair_pass(world, run)
    result = FilterResult(u_hat, u_hat, p.h, p.h_shaped, None, p.in_sensor)  # margin set below
    ok = p.in_sensor  # sensed rows whose constraint can be evaluated
    failed_rows = []  # sensed rows whose constraint cannot be evaluated or met
    if not np.minimum.reduce(p.barrier.s, initial=np.inf) > 0.0:  # some s may be NaN
        errors = domain_errors(p.barrier, config.barrier, p.lie)
        result.events += [f"domain-error pair=({ii[k]},{jj[k]}) {msg}" for k, msg in errors]
        failed_rows = [k for k, _ in errors if ok[k]]
        ok = ok & (p.barrier.s > 0.0)  # the error rows: s is NaN, or 0 (which always binds)
    if mode == "off":
        result.margin = np.full(p.h.shape, np.nan)
        return result
    offset = config.gain(p.h_shaped)
    result.margin = np.where(ok, offset, np.nan)
    need = ok & p.lie  # rows that can bind; sensed plateau rows are vacuous
    if not np.count_nonzero(need) and not failed_rows:
        return result  # no row can bind: the nominal stands

    rows = np.flatnonzero(need)
    lg = _shaped_rows(p, rows, config)
    pairs, row_offset = idx.take(rows, 1), offset.take(rows)  # pairs: (2, rows) vehicles
    with np.errstate(invalid="ignore"):  # inf * 0 on a non-finite row: a NaN margin
        margin = _row_margins(lg, row_offset, u_hat, pairs)
    if (mode == "split" or failed_rows
            or not 0.0 <= np.minimum.reduce(margin) <= np.maximum.reduce(margin) < np.inf):
        # a negative or non-finite margin (as on every row the rule fails); else the centralized
        # QP returns the nominal, but a split half-row can be violated while its pair row holds
        if not (lg.any(axis=1).all() and np.isfinite(lg).all()):  # a zero or non-finite row
            keep, failed = _usable_rows(result, mode, pairs, lg, row_offset)
            failed_rows += rows[failed].tolist()
            result.margin[rows[failed]] = np.nan
            rows, pairs, lg, row_offset = rows[keep], pairs[:, keep], lg[keep], row_offset[keep]
        u = result.controls = u_hat.copy()
        result.fallback.update(idx[:, failed_rows].ravel().tolist())  # cannot be evaluated or met
        if mode == "centralized":
            _filter_centralized(run, result, u, rows, pairs, lg, row_offset, hint)
        else:
            _filter_split(run, result, u, pairs, lg, row_offset)
        if result.fallback:
            # each vehicle's role in the lowest-indexed sensed pair containing
            # it, else in the lowest-indexed pair that could not be evaluated
            order = np.flatnonzero(ok).tolist() + failed_rows
            for v in sorted(result.fallback):
                first = next(k for k in order if v in (ii[k], jj[k]))
                u[v] = run.evading[:3] if ii[first] == v else run.evading[3:]
        if np.count_nonzero(np.isfinite(u)) < u.size:
            v = int(np.flatnonzero(~np.isfinite(u))[0]) // 3
            raise ValueError(f"non-finite filtered control for vehicle {v}: {u[v].tolist()!r}")
        margin = _row_margins(lg, row_offset, u, pairs)

    result.margin[rows] = margin  # achieved under the final controls
    return result


def _clamp(u, lo, hi):
    """Clamp u into [lo, hi] in place; an entry not strictly outside keeps its bits."""
    np.copyto(u, lo, where=u < lo)
    np.copyto(u, hi, where=u > hi)
    return u


def _usable_rows(result, mode, pairs, lg, offset):
    """(usable, failed) masks of binding rows; a zero row that holds is neither."""
    finite, live = np.isfinite(lg).all(axis=1), lg.any(axis=1)
    failed = ~finite | ~live & (offset < 0.0)  # no control can evaluate or meet the row
    for fin, (i, j) in zip(finite[failed].tolist(), pairs[:, failed].T.tolist()):
        result.events.append(f"qp-infeasible mode={mode} zero row pair=({i},{j})" if fin
                             else f"domain-error pair=({i},{j}) non-finite constraint row")
    return finite & live, failed


def _row_margins(lg, offset, u, pairs) -> np.ndarray:
    """lg . (u_i, u_j) + offset of each row under the (n, 3) controls u."""
    u_pairs = u.take(pairs.T, 0)  # (rows, 2, 3)
    return (lg.reshape(-1, 2, 3) * u_pairs).sum(axis=(1, 2)) + offset


def _filter_centralized(run, result, u, rows, pairs, lg, offset, hint):
    """One QP over the stacked controls u, which it overwrites with the
    optimum, and its active set into run.active, warm-started from hint;
    on infeasibility, both vehicles of every row fall back.

    When no vehicle is in two rows, each row with its vehicles' box is a
    problem of its own, solved in closed form.  solve_qp takes any other
    step, and every step with a row the closed form declines (not met
    inside the box), so that it alone decides infeasibility."""
    k, n = len(offset), len(u)
    (lo, hi), face = run.box, run.face
    if len(set(pairs.ravel().tolist())) == 2 * k:
        solved = solve_row_batch(u.take(pairs.T, 0).reshape(k, 6), lg, offset, lo[:6], hi[:6])
        if solved is not None:
            u_rows, lam, push = solved
            u[pairs.T] = u_rows.reshape(k, 2, 3)
            pushed = np.zeros(3 * n)
            pushed.reshape(n, 3)[pairs.T] = push.reshape(k, 2, 3)
            # ascending: the rows, lower faces pushed up, upper faces pushed down
            run.active = (rows[lam > 0.0].tolist() + face[0][pushed > 0.0].tolist()
                          + face[1][pushed < 0.0].tolist())
            return
    coeffs = np.zeros((k, n, 3))
    coeffs[np.arange(k), pairs] = lg.reshape(k, 2, 3).transpose(1, 0, 2)
    # a copy: the problem keeps its u_hat, and u becomes the optimum below
    problem = QPProblem(u.flatten(), coeffs.reshape(k, 3 * n), offset, lo, hi)
    # stable id of each stacked constraint, ascending: the pair number of
    # each row, then the ids of the finite box faces
    ids = np.concatenate([rows, face[face >= 0]])
    hint = np.asarray(hint, dtype=np.intp)
    slot = np.searchsorted(ids, hint)  # the stacked index of each hinted id, if present
    guess = slot[ids.take(slot, mode="clip") == hint].tolist()
    try:
        u_star, mult = solve_qp(problem, guess=guess)
    except QPInfeasibleError as err:
        named = ",".join(f"({i},{j})" for i, j in pairs.T.tolist())
        result.events.append(f"qp-infeasible mode=centralized {err} pairs={named}")
        result.fallback.update(pairs.ravel().tolist())
        return
    run.active = ids[mult > 0.0].tolist()
    # the solver meets the box to its tolerance; clamp into it exactly
    u[:] = _clamp(u_star, lo, hi).reshape(n, 3)


def _filter_split(run, result, u, pairs, lg, offset):
    """Per-vehicle QPs over the pair rows divided half-and-half, one for
    each vehicle with a half-row violated at u; each overwrites its
    vehicle's row of the controls u with its optimum.

    For pair (i, j) with full row  lg_i . u_i + lg_j . u_j + off >= 0,
    vehicle i receives

        lg_i . u_i + off/2 + (lg_j . g_j - lg_i . g_i)/2 >= 0

    (g = the pair's evading controls).  Adding the two vehicle rows
    recovers exactly the full pair row, and each vehicle row evaluated at
    the vehicle's own evading control equals (lg . g + off)/2 >= 0 whenever
    the pair is safe, so the halves are individually satisfiable."""
    lo, hi = run.box[:, :3]
    # the role shares lg_i . g_i and lg_j . g_j of each row; a matmul gives
    # the bits of each one-row product a @ b
    share = (lg.reshape(-1, 2, 1, 3) @ run.evading.reshape(2, 3, 1))[..., 0, 0]
    half = 0.5 * offset[:, None] + 0.5 * (share[:, ::-1] - share)
    order = np.argsort(pairs.T.ravel(), kind="stable")  # the half-rows by vehicle, in row order
    who, coeffs, half = pairs.T.ravel()[order], lg.reshape(-1, 3)[order], half.ravel()[order]
    held = (coeffs * u[who]).sum(axis=1) + half >= 0.0  # False for NaN, which the QP rejects
    bad = np.unique(who[~held])  # ascending
    live = coeffs.any(axis=1)  # a zero half-row binds only through its half
    stuck = set(who[~live & (half < 0.0)].tolist())
    who, coeffs, half = who[live], coeffs[live], half[live]
    for v, a, b in zip(bad.tolist(), np.searchsorted(who, bad).tolist(),
                       np.searchsorted(who, bad, side="right").tolist()):
        try:
            if v in stuck:  # no actuation authority over a violated half-row
                raise QPInfeasibleError("zero row")
            u_star, _ = solve_qp(QPProblem(u[v].copy(), coeffs[a:b], half[a:b], lo, hi))
        except QPInfeasibleError as err:
            result.events.append(f"qp-infeasible mode=split vehicle={v} {err}")
            result.fallback.add(v)
        else:
            u[v] = _clamp(u_star, lo, hi)
