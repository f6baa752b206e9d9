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
gradients and offsets alpha(h_shaped) are computed only for the rows that
can bind (sensed, barrier defined, and below the shaping threshold - or
every such row of the raw barrier).  The result carries what a run records:
the clamped nominal and filtered controls, each pair's h, h_shaped and
sensing flag, and the step's events and fallbacks.

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
    _ZERO,
    _constant,
    BarrierConfig,
    LinearGain,
    StraightPass,
    TurnPass,
    domain_errors,
    h_value,
    lie_derivatives,
    pair_rows,
    phasor_rows,
    role_weights,
)
from .dynamics import ActuatorLimits, VehicleState
from .qp import QPInfeasibleError, QPProblem, box_faces, solve_qp, solve_row_batch
from .shaping import SensorModel, ShapingParams, in_sensor_set, psi_deriv_batch, shape_h


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
            if not self.limits.contains(u):
                raise ValueError(
                    f"evading maneuver control {u} lies outside the actuator box"
                )


class FilterRun:
    """The filter state of one run of n vehicles under one FilterConfig,
    built once and passed to each step's filter_controls.  Read-only: pairs,
    the (2, P) pair_index; columns, the (P, 6) entries of the stacked
    control that each pair's row reads, (u_i, u_j); box, the (2, 3n) box of
    the stacked control, each vehicle's lower and upper bounds with zero
    signs as the limits give them; faces, its finite faces as box_faces
    orders them; face, the (2, 3n) ids of each entry's lower and upper face
    (-1 for an infinite bound), and face_ids, the ids of faces in order;
    evading, the evading maneuver as the 6-vector (v1, w1, z1, v2, w2, z2);
    weights, the barrier's role_weights; gather, the (2, R, P) flat indices
    into phasor_rows(world) of the pair rows g that pair_rows reads with
    those weights; and, as 0-d float64 arrays (see barrier), ds, the safety
    distance D_s, and r2, the squared sensing range.
    active, the ids of the constraints with a positive multiplier at the
    last step's centralized QP optimum (a pair row's is its pair number, a
    box face's P + its place in faces), empty if that step solved no such
    QP, is the next step's guess of its QP's active set."""

    def __init__(self, config: FilterConfig, n: int):
        self.config, self.n, self.active = config, n, []
        self.pairs = pair_index(n)
        self.columns = (3 * self.pairs.T[:, :, None] + np.arange(3)).reshape(-1, 6)
        lim = config.limits
        one = [[lim.v_min, -lim.omega_max, -lim.zeta_max], [lim.v_max, lim.omega_max, lim.zeta_max]]
        self.box = box = np.tile(one, n)  # np.copyto is slower with a broadcast bound
        self.faces = box_faces(box[0], box[1])
        self.face_ids = self.pairs.shape[1] + np.arange(len(self.faces))
        self.face = np.full(box.shape, -1)
        self.face.ravel()[self.faces] = self.face_ids
        self.evading = np.ravel(config.barrier.maneuver.controls())
        self.weights = role_weights(config.barrier)
        self.gather = 4 * self.pairs[:, None] + np.arange(len(self.weights[0]))[:, None]
        safety, r = config.barrier.safety, config.sensor.range_m
        self.ds, self.r2 = _constant(safety.ds), _constant(r * r)
        for a in (self.columns, box, self.faces, self.face_ids, self.face, self.evading,
                  self.gather):
            a.flags.writeable = False


@dataclass
class FilterResult:
    """Clamped nominal (the QP's u_hat) and filtered controls as (N, 3)
    arrays (controls is nominal itself when nothing changed them), plus one
    entry per pair (i < j), in the order of pair_index: raw barrier h and
    shaped barrier h_shaped (NaN outside the barrier domain), and whether
    the pair is sensed; then the step's events and the vehicles that fell
    back to their evading control."""

    nominal: np.ndarray
    controls: np.ndarray
    h: np.ndarray
    h_shaped: np.ndarray
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
    """barrier.h_value, shaping.in_sensor_set and shaping.shape_h over all
    pairs, with the run's constants."""
    config = run.config
    g = phasor_rows(world).take(run.gather)
    b = h_value(pair_rows(g, run.weights), config.barrier)
    h = b.s - run.ds
    if config.shaping is None:
        h_shaped, lie = h, b.s >= _ZERO
    else:  # arrays[0] is xi
        h_shaped, lie = shape_h(h, config.shaping), h < config.shaping.arrays[0]
    return PairPass(g, b, in_sensor_set(b.d2, run.r2), h, h_shaped, lie)


def _shaped_rows(p: PairPass, rows, config: FilterConfig) -> np.ndarray:
    """Constraint coefficients psi'(h) * L_g h of the given rows, all of which
    lie below the shaping threshold.  A degenerate row (see lie_derivatives)
    has non-finite entries, with a RuntimeWarning unless np.errstate silences
    it."""
    e = p.g[:, 1].take(rows, 1).T  # heading phasors e1, e2 of the rows
    b = p.barrier  # the fields lie_derivatives reads, at the rows
    if isinstance(b, TurnPass):
        b = TurnPass(None, b.s.take(rows), None, b.y[:2].take(rows, 1), b.pq.take(rows),
                     b.M.take(rows))
    else:
        b = StraightPass(None, b.s.take(rows), b.d.take(rows), b.tau.take(rows), None)
    _, lg = lie_derivatives(b, e, config.barrier)
    if config.shaping is not None:
        lg *= psi_deriv_batch(p.h.take(rows), config.shaping)[:, None]
    return lg


def filter_controls(
    world: list[VehicleState],
    nominal: list[tuple[float, float, float]],
    config: FilterConfig,
    mode: str = "centralized",
    run: FilterRun | None = None,
) -> FilterResult:
    """Check the nominal controls, one (speed, turn_rate, climb_rate) triple
    per vehicle, for finiteness and clamp them into the actuator box, once,
    as one (N, 3) array (FilterResult.nominal), and filter them through the
    barrier QP.  A non-finite nominal raises ValueError, naming the vehicle.

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
    idx, box = run.pairs, run.box
    u_hat = np.fromiter(chain.from_iterable(nominal), float, 3 * n)
    if np.count_nonzero(np.isfinite(u_hat)) < u_hat.size:
        v = int(np.flatnonzero(~np.isfinite(u_hat))[0]) // 3
        raise ValueError(f"non-finite nominal control for vehicle {v}: {u_hat[3 * v:3 * v + 3].tolist()!r}")
    u_hat = _clamp(u_hat, box[0], box[1]).reshape(n, 3)
    p = pair_pass(world, run)
    result = FilterResult(u_hat, u_hat, p.h, p.h_shaped, p.in_sensor)
    ok = p.in_sensor  # sensed rows whose constraint can be evaluated
    failed_rows = []  # sensed rows whose constraint cannot be evaluated or met
    if np.count_nonzero(p.barrier.s > _ZERO) < len(p.h):  # some s is 0 or NaN
        errors = domain_errors(p.barrier, config.barrier, p.lie)
        ii, jj = idx
        result.events += [f"domain-error pair=({ii[k]},{jj[k]}) {msg}" for k, msg in errors]
        failed_rows = [k for k, _ in errors if ok[k]]
        ok = ok & (p.barrier.s > 0.0)  # the error rows: s is NaN, or 0 (which always binds)
    need = ok & p.lie  # rows that can bind; sensed plateau rows are vacuous
    if mode == "off" or not np.count_nonzero(need) and not failed_rows:
        return result  # mode off, or no row can bind: the nominal stands

    rows = np.flatnonzero(need)
    pairs, offset = idx.take(rows, 1), config.gain(p.h_shaped.take(rows))  # pairs: (2, rows)
    # a degenerate row has non-finite entries (see lie_derivatives), and a NaN
    # margin from inf * 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lg = _shaped_rows(p, rows, config)
        margin = np.add.reduce(lg.reshape(-1, 2, 3) * u_hat.take(pairs.T, 0), axis=(1, 2)) + offset
    if (mode == "split" or failed_rows
            or not 0.0 <= np.minimum.reduce(margin) <= np.maximum.reduce(margin) < np.inf):
        # a negative or non-finite margin (as on every row the rule fails); else the centralized
        # QP returns the nominal, but a split half-row can be violated while its pair row holds
        if (np.count_nonzero(np.logical_or.reduce(lg, axis=1)) < len(lg)  # a zero row
                or np.count_nonzero(np.isfinite(lg)) < lg.size):  # or a non-finite one
            keep, failed = _usable_rows(result, mode, pairs, lg, offset)
            failed_rows += rows[failed].tolist()
            rows, pairs, lg, offset = rows[keep], pairs[:, keep], lg[keep], offset[keep]
        u = result.controls = u_hat.copy()
        if failed_rows:  # cannot be evaluated or met
            result.fallback.update(idx[:, failed_rows].ravel().tolist())
        if mode == "centralized":
            _filter_centralized(run, result, u, rows, pairs, lg, offset, hint)
        else:
            _filter_split(run, result, u, pairs, lg, offset)
        if result.fallback:
            # each vehicle's role in the lowest-indexed sensed pair containing
            # it, else in the lowest-indexed pair that could not be evaluated
            order = np.flatnonzero(ok).tolist() + failed_rows
            ii, jj = idx
            for v in sorted(result.fallback):
                first = next(k for k in order if v in (ii[k], jj[k]))
                u[v] = run.evading[:3] if ii[first] == v else run.evading[3:]
        if np.count_nonzero(np.isfinite(u)) < u.size:
            v = int(np.flatnonzero(~np.isfinite(u))[0]) // 3
            raise ValueError(f"non-finite filtered control for vehicle {v}: {u[v].tolist()!r}")
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


def _filter_centralized(run, result, u, rows, pairs, lg, offset, hint):
    """One QP over the stacked controls u, which it overwrites with the
    optimum, and its active set into run.active, warm-started from hint;
    on infeasibility, both vehicles of every row fall back.

    When no vehicle is in two rows, each row with its vehicles' box is a
    problem of its own, solved in closed form.  solve_qp takes any other
    step, and every step with a row the closed form declines (not met
    inside the box), so that it alone decides infeasibility.  Its problem
    takes the rows in pair form, which filter_controls has checked."""
    k, n = len(offset), len(u)
    lo, hi, face = run.box[0], run.box[1], run.face
    # more than n/2 rows always share a vehicle
    if 2 * k <= n and len(set(pairs.ravel().tolist())) == 2 * k:
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
    # u.flatten(), a copy: the problem keeps its u_hat, and u becomes the optimum below
    problem = QPProblem.pair_form(u.flatten(), lg, run.columns.take(rows, 0), offset, lo, hi,
                                  run.faces)
    # stable id of each stacked constraint, ascending: the pair number of
    # each row, then the ids of the finite box faces
    ids = np.concatenate([rows, run.face_ids])
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
