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
  otherwise solve_qp (Goldfarb-Idnani) does, warm-started from a hint of
  its active set (the previous step's, see FilterResult.active).
* split: per-vehicle QPs.  Each vehicle enforces its half of every sensed
  pair's row (see _filter_split).  All half-rows are built in one array
  pass, and only a vehicle with a half-row violated at its clamped nominal
  gets a QP: elsewhere the QP's optimum is that nominal itself.
* off: the clamped nominal controls pass through.

On QP infeasibility (or a barrier domain error) the affected vehicles fall
back to their evading-maneuver control, which FilterConfig checks lies in
the actuator box; the event is reported, never raised.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    """Everything the filter needs besides the world state, and the run's
    constants derived from it at construction: one vehicle's box, the rows
    lower and upper of a read-only (2, 3) array with zero signs as given;
    the evading maneuver as the 6-vector (v1, w1, z1, v2, w2, z2); the
    role_weights; and, on first use, stack(n).  They take no part in
    comparison: equal configs compare and hash equal, and share nothing."""

    barrier: BarrierConfig
    sensor: SensorModel
    limits: ActuatorLimits
    gain: LinearGain = LinearGain(1.0)
    shaping: ShapingParams | None = None  # None = raw barrier (no reshaping)
    box: np.ndarray = field(init=False, repr=False, compare=False)
    evading: np.ndarray = field(init=False, repr=False, compare=False)
    weights: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _stacks: dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The barrier's guarantee is the evading maneuver; it must be an
        # actually flyable control, else the fallback silently stops being
        # the maneuver the barrier reasons about.
        for u in self.barrier.maneuver.controls():
            if not self.limits.contains(ControlInput(*u)):
                raise ValueError(
                    f"evading maneuver control {u} lies outside the actuator box"
                )
        lim = self.limits
        box = np.array([[lim.v_min, -lim.omega_max, -lim.zeta_max],
                        [lim.v_max, lim.omega_max, lim.zeta_max]])
        evading = np.ravel(self.barrier.maneuver.controls())
        box.flags.writeable = evading.flags.writeable = False
        # frozen: the derived fields are set past the dataclass's __setattr__
        vars(self).update(box=box, evading=evading, weights=role_weights(self.barrier), _stacks={})

    def stack(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only constants of n vehicles, computed on first use: the
        (2, P) pair_index, the (2, 3n) box of the stacked control, and the
        (2, 3n) stable ids (see FilterResult.active) of each entry's lower
        and upper face, -1 for an infinite bound."""
        if n not in self._stacks:
            box = np.tile(self.box, n)  # np.copyto is slower with a broadcast bound
            finite = np.isfinite(box)
            # box faces follow the pair rows in QPProblem.stacked order
            face = np.where(finite, n * (n - 1) // 2 - 1 + np.cumsum(finite).reshape(2, -1), -1)
            box.flags.writeable = face.flags.writeable = False
            self._stacks[n] = pair_index(n), box, face
        return self._stacks[n]


@dataclass
class FilterResult:
    """Clamped nominal (the QP's u_hat) and filtered controls as (N, 3)
    arrays (controls is nominal itself when nothing changed them), plus one
    entry per pair (i < j), in the order of pair_index: raw barrier h and
    shaped barrier h_shaped (NaN outside the barrier domain), the pair-row
    margin under the final controls (NaN where the pair constrains nothing:
    unsensed, undefined, or mode off), and whether the pair is sensed.

    active lists the constraints with a positive multiplier at the
    centralized QP optimum, as stable ids: the pair number for a pair row,
    P + the stacked face index for an actuator box face (P pairs).  It is
    empty when no centralized QP ran or it was infeasible.  Passed as the
    next step's hint, it warm-starts that step's QP."""

    nominal: np.ndarray
    controls: np.ndarray
    h: np.ndarray
    h_shaped: np.ndarray
    margin: np.ndarray
    in_sensor: np.ndarray
    events: list[str] = field(default_factory=list)
    fallback: set[int] = field(default_factory=set)
    active: list[int] = field(default_factory=list)


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
    g = phasor_rows(world).take(config.stack(len(world))[0], 1).transpose(1, 0, 2)
    b = barrier_pass(pair_rows(g, config.weights), config.barrier)
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


def filter_controls(
    world: list[VehicleState],
    nominal: list[ControlInput],
    config: FilterConfig,
    mode: str = "centralized",
    hint: Sequence[int] = (),
) -> FilterResult:
    """Clamp the nominal controls into the actuator box, once, as one (N, 3)
    array (FilterResult.nominal), and filter them through the barrier QP.

    Barrier values are computed for every pair (the simulator is omniscient
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
    idx, (lo, hi), _ = config.stack(n)
    ii, jj = idx
    u_hat = np.fromiter(chain.from_iterable(nominal), float, 3 * n)
    # x stays unless strictly outside, as in min(max(x, lo), hi); np.clip
    # may flip the sign of a zero at a zero bound (zeta_max = 0)
    np.copyto(u_hat, lo, where=u_hat < lo)
    np.copyto(u_hat, hi, where=u_hat > hi)
    u_hat = u_hat.reshape(n, 3)
    p = pair_pass(world, config)
    result = FilterResult(u_hat, u_hat, p.h, p.h_shaped, None, p.in_sensor)  # margin set below
    ok = p.in_sensor  # sensed rows whose constraint can be evaluated
    failed_rows = []  # sensed rows whose constraint cannot be evaluated
    if not p.barrier.s.min(initial=np.inf) > 0.0:  # some barrier may be undefined (NaN)
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

    for k in failed_rows:
        # cannot evaluate the constraint: treat both vehicles as conflicted
        result.fallback.update((int(ii[k]), int(jj[k])))
    rows = np.flatnonzero(need)
    lg = _shaped_rows(p, rows, config)
    pairs, row_offset = idx.take(rows, 1), offset.take(rows)  # pairs: (2, rows) vehicles
    margin = _row_margins(lg, row_offset, u_hat, pairs)
    if mode == "split" or failed_rows or np.count_nonzero(margin < 0.0):
        # the clamped nominal violates a pair row; otherwise the centralized
        # QP would return it unchanged (split mode divides the rows, and a
        # half-row can be violated while its pair row holds)
        u = result.controls = u_hat.copy()
        if mode == "centralized":
            _filter_centralized(config, result, u, rows, pairs, lg, row_offset, hint)
        else:
            _filter_split(config, result, u, pairs, lg, row_offset)
        if result.fallback:
            # each vehicle's role in the lowest-indexed sensed pair containing
            # it, else in the lowest-indexed pair that could not be evaluated
            order = np.flatnonzero(ok).tolist() + failed_rows
            u1, u2 = config.evading.reshape(2, 3)
            for v in sorted(result.fallback):
                first = next(k for k in order if v in (ii[k], jj[k]))
                u[v] = u1 if ii[first] == v else u2
        if not np.isfinite(u).all():
            v = int(np.flatnonzero(~np.isfinite(u))[0]) // 3
            raise ValueError(f"non-finite filtered control for vehicle {v}: {u[v].tolist()!r}")
        margin = _row_margins(lg, row_offset, u, pairs)

    # achieved pair margins under the final controls
    result.margin[rows] = margin
    return result


def _row_margins(lg, offset, u, pairs) -> np.ndarray:
    """lg . (u_i, u_j) + offset of each row under the (n, 3) controls u."""
    u_pairs = u.take(pairs.T, 0)  # (rows, 2, 3)
    return (lg.reshape(-1, 2, 3) * u_pairs).sum(axis=(1, 2)) + offset


def _filter_centralized(config, result, u, rows, pairs, lg, offset, hint):
    """One QP over the stacked controls u, which it overwrites with the
    optimum; on infeasibility, both vehicles of every row fall back.

    When no vehicle is in two rows, each row with its vehicles' box is a
    problem of its own, solved in closed form.  solve_qp takes any other
    step, and every step with a row the closed form declines (non-finite,
    or not met inside the box), so that it alone rejects rows and decides
    infeasibility."""
    binding = lg.any(axis=1)
    if not binding.all():
        # zero rows (plateau-like): with a positive offset they never bind
        rows, pairs, lg, offset = rows[binding], pairs[:, binding], lg[binding], offset[binding]
    k, n = len(offset), len(u)
    if not k:
        return
    _, (lo, hi), face = config.stack(n)
    if len(set(pairs.ravel().tolist())) == 2 * k:
        solved = solve_row_batch(u.take(pairs.T, 0).reshape(k, 6), lg, offset, lo[:6], hi[:6])
        if solved is not None:
            u_rows, lam, push = solved
            u[pairs.T] = u_rows.reshape(k, 2, 3)
            pushed = np.zeros((n, 3))
            pushed[pairs.T] = push.reshape(k, 2, 3)
            pushed = pushed.ravel()
            # ascending: the rows, lower faces pushed up, upper faces pushed down
            result.active = (rows[lam > 0.0].tolist() + face[0][pushed > 0.0].tolist()
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
    result.active = ids[mult > 0.0].tolist()
    # the solver meets the box to its tolerance; clamp into it exactly
    u[:] = np.clip(u_star, lo, hi).reshape(n, 3)


def _filter_split(config, result, u, pairs, lg, offset):
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
    lo, hi = config.box
    # the role shares lg_i . g_i and lg_j . g_j of each row; a matmul gives
    # the bits of each one-row product a @ b
    share = (lg.reshape(-1, 2, 1, 3) @ config.evading.reshape(2, 3, 1))[..., 0, 0]
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
            u[v] = np.clip(u_star, lo, hi)
    # a vehicle whose half-rows all hold keeps u_hat, clamped as the
    # optimum would be: np.clip may flip the sign of a zero at a zero bound
    kept = np.setdiff1d(who, bad)
    u[kept] = np.clip(u[kept], lo, hi)
