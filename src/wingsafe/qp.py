"""Dense active-set solver for the minimal-deviation QP with box bounds.

Problem:

    min_u  1/2 ||u - u_hat||^2
    s.t.   coeffs_i . u + offset_i >= 0   (barrier rows)
           lo <= u <= hi                  (actuator box)

Both row and box constraints are handled uniformly as a_i . u >= b_i.  With
an identity Hessian the solver can start from the unconstrained optimum
u = u_hat and add violated constraints one at a time while keeping the
current iterate optimal for the active equality set (a dual active-set
iteration in the style of Goldfarb-Idnani).  Each equality subproblem needs
(N^T N)^-1 with N the active constraint normals; N stays full column rank by
construction, so a Cholesky factorization always applies.  Tie-breaking is
by lowest constraint index, which makes the solver fully deterministic.

A caller that solves a sequence of nearby problems can pass the previous
optimum's active set as a guess: one linear solve gives the KKT point of
that set, which is returned only if it passes the loop's own optimality
tests; otherwise the loop runs as without a guess.

Infeasibility is detected exactly: when a violated normal is linearly
dependent on the active set with no positive combination coefficient, the
constraints admit no common point and QPInfeasibleError is raised.

solve_row_batch is the closed form for a batch of independent problems
with one row each over the box, the continuous quadratic knapsack
(Kiwiel, Math. Program. 112, 2008): the optimum is u(lam) = clip(u_hat +
lam a, lo, hi) at the root of the concave, nondecreasing, piecewise-linear
a . u(lam) + c.  It decides nothing about infeasibility: a row it cannot
meet is left to solve_qp.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


# the normalized violation at which solve_qp stops and solve_row_batch
# counts a row as met
STOP_TOL = 1e-11


class QPInfeasibleError(RuntimeError):
    """The constraint rows and box admit no common point."""


class ConstraintRow(NamedTuple):
    """One barrier row, coeffs . u + offset >= 0 over the stacked control,
    as QPProblem.rows lists it."""

    coeffs: np.ndarray
    offset: float


@dataclass
class QPProblem:
    """Nominal control, the barrier rows coeffs @ u + offsets >= 0 as a
    (k, n) matrix and (k,) offsets, and the per-entry box bounds.

    Everything is checked once, here: the first row with a non-finite
    offset, or a zero row with a negative offset, is rejected; then a NaN
    bound, by side and entry, or an empty box; then a row with a non-finite
    coefficient, by number.  The problem keeps the arrays it is given, so
    they must not change afterwards."""

    u_hat: np.ndarray
    coeffs: np.ndarray | None = None
    offsets: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.u_hat = np.asarray(self.u_hat, dtype=float)
        n = self.u_hat.size
        self.coeffs = np.zeros((0, n)) if self.coeffs is None else np.asarray(self.coeffs, float)
        self.offsets = np.zeros(0) if self.offsets is None else np.asarray(self.offsets, float)
        self.lower = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if self.coeffs.shape != (self.offsets.size, n) or self.offsets.ndim != 1:
            raise ValueError(f"constraint rows must be a (k, {n}) matrix and k offsets")
        off = self.offsets
        bad = ~np.isfinite(off)
        negative = off < 0.0
        if negative.any():
            bad |= negative & ~self.coeffs.any(axis=1)
        if bad.any():
            if not math.isfinite(off[bad.argmax()]):
                raise ValueError("non-finite constraint row")
            raise ValueError("zero row with negative offset is infeasible by construction")
        if not (self.lower <= self.upper).all():  # False for a NaN bound too
            for name, bound in (("lower", self.lower), ("upper", self.upper)):
                if np.isnan(bound).any():
                    raise ValueError(f"NaN {name} bound at entry {np.isnan(bound).argmax()}")
            raise ValueError("empty box (lower > upper)")
        if not np.isfinite(self.coeffs).all():
            k = (~np.isfinite(self.coeffs).all(axis=1)).argmax()
            raise ValueError(f"non-finite constraint row {k}")

    @property
    def rows(self) -> tuple[ConstraintRow, ...]:
        """The barrier rows one at a time, built on each read."""
        return tuple(map(ConstraintRow, self.coeffs, self.offsets.tolist()))

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All constraints as A u >= b: barrier rows first, then finite box
        faces (lower, then upper), preserving index order."""
        eye = np.eye(self.u_hat.size)
        lo, hi = np.isfinite(self.lower), np.isfinite(self.upper)
        A = np.concatenate([self.coeffs, eye[lo], 0.0 - eye[hi]])  # 0.0 - x: no negative zeros
        b = np.concatenate([-self.offsets, self.lower[lo], -self.upper[hi]])
        return A, b


def solve_qp(problem: QPProblem, max_iter: int | None = None, guess: Sequence[int] = ()):
    """Exact minimizer of 1/2||u - u_hat||^2 over the rows and box.

    Returns (u, multipliers) with multipliers aligned to the stacked
    constraint order of QPProblem.stacked().  Raises QPInfeasibleError when
    the feasible region is empty.  guess, stacked indices of constraints
    expected to be active, changes only how the optimum is found.  Entries
    no active constraint acts on keep their bits.
    """
    A, b = problem.stacked()
    m, n = A.shape
    u = problem.u_hat.copy()
    if m == 0:
        return u, np.zeros(0)
    norms = np.maximum(np.sqrt(np.add.reduce(A * A, axis=1)), 1.0)  # row 2-norms
    if 0 < len(guess) <= n:  # more than n rows cannot be independent
        warm = _active_set_optimum(A, b, norms, u, guess)
        if warm is not None:
            return warm
    if max_iter is None:
        max_iter = 50 * (m + n)

    active: list[int] = []
    lam: list[float] = []

    for _ in range(max_iter):
        viol = (b - A @ u) / norms
        p = int(np.argmax(viol))  # first maximum: lowest index on ties
        if viol[p] <= STOP_TOL:
            mult = np.zeros(m)
            for j, lj in zip(active, lam):
                mult[j] = lj
            np.copyto(u, problem.u_hat, where=~A[active].any(axis=0))  # no active row acts on
            return u, mult

        # episode: bring constraint p to equality, dropping blockers as
        # needed; lam_p accumulates over partial steps
        ap = A[p]
        lam_p = 0.0
        for _ in range(m + 1):
            if active:
                N = A[active].T  # n x k, full column rank by construction
                G = N.T @ N
                try:
                    L = np.linalg.cholesky(G)
                    r = np.linalg.solve(L.T, np.linalg.solve(L, N.T @ ap))
                except np.linalg.LinAlgError:
                    # active normals numerically near-dependent: fall back to
                    # a least-squares projection
                    r = np.linalg.lstsq(N, ap, rcond=None)[0]
                z = ap - N @ r
            else:
                r = np.zeros(0)
                z = ap.copy()

            zz = float(z @ z)
            dependent = zz <= 1e-10 * float(ap @ ap)
            if dependent:
                if r.size == 0 or np.all(r <= STOP_TOL):
                    raise QPInfeasibleError(
                        f"constraint {p} inconsistent with active set {active}"
                    )
                t_full = math.inf
            else:
                # Python floats: a row too short for its offset (|z| ~ 1e-162)
                # gives t_full = inf, not a NumPy overflow warning; the drop
                # step, or the infeasibility below, then decides
                t_full = (float(b[p]) - float(ap @ u)) / zz

            # blocking step: smallest lam_j / r_j over positive r_j,
            # ties broken by lowest constraint index
            t_drop = math.inf
            drop_idx = -1
            for idx, lj in enumerate(lam):
                rj = float(r[idx])
                if rj > STOP_TOL:
                    tj = lj / rj
                    if tj < t_drop - 1e-14 or (
                        abs(tj - t_drop) <= 1e-14
                        and drop_idx >= 0
                        and active[idx] < active[drop_idx]
                    ):
                        t_drop, drop_idx = tj, idx

            t = min(t_full, t_drop)
            if not math.isfinite(t):
                raise QPInfeasibleError(f"unbounded dual step on constraint {p}")

            if not dependent:
                u = u + t * z
            lam = [lj - t * float(r[idx]) for idx, lj in enumerate(lam)]
            lam_p += t

            if t == t_full and not dependent:
                active.append(p)
                lam.append(lam_p)
                break
            active.pop(drop_idx)
            lam.pop(drop_idx)
        else:
            raise RuntimeError("active-set inner loop failed to terminate")
    raise RuntimeError("active-set iteration limit exceeded")


def _active_set_optimum(A, b, norms, u_hat, W):
    """(u, multipliers) of the equality problem on the rows W, or None
    unless that is the optimum to STOP_TOL.

    u = u_hat + N^T lam with N = A[W] and (N N^T) lam = b_W - N u_hat, so
    stationarity holds by construction.  The point is accepted when lam >= 0
    and, by the normalized test the active-set loop stops on, no constraint
    is violated by more than STOP_TOL and no row of W is slack by more than
    STOP_TOL.
    """
    N = A[W]
    try:
        lam = np.linalg.solve(N @ N.T, b[W] - N @ u_hat)
    except np.linalg.LinAlgError:  # dependent rows
        return None
    if not lam.min() >= 0.0:
        return None
    # u_hat + lam @ N, where an entry no row of W acts on keeps its bits
    u = np.add(u_hat, lam @ N, out=u_hat.copy(), where=N.any(axis=0))
    viol = (b - A @ u) / norms
    if not (viol.max() <= STOP_TOL and viol[W].min() >= -STOP_TOL):
        return None
    mult = np.zeros(len(b))
    mult[W] = lam
    return u, mult


def solve_row_batch(u_hat, coeffs, offsets, lower, upper):
    """Exact minimizers of k independent problems, each
    min 1/2||u - u_hat_r||^2 s.t. coeffs_r . u + offsets_r >= 0, lower <= u <= upper,
    with u_hat (k, m) inside the (m,) box, (k, m) coeffs and (k,) offsets.

    Returns (u, lam, push): the optima (k, m), the row multipliers (k,) and
    the box multipliers push = u - (u_hat + lam coeffs), positive on an
    active lower face and negative on an active upper one.  A row counts as
    met by the test solve_qp stops on, a violation of at most STOP_TOL times
    max(||coeffs_r||, 1); one already met keeps lam = 0.  Returns None when
    some row has a non-finite entry or is not met inside the box.  An entry
    with a zero coefficient keeps its bits.

    Newton's method from lam = 0 on phi(lam) = coeffs_r . u(lam) + offsets_r,
    whose slope is the sum of a_q^2 over the entries not at the face they
    move towards: phi is concave, so each step lands on the root of the
    current linear piece or passes a breakpoint, at most m + 1 steps.  Rows
    are few and short, and plain floats cost far less here than a NumPy
    call per operation.
    """
    lo, hi = lower.tolist(), upper.tolist()
    out_u, out_lam, out_push = [], [], []
    for u_hat_r, a_r, c in zip(u_hat.tolist(), coeffs.tolist(), offsets.tolist()):
        floor = -STOP_TOL * max(math.sqrt(sum(x * x for x in a_r)), 1.0)
        lam, u_r = 0.0, u_hat_r
        phi = c + sum(map(operator.mul, a_r, u_r))
        if not (math.isfinite(floor) and math.isfinite(phi)):
            return None  # a non-finite entry, or one whose square overflows
        for _ in range(len(a_r) + 2):
            if phi >= floor:
                break
            slope = sum(x * x for x, y, l, h in zip(a_r, u_r, lo, hi)
                        if (y < h if x > 0.0 else x < 0.0 and y > l))
            if not slope:
                return None  # every entry is at its face: phi has reached its maximum
            lam -= phi / slope
            u_r = [min(max(v + lam * x, l), h) if x else v  # v keeps the sign of a zero
                   for x, v, l, h in zip(a_r, u_hat_r, lo, hi)]
            phi = c + sum(map(operator.mul, a_r, u_r))
        else:
            return None  # not met within the step bound (rounding): solve_qp decides
        out_u.append(u_r)
        out_lam.append(lam)
        out_push.append([y - (v + lam * x) for y, v, x in zip(u_r, u_hat_r, a_r)])
    return np.array(out_u), np.array(out_lam), np.array(out_push)
