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

kkt_residual is an independent optimality verifier: it reconstructs
multipliers for a candidate point with a nonnegative least-squares fit
(scipy's NNLS, not the solver's own machinery) and reports the worst KKT
violation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class QPInfeasibleError(RuntimeError):
    """The constraint rows and box admit no common point."""


@dataclass(frozen=True)
class ConstraintRow:
    """Half-space constraint coeffs . u + offset >= 0 over the stacked control."""

    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if not (np.isfinite(c).all() and math.isfinite(self.offset)):
            raise ValueError("non-finite constraint row")
        if self.offset < 0.0 and not c.any():
            raise ValueError("zero row with negative offset is infeasible by construction")

    def margin(self, u: np.ndarray) -> float:
        return float(self.coeffs @ u) + self.offset


@dataclass
class QPProblem:
    """Nominal control, barrier rows, and the per-entry box bounds."""

    u_hat: np.ndarray
    rows: list[ConstraintRow] = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.u_hat = np.asarray(self.u_hat, dtype=float)
        n = self.u_hat.size
        self.lower = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if (self.lower > self.upper).any():
            raise ValueError("empty box (lower > upper)")

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All constraints as A u >= b: barrier rows first, then finite box
        faces (lower, then upper), preserving index order."""
        n = self.u_hat.size
        eye = _identity(n)
        lo, hi = np.isfinite(self.lower), np.isfinite(self.upper)
        rows = np.array([r.coeffs for r in self.rows], dtype=float).reshape(-1, n)
        A = np.concatenate([rows, eye[lo], 0.0 - eye[hi]])  # 0.0 - x: no negative zeros
        b = np.concatenate([[-r.offset for r in self.rows], self.lower[lo], -self.upper[hi]])
        return A, b


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def solve_qp(problem: QPProblem, tol: float = 1e-11, max_iter: int | None = None,
             guess: Sequence[int] = ()):
    """Exact minimizer of 1/2||u - u_hat||^2 over the rows and box.

    Returns (u, multipliers) with multipliers aligned to the stacked
    constraint order of QPProblem.stacked().  Raises QPInfeasibleError when
    the feasible region is empty.  guess, stacked indices of constraints
    expected to be active, changes only how the optimum is found.
    """
    A, b = problem.stacked()
    m, n = A.shape
    u = problem.u_hat.copy()
    if m == 0:
        return u, np.zeros(0)
    norms = np.maximum(np.sqrt(np.add.reduce(A * A, axis=1)), 1.0)  # row 2-norms
    if 0 < len(guess) <= n:  # more than n rows cannot be independent
        warm = _active_set_optimum(A, b, norms, u, guess, tol)
        if warm is not None:
            return warm
    if max_iter is None:
        max_iter = 50 * (m + n)

    active: list[int] = []
    lam: list[float] = []

    for _ in range(max_iter):
        viol = (b - A @ u) / norms
        p = int(np.argmax(viol))  # first maximum: lowest index on ties
        if viol[p] <= tol:
            mult = np.zeros(m)
            for j, lj in zip(active, lam):
                mult[j] = lj
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
                if r.size == 0 or np.all(r <= tol):
                    raise QPInfeasibleError(
                        f"constraint {p} inconsistent with active set {active}"
                    )
                t_full = math.inf
            else:
                t_full = (b[p] - float(ap @ u)) / zz

            # blocking step: smallest lam_j / r_j over positive r_j,
            # ties broken by lowest constraint index
            t_drop = math.inf
            drop_idx = -1
            for idx, lj in enumerate(lam):
                rj = float(r[idx])
                if rj > tol:
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


def _active_set_optimum(A, b, norms, u_hat, W, tol):
    """(u, multipliers) of the equality problem on the rows W, or None
    unless that is the optimum to tol.

    u = u_hat + N^T lam with N = A[W] and (N N^T) lam = b_W - N u_hat, so
    stationarity holds by construction.  The point is accepted when lam >= 0
    and, by the normalized test the active-set loop stops on, no constraint
    is violated by more than tol and no row of W is slack by more than tol.
    """
    N = A[W]
    try:
        lam = np.linalg.solve(N @ N.T, b[W] - N @ u_hat)
    except np.linalg.LinAlgError:  # dependent rows
        return None
    if not lam.min() >= 0.0:
        return None
    u = u_hat + lam @ N
    viol = (b - A @ u) / norms
    if not (viol.max() <= tol and viol[W].min() >= -tol):
        return None
    mult = np.zeros(len(b))
    mult[W] = lam
    return u, mult


def kkt_residual(problem: QPProblem, u: np.ndarray, active_tol: float = 1e-6) -> float:
    """Worst KKT violation at u with multipliers reconstructed by NNLS.

    Components: primal feasibility, stationarity of u - u_hat against the
    cone of near-active normals, dual feasibility (guaranteed by NNLS), and
    complementary slackness of the reconstructed multipliers.
    """
    from scipy.optimize import nnls  # the only scipy use; kept off the run path
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
