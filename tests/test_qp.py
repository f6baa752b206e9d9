import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.qp import ConstraintRow, QPInfeasibleError, QPProblem, kkt_residual, solve_qp


def objective(u, u_hat):
    d = np.asarray(u) - np.asarray(u_hat)
    return 0.5 * float(d @ d)


def random_feasible_problem(rng, n=None, m=None, with_interior=False):
    """Random rows through a random interior point of a random box, so the
    feasible set is guaranteed nonempty (slack bounded away from 0 keeps it
    full-dimensional for the sampling oracle)."""
    n = n or int(rng.integers(2, 9))
    m = m if m is not None else int(rng.integers(0, 13))
    lo = rng.uniform(-5, 0, n)
    hi = lo + rng.uniform(0.5, 6, n)
    interior = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        slack = rng.uniform(0.5, 3.0)
        rows.append(ConstraintRow(a, -(float(a @ interior) - slack)))
    u_hat = rng.uniform(lo - 2, hi + 2)
    problem = QPProblem(u_hat, rows, lo, hi)
    return (problem, interior) if with_interior else problem


def brute_force_best(problem, samples, rng, interior=None):
    """Best feasible point among box samples: uniform draws, the clamped
    nominal, and (when a known feasible point is given) jitter around it."""
    n = problem.u_hat.size
    pts = [
        rng.uniform(problem.lower, problem.upper, size=(samples, n)),
        np.clip(problem.u_hat, problem.lower, problem.upper)[None, :],
    ]
    if interior is not None:
        jit = interior + rng.normal(scale=0.3, size=(samples // 4, n))
        pts.append(np.clip(jit, problem.lower, problem.upper))
        pts.append(interior[None, :])
    pts = np.vstack(pts)
    feas = np.ones(len(pts), dtype=bool)
    for r in problem.rows:
        feas &= pts @ r.coeffs + r.offset >= 0
    if not feas.any():
        return None
    vals = 0.5 * np.sum((pts[feas] - problem.u_hat) ** 2, axis=1)
    return float(vals.min())


class TestSolveQP:
    def test_interior_nominal_returned_exactly(self):
        p = QPProblem(np.array([1.0, -0.5]), [], np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        u, _ = solve_qp(p)
        assert np.array_equal(u, p.u_hat)

    def test_halfspace_projection(self):
        # u_hat = 0, require u1 >= 1: projection lands at (1, 0)
        p = QPProblem(np.zeros(2), [ConstraintRow(np.array([1.0, 0.0]), -1.0)])
        u, _ = solve_qp(p)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    def test_box_only(self):
        p = QPProblem(np.array([5.0, -5.0]), [], np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        u, _ = solve_qp(p)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    def test_infeasible_zero_row_rejected(self):
        with pytest.raises(ValueError):
            ConstraintRow(np.zeros(2), -1.0)

    def test_vacuous_zero_row_allowed(self):
        p = QPProblem(np.zeros(2), [ConstraintRow(np.zeros(2), 1.0)])
        u, _ = solve_qp(p)
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_infeasible_detected(self):
        # u1 >= 1 and u1 <= 0 cannot both hold
        rows = [ConstraintRow(np.array([1.0, 0.0]), -1.0)]
        p = QPProblem(np.zeros(2), rows, np.array([-1.0, -1.0]), np.array([0.0, 1.0]))
        with pytest.raises(QPInfeasibleError):
            solve_qp(p)

    def test_opposing_rows_infeasible(self):
        rows = [
            ConstraintRow(np.array([1.0, 0.0]), -2.0),
            ConstraintRow(np.array([-1.0, 0.0]), 1.0),
        ]
        with pytest.raises(QPInfeasibleError):
            solve_qp(QPProblem(np.zeros(2), rows))

    def test_equality_like_pair(self):
        # two opposing rows meeting at u1 = 1 pin that coordinate
        rows = [
            ConstraintRow(np.array([1.0, 0.0]), -1.0),
            ConstraintRow(np.array([-1.0, 0.0]), 1.0),
        ]
        u, _ = solve_qp(QPProblem(np.array([0.0, 0.3]), rows))
        np.testing.assert_allclose(u, [1.0, 0.3], atol=1e-12)

    def test_random_problems_optimal(self):
        # solver result beats every feasible sample and passes the KKT check
        rng = np.random.default_rng(30)
        for _ in range(300):
            p, interior = random_feasible_problem(rng, with_interior=True)
            u, _ = solve_qp(p)
            assert np.all(u >= p.lower - 1e-9) and np.all(u <= p.upper + 1e-9)
            for r in p.rows:
                assert r.margin(u) >= -1e-9
            assert kkt_residual(p, u) <= 1e-8
            best = brute_force_best(p, 2_000, rng, interior)
            assert best is not None
            assert objective(u, p.u_hat) <= best + 1e-4

    def test_multipliers_certify_solution(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_feasible_problem(rng)
            u, mult = solve_qp(p)
            A, b = p.stacked()
            assert np.all(mult >= 0)
            np.testing.assert_allclose(u - p.u_hat, A.T @ mult, atol=1e-9)
            assert np.all(A @ u - b >= -1e-9)


class TestKKTResidual:
    def test_solution_residual_small(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = random_feasible_problem(rng)
            u, _ = solve_qp(p)
            assert kkt_residual(p, u) <= 1e-8

    def test_unconstrained_nominal_zero(self):
        p = QPProblem(np.array([0.2, 0.3]), [], np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert kkt_residual(p, p.u_hat) == 0.0

    def test_perturbation_detected(self):
        rng = np.random.default_rng(33)
        detected = 0
        total = 100
        for _ in range(total):
            p = random_feasible_problem(rng)
            u, _ = solve_qp(p)
            d = rng.normal(size=u.size)
            d *= 1e-2 / np.linalg.norm(d)
            if kkt_residual(p, u + d) > 1e-3:
                detected += 1
        assert detected == total

    def test_objective_dominates_sampled_points(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            p = random_feasible_problem(rng)
            u, _ = solve_qp(p)
            best = brute_force_best(p, 10_000, rng)
            if best is not None:
                assert objective(u, p.u_hat) <= best + 1e-9


def _guess(kind, problem, rng):
    """A guess of stacked constraint indices of the given kind."""
    A, _ = problem.stacked()
    m = A.shape[0]
    if kind == "empty":
        return []
    if kind == "all":
        return list(range(m))
    if kind == "subset":
        return sorted(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist())
    _, mult = solve_qp(problem)
    return np.flatnonzero(mult > 0.0).tolist()


GUESS_KINDS = st.sampled_from(["empty", "all", "subset", "active"])


class TestWarmStart:
    """A guessed active set changes how the optimum is found, not what it is."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), GUESS_KINDS)
    def test_any_guess_gives_the_cold_optimum(self, seed, kind):
        rng = np.random.default_rng(seed)
        p = random_feasible_problem(rng)
        guess = _guess(kind, p, rng)
        u_cold, _ = solve_qp(p)
        u, mult = solve_qp(p, guess=guess)
        np.testing.assert_allclose(u, u_cold, rtol=0, atol=1e-9)
        assert kkt_residual(p, u) <= 1e-8
        A, b = p.stacked()
        assert np.all(mult >= 0)
        np.testing.assert_allclose(u - p.u_hat, A.T @ mult, rtol=0, atol=1e-9)
        assert np.all(A @ u - b >= -1e-9)

    def test_true_active_set_skips_the_loop(self):
        # with no iterations allowed the cold loop raises, so only an
        # accepted guess can return
        rng = np.random.default_rng(35)
        warm = 0
        for _ in range(200):
            p = random_feasible_problem(rng)
            u_cold, mult = solve_qp(p)
            active = np.flatnonzero(mult > 0.0).tolist()
            if not active:
                continue
            u, _ = solve_qp(p, guess=active, max_iter=0)
            np.testing.assert_allclose(u, u_cold, rtol=0, atol=1e-9)
            warm += 1
        assert warm >= 150

    def test_wrong_guess_falls_back_to_the_loop(self):
        # u1 >= 1 is the only active constraint; guessing the upper face of
        # u2 instead gives a negative multiplier, so the loop must run
        rows = [ConstraintRow(np.array([1.0, 0.0]), -1.0)]
        p = QPProblem(np.zeros(2), rows, np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_qp(p, guess=[4], max_iter=0)
        u, _ = solve_qp(p, guess=[4])
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), GUESS_KINDS)
    def test_infeasible_problem_raises_with_any_guess(self, seed, kind):
        # a feasible problem plus one more row that no point of the box
        # meets: a . u >= (max of a . u over the box) + 1
        rng = np.random.default_rng(seed)
        p = random_feasible_problem(rng)
        m = len(p.rows)
        # the feasible part's active set and the new row, in the new order
        active = [g if g < m else g + 1 for g in _guess("active", p, rng)] + [m]
        a = rng.normal(size=p.u_hat.size)
        top = float(np.maximum(a * p.lower, a * p.upper).sum())
        p.rows.append(ConstraintRow(a, -(top + 1.0)))
        guess = active if kind == "active" else _guess(kind, p, rng)
        with pytest.raises(QPInfeasibleError):
            solve_qp(p, guess=guess)
