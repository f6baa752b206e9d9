import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.qp import (
    STOP_TOL,
    ConstraintRow,
    QPInfeasibleError,
    QPProblem,
    solve_qp,
    solve_row_batch,
)

from reference import dense_solve_qp, kkt_residual


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
    coeffs = rng.normal(size=(m, n))
    slack = rng.uniform(0.5, 3.0, m)
    u_hat = rng.uniform(lo - 2, hi + 2)
    problem = QPProblem(u_hat, coeffs, slack - coeffs @ interior, lo, hi)
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
    feas = (pts @ problem.coeffs.T + problem.offsets >= 0).all(axis=1)
    if not feas.any():
        return None
    vals = 0.5 * np.sum((pts[feas] - problem.u_hat) ** 2, axis=1)
    return float(vals.min())


class TestSolveQP:
    def test_interior_nominal_returned_exactly(self):
        p = QPProblem(np.array([1.0, -0.5]), lower=np.full(2, -2.0), upper=np.full(2, 2.0))
        u, _ = solve_qp(p)
        assert np.array_equal(u, p.u_hat)

    def test_halfspace_projection(self):
        # u_hat = 0, require u1 >= 1: projection lands at (1, 0)
        p = QPProblem(np.zeros(2), [[1.0, 0.0]], [-1.0])
        u, _ = solve_qp(p)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    def test_box_only(self):
        p = QPProblem(np.array([5.0, -5.0]), lower=np.zeros(2), upper=np.ones(2))
        u, _ = solve_qp(p)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    def test_infeasible_zero_row_rejected(self):
        with pytest.raises(ValueError):
            QPProblem(np.zeros(2), np.zeros((1, 2)), [-1.0])

    def test_vacuous_zero_row_allowed(self):
        p = QPProblem(np.zeros(2), np.zeros((1, 2)), [1.0])
        u, _ = solve_qp(p)
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_infeasible_detected(self):
        # u1 >= 1 and u1 <= 0 cannot both hold
        p = QPProblem(np.zeros(2), [[1.0, 0.0]], [-1.0], np.array([-1.0, -1.0]),
                      np.array([0.0, 1.0]))
        with pytest.raises(QPInfeasibleError):
            solve_qp(p)

    def test_opposing_rows_infeasible(self):
        with pytest.raises(QPInfeasibleError):
            solve_qp(QPProblem(np.zeros(2), [[1.0, 0.0], [-1.0, 0.0]], [-2.0, 1.0]))

    def test_equality_like_pair(self):
        # two opposing rows meeting at u1 = 1 pin that coordinate
        u, _ = solve_qp(QPProblem(np.array([0.0, 0.3]), [[1.0, 0.0], [-1.0, 0.0]], [-1.0, 1.0]))
        np.testing.assert_allclose(u, [1.0, 0.3], atol=1e-12)

    def test_random_problems_optimal(self):
        # solver result beats every feasible sample and passes the KKT check
        rng = np.random.default_rng(30)
        for _ in range(300):
            p, interior = random_feasible_problem(rng, with_interior=True)
            u, _ = solve_qp(p)
            assert np.all(u >= p.lower - 1e-9) and np.all(u <= p.upper + 1e-9)
            assert np.all(p.coeffs @ u + p.offsets >= -1e-9)
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
        p = QPProblem(np.array([0.2, 0.3]), lower=np.full(2, -1.0), upper=np.ones(2))
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

    @settings(max_examples=300)
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
        p = QPProblem(np.zeros(2), [[1.0, 0.0]], [-1.0], np.array([-2.0, -2.0]),
                      np.array([2.0, 2.0]))
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_qp(p, guess=[4], max_iter=0)
        u, _ = solve_qp(p, guess=[4])
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), GUESS_KINDS)
    def test_infeasible_problem_raises_with_any_guess(self, seed, kind):
        # a feasible problem plus one more row that no point of the box
        # meets: a . u >= (max of a . u over the box) + 1
        rng = np.random.default_rng(seed)
        p = random_feasible_problem(rng)
        m = len(p.offsets)
        # the feasible part's active set and the new row, in the new order
        active = [g if g < m else g + 1 for g in _guess("active", p, rng)] + [m]
        a = rng.normal(size=p.u_hat.size)
        top = float(np.maximum(a * p.lower, a * p.upper).sum())
        p = QPProblem(p.u_hat, np.vstack([p.coeffs, a]), np.append(p.offsets, -(top + 1.0)),
                      p.lower, p.upper)
        guess = active if kind == "active" else _guess(kind, p, rng)
        with pytest.raises(QPInfeasibleError):
            solve_qp(p, guess=guess)




# one pair row's box: each vehicle's speed, turn rate and climb rate
ROW_LOWER = np.tile([15.0, -0.25, -5.0], 2)
ROW_UPPER = np.tile([25.0, 0.25, 5.0], 2)
# and the coefficient magnitudes drawn for them when not zero
ROW_SCALE = (np.tile([0.01, 0.05, 0.5], 2), np.tile([2.0, 60.0, 5.0], 2))
ROW_KINDS = ["plain", "on-face", "sparse", "out-of-box"]


def random_row_batch(rng, kinds, open_climb):
    """(u_hat, coeffs, offsets, lower, upper) of one row per kind over a
    pair's six controls, u_hat in the box: a row well inside or beyond reach
    (plain), with u_hat on some faces, with some zero coefficients, or
    beyond what the box can meet by 0.1 to 10 (out-of-box).  open_climb
    makes the climb-rate bounds infinite."""
    lower, upper = ROW_LOWER.copy(), ROW_UPPER.copy()
    if open_climb:
        lower[[2, 5]], upper[[2, 5]] = -np.inf, np.inf
    k = len(kinds)
    u_hat = rng.uniform(ROW_LOWER, ROW_UPPER, (k, 6))
    coeffs = rng.uniform(*ROW_SCALE, (k, 6)) * rng.choice([-1.0, 1.0], (k, 6))
    offsets = rng.uniform(-30.0, 5.0, k) - np.einsum("ij,ij->i", coeffs, u_hat)
    for r, kind in enumerate(kinds):
        if kind == "on-face":
            face = np.where(rng.random(6) < 0.5, lower, upper)
            on = (rng.random(6) < 0.5) & np.isfinite(face)
            u_hat[r, on] = face[on]
        elif kind == "sparse":
            zero = rng.random(6) < 0.6
            zero[rng.integers(6)] = False  # zero rows never reach the QP
            coeffs[r, zero] = 0.0
        elif kind == "out-of-box":
            if open_climb:
                coeffs[r, [2, 5]] = 0.0
            a, moving = coeffs[r], coeffs[r] != 0.0
            top = np.where(a > 0.0, upper, lower)[moving] @ a[moving]  # max of a . u
            offsets[r] = -top - rng.uniform(0.1, 10.0)
    return u_hat, coeffs, offsets, lower, upper


def block_problem(u_hat, coeffs, offsets, lower, upper):
    """The k rows of a batch as one QPProblem, row r on entries r*m..r*m+m-1."""
    k, m = coeffs.shape
    blocks = np.zeros((k, k, m))
    blocks[np.arange(k), np.arange(k)] = coeffs
    return QPProblem(u_hat.ravel(), blocks.reshape(k, k * m), offsets,
                     np.tile(lower, k), np.tile(upper, k))


class TestRowBatch:
    """The closed form of independent one-row problems is the optimum
    solve_qp finds, and declines exactly where solve_qp finds none."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8), st.booleans())
    def test_matches_solve_qp(self, seed, kinds, open_climb):
        rng = np.random.default_rng(seed)
        batch = random_row_batch(rng, kinds, open_climb)
        u_hat, coeffs, offsets, lower, upper = batch
        p = block_problem(*batch)
        solved = solve_row_batch(*batch)
        try:
            u_qp, _ = solve_qp(p)
        except QPInfeasibleError:
            assert solved is None
            return
        assert "out-of-box" not in kinds and solved is not None
        u, lam, push = solved
        # solve_qp meets its stopping test to 1e-11 of a row's norm, which
        # moves its point by up to ~1e-9 (its own warm and cold answers
        # differ as much, see TestWarmStart); the closed form lands on the
        # root of each row, so the KKT check holds it to much less
        np.testing.assert_allclose(u.ravel(), np.clip(u_qp, p.lower, p.upper), rtol=0, atol=1e-9)
        assert kkt_residual(p, u.ravel()) <= 1e-8
        # the multipliers certify it: stationarity, signs and tight faces
        assert np.all(lam >= 0.0)
        np.testing.assert_allclose(u - u_hat, lam[:, None] * coeffs + push, rtol=0, atol=1e-12)
        assert np.array_equal(u[push > 0.0], np.broadcast_to(lower, u.shape)[push > 0.0])
        assert np.array_equal(u[push < 0.0], np.broadcast_to(upper, u.shape)[push < 0.0])
        margin = np.einsum("ij,ij->i", coeffs, u) + offsets
        assert np.all(margin >= -STOP_TOL * np.maximum(np.linalg.norm(coeffs, axis=1), 1.0))
        assert np.all(lam[margin > 1e-9] == 0.0)  # a slack row keeps its nominal
        if not open_climb:
            for r in range(len(kinds)):
                one = QPProblem(u_hat[r], coeffs[r:r + 1], offsets[r:r + 1], lower, upper)
                best = brute_force_best(one, 2000, rng)
                if best is not None:
                    assert objective(u[r], u_hat[r]) <= best + 1e-9

    @pytest.mark.parametrize("where", ["coefficient", "offset"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_declined(self, where, bad):
        # solve_qp's problem rejects the row, so the closed form leaves it;
        # row 0 alone would be solved (40 - 45 < 0 <= 60.5 - 45)
        u_hat = np.array([[20.0, 0.0, 0.0, 20.0, 0.0, 0.0]] * 2)
        coeffs = np.ones((2, 6))
        offsets = np.array([-45.0, -45.0])
        assert solve_row_batch(u_hat[:1], coeffs[:1], offsets[:1], ROW_LOWER, ROW_UPPER)
        (coeffs[1, :1] if where == "coefficient" else offsets[1:])[0] = bad
        assert solve_row_batch(u_hat, coeffs, offsets, ROW_LOWER, ROW_UPPER) is None
        with pytest.raises(ValueError, match="non-finite constraint row"):
            block_problem(u_hat, coeffs, offsets, ROW_LOWER, ROW_UPPER)

    def test_met_rows_keep_the_nominal(self):
        # u_hat meets the row, here on a face of the box: nothing moves
        u_hat = np.array([[15.0, 0.25, 0.0, 20.0, -0.1, 1.0]])
        coeffs = np.array([[1.0, 2.0, 0.0, -0.5, 3.0, 0.0]])
        u, lam, push = solve_row_batch(u_hat, coeffs, np.array([0.0]), ROW_LOWER, ROW_UPPER)
        assert np.array_equal(u, u_hat) and lam.tolist() == [0.0]
        assert not push.any()

    def test_entry_on_a_face_moves_away_from_it(self):
        # entry 0 sits on its lower face and the row pushes it up: it is
        # free, so the optimum is the plain projection onto the row
        u_hat = np.array([[15.0, 0.0, 0.0, 20.0, 0.0, 0.0]])
        coeffs = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        u, lam, push = solve_row_batch(u_hat, coeffs, np.array([-16.0]), ROW_LOWER, ROW_UPPER)
        np.testing.assert_allclose(u[0], [16.0, 0, 0, 20.0, 0, 0], rtol=0, atol=1e-12)
        assert lam[0] == pytest.approx(1.0) and not push.any()
        # at its upper face it cannot move, and the row is out of reach
        u_hat[0, 0] = 25.0
        assert solve_row_batch(u_hat, coeffs, np.array([-26.0]), ROW_LOWER, ROW_UPPER) is None
        with pytest.raises(QPInfeasibleError):
            solve_qp(block_problem(u_hat, coeffs, np.array([-26.0]), ROW_LOWER, ROW_UPPER))


@pytest.mark.parametrize("path", ["loop", "guess", "row batch"])
def test_an_entry_no_active_row_acts_on_keeps_its_bits(path):
    # one row acting on entry 0 alone: u_hat + t * 0.0 would turn the -0.0
    # of entry 1 into 0.0, so both zeros must come out as given
    u_hat, coeffs, offsets = np.array([0.0, -0.0, 0.0]), np.array([[1.0, 0.0, -0.0]]), [-1.0]
    if path == "row batch":
        u = solve_row_batch(u_hat[None], coeffs, np.array(offsets), np.full(3, -np.inf),
                            np.full(3, np.inf))[0][0]
    else:
        u, _ = solve_qp(QPProblem(u_hat, coeffs, offsets), guess=[0] if path == "guess" else ())
    assert u.view(np.int64).tolist() == np.array([1.0, -0.0, 0.0]).view(np.int64).tolist()


def reference_stacked(u_hat, rows, lower, upper):
    """A u >= b built one (coeffs, offset) row at a time, with each check in
    the order a per-row builder makes it: every row's offset (finite, and not
    negative on a zero row) as the row is made, then the box, then the
    coefficients once the rows are stacked."""
    for coeffs, offset in rows:
        if not math.isfinite(offset):
            raise ValueError("non-finite constraint row")
        if offset < 0.0 and not np.any(coeffs):
            raise ValueError("zero row with negative offset is infeasible by construction")
    if (lower > upper).any():
        raise ValueError("empty box (lower > upper)")
    n = u_hat.size
    eye = np.eye(n)
    lo, hi = np.isfinite(lower), np.isfinite(upper)
    stacked_rows = np.array([coeffs for coeffs, _ in rows], dtype=float).reshape(-1, n)
    if not np.isfinite(stacked_rows).all():
        k = np.flatnonzero(~np.isfinite(stacked_rows).all(axis=1))[0]
        raise ValueError(f"non-finite constraint row {k}")
    A = np.concatenate([stacked_rows, eye[lo], 0.0 - eye[hi]])
    b = np.concatenate([[-offset for _, offset in rows], lower[lo], -upper[hi]])
    return A, b


# edits that make a random feasible problem special or invalid: applied to
# row or column (index mod m or n) with a value drawn from the generator
EDITS = ["bad-offset", "zero-row", "vacuous-zero-row", "sparse-row", "zero-offset",
         "bad-coefficient", "empty-box", "open-face"]


def _edit(kind, index, rng, u_hat, coeffs, offsets, lower, upper):
    m, n = coeffs.shape
    j = index % n
    if kind == "empty-box":
        lower[j] = upper[j] + rng.uniform(0.1, 1.0)
    elif kind == "open-face":
        (lower if rng.random() < 0.5 else upper)[j] = rng.choice([-np.inf, np.inf])
        lower[j], upper[j] = min(lower[j], upper[j]), max(lower[j], upper[j])
    elif m:
        k = index % m
        if kind == "bad-offset":
            offsets[k] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == "zero-row":
            coeffs[k] = 0.0
            offsets[k] = -rng.uniform(0.1, 2.0)
        elif kind == "vacuous-zero-row":
            coeffs[k] = 0.0
            offsets[k] = rng.choice([0.0, -0.0, rng.uniform(0.1, 2.0)])
        elif kind == "sparse-row":  # one nonzero coefficient, as pair rows have few
            coeffs[k, np.arange(n) != j] = 0.0
            offsets[k] = rng.uniform(-2.0, 2.0)
        elif kind == "zero-offset":
            offsets[k] = rng.choice([0.0, -0.0])
        else:
            coeffs[k, j] = rng.choice([np.nan, np.inf, -np.inf])


def _outcome(call):
    """(u, multipliers) as bytes, or the exception's type and message."""
    try:
        u, mult = call()
    except (ValueError, RuntimeError) as err:  # QPInfeasibleError is a RuntimeError
        return type(err), str(err)
    return u.tobytes(), mult.tobytes()


class TestRowValidation:
    """The rows are checked once, at construction, with the messages and in
    the order of a per-row builder (reference_stacked)."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 63)), max_size=3))
    def test_array_rows_match_the_per_row_reference(self, seed, edits):
        rng = np.random.default_rng(seed)
        p = random_feasible_problem(rng)
        u_hat, coeffs, offsets = p.u_hat, p.coeffs.copy(), p.offsets.copy()
        lower, upper = p.lower.copy(), p.upper.copy()
        for kind, index in edits:
            _edit(kind, index, rng, u_hat, coeffs, offsets, lower, upper)
        rows = [(c.copy(), float(o)) for c, o in zip(coeffs, offsets)]
        try:
            ref = reference_stacked(u_hat, rows, lower, upper)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                QPProblem(u_hat, coeffs, offsets, lower, upper)
            assert str(got.value) == str(err)
            return
        p = QPProblem(u_hat, coeffs, offsets, lower, upper)
        A, b = p.stacked()
        assert A.shape == ref[0].shape and A.tobytes() == ref[0].tobytes()
        assert b.shape == ref[1].shape and b.tobytes() == ref[1].tobytes()
        assert [(r.coeffs.tobytes(), r.offset) for r in p.rows] == [
            (c.tobytes(), o) for c, o in rows
        ]
        reference = SimpleNamespace(u_hat=u_hat, stacked=lambda: ref)
        guess = sorted(rng.choice(len(b), size=int(rng.integers(0, len(b) + 1)),
                                  replace=False).tolist())
        for g in ([], guess):
            assert _outcome(lambda: solve_qp(p, guess=g)) == _outcome(
                lambda: dense_solve_qp(reference, guess=g))

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
    def test_non_finite_coefficient_rejected(self, seed, m, data):
        rng = np.random.default_rng(seed)
        p = random_feasible_problem(rng, m=m)
        k = data.draw(st.integers(0, m - 1), label="row")
        j = data.draw(st.integers(0, p.u_hat.size - 1), label="column")
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
        coeffs = p.coeffs.copy()
        coeffs[k, j] = bad
        # the problem cannot be built, so no solve or KKT check sees the row
        with pytest.raises(ValueError, match=f"non-finite constraint row {k}"):
            QPProblem(p.u_hat, coeffs, p.offsets, p.lower, p.upper)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="non-finite constraint row"):
            QPProblem(np.zeros(2), [[1.0, 0.0]], [offset])

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("entry", [0, 1])
    def test_nan_bound_rejected(self, side, entry):
        # a NaN bound is neither a face nor open: solve_qp would drop it
        box = {"lower": np.full(2, -1.0), "upper": np.ones(2)}
        box[side][entry] = np.nan
        with pytest.raises(ValueError, match=f"NaN {side} bound at entry {entry}"):
            QPProblem(np.array([-5.0, 0.0]), **box)

    def test_nan_bound_named_before_empty_box(self):
        with pytest.raises(ValueError, match="NaN upper bound at entry 0"):
            QPProblem(np.zeros(2), lower=np.array([0.0, 2.0]), upper=np.array([np.nan, 1.0]))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, 2\) matrix"):
            QPProblem(np.zeros(2), [[1.0, 0.0, 0.0]], [0.5])
        with pytest.raises(ValueError, match=r"\(k, 2\) matrix"):
            QPProblem(np.zeros(2), [[1.0, 0.0]], [0.5, 1.0])

    def test_row_is_a_named_tuple(self):
        # the rows view: one ConstraintRow per matrix row, built on read
        p = QPProblem(np.zeros(2), [[1.0, 2.0], [0.0, -1.0]], [0.5, 3.0])
        rows = p.rows
        assert isinstance(rows, tuple) and len(rows) == 2
        assert all(isinstance(row, ConstraintRow) for row in rows)
        coeffs, offset = rows[0]
        assert coeffs is rows[0].coeffs and offset == rows[0].offset == 0.5
        np.testing.assert_array_equal(rows[1].coeffs, [0.0, -1.0])
        assert QPProblem(np.zeros(2)).rows == ()
