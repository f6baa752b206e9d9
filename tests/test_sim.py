import math
import tracemalloc
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.barrier import PairState
from wingsafe.dynamics import ActuatorLimits, VehicleState
from wingsafe.scenarios import (
    VehicleSpec,
    builtin_scenarios,
    example2_geometry,
    run_scenario,
    scenario_circle20,
    scenario_example1,
    scenario_example2,
    scenario_sweep,
)
import wingsafe.sim
from wingsafe.sim import (
    METRIC_BLOCK_ELEMS,
    METRIC_BLOCK_MIN_STEPS,
    CircleController,
    GoalController,
    Metrics,
    Simulation,
    SimTrace,
    compute_metrics,
    metric_block_steps,
)

from conftest import DS, EVADE_RATE, filter_clamp, pair_h, replay_pairs, vehicle_minima


class TestCircleController:
    LIMITS = ActuatorLimits(1.0, 25.0, 0.5, 5.0)

    def test_on_circle_exact_feedforward(self):
        c = CircleController(0.0, 0.0, 50.0, 1, 10.0)
        # on the circle at (50, 0) heading +y (CCW tangent)
        u = c.control(VehicleState(50.0, 0.0, math.pi / 2, 0), 0.0)
        assert u == (10.0, 10.0 / 50.0, 0.0)

    def test_example1_left_vehicle_constant(self):
        cfg = scenario_example1()
        spec = cfg.vehicles[0]
        ctrl = cfg.controllers()[0]
        speed, turn_rate, climb_rate = ctrl.control(spec.state, 0.0)
        assert speed == 16.0
        assert turn_rate == pytest.approx(-EVADE_RATE, abs=1e-15)
        assert climb_rate == 0.0

    def test_far_off_circle_saturates(self):
        # the raw command exceeds the turn-rate limit; the filter saturates it
        c = CircleController(0.0, 0.0, 50.0, 1, 10.0)
        raw = c.control(VehicleState(500.0, 0.0, -math.pi / 2, 0), 0.0)
        assert abs(raw[1]) > self.LIMITS.omega_max
        _, turn_rate, _ = filter_clamp([raw], self.LIMITS)[0].tolist()
        assert abs(turn_rate) == self.LIMITS.omega_max


class TestGoalController:
    LIMITS = ActuatorLimits(15.0, 25.0, math.radians(13), 5.0)

    def test_aligned_heading_no_turn(self):
        g = GoalController(100.0, 0.0, cruise_speed=20.0)
        u = g.control(VehicleState(0, 0, 0, 0), 0.0)
        assert u == (20.0, 0.0, 0.0)

    def test_timed_arrival_speed(self):
        g = GoalController(100.0, 0.0, arrival_time=5.0)
        speed, _, _ = g.control(VehicleState(0, 0, 0, 0), 0.0)
        assert speed == pytest.approx(20.0)
        raw_late = g.control(VehicleState(0, 0, 0, 0), 4.0)
        assert raw_late[0] == 100.0  # 100 m in the last 1 s
        speed_late, _, _ = filter_clamp([raw_late], self.LIMITS)[0].tolist()
        assert speed_late == 25.0  # 100/1 clamped to v_max

    def test_bearing_error_saturates_turn(self):
        g = GoalController(0.0, 100.0, cruise_speed=20.0)
        raw = g.control(VehicleState(0, 0, 0, 0), 0.0)
        assert raw[1] == math.pi / 2  # k_heading = 1 times the bearing error
        _, turn_rate, _ = filter_clamp([raw], self.LIMITS)[0].tolist()
        assert turn_rate == self.LIMITS.omega_max


class TestStepWorld:
    def test_filter_off_straight_advance(self):
        cfg = replace(scenario_sweep(350.0), mode="off")
        fc = cfg.filter_config()
        ctrl = [GoalController(1000.0, 0.0, cruise_speed=20.0)]
        sim = Simulation([VehicleState(0, 0, 0, 0)], ctrl, fc, "off", 0.5, 1)
        sim.step()
        assert sim.states[0].px == pytest.approx(10.0, abs=1e-12)
        assert sim.states[0].py == 0.0
        assert sim.t == 0.5

    def test_single_vehicle_filter_identity(self):
        cfg = scenario_sweep(350.0)
        fc = cfg.filter_config()
        sim = Simulation(
            [VehicleState(0, 0, 0, 0)], [GoalController(1000.0, 0.0)], fc, "centralized", 0.01, 1
        )
        sim.step()
        trace = sim.finalize()
        assert np.array_equal(trace.filtered, trace.nominal)

    def test_step_past_step_count_raises(self):
        fc = replace(scenario_sweep(350.0), mode="off").filter_config()
        sim = Simulation([VehicleState(0, 0, 0, 0)], [GoalController(1000.0, 0.0)], fc, "off",
                         0.5, 1)
        sim.step()
        with pytest.raises(IndexError, match="all 1 steps"):
            sim.step()
        assert sim.t == 0.5 and sim.finalize().n_steps == 1


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        cfg = scenario_sweep(330.0)
        cfg = replace(cfg, duration=5.0)
        t1, m1 = run_scenario(cfg)
        t2, m2 = run_scenario(cfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.filtered, t2.filtered)
        (h1, _, _), (h2, _, _) = (replay_pairs(t, cfg.filter_config()) for t in (t1, t2))
        assert np.array_equal(h1, h2, equal_nan=True)
        assert np.array_equal(t1.min_pair_h_shaped, t2.min_pair_h_shaped, equal_nan=True)
        assert m1 == m2

    def test_identical_warm_started_runs_bitwise(self):
        # twenty vehicles meet within 8 s; each QP step that follows a QP
        # step is warm-started from that step's active set
        cfg = replace(scenario_circle20(start_radius=150.0), duration=8.0)
        (t1, m1), (t2, m2) = run_scenario(cfg), run_scenario(cfg)
        assert not np.array_equal(t1.filtered, t1.nominal)  # the QP ran
        for name in ("states", "filtered", "min_pair_h_shaped", "final_states"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name), err_msg=name)
        replays = [replay_pairs(t, cfg.filter_config()) for t in (t1, t2)]
        for name, a, b in zip(("pair h", "pair h_shaped", "pair in_sensor"), *replays):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert t1.events == t2.events and m1 == m2

    def test_trace_shape_and_timestamps(self):
        cfg = replace(scenario_sweep(330.0), duration=2.0)
        trace, m = run_scenario(cfg)
        assert trace.n_steps == round(2.0 / cfg.dt) == m.n_steps
        assert np.all(np.diff(trace.times) > 0)
        assert trace.times[0] == 0.0


class TestBuiltinScenarios:
    def test_exactly_four(self):
        names = set(builtin_scenarios())
        assert names == {"example1", "example2", "sweep", "circle20"}

    def test_example1_initial_states(self):
        cfg = scenario_example1()
        v1, v2 = 16.0, 20.0
        r1, r2 = v1 / EVADE_RATE, v2 / EVADE_RATE
        R = cfg.sensor_range
        a, b = cfg.vehicles[0].state, cfg.vehicles[1].state
        assert (a.px, a.py) == (r1 + R / 2, r1)
        assert (b.px, b.py) == (-r2 - R / 2, r2)
        assert a.heading == b.heading == -math.pi / 2

    def test_sweep_initial_states_and_goals(self):
        cfg = scenario_sweep(350.0)
        a, b = cfg.vehicles[0], cfg.vehicles[1]
        assert (a.state.px, a.state.py, a.state.heading) == (-200.0, 0.0, 0.0)
        assert (b.state.px, b.state.py, b.state.heading) == (200.0, 0.0, math.pi)
        assert a.controller["goal"][:2] == [200.0, 0.0]
        assert b.controller["goal"][:2] == [-200.0, 0.0]

    def test_circle20_geometry(self):
        cfg = scenario_circle20()
        assert len(cfg.vehicles) == 20
        for k, v in enumerate(cfg.vehicles):
            ang = 2 * math.pi * k / 20
            # heading points at the origin
            bearing = math.atan2(-v.state.py, -v.state.px)
            assert math.cos(v.state.heading - bearing) == pytest.approx(1.0, abs=1e-12)
            assert math.hypot(v.state.px, v.state.py) == pytest.approx(1250.0, abs=1e-9)
        # equal angular spacing of 18 degrees
        angs = sorted(math.atan2(v.state.py, v.state.px) for v in cfg.vehicles)
        gaps = np.diff(angs)
        np.testing.assert_allclose(gaps, math.radians(18.0), atol=1e-9)
        # neighbors start outside sensing range
        d_neighbor = 2 * 1250.0 * math.sin(math.pi / 20)
        assert d_neighbor > cfg.sensor_range

    def test_example2_onset_alignment(self):
        # sensing onset must land exactly on a step boundary: the pair closes
        # 2 * v_max * dt = 0.5 per step and starts 2*epsilon = 2.0 outside
        cfg = scenario_example2()
        d_onset, _ = example2_geometry()
        gap0 = cfg.vehicles[0].state.px - cfg.vehicles[1].state.px
        assert gap0 == pytest.approx(d_onset + 2.0, abs=1e-12)
        assert cfg.sensor_range > d_onset


class TestFailureDemos:
    def test_example1_reaches_negative_ds(self):
        cfg = scenario_example1()
        trace, metrics = run_scenario(cfg)
        pair_h, _, _ = replay_pairs(trace, cfg.filter_config())
        finite = pair_h[np.isfinite(pair_h)]
        assert finite.min() <= -DS + 0.1
        assert metrics.violation

    def test_example2_raw_jump_and_shaped_smooth(self):
        cfg = scenario_example2()
        d_onset, _ = example2_geometry()
        pair = PairState(
            VehicleState(d_onset / 2, 0, -math.pi, 0), VehicleState(-d_onset / 2, 0, 0, 0)
        )
        h_onset = pair_h(pair, cfg.barrier)
        assert 0 < h_onset < 0.05

        def onset_jump_stats(cfg, trace):
            _, _, in_sensor = replay_pairs(trace, cfg.filter_config())
            onset = int(np.argmax(in_sensor[:, 0]))
            jumps = np.linalg.norm(np.diff(trace.filtered, axis=0), axis=2)
            return float(jumps[onset - 1].max()), float(np.median(jumps))

        raw = replace(cfg, duration=3.0)
        raw_trace, _ = run_scenario(raw)
        raw_jump, raw_med = onset_jump_stats(raw, raw_trace)
        assert raw_jump >= 10 * raw_med and raw_jump > 1.0

        shaped = replace(cfg, duration=3.0, shaping_xi=0.5 * h_onset)
        sh_trace, _ = run_scenario(shaped)
        sh_jump, sh_med = onset_jump_stats(shaped, sh_trace)
        assert sh_jump == 0.0
        assert sh_jump <= sh_med


class TestForwardInvariance:
    def test_random_encounters_stay_safe(self):
        # short version of the acceptance property: h_shaped >= -1e-3 along
        # filtered trajectories for random crossing encounters that start
        # outside sensing range (the shaped barrier's operating envelope)
        rng = np.random.default_rng(50)
        R = 350.0
        base = scenario_sweep(R)
        for _ in range(10):
            while True:
                c = rng.uniform(-50, 50, 2)
                phi_a = rng.uniform(-math.pi, math.pi)
                phi_b = phi_a + math.pi + rng.uniform(-2.5, 2.5)
                da, db = rng.uniform(180.0, 320.0, 2)
                pa = c - da * np.array([math.cos(phi_a), math.sin(phi_a)])
                pb = c - db * np.array([math.cos(phi_b), math.sin(phi_b)])
                if math.hypot(*(pa - pb)) > R:
                    break
            ga = c + 420.0 * np.array([math.cos(phi_a), math.sin(phi_a)])
            gb = c + 420.0 * np.array([math.cos(phi_b), math.sin(phi_b)])
            cfg = replace(
                base,
                vehicles=(
                    VehicleSpec(
                        VehicleState(pa[0], pa[1], phi_a, 0.0),
                        {"type": "goal", "goal": [ga[0], ga[1], 0.0], "cruise_speed": 20.0},
                    ),
                    VehicleSpec(
                        VehicleState(pb[0], pb[1], phi_b, 0.0),
                        {"type": "goal", "goal": [gb[0], gb[1], 0.0], "cruise_speed": 20.0},
                    ),
                ),
                duration=15.0,
            )
            trace, metrics = run_scenario(cfg)
            assert metrics.min_h_shaped >= -1e-3


class TestMetrics:
    def test_fields(self):
        trace, m = run_scenario(replace(scenario_sweep(350.0), duration=2.0))
        assert m.n_steps == 200
        assert len(m.max_control_jump) == 2
        assert set(m.closest_approach) == {"0-1"}
        t_min, d_min = m.closest_approach["0-1"]
        assert d_min >= m.min_distance
        assert 0 <= t_min <= 2.0 + trace.times[1]

    def test_zero_steps(self):
        # a Simulation finalized before its first step (a ScenarioConfig has at least one)
        cfg = scenario_sweep()
        sim = Simulation([v.state for v in cfg.vehicles], cfg.controllers(), cfg.filter_config(),
                         cfg.mode, cfg.dt, n_steps=0)
        trace = sim.finalize()
        m = compute_metrics(trace, cfg.barrier.safety.ds)
        assert m.n_steps == trace.n_steps == 0
        assert trace.states.shape == (0, 2, 4)
        assert trace.filtered.shape == (0, 2, 3)
        assert trace.min_pair_h_shaped.shape == (0, 2)
        _, h_shaped, in_sensor = replay_pairs(trace, cfg.filter_config())
        assert h_shaped.shape == in_sensor.shape == (0, 1)
        assert m.min_distance == 400.0
        assert m.closest_approach == {"0-1": (0.0, 400.0)}
        assert m.max_control_jump == (0.0, 0.0)

    def test_one_step_closest_approach_at_final_state(self):
        cfg = replace(scenario_sweep(), dt=10.0, duration=10.0, mode="off", alpha_slope=0.1)
        trace, m = run_scenario(cfg)
        assert m.n_steps == 1
        t_min, d_min = m.closest_approach["0-1"]
        assert t_min == 10.0
        assert d_min == m.min_distance < 400.0

    def test_one_vehicle(self):
        cfg = replace(scenario_sweep(), vehicles=scenario_sweep().vehicles[:1], duration=1.0)
        trace, m = run_scenario(cfg)
        assert m.min_distance == m.min_h_shaped == math.inf
        assert m.closest_approach == {}
        assert not m.violation
        assert len(m.max_control_jump) == 1

    @pytest.mark.parametrize("gap, violation", [(DS, False), (math.nextafter(DS, 0.0), True)])
    def test_violation_is_a_distance_below_ds(self, gap, violation):
        # a least distance of exactly D_s keeps the separation the barrier promises
        states = np.array([[[0.0, 0.0, 0.0, 0.0], [gap, 0.0, 0.0, 0.0]]])
        trace = SimTrace(pairs=[(0, 1)], times=np.zeros(1), states=states,
                         nominal=np.zeros((1, 2, 3)), filtered=np.zeros((1, 2, 3)),
                         min_pair_h_shaped=np.zeros((1, 2)), events=[],
                         final_states=states[0], final_time=1.0)
        m = compute_metrics(trace, DS)
        assert m.min_distance == gap
        assert m.violation is violation


def assert_same_floats(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


class TestRecording:
    @settings(max_examples=30)
    @given(data=st.data())
    def test_vehicle_minima_match_the_replayed_pair_pass(self, data):
        # random worlds under the raw straight barrier of example1, the
        # shaped and the raw turn barrier, in every filter mode; "coincident"
        # puts vehicles 0 and 1 0.05 m apart, head-on, where the turn
        # barrier is undefined (NaN; see test_safety_filter.TestDomainErrors)
        n = data.draw(st.sampled_from([1, 2, 3, 7]), label="vehicles")
        base = data.draw(st.sampled_from(["example1", "shaped", "raw", "coincident"]),
                         label="barrier")
        mode = data.draw(st.sampled_from(["centralized", "split", "off"]), label="mode")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cfg = scenario_example1() if base == "example1" else scenario_sweep(350.0)
        if base != "shaped":
            cfg = replace(cfg, shaping_xi=None)
        xy = rng.uniform(-150.0, 150.0, (n, 2))
        heading = rng.uniform(-math.pi, math.pi, n)
        if base == "coincident" and n > 1:
            xy[1], heading[:2] = xy[0] + (0.05, 0.0), (0.0, math.pi)
        vehicles = tuple(
            VehicleSpec(VehicleState(x, y, phi, 0.0),
                        {"type": "goal", "goal": [-x, -y, 0.0], "cruise_speed": 20.0})
            for (x, y), phi in zip(xy.tolist(), heading.tolist())
        )
        cfg = replace(cfg, vehicles=vehicles, mode=mode, dt=0.05, duration=2.0)
        trace, _ = run_scenario(cfg)
        _, h_shaped, _ = replay_pairs(trace, cfg.filter_config())
        assert trace.min_pair_h_shaped.shape == (40, n)
        steps = data.draw(st.lists(st.integers(0, 39), min_size=1, max_size=5), label="steps")
        assert_same_floats(trace.min_pair_h_shaped[steps], vehicle_minima(h_shaped, n)[steps])
        if base == "coincident" and n > 1:
            assert np.isnan(h_shaped[0, 0])


def unblocked_metrics(trace: SimTrace, ds: float, pair_h_shaped: np.ndarray) -> Metrics:
    """compute_metrics over all steps at once, with the least shaped barrier
    taken over the (T, P) pair values the trace's per-vehicle minima come
    from: the reference for the blocked computation."""
    all_states = np.concatenate([trace.states, trace.final_states[None]], axis=0)
    ii, jj = np.array(trace.pairs, int).reshape(-1, 2).T
    px, py = all_states[:, :, 0], all_states[:, :, 1]
    dist = np.hypot(px[:, ii] - px[:, jj], py[:, ii] - py[:, jj])
    min_distance = float(dist.min(initial=math.inf))
    min_h_shaped = float(np.fmin.reduce(pair_h_shaped, axis=None, initial=math.inf))
    jumps = np.linalg.norm(np.diff(trace.filtered, axis=0), axis=2).max(axis=0, initial=0.0)
    steps = dist.argmin(axis=0)  # each pair's closest step, the first on ties
    times = np.append(trace.times, trace.final_time)[steps].tolist()
    d_min = dist[steps, np.arange(len(trace.pairs))].tolist()
    return Metrics(
        min_distance=min_distance,
        min_h_shaped=min_h_shaped,
        max_control_jump=tuple(jumps.tolist()),
        closest_approach={f"{i}-{j}": (t, d) for (i, j), t, d in zip(trace.pairs, times, d_min)},
        violation=min_distance < ds,
        n_steps=trace.n_steps,
        n_events=len(trace.events),
    )


B = 256  # the block length test_blocked_equals_unblocked sets compute_metrics to


class TestBlockedMetrics:
    def test_block_length_from_pair_count(self):
        # a block holds at least 32 steps, and at most METRIC_BLOCK_ELEMS
        # pair distances where that leaves room for 32 steps
        for n_pairs in (0, 1, 10, 190, 780, 3160, METRIC_BLOCK_ELEMS, 10 * METRIC_BLOCK_ELEMS):
            steps = metric_block_steps(n_pairs)
            assert steps >= 32
            assert steps * n_pairs <= max(METRIC_BLOCK_ELEMS, 32 * n_pairs)
            assert steps == 32 or (steps + 1) * max(n_pairs, 1) > METRIC_BLOCK_ELEMS
        assert metric_block_steps(190) == 43  # circle20's blocks, as before the floor

    @pytest.mark.parametrize("plant", ["none", "grid", "boundary", "final", "nan"])
    # around the first block boundary and a later one, and across many blocks
    @pytest.mark.parametrize(
        "n_steps", [0, 1, B - 1, B, B + 1, 2 * B + 3, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 3])
    @settings(max_examples=8)
    @given(data=st.data())
    def test_blocked_equals_unblocked(self, n_steps, plant, data):
        n = data.draw(st.sampled_from([1, 2, 5]), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        states = rng.uniform(-100.0, 100.0, (n_steps + 1, n, 4))  # row T: the final state
        filtered = rng.uniform(15.0, 25.0, (n_steps, n, 3))
        times = np.arange(n_steps + 1) * 0.01
        closest = None  # the step every pair must be closest at
        if plant == "grid":  # few distinct values: tied distances and jumps
            states, filtered = np.round(states / 50.0) * 50.0, np.round(filtered / 5.0) * 5.0
        boundaries = list(range(B, n_steps + 1, B))
        if plant == "boundary" and boundaries:
            # all vehicles meet on both sides of a block boundary: the first
            # wins; the largest control jump is across that boundary
            b = data.draw(st.sampled_from(boundaries), label="boundary")
            states[b - 1, :, 0:2] = states[b, :, 0:2] = 7.0
            filtered[b:] += 100.0
            closest = b - 1
        if plant == "final":
            states[n_steps, :, 0:2] = 7.0
            closest = n_steps
        if plant == "nan":  # argmin takes the first NaN; min and max propagate it
            states[rng.integers(0, n_steps + 1, 2), rng.integers(0, n, 2), 0] = math.nan
            filtered[rng.integers(0, n_steps, min(n_steps, 2)), 0, 0] = math.nan
        pairs = list(combinations(range(n), 2))
        pair_h_shaped = rng.normal(size=(n_steps, len(pairs)))
        trace = SimTrace(
            pairs=pairs,
            times=times[:n_steps],
            states=states[:n_steps],
            nominal=filtered,
            filtered=filtered,
            min_pair_h_shaped=vehicle_minima(pair_h_shaped, n),
            events=[],
            final_states=states[n_steps],
            final_time=float(times[n_steps]),
        )
        # the pair budget that makes compute_metrics' derived block B steps
        with mock.patch.object(wingsafe.sim, "METRIC_BLOCK_ELEMS", B * max(len(pairs), 1)):
            assert metric_block_steps(len(pairs)) == B
            m = compute_metrics(trace, DS)
        # a budget below the block-length floor: blocks of 32 or 64 steps
        # whose distances are taken one or two pairs at a time
        with mock.patch.object(wingsafe.sim, "METRIC_BLOCK_ELEMS", 2 * METRIC_BLOCK_MIN_STEPS):
            assert repr(compute_metrics(trace, DS)) == repr(m)
        reference = unblocked_metrics(trace, DS, pair_h_shaped)
        if plant == "nan":  # NaN != NaN; repr still tells every other float apart
            assert repr(m) == repr(reference)
        else:
            assert m == reference
        if closest is not None and pairs:
            assert {t for t, _ in m.closest_approach.values()} == {times[closest]}

    def test_memory_does_not_grow_with_steps(self):
        # 3000 steps span three metric blocks; recording and metrics may add
        # at most a fixed amount on top of the trace's own arrays
        cfg = scenario_circle20()
        cfg = replace(cfg, vehicles=cfg.vehicles[:5], dt=0.02, duration=60.0, mode="off")
        tracemalloc.start()
        try:
            trace, _ = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_steps > 2 * metric_block_steps(len(trace.pairs))
        nbytes = sum(a.nbytes for a in vars(trace).values() if isinstance(a, np.ndarray))
        assert peak - nbytes <= nbytes / 2

    def test_recording_does_not_grow_with_pairs(self):
        # 40 vehicles have 780 pairs; a step records O(N) values, so the
        # trace holds no (T, P) array, and compute_metrics' blocks hold a
        # fixed number of pair distances: recording and metrics add at most
        # a fixed amount on top of the trace's own arrays
        cfg = ring(40, 2500.0, dt=0.1, duration=30.0)
        tracemalloc.start()
        try:
            sim = Simulation([v.state for v in cfg.vehicles], cfg.controllers(),
                             cfg.filter_config(), cfg.mode, cfg.dt, cfg.n_steps)
            for _ in range(cfg.n_steps):
                sim.step()
            trace = sim.finalize()
            compute_metrics(trace, DS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_pairs = len(trace.pairs)
        assert n_pairs == 780 and trace.n_steps == 300
        arrays = {k: a for k, a in vars(trace).items() if isinstance(a, np.ndarray)}
        assert all(n_pairs not in a.shape for a in arrays.values()), {
            k: a.shape for k, a in arrays.items()}
        nbytes = sum(a.nbytes for a in arrays.values())
        assert peak - nbytes <= nbytes / 2


def ring(n, radius, **changes):
    """circle20 with n vehicles on a circle of the given radius, each timed to
    reach the centre together."""
    base = scenario_circle20(radius)
    goal = base.vehicles[0].controller
    vehicles = tuple(
        VehicleSpec(VehicleState(radius * math.cos(a), radius * math.sin(a), a + math.pi, 0.0),
                    goal)
        for a in (2 * math.pi * k / n for k in range(n))
    )
    return replace(base, vehicles=vehicles, **changes)
