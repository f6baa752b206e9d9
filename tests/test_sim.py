import math
from dataclasses import replace

import numpy as np
import pytest

from wingsafe.barrier import PairState, h_value
from wingsafe.dynamics import ActuatorLimits, ControlInput, VehicleState
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
from wingsafe.sim import CircleController, GoalController, Simulation

from conftest import DS, EVADE_RATE


class TestCircleController:
    LIMITS = ActuatorLimits(1.0, 25.0, 0.5, 5.0)

    def test_on_circle_exact_feedforward(self):
        c = CircleController(0.0, 0.0, 50.0, 1, 10.0)
        # on the circle at (50, 0) heading +y (CCW tangent)
        u = c.control(VehicleState(50.0, 0.0, math.pi / 2, 0), 0.0, self.LIMITS)
        assert u == ControlInput(10.0, 10.0 / 50.0, 0.0)

    def test_example1_left_vehicle_constant(self):
        cfg = scenario_example1()
        spec = cfg.vehicles[0]
        ctrl = cfg.controllers()[0]
        u = ctrl.control(spec.state, 0.0, cfg.limits)
        assert u.speed == 16.0
        assert u.turn_rate == pytest.approx(-EVADE_RATE, abs=1e-15)
        assert u.climb_rate == 0.0

    def test_far_off_circle_saturates(self):
        c = CircleController(0.0, 0.0, 50.0, 1, 10.0)
        u = c.control(VehicleState(500.0, 0.0, -math.pi / 2, 0), 0.0, self.LIMITS)
        assert abs(u.turn_rate) == self.LIMITS.omega_max


class TestGoalController:
    LIMITS = ActuatorLimits(15.0, 25.0, math.radians(13), 5.0)

    def test_aligned_heading_no_turn(self):
        g = GoalController(100.0, 0.0, cruise_speed=20.0)
        u = g.control(VehicleState(0, 0, 0, 0), 0.0, self.LIMITS)
        assert u == ControlInput(20.0, 0.0, 0.0)

    def test_timed_arrival_speed(self):
        g = GoalController(100.0, 0.0, arrival_time=5.0)
        u = g.control(VehicleState(0, 0, 0, 0), 0.0, self.LIMITS)
        assert u.speed == pytest.approx(20.0)
        u_late = g.control(VehicleState(0, 0, 0, 0), 4.0, self.LIMITS)
        assert u_late.speed == 25.0  # 100/1 clamped to v_max

    def test_bearing_error_saturates_turn(self):
        g = GoalController(0.0, 100.0, cruise_speed=20.0)
        u = g.control(VehicleState(0, 0, 0, 0), 0.0, self.LIMITS)
        assert u.turn_rate == self.LIMITS.omega_max


class TestStepWorld:
    def test_filter_off_straight_advance(self):
        cfg = replace(scenario_sweep(350.0), mode="off")
        fc = cfg.filter_config()
        ctrl = [GoalController(1000.0, 0.0, cruise_speed=20.0)]
        sim = Simulation([VehicleState(0, 0, 0, 0)], ctrl, fc, "off", 0.5)
        sim.step()
        assert sim.states[0].px == pytest.approx(10.0, abs=1e-12)
        assert sim.states[0].py == 0.0
        assert sim.t == 0.5

    def test_single_vehicle_filter_identity(self):
        cfg = scenario_sweep(350.0)
        fc = cfg.filter_config()
        sim = Simulation(
            [VehicleState(0, 0, 0, 0)], [GoalController(1000.0, 0.0)], fc, "centralized", 0.01
        )
        sim.step()
        trace = sim.finalize()
        assert np.array_equal(trace.filtered, trace.nominal)


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        cfg = scenario_sweep(330.0)
        cfg = replace(cfg, duration=5.0)
        t1, m1 = run_scenario(cfg)
        t2, m2 = run_scenario(cfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.filtered, t2.filtered)
        assert np.array_equal(t1.pair_h, t2.pair_h, equal_nan=True)
        assert m1 == m2

    def test_identical_warm_started_runs_bitwise(self):
        # twenty vehicles meet within 8 s; each QP step that follows a QP
        # step is warm-started from that step's active set
        cfg = replace(scenario_circle20(start_radius=150.0), duration=8.0)
        (t1, m1), (t2, m2) = run_scenario(cfg), run_scenario(cfg)
        assert not np.array_equal(t1.filtered, t1.nominal)  # the QP ran
        for name in ("states", "filtered", "pair_h", "pair_h_shaped", "pair_in_sensor",
                     "final_states"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name), err_msg=name)
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
        trace, metrics = run_scenario(scenario_example1())
        finite = trace.pair_h[np.isfinite(trace.pair_h)]
        assert finite.min() <= -DS + 0.1
        assert metrics.violation

    def test_example2_raw_jump_and_shaped_smooth(self):
        cfg = scenario_example2()
        d_onset, _ = example2_geometry()
        pair = PairState(
            VehicleState(d_onset / 2, 0, -math.pi, 0), VehicleState(-d_onset / 2, 0, 0, 0)
        )
        h_onset = h_value(pair, cfg.barrier).value
        assert 0 < h_onset < 0.05

        def onset_jump_stats(trace):
            onset = int(np.argmax(trace.pair_in_sensor[:, 0]))
            jumps = np.linalg.norm(np.diff(trace.filtered, axis=0), axis=2)
            return float(jumps[onset - 1].max()), float(np.median(jumps))

        raw_trace, _ = run_scenario(replace(cfg, duration=3.0))
        raw_jump, raw_med = onset_jump_stats(raw_trace)
        assert raw_jump >= 10 * raw_med and raw_jump > 1.0

        shaped = replace(cfg, duration=3.0, shaping_xi=0.5 * h_onset)
        sh_trace, _ = run_scenario(shaped)
        sh_jump, sh_med = onset_jump_stats(sh_trace)
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
        trace, m = run_scenario(replace(scenario_sweep(), dt=100.0))
        assert m.n_steps == trace.n_steps == 0
        assert trace.states.shape == (0, 2, 4)
        assert trace.filtered.shape == (0, 2, 3)
        assert trace.pair_h_shaped.shape == trace.pair_in_sensor.shape == (0, 1)
        assert m.min_distance == 400.0
        assert m.closest_approach == {"0-1": (0.0, 400.0)}
        assert m.max_control_jump == (0.0, 0.0)

    def test_one_step_closest_approach_at_final_state(self):
        trace, m = run_scenario(replace(scenario_sweep(), dt=10.0, duration=10.0, mode="off"))
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
