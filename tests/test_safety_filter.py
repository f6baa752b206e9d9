import math
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wingsafe.barrier import (
    BarrierConfig,
    LinearGain,
    PairState,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
    h_batch,
    role_weights,
)
from wingsafe import safety_filter, sim
from wingsafe.dynamics import ActuatorLimits, VehicleState, step_rk4
from wingsafe.qp import QPProblem, _active_set_optimum, solve_qp, solve_row_batch
from wingsafe.safety_filter import (FilterConfig, FilterRun, _shaped_rows, filter_controls,
                                    pair_index, pair_pass)
from wingsafe.scenarios import run_scenario, scenario_circle20
from wingsafe.shaping import SensorModel, ShapingParams, psi_deriv_batch, xi_from_range

import conftest
from conftest import (achieved_margins, pair_h, pair_lie, random_valid_pair, reference_clamp,
                      reference_split)
from reference import dense_solve_qp, dense_stacked, kkt_residual


@pytest.fixture(scope="module")
def fconfig(turn_config, limits):
    xi = xi_from_range(350.0, turn_config.maneuver, turn_config.safety)
    return FilterConfig(
        barrier=turn_config,
        sensor=SensorModel(350.0),
        limits=limits,
        gain=LinearGain(1.0),
        shaping=ShapingParams(xi, 0.9),
    )


def vehicle(x, y, th):
    return VehicleState(x, y, th, 0.0)


def filtered(world, nominal, config, mode="centralized", active=()):
    """filter_controls on a fresh run that starts from the given active set:
    the result, and the run's active set after the step."""
    run = FilterRun(config, len(world))
    run.active = list(active)
    return filter_controls(world, nominal, config, mode, run), run.active


class TestAssemblePairConstraint:
    """The pair rows of the filter's array pass: pair_pass and _shaped_rows."""

    def test_outside_sensing_returns_none(self, fconfig):
        p = pair_pass([vehicle(0, 0, 0), vehicle(400, 0, math.pi)], FilterRun(fconfig, 2))
        assert not p.in_sensor[0]

    @pytest.mark.parametrize("mode", ["centralized", "split", "off"])
    def test_sensor_set_is_closed(self, fconfig, mode):
        # a pair exactly at the sensing range R = 350 is sensed: d^2 == R^2
        world = [vehicle(0, 0, math.pi / 2), vehicle(350, 0, math.pi / 2)]
        assert pair_pass(world, FilterRun(fconfig, 2)).in_sensor[0]
        assert filter_controls(world, [(20, 0, 0)] * 2, fconfig, mode).in_sensor[0]

    def test_plateau_row_vacuous(self, fconfig):
        # inside range but far from conflict: h above xi, no gradient row and
        # a positive offset
        pair = PairState(vehicle(0, 0, math.pi / 2), vehicle(349, 0, math.pi / 2))
        h = pair_h(pair, fconfig.barrier)
        assert h >= fconfig.shaping.xi
        p = pair_pass([pair.a, pair.b], FilterRun(fconfig, 2))
        assert p.in_sensor[0] and p.h[0] == h
        assert not p.lie[0]
        assert fconfig.gain(p.h_shaped[0]) > 0

    def test_active_row_is_scaled_lie_derivative(self, fconfig, turn_config):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            pair = random_valid_pair(rng, turn_config, span=250.0)
            h = pair_h(pair, turn_config)
            if not (0 < h < fconfig.shaping.xi):
                continue
            p = pair_pass([pair.a, pair.b], FilterRun(fconfig, 2))
            assert p.in_sensor[0] and p.lie[0]
            lg = pair_lie(pair, turn_config)
            want = psi_deriv_batch(h, fconfig.shaping) * lg
            np.testing.assert_allclose(_shaped_rows(p, [0], fconfig)[0], want, atol=1e-9)
            checked += 1


class TestFilterControls:
    def test_no_sensed_pair_passes_nominal(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        nominal = [(20, 0.1, 0), (18, -0.05, 1)]
        res = filter_controls(world, nominal, fconfig)
        assert np.array_equal(res.controls, nominal)
        assert not res.events

    def test_feasible_nominal_returned_exactly(self, fconfig):
        # sensed but far from conflict: plateau row is vacuous
        world = [vehicle(0, 0, math.pi / 2), vehicle(340, 0, math.pi / 2)]
        nominal = [(20, 0.0, 0), (20, 0.0, 0)]
        res = filter_controls(world, nominal, fconfig)
        assert np.array_equal(res.controls, nominal)

    def test_filtered_controls_in_box(self, fconfig, turn_config, limits):
        rng = np.random.default_rng(41)
        for _ in range(30):
            world = [
                VehicleState(rng.uniform(-150, 150), rng.uniform(-150, 150),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(4)
            ]
            nominal = [
                (rng.uniform(10, 30), rng.uniform(-0.4, 0.4), rng.uniform(-8, 8))
                for _ in range(4)
            ]
            res = filter_controls(world, nominal, fconfig)
            for u in res.controls.tolist():
                assert limits.contains(u)

    def test_centralized_margins_nonnegative(self, fconfig):
        rng = np.random.default_rng(42)
        for _ in range(20):
            world = [
                VehicleState(rng.uniform(-120, 120), rng.uniform(-120, 120),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(3)
            ]
            nominal = [(25, 0, 0)] * 3
            res = filter_controls(world, nominal, fconfig)
            if res.fallback:
                continue  # infeasible step resolved by evading maneuver
            margins = achieved_margins(world, res.controls, fconfig)
            assert np.all(margins[np.isfinite(margins)] >= -1e-8)

    def test_symmetric_head_on_turn_rates_equal(self, limits):
        # point-symmetric head-on: swapping the vehicles maps the problem to
        # itself (delta -> 0), so the unique QP solution gives both vehicles
        # the same turn rate; their world-frame deflections are opposite
        man = TurnManeuver(sigma=1.0, speed=16.0, turn_rate=0.9 * math.radians(13))
        cfg = BarrierConfig(man, SafetyParams(delta=1e-13, ds=5.0))
        xi = xi_from_range(350.0, man, cfg.safety)
        fc = FilterConfig(cfg, SensorModel(350.0), limits, LinearGain(1.0),
                          ShapingParams(xi, 0.9))
        world = [vehicle(-40, 0, 0), vehicle(40, 0, math.pi)]
        nominal = [(20, 0, 0), (20, 0, 0)]
        res = filter_controls(world, nominal, fc)
        (speed_a, rate_a, _), (speed_b, rate_b, _) = res.controls.tolist()
        assert rate_a == pytest.approx(rate_b, abs=1e-6)
        assert speed_a == pytest.approx(speed_b, abs=1e-6)
        assert rate_a != 0  # constraint actually bit
        # equal body-frame turn rates on opposed headings deflect the two
        # velocity vectors in opposite world directions
        da = rate_a * speed_a * math.cos(world[0].heading + math.pi / 2)
        db = rate_b * speed_b * math.cos(world[1].heading + math.pi / 2)
        assert da * db < 0

    def test_split_mode_halves_imply_pair_row(self, fconfig):
        rng = np.random.default_rng(43)
        for _ in range(20):
            world = [
                VehicleState(rng.uniform(-100, 100), rng.uniform(-100, 100),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(3)
            ]
            nominal = [(25, 0, 0)] * 3
            res = filter_controls(world, nominal, fconfig, mode="split")
            if res.fallback:
                continue
            margins = achieved_margins(world, res.controls, fconfig)
            assert np.all(margins[np.isfinite(margins)] >= -1e-8)

    @pytest.mark.parametrize("mode", ["centralized", "split"])
    @settings(max_examples=200)
    @given(data=st.data())
    def test_sensed_rows_hold_without_fallback(self, mode, data):
        # the paper's row L_g h~ . u + alpha(h~) >= 0 of every sensed pair
        # whose barrier is defined, at the filtered controls
        config = _split_config(data)
        scale = data.draw(st.sampled_from([1.0, 3.0]), label="spread")
        world = [s._replace(px=scale * s.px, py=scale * s.py)
                 for s in data.draw(st.lists(_near, min_size=2, max_size=4), label="world")]
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0), st.floats(-0.5, 0.5),
                                               st.floats(-8.0, 8.0)),
                                     min_size=len(world), max_size=len(world)), label="nominal")
        res = filter_controls(world, nominal, config, mode)
        assume(not res.fallback)
        margins = achieved_margins(world, res.controls, config)
        # a NaN among them fails too: the filter would have failed its row
        assert np.all(margins[res.in_sensor & ~np.isnan(res.h)] >= -1e-8)

    def test_achieved_margins_see_the_binding_row(self, fconfig):
        # head-on 80 m apart: the row is violated at the nominal and tight at the optimum
        res = filter_controls(self.HEAD_ON, [(20, 0, 0)] * 2, fconfig)
        assert achieved_margins(self.HEAD_ON, res.nominal, fconfig)[0] < 0.0
        assert achieved_margins(self.HEAD_ON, res.controls, fconfig)[0] == pytest.approx(
            0.0, abs=1e-8)

    def test_off_mode_passthrough(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(30, 0, math.pi)]
        nominal = [(20, 0.1, 0), (20, -0.1, 0)]
        res = filter_controls(world, nominal, fconfig, mode="off")
        assert np.array_equal(res.controls, nominal)

    def test_single_vehicle_identity(self, fconfig):
        res = filter_controls([vehicle(0, 0, 0)], [(20, 0, 0)], fconfig)
        assert np.array_equal(res.controls, [(20, 0, 0)])

    def test_unknown_mode_rejected(self, fconfig):
        with pytest.raises(ValueError):
            filter_controls([], [], fconfig, mode="magic")

    def test_deep_conflict_falls_back_to_maneuver(self, fconfig, limits):
        # head-on inside range with h already far negative: the row cannot be
        # satisfied inside the box, so both vehicles take the evading turn
        raw = FilterConfig(fconfig.barrier, SensorModel(350.0), limits,
                           LinearGain(1.0), shaping=None)
        world = [vehicle(0, 0, 0), vehicle(10, 0, math.pi)]
        nominal = [(25, 0, 0), (25, 0, 0)]
        res = filter_controls(world, nominal, raw)
        assert res.fallback == {0, 1}
        assert any("qp-infeasible" in e for e in res.events)
        assert res.events[-1].startswith("qp-infeasible mode=centralized ")
        assert res.events[-1].endswith(" pairs=(0,1)")
        man = fconfig.barrier.maneuver
        (speed0, turn_rate0, _), (speed1, _, _) = res.controls.tolist()
        assert turn_rate0 == pytest.approx(man.turn_rate)
        assert speed0 == pytest.approx(man.sigma * man.speed)
        assert speed1 == pytest.approx(man.speed)
        # a third vehicle in range: the rows share vehicles and go to
        # solve_qp together, and the event names the pairs of its rows
        world.append(vehicle(200, 200, 0))
        res = filter_controls(world, nominal + nominal[:1], raw)
        assert res.fallback == {0, 1, 2}
        assert [e for e in res.events if e.startswith("qp-infeasible")] == res.events
        assert res.events[-1].endswith(" pairs=(0,1),(0,2),(1,2)")

    # head-on 80 m apart and inside range: the centralized QP runs
    HEAD_ON = [vehicle(-40, 0, 0), vehicle(40, 0, math.pi)]

    def test_qp_leaves_clamped_nominal(self, fconfig, limits):
        nominal = [(30, 0, 0), (20, 0, -9)]
        res, active = filtered(self.HEAD_ON, nominal, fconfig)
        assert active  # the QP ran and wrote the filtered controls
        assert res.controls is not res.nominal
        assert np.array_equal(res.nominal, [reference_clamp(u, limits) for u in nominal])

    def test_non_finite_qp_output_names_vehicle(self, fconfig, monkeypatch):
        def nan_for_vehicle_1(problem, guess=()):
            u, mult = solve_qp(problem, guess=guess)
            u = u.copy()
            u[4] = np.nan  # vehicle 1's turn rate
            return u, mult

        # HEAD_ON is one row: solve_qp runs only where the closed form declines
        monkeypatch.setattr(safety_filter, "solve_row_batch", lambda *args: None)
        monkeypatch.setattr(safety_filter, "solve_qp", nan_for_vehicle_1)
        nominal = [(20, 0, 0)] * 2
        with pytest.raises(ValueError, match="non-finite filtered control for vehicle 1"):
            filter_controls(self.HEAD_ON, nominal, fconfig)
        # no QP, no check: mode off passes the clamped nominal through
        assert np.array_equal(filter_controls(self.HEAD_ON, nominal, fconfig, "off").controls,
                              nominal)

    def test_non_finite_closed_form_output_names_vehicle(self, fconfig, monkeypatch):
        def nan_for_vehicle_1(*args):
            u, lam, push = solve_row_batch(*args)
            u[0, 4] = np.nan  # the row's entries of vehicle 1 come second
            return u, lam, push

        monkeypatch.setattr(safety_filter, "solve_row_batch", nan_for_vehicle_1)
        nominal = [(20, 0, 0)] * 2
        with pytest.raises(ValueError, match="non-finite filtered control for vehicle 1"):
            filter_controls(self.HEAD_ON, nominal, fconfig)

    @pytest.mark.parametrize("mode", ["centralized", "split", "off"])
    @pytest.mark.parametrize("bad", [(math.nan, 0, 0), (math.inf, 0, 0), (20, -math.inf, 0)])
    def test_non_finite_nominal_names_vehicle(self, fconfig, mode, bad):
        # plain tuples, as the controllers return; far outside sensing range,
        # so no row could reject them, and the clamp would map an inf into the box
        world = [vehicle(0, 0, 0), vehicle(10_000, 0, 0)]
        with pytest.raises(ValueError, match="non-finite nominal control for vehicle 1"):
            filter_controls(world, [(20.0, 0.0, 0.0), bad], fconfig, mode)


class TestWarmStartHint:
    """The previous step's active set, FilterRun.active, only warm-starts
    the centralized QP."""

    @staticmethod
    def worlds(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield [
                VehicleState(rng.uniform(-120, 120), rng.uniform(-120, 120),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(4)
            ]

    def test_hinted_call_agrees_with_unhinted(self, fconfig):
        nominal = [(25, 0, 0)] * 4
        hinted = 0
        for world in self.worlds(44, 40):
            cold, cold_active = filtered(world, nominal, fconfig)
            if not cold_active:
                continue
            # the exact active set, a stale one and ids naming nothing
            for hint in (cold_active, cold_active[:1], [-1, 10**6] + cold_active):
                warm, warm_active = filtered(world, nominal, fconfig, active=hint)
                np.testing.assert_allclose(warm.controls, cold.controls, rtol=0, atol=1e-9)
                assert warm_active == cold_active
                assert warm.events == cold.events and warm.fallback == cold.fallback
            hinted += 1
        assert hinted >= 10

    def test_hint_maps_to_stacked_indices(self, fconfig, monkeypatch):
        # the optimum's own active ids, as a hint, give the solver exactly
        # the stacked indices of its positive multipliers; ids past either
        # end (6 pairs and 24 box faces here) name nothing.  Worlds whose
        # rows share no vehicle are solved in closed form, without a hint.
        solves = []

        def record(problem, guess=()):
            solves.append((guess, solve_qp(problem)[1]))
            return solve_qp(problem, guess=guess)

        monkeypatch.setattr(safety_filter, "solve_qp", record)
        nominal = [(25, 0, 0)] * 4
        checked = 0
        for world in self.worlds(47, 40):
            solves.clear()
            _, cold_active = filtered(world, nominal, fconfig)
            if not cold_active or not solves:
                continue
            filtered(world, nominal, fconfig, active=[-1, 30, 10**6] + cold_active)
            (_, mult), (guess, _) = solves
            assert guess == np.flatnonzero(mult > 0.0).tolist()
            checked += 1
        assert checked >= 10

    def test_active_ids_name_tight_constraints(self, fconfig, limits):
        nominal = [(25, 0, 0)] * 4
        lo = [limits.v_min, -limits.omega_max, -limits.zeta_max] * 4
        hi = [limits.v_max, limits.omega_max, limits.zeta_max] * 4
        faces = lo + hi  # stacked box faces: lower, then upper
        n_pairs = 6
        for world in self.worlds(45, 40):
            res, active = filtered(world, nominal, fconfig)
            if res.fallback:
                continue  # the margins are those of the evading maneuver
            u, margins = res.controls.ravel(), achieved_margins(world, res.controls, fconfig)
            for i in active:
                if i < n_pairs:
                    assert margins[i] == pytest.approx(0.0, abs=1e-8)
                else:
                    face = i - n_pairs
                    assert u[face % 12] == pytest.approx(faces[face], abs=1e-9)

    def test_no_active_set_without_centralized_qp(self, fconfig):
        nominal = [(25, 0, 0)] * 4
        for world in self.worlds(46, 20):
            _, hint = filtered(world, nominal, fconfig)
            for mode in ("split", "off"):
                assert filtered(world, nominal, fconfig, mode, hint)[1] == []
        far = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        assert filtered(far, nominal[:2], fconfig, active=[0])[1] == []


class TestFilterRun:
    """One FilterRun carries a run's filter state from step to step; a
    step on it gives the bits of a fresh run that starts from the previous
    step's active set."""

    def test_config_is_its_five_fields(self):
        # the run constants (box, evading controls, role weights, R^2) are FilterRun's
        assert [f.name for f in fields(FilterConfig)] == [
            "barrier", "sensor", "limits", "gain", "shaping"]

    @settings(max_examples=150)
    @given(data=st.data())
    def test_run_derives_its_constants_from_the_config(self, data):
        v_min = data.draw(st.floats(5.0, 20.0), label="v_min")
        v_max = data.draw(st.floats(v_min + 1.0, 40.0), label="v_max")
        omega_max = data.draw(st.floats(0.05, 1.0), label="omega_max")
        zeta_max = data.draw(st.sampled_from([0.0, -0.0, math.inf]) | st.floats(0.0, 10.0),
                             label="zeta_max")
        limits = ActuatorLimits(v_min, v_max, omega_max, zeta_max)
        speed = st.floats(v_min, v_max)
        if data.draw(st.booleans(), label="straight"):
            climb = (st.floats(-min(zeta_max, 10.0), min(zeta_max, 10.0)) if zeta_max > 0.0
                     else st.sampled_from([0.0, -0.0]))
            v1, v2 = data.draw(st.lists(speed, min_size=2, max_size=2, unique=True), label="v")
            man = StraightManeuver(v1, v2, data.draw(climb, label="zeta1"),
                                   data.draw(climb, label="zeta2"))
        else:
            v = data.draw(speed, label="speed")
            sigma = data.draw(st.floats(v_min / v, 1.0), label="sigma")
            assume(sigma * v >= v_min)  # vehicle 1's speed, which can round below v_min
            man = TurnManeuver(sigma, v, data.draw(st.floats(0.01, omega_max), label="rate"))
        config = FilterConfig(BarrierConfig(man, SafetyParams(0.01, 5.0)), SensorModel(350.0),
                              limits)
        n = data.draw(st.integers(1, 4), label="n")
        run = FilterRun(config, n)
        one = [[v_min, -omega_max, -zeta_max], [v_max, omega_max, zeta_max]]
        assert _bits(run.box) == _bits([row * n for row in one])
        assert _bits(run.evading) == _bits([x for u in man.controls() for x in u])
        assert [w.view(np.int64).tolist() for w in run.weights] == [
            w.view(np.int64).tolist() for w in role_weights(config.barrier)]
        for a in (run.box, run.evading):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_run_of_another_config_or_vehicle_count_rejected(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        nominal = [(20, 0, 0)] * 2
        twin = replace(fconfig)  # equal, but its own object
        assert twin == fconfig
        for run in (FilterRun(twin, 2), FilterRun(fconfig, 3)):
            with pytest.raises(ValueError, match="another FilterConfig or vehicle count"):
                filter_controls(world, nominal, fconfig, run=run)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reused_run_matches_fresh_runs(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        mode = data.draw(st.sampled_from(["centralized", "split"]), label="mode")
        man = TurnManeuver(1.0, 16.0, 0.2)
        safety = SafetyParams(0.01, 5.0)
        shaping = data.draw(st.sampled_from([None, ShapingParams(
            xi_from_range(350.0, man, safety), 0.9)]), label="shaping")
        config = FilterConfig(BarrierConfig(man, safety), SensorModel(350.0),
                              ActuatorLimits(15.0, 25.0, 0.2269, 5.0), shaping=shaping)
        world = data.draw(st.lists(_near, min_size=n, max_size=n), label="world")
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0),
                                               st.floats(-0.5, 0.5), st.floats(-7.0, 7.0)),
                                     min_size=n, max_size=n), label="nominal")
        run, active = FilterRun(config, n), []

        def fields(res):
            arrays = (res.nominal, res.controls, res.h, res.h_shaped)
            return ([_bits(a) for a in arrays], res.in_sensor.tolist(), res.events,
                    sorted(res.fallback))

        for _ in range(data.draw(st.integers(1, 10), label="steps")):
            # some steps see the world spread 20-fold, where few rows bind
            seen = world if data.draw(st.booleans(), label="near") else [
                s._replace(px=20.0 * s.px, py=20.0 * s.py) for s in world]
            got = filter_controls(seen, nominal, config, mode, run)
            want, active = filtered(seen, nominal, config, mode, active)
            assert fields(got) == fields(want)
            assert run.active == active
            if mode == "split" or got.controls is got.nominal:  # no centralized QP ran
                assert active == []
            world = [step_rk4(s, u, 0.1) for s, u in zip(world, got.controls.tolist())]


class TestClosedForm:
    """Steps whose rows share no vehicle are solved in closed form, with the
    outcome of the solve_qp path."""

    @staticmethod
    def isolated_pairs(rng):
        """1 to 4 pairs, 2 km apart, each pair within sensing range of itself
        only, with nominal controls inside and outside the box."""
        world = []
        for c in range(int(rng.integers(1, 5))):
            x0 = 2000.0 * c
            gap = rng.uniform(10.0, 150.0)
            world += [vehicle(x0, 0.0, rng.uniform(-0.5, 0.5)),
                      vehicle(x0 + gap, rng.uniform(-20, 20), math.pi + rng.uniform(-0.5, 0.5))]
        nominal = [(rng.uniform(10, 30), rng.uniform(-0.4, 0.4), rng.uniform(-6, 6))
                   for _ in world]
        return world, nominal

    def test_matches_the_solve_qp_path(self, fconfig, limits, monkeypatch):
        closed = []

        def record(*args):
            closed.append(solve_row_batch(*args))
            return closed[-1]

        monkeypatch.setattr(safety_filter, "solve_row_batch", record)
        rng = np.random.default_rng(48)
        answered = 0
        for _ in range(120):
            world, nominal = self.isolated_pairs(rng)
            closed.clear()
            res, active = filtered(world, nominal, fconfig)
            with monkeypatch.context() as m:
                m.setattr(safety_filter, "solve_row_batch", lambda *args: None)
                ref = filter_controls(world, nominal, fconfig)
            np.testing.assert_allclose(res.controls, ref.controls, rtol=0, atol=1e-9)
            margins = achieved_margins(world, res.controls, fconfig)
            np.testing.assert_allclose(margins, achieved_margins(world, ref.controls, fconfig),
                                       rtol=0, atol=1e-9)
            assert res.events == ref.events and res.fallback == ref.fallback
            if not (closed and closed[0] is not None):
                continue
            answered += 1
            # the active ids name tight constraints, as on the solve_qp path
            n = len(world)
            n_pairs = n * (n - 1) // 2
            faces = [limits.v_min, -limits.omega_max, -limits.zeta_max] * n + [
                limits.v_max, limits.omega_max, limits.zeta_max] * n
            u = res.controls.ravel()
            assert active == sorted(active)
            for i in active:
                if i < n_pairs:
                    assert margins[i] == pytest.approx(0.0, abs=1e-8)
                else:
                    face = i - n_pairs
                    assert u[face % (3 * n)] == faces[face]
        assert answered >= 20


class TestDomainErrors:
    # 0.05 m apart the turn barrier's radicand is negative: h is undefined
    WORLD = [vehicle(0, 0, 0), vehicle(0.05, 0, math.pi)]
    NOMINAL = [(30, 0.5, 0), (10, -1, 2)]

    def test_undefined_pair_falls_back_to_maneuver(self, fconfig):
        res = filter_controls(self.WORLD, self.NOMINAL, fconfig)
        assert len(res.events) == 1
        assert res.events[0].startswith("domain-error pair=(0,1) negative radicand ")
        assert res.fallback == {0, 1}
        u1, u2 = fconfig.barrier.maneuver.controls()
        assert np.array_equal(res.controls, [u1, u2])

    def test_off_mode_reports_without_fallback(self, fconfig, limits):
        res = filter_controls(self.WORLD, self.NOMINAL, fconfig, mode="off")
        assert res.events == filter_controls(self.WORLD, self.NOMINAL, fconfig).events
        assert res.fallback == set()
        assert np.array_equal(res.controls, [reference_clamp(u, limits) for u in self.NOMINAL])

    def test_role_from_evaluable_pair_first(self, fconfig, limits):
        # vehicle 1 is the first vehicle of the undefined pair (1, 2) but the
        # second of the evaluable pair (0, 1), which fixes its role
        man = TurnManeuver(sigma=0.9, speed=17.78, turn_rate=fconfig.barrier.maneuver.turn_rate)
        fc = FilterConfig(BarrierConfig(man, fconfig.barrier.safety), SensorModel(350.0),
                          limits, LinearGain(1.0), shaping=None)
        world = [vehicle(-30, 0, 0), vehicle(0, 0, 0), vehicle(0.05, 0, math.pi)]
        res = filter_controls(world, [(20, 0, 0)] * 3, fc)
        assert res.events[0].startswith("domain-error pair=(1,2) negative radicand ")
        assert {1, 2} <= res.fallback
        assert res.controls[1].tolist() == [17.78, man.turn_rate, 0.0]


@pytest.mark.parametrize("mode", ["centralized", "split"])
def test_qp_problem_keeps_the_clamped_nominal(mode, monkeypatch):
    """A QPProblem holds its own u_hat: the filter writes the optimum into
    another array, so a problem read after the step still shows the nominal."""
    problems, seen = [], []
    solve, step_filter = safety_filter.solve_qp, sim.filter_controls

    def spy_solve(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    def spy_filter(*args, **kwargs):
        start = len(problems)
        result = step_filter(*args, **kwargs)
        seen.extend((p, result) for p in problems[start:])
        return result

    monkeypatch.setattr(safety_filter, "solve_qp", spy_solve)
    monkeypatch.setattr(sim, "filter_controls", spy_filter)
    # 20 vehicles 90 m from the centre: binding rows share vehicles, so
    # Goldfarb-Idnani runs
    run_scenario(replace(scenario_circle20(start_radius=90.0), duration=1.0, mode=mode))
    assert seen
    for problem, result in seen:
        if mode == "centralized":
            assert np.array_equal(problem.u_hat, result.nominal.ravel())
        else:  # one problem per vehicle: its row of the nominal
            assert any(np.array_equal(problem.u_hat, row) for row in result.nominal)


def _bits(a) -> list:
    """The float array a as bit patterns, so that -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


_near = st.builds(lambda x, y, th: VehicleState(x, y, th, 0.0),
                  st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-math.pi, math.pi))


def _near_bounds(lo, hi, *bounds):
    """Floats in [lo, hi], and each finite bound and the floats either side of it."""
    edges = [e for b in bounds if math.isfinite(b)
             for e in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]
    return st.one_of(st.floats(lo, hi), st.sampled_from(edges)) if edges else st.floats(lo, hi)


class TestPairCountInvariance:
    """Each pair of a world gets from the array pass the bits it gets alone:
    pair_pass's h, h_shaped, in_sensor and lie, and its _shaped_rows row,
    whatever the gather and the constants that group the pairs."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_each_pair_as_if_alone(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        if data.draw(st.booleans(), label="turn"):
            man = TurnManeuver(data.draw(st.floats(0.7, 1.0), label="sigma"), 16.0,
                               data.draw(st.floats(0.05, 0.25), label="rate"))
        else:
            man = StraightManeuver(16.0, data.draw(st.floats(10.0, 15.0), label="v2"))
        barrier = BarrierConfig(man, SafetyParams(0.01, 5.0))
        shaping = data.draw(st.sampled_from([None, ShapingParams(20.0, 0.9)]), label="shaping")
        config = FilterConfig(barrier, SensorModel(150.0), ActuatorLimits(10.0, 25.0, 0.25, 5.0),
                              shaping=shaping)
        coord = st.floats(-120.0, 120.0)
        state = st.builds(lambda x, y, th: VehicleState(x, y, th, 0.0), coord, coord,
                          st.floats(-4.0, 4.0))
        world = data.draw(st.lists(state, min_size=n, max_size=n), label="world")
        p = pair_pass(world, FilterRun(config, n))
        lie = np.flatnonzero(p.lie)
        with np.errstate(all="ignore"):  # the rows of undefined pairs
            rows = dict(zip(lie.tolist(), _shaped_rows(p, lie, config)))
        for k, (i, j) in enumerate(pair_index(n).T.tolist()):
            alone = pair_pass([world[i], world[j]], FilterRun(config, 2))
            for name in ("h", "h_shaped"):
                assert _bits(getattr(p, name)[[k]]) == _bits(getattr(alone, name)), (k, name)
            assert (p.in_sensor[k], p.lie[k]) == (alone.in_sensor[0], alone.lie[0]), k
            if p.lie[k]:
                with np.errstate(all="ignore"):
                    row = _shaped_rows(alone, [0], config)[0]
                assert _bits(rows[k]) == _bits(row), k


class TestEvadingManeuverInBox:
    """FilterConfig accepts an evading maneuver exactly when both of its
    controls lie in the actuator box; a turn whose speed or turn rate is not
    finite is rejected where it is built."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_accepts_exactly_the_maneuvers_in_the_box(self, data):
        v_min = data.draw(st.floats(0.5, 30.0), label="v_min")
        v_max = data.draw(st.sampled_from([v_min, v_min + 10.0, math.inf]), label="v_max")
        omega_max = data.draw(st.sampled_from([0.2, 1.5, math.inf]), label="omega_max")
        zeta_max = data.draw(st.sampled_from([0.0, -0.0, 5.0, math.inf]), label="zeta_max")
        limits = ActuatorLimits(v_min, v_max, omega_max, zeta_max)
        speed = _near_bounds(max(v_min - 5.0, 0.25), v_min + 15.0, v_min, v_max)
        if data.draw(st.booleans(), label="straight"):
            v1, v2 = data.draw(speed, label="v1"), data.draw(speed, label="v2")
            assume(v1 != v2)
            climb = _near_bounds(-10.0, 10.0, zeta_max, -zeta_max, 0.0)
            man = StraightManeuver(v1, v2, data.draw(climb, label="zeta1"),
                                   data.draw(climb, label="zeta2"))
        else:
            sigma = data.draw(st.sampled_from([1.0, 0.75]), label="sigma")
            man = TurnManeuver(sigma, data.draw(speed, label="speed"),
                               data.draw(_near_bounds(1e-3, 2.0, omega_max), label="turn_rate"))

        def in_box(speed, turn_rate, climb_rate):
            return (v_min <= speed <= v_max and -omega_max <= turn_rate <= omega_max
                    and -zeta_max <= climb_rate <= zeta_max)

        def build():
            return FilterConfig(BarrierConfig(man, SafetyParams(0.01, 5.0)), SensorModel(350.0),
                                limits)

        if all(in_box(*u) for u in man.controls()):
            build()
        else:
            with pytest.raises(ValueError, match="outside the actuator box"):
                build()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @settings(max_examples=20)
    @given(name=st.sampled_from(["speed", "turn_rate"]), sigma=st.floats(0.05, 1.0),
           speed=st.floats(0.5, 80.0), turn_rate=st.floats(1e-3, 2.0))
    def test_non_finite_turn_rejected(self, bad, name, sigma, speed, turn_rate):
        # even where an infinite box would contain its controls
        fields = {"sigma": sigma, "speed": speed, "turn_rate": turn_rate, name: bad}
        with pytest.raises(ValueError, match=f"require finite {name}"):
            TurnManeuver(**fields)


class TestTwinConfigsShareNothing:
    """FilterRun derives its box, maneuver vector and role weights per
    run.  Two configs that differ only in the sign of a zero compare
    and hash equal, so a module cache keyed on config values would hand one
    the other's constants.  Every run must give the same bits before and
    after its twin runs, and each filter run must match references that
    read the config's own fields."""

    @settings(max_examples=120)
    @given(data=st.data())
    def test_filter_ignores_a_twin_run_first(self, data):
        zero = data.draw(st.sampled_from([0.0, -0.0]), label="zero")
        straight = data.draw(st.booleans(), label="straight")
        xi = data.draw(st.sampled_from([None, 10.0]), label="xi")

        def config(z):
            # a zero climb box (zeta_max = z); the straight maneuver's climbs are z too
            man = (StraightManeuver(16.0, 24.0, zeta1=z, zeta2=z) if straight
                   else TurnManeuver(1.0, 16.0, 0.2))
            return FilterConfig(BarrierConfig(man, SafetyParams(0.01, 5.0)), SensorModel(350.0),
                                ActuatorLimits(15.0, 25.0, 0.2269, z),
                                shaping=None if xi is None else ShapingParams(xi, 0.9))

        world = data.draw(st.lists(_near, min_size=2, max_size=4), label="world")
        climb = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0),
                                               st.floats(-0.5, 0.5), climb),
                                     min_size=len(world), max_size=len(world)), label="nominal")
        mode = data.draw(st.sampled_from(["centralized", "split", "off"]), label="mode")
        ii, jj = pair_index(len(world))
        cols = np.array([(s.px, s.py, s.heading) for s in world]).T

        def run(cfg):
            res, active = filtered(world, nominal, cfg, mode)
            clamped = [reference_clamp(u, cfg.limits) for u in nominal]
            assert _bits(res.nominal) == _bits(clamped)
            # h_batch builds its pair rows from the maneuver's own fields
            assert _bits(res.h) == _bits(h_batch((*cols[:, ii], *cols[:, jj]), cfg.barrier))
            evading = cfg.barrier.maneuver.controls()
            for v in res.fallback:
                assert _bits(res.controls[v]) in (_bits(evading[0]), _bits(evading[1]))
            arrays = (res.nominal, res.controls, res.h, res.h_shaped)
            return ([_bits(a) for a in arrays], res.in_sensor.tolist(), res.events,
                    sorted(res.fallback), active)

        first, twin = config(zero), config(-zero)
        assert first == twin and hash(first) == hash(twin)
        alone = run(first)
        run(twin)
        assert run(first) == alone
        assert run(config(zero)) == alone

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_straight_speed_twins_rejected(self, zero):
        # straight maneuvers whose speeds differ only in a zero's sign would
        # be twins too, but a straight speed must be positive
        with pytest.raises(ValueError, match="require v1 > 0 and v2 > 0"):
            StraightManeuver(v1=zero, v2=20.0)


def _split_config(data) -> FilterConfig:
    """A filter config with a zero or a positive climb bound (zeros of
    either sign) and a turn or straight evading maneuver."""
    zeta = data.draw(st.sampled_from([0.0, -0.0, 5.0]), label="zeta_max")
    straight = data.draw(st.booleans(), label="straight")
    man = (StraightManeuver(16.0, 24.0, zeta1=-zeta, zeta2=zeta) if straight
           else TurnManeuver(data.draw(st.floats(0.75, 1.0), label="sigma"), 20.0, 0.2))
    xi = data.draw(st.sampled_from([None, 10.0]), label="xi")
    return FilterConfig(BarrierConfig(man, SafetyParams(0.01, 5.0)), SensorModel(350.0),
                        ActuatorLimits(15.0, 25.0, 0.2269, zeta),
                        shaping=None if xi is None else ShapingParams(xi, 0.9))


class TestSplitMatchesReference:
    """Split mode builds its half-rows in one pass and solves only where one
    is violated; after the rule for unusable rows (_usable_rows) it gives
    the bits of reference_split, which builds them one at a time and solves
    for every vehicle with a nonzero half-row."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_synthetic_rows(self, data):
        config = _split_config(data)
        n = data.draw(st.integers(1, 5), label="n")
        run = FilterRun(config, n)
        # any subset of the pairs, k = 0 included (reached with failed rows only)
        rows = data.draw(st.lists(st.integers(0, n * (n - 1) // 2 - 1), unique=True,
                                  max_size=8).map(sorted), label="rows") if n > 1 else []
        pairs = pair_index(n).take(rows, 1)
        # each role's coefficients zero (either sign), drawn, or with a non-finite entry
        role = st.one_of(st.lists(st.sampled_from([0.0, -0.0]), min_size=3, max_size=3),
                         st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                         st.lists(st.sampled_from([1.0, math.nan, math.inf, -math.inf]),
                                  min_size=3, max_size=3))
        lg = np.array([data.draw(role, label="lg_i") + data.draw(role, label="lg_j")
                       for _ in rows]).reshape(len(rows), 6)
        offset = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(rows),
                                             max_size=len(rows)), label="offset"))
        # a clamped nominal: inside the box, with zeros of either sign where it has them
        entry = [st.floats(min(a, b), max(a, b)) | (st.sampled_from([0.0, -0.0]) if a <= 0.0
                                                    else st.nothing())
                 for a, b in run.box[:, :3].T.tolist()]
        u = np.array([[data.draw(e, label="u") for e in entry] for _ in range(n)])
        got, want = (SimpleNamespace(events=[], fallback=set()) for _ in range(2))
        u_got, u_want = u.copy(), u.copy()
        usable, failed = safety_filter._usable_rows(got, "split", pairs, lg, offset)
        got.fallback.update(pairs[:, failed].ravel().tolist())
        safety_filter._filter_split(run, got, u_got, pairs[:, usable], lg[usable],
                                    offset[usable])
        reference_split(run, want, u_want, pairs, lg, offset)
        assert _bits(u_got) == _bits(u_want)
        assert got.events == want.events and got.fallback == want.fallback

    @settings(max_examples=150)
    @given(data=st.data())
    def test_random_worlds(self, data):
        config = _split_config(data)
        world = data.draw(st.lists(_near, min_size=2, max_size=5), label="world")
        if data.draw(st.booleans(), label="undefined pair"):
            # 0.05 m apart, head-on: the pair's barrier is undefined
            a = world[0]
            world[1] = VehicleState(a.px + 0.05, a.py, a.heading + math.pi, 0.0)
        climb = st.sampled_from([0.0, -0.0, 1.0, -7.0])
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0),
                                               st.floats(-0.5, 0.5), climb),
                                     min_size=len(world), max_size=len(world)), label="nominal")

        def run():
            res = filter_controls(world, nominal, config, mode="split")
            arrays = (res.nominal, res.controls, res.h, res.h_shaped)
            return [_bits(a) for a in arrays], res.events, sorted(res.fallback)

        got = run()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(safety_filter, "_filter_split", reference_split)
            assert run() == got

    def test_qp_only_where_a_half_row_is_violated(self, monkeypatch):
        # 20 vehicles 150 m from the centre: in the first 2 s every vehicle
        # has half-rows, and most of them hold
        cfg = replace(scenario_circle20(start_radius=150.0), duration=2.0, mode="split")
        solve = safety_filter.solve_qp

        def run(split):
            calls = []

            def spy(problem, **kwargs):
                calls.append((problem.coeffs @ problem.u_hat + problem.offsets < 0.0).any())
                return solve(problem, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(safety_filter, "solve_qp", spy)
                m.setattr(conftest, "solve_qp", spy)  # reference_split's
                m.setattr(safety_filter, "_filter_split", split)
                trace, _ = run_scenario(cfg)
            return calls, trace

        calls, trace = run(safety_filter._filter_split)
        ref_calls, ref_trace = run(reference_split)
        assert all(calls)  # every QP has a half-row violated at its u_hat
        # the reference also solves where all half-rows hold; only those go
        assert 0 < len(calls) == ref_calls.count(True) < len(ref_calls)
        assert _bits(trace.filtered) == _bits(ref_trace.filtered)


class TestUnusableRows:
    """A binding row that no control can evaluate or meet fails in both
    modes, before the mode branch: an event names its pair, both vehicles
    fall back, and nothing raises."""

    @staticmethod
    def config(man, zeta_max=5.0, xi=None):
        return FilterConfig(BarrierConfig(man, SafetyParams(0.01, 5.0)), SensorModel(350.0),
                            ActuatorLimits(15.0, 25.0, 0.2269, zeta_max),
                            shaping=None if xi is None else ShapingParams(xi, 0.9))

    @pytest.mark.parametrize("mode", ["centralized", "split"])
    @pytest.mark.parametrize("world, event", [
        # side by side 3 m apart (< D_s), same heading: the raw straight row
        # is zero and its offset -2
        ([vehicle(0, 0, 0), vehicle(0, 3, 0)], "qp-infeasible mode={mode} zero row pair=(0,1)"),
        # 2.2e-309 m apart: lie_derivatives overflows, the row is not finite
        ([vehicle(0, 0, 0), vehicle(2.2e-309, 0, 0)],
         "domain-error pair=(0,1) non-finite constraint row"),
        # the same on crossing headings: the row holds an infinity, which
        # meets a zero turn rate
        ([vehicle(0, 0, 0), vehicle(2.2e-309, 0, 2.0)],
         "domain-error pair=(0,1) non-finite constraint row"),
    ], ids=["zero row", "non-finite row", "infinite row"])
    def test_reproductions(self, mode, world, event):
        config = self.config(StraightManeuver(16.0, 24.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = filter_controls(world, [(20.0, 0.0, 0.0)] * 2, config, mode=mode)
        assert res.events == [event.format(mode=mode)]
        assert res.fallback == {0, 1}
        assert np.array_equal(res.controls, FilterRun(config, 2).evading.reshape(2, 3))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_each_unusable_row_fails_in_both_modes(self, data):
        if data.draw(st.booleans(), label="near-coincident"):
            man = data.draw(st.sampled_from([StraightManeuver(16.0, 24.0),
                                             TurnManeuver(1.0, 16.0, 0.2)]), label="maneuver")
            xi = data.draw(st.sampled_from([None, 10.0]), label="xi")
            # a subnormal gap survives next to the origin and rounds away elsewhere
            a = data.draw(st.just(vehicle(0.0, 0.0, 0.0)) | _near, label="a")
            gap = data.draw(st.sampled_from([0.0, 5e-324, 2.2e-309]) | st.floats(0.0, 1e-300),
                            label="gap")
            phi = data.draw(st.floats(-math.pi, math.pi), label="direction")
            heading = data.draw(st.just(a.heading) | st.floats(-math.pi, math.pi), label="heading")
            b = vehicle(a.px + gap * math.cos(phi), a.py + gap * math.sin(phi), heading)
        else:  # side by side inside D_s on heading 0: the raw straight row is zero
            man, xi = StraightManeuver(16.0, 24.0), None
            a = vehicle(data.draw(st.floats(-40.0, 40.0), label="x"),
                        data.draw(st.floats(-40.0, 40.0), label="y"), 0.0)
            b = vehicle(a.px, a.py + data.draw(st.floats(-4.9, 4.9), label="offset"), 0.0)
        config = self.config(man, xi=xi)
        # the pair among three vehicles, the third out of sensing range
        where = data.draw(st.permutations([0, 1, 2]), label="slots")
        world = [None] * 3
        world[where[0]], world[where[1]], world[where[2]] = a, b, vehicle(1000.0, 1000.0, 0.0)
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0),
                                               st.floats(-0.5, 0.5), st.floats(-8.0, 8.0)),
                                     min_size=3, max_size=3), label="nominal")
        i, j = sorted(where[:2])
        p = pair_pass(world, FilterRun(config, 3))
        k = pair_index(3)[0].tolist().index(i) + j - i - 1
        assert np.flatnonzero(p.in_sensor).tolist() == [k]
        unusable = not p.barrier.s[k] > 0.0  # undefined, or no gradient at s = 0
        if not unusable and p.lie[k]:
            with np.errstate(all="ignore"):
                lg = _shaped_rows(p, [k], config)[0]
            unusable = (not np.isfinite(lg).all()
                        or not lg.any() and config.gain(p.h_shaped[k]) < 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [filter_controls(world, nominal, config, mode=mode)
                       for mode in ("centralized", "split")]
        for res in results:
            if unusable:
                assert len(res.events) == 1 and f" pair=({i},{j})" in res.events[0]
                assert res.fallback == {i, j}
            else:
                assert not any(e.startswith("domain-error") or " zero row pair=" in e
                               for e in res.events)


@pytest.mark.parametrize("mode", ["centralized", "split"])
@pytest.mark.parametrize("zeta_max", [0.0, -0.0])
@pytest.mark.parametrize("radius", [30.0, 60.0])
def test_optima_keep_their_zero_signs(mode, zeta_max, radius, monkeypatch):
    """With a zero climb box each Goldfarb-Idnani optimum's climb comes out
    bit for bit, and so does the nominal climb of a vehicle that no QP
    moved; np.clip would give each zero the sign of the upper bound.  At 30 m
    every vehicle gets a QP in both modes, at 60 m split mode skips one."""
    optima = []
    solve = safety_filter.solve_qp

    def spy(problem, **kwargs):
        u_star, mult = solve(problem, **kwargs)
        optima.append((problem.u_hat, u_star.copy()))
        return u_star, mult

    monkeypatch.setattr(safety_filter, "solve_qp", spy)
    config = FilterConfig(BarrierConfig(TurnManeuver(1.0, 16.0, 0.2), SafetyParams(0.01, 5.0)),
                          SensorModel(350.0), ActuatorLimits(15.0, 25.0, 0.2269, zeta_max))
    world = [vehicle(radius * math.cos(a), radius * math.sin(a), a + math.pi)
             for a in (0.0, 2.1, 4.2)]
    nominal = [(25.0, 0.0, -0.0), (24.0, 0.0, 0.0),
               (23.0, 0.0, -0.0)]
    res = filter_controls(world, nominal, config, mode=mode)
    assert not res.fallback and (optima or radius == 60.0)
    want = res.nominal[:, 2].copy()
    for u_hat, u_star in optima:
        if mode == "centralized":
            want[:] = u_star[2::3]
        else:  # the vehicle whose nominal the problem holds (the speeds differ)
            want[res.nominal[:, 0].tolist().index(u_hat[0])] = u_star[2]
    assert _bits(res.controls[:, 2]) == _bits(want)


@pytest.mark.parametrize("mode", ["centralized", "split"])
@pytest.mark.parametrize("closed_form", [True, False], ids=["closed form", "solve_qp"])
def test_a_zero_no_row_acts_on_keeps_its_sign(mode, closed_form, monkeypatch):
    """With a zero climb box, a raw straight pair's row acts on no climb: the
    filtered climbs keep the bits of the nominal ones, -0.0 too, on every
    solver path."""
    if not closed_form:
        monkeypatch.setattr(safety_filter, "solve_row_batch", lambda *args: None)
    config = FilterConfig(BarrierConfig(StraightManeuver(16.0, 24.0), SafetyParams(0.01, 5.0)),
                          SensorModel(350.0), ActuatorLimits(15.0, 25.0, 0.2269, 0.0))
    world = [vehicle(0, 0, 0), vehicle(30, 0, math.pi)]
    res = filter_controls(world, [(20.0, 0.0, -0.0)] * 2, config, mode=mode)
    assert not res.fallback and not np.array_equal(res.controls, res.nominal)  # a QP ran
    assert _bits(res.controls[:, 2]) == _bits([-0.0, -0.0])


class TestGoldfarbIdnaniMatchesDenseReference:
    """The centralized QP takes its rows in pair form and tests a guessed
    active set from them and the bounds; with every row and box face stacked
    densely and the guess tested against that matrix (reference.dense_solve_qp)
    a step comes out the same, bit for bit."""

    @staticmethod
    def dense(problem, guess=()):
        coeffs = np.array([row.coeffs for row in problem.rows]).reshape(-1, problem.u_hat.size)
        ref = QPProblem(problem.u_hat, coeffs, problem.offsets, problem.lower, problem.upper)
        return dense_solve_qp(SimpleNamespace(u_hat=ref.u_hat, stacked=lambda: dense_stacked(ref)),
                              guess=guess)

    @staticmethod
    def config(turn):
        man = TurnManeuver(1.0, 16.0, 0.2) if turn else StraightManeuver(16.0, 22.0)
        safety = SafetyParams(0.01, 5.0)
        shaping = ShapingParams(xi_from_range(350.0, man, safety), 0.9) if turn else None
        return FilterConfig(BarrierConfig(man, safety), SensorModel(350.0),
                            ActuatorLimits(15.0, 25.0, 0.2269, 5.0), shaping=shaping)

    @staticmethod
    def spy(solved):
        """solve_qp, recording each (problem, u, whether the guess was accepted)."""
        def solve(problem, guess=()):
            u, mult = solve_qp(problem, guess=guess)
            warm = 0 < len(guess) <= u.size and _active_set_optimum(
                problem, problem.u_hat.copy(), guess) is not None
            solved.append((problem, u, warm))
            return u, mult
        return solve

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_steps_match_the_dense_reference(self, data):
        config = self.config(data.draw(st.booleans(), label="turn"))
        n = data.draw(st.integers(3, 8), label="n")
        # within 60 m of each other: binding rows share vehicles
        world = data.draw(st.lists(_near, min_size=n, max_size=n), label="world")
        nominal = data.draw(st.lists(st.tuples(st.floats(10.0, 30.0), st.floats(-0.5, 0.5),
                                               st.floats(-7.0, 7.0)), min_size=n, max_size=n),
                            label="nominal")
        solved = []
        first = FilterRun(config, n)
        filter_controls(world, nominal, config, "centralized", first)
        # the next step's world, which the first step's active set hints at
        after = [step_rk4(s, u, 0.1) for s, u in zip(world, nominal)]

        def step(hint):
            runs = []
            for solver in (self.spy(solved), self.dense):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(safety_filter, "solve_qp", solver)
                    run = FilterRun(config, n)
                    run.active = list(hint)
                    runs.append((filter_controls(after, nominal, config, "centralized", run), run))
            (got, got_run), (want, want_run) = runs
            assert _bits(got.controls) == _bits(want.controls)
            assert got_run.active == want_run.active
            assert got.events == want.events and got.fallback == want.fallback
            return got_run.active

        step(first.active)
        own = step([])
        step([a + 1 for a in first.active])  # stale
        step(own)  # the step's own optimum, a guess the warm start takes
        # the guess's acceptance test is what changed form: what it accepts
        # is the optimum.  The loop is the dense reference's, bit for bit
        # (above), drift included (see the test below)
        for problem, u, warm in solved:
            if warm:
                assert kkt_residual(problem, u) <= 1e-8

    def test_loop_stays_stationary_past_a_nearly_dependent_row(self):
        # vehicles 0 and 2 coincide.  Solved cold, the loop meets a row with
        # |z|^2 = 7e-11 |a|^2 against its active set, under the 1e-10 at which
        # it takes the row as dependent: its dual step of t = 1.28 must move u
        # by t*z too, else u ends 1.28 |z| = 6.7e-5 off stationarity (with the
        # active set and multipliers of the optimum, which a warm start finds
        # to 5e-15)
        config = self.config(turn=True)
        world = [VehicleState(1.0, -11.0, 1.0, 0.0), VehicleState(0.0, 0.0, 0.0, 0.0),
                 VehicleState(1.0, -11.0, 1.0, 0.0), VehicleState(2.0, -11.0, 1.0, 0.0)]
        nominal = [(10.0, 0.0, 0.0)] * 4
        after = [step_rk4(s, u, 0.1) for s, u in zip(world, nominal)]
        solved = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(safety_filter, "solve_qp", self.spy(solved))
            filter_controls(after, nominal, config, "centralized", FilterRun(config, 4))
        (problem, u, warm), = solved
        assert not warm
        assert kkt_residual(problem, u) <= 1e-8
