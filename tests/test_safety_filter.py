import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.barrier import (
    BarrierConfig,
    DomainError,
    LinearGain,
    PairState,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
    h_batch,
    h_value,
    lie_derivatives,
)
from wingsafe import safety_filter, sim
from wingsafe.dynamics import ActuatorLimits, ControlInput, VehicleState
from wingsafe.qp import solve_qp, solve_row_batch
from wingsafe.safety_filter import (FilterConfig, _shaped_rows, filter_controls, pair_index,
                                    pair_pass)
from wingsafe.scenarios import run_scenario, scenario_circle20
from wingsafe.shaping import SensorModel, make_quadratic_psi, psi_deriv_batch, xi_from_range

from conftest import random_valid_pair, reference_clamp


@pytest.fixture(scope="module")
def fconfig(turn_config, limits):
    xi = xi_from_range(350.0, turn_config.maneuver, turn_config.safety)
    return FilterConfig(
        barrier=turn_config,
        sensor=SensorModel(350.0),
        limits=limits,
        gain=LinearGain(1.0),
        shaping=make_quadratic_psi(xi, 0.9),
    )


def vehicle(x, y, th):
    return VehicleState(x, y, th, 0.0)


class TestAssemblePairConstraint:
    """The pair rows of the filter's array pass: pair_pass and _shaped_rows."""

    def test_outside_sensing_returns_none(self, fconfig):
        p = pair_pass([vehicle(0, 0, 0), vehicle(400, 0, math.pi)], fconfig)
        assert not p.in_sensor[0]

    def test_plateau_row_vacuous(self, fconfig):
        # inside range but far from conflict: h above xi, no gradient row and
        # a positive offset
        pair = PairState(vehicle(0, 0, math.pi / 2), vehicle(349, 0, math.pi / 2))
        h = h_value(pair, fconfig.barrier).value
        assert h >= fconfig.shaping.xi
        p = pair_pass([pair.a, pair.b], fconfig)
        assert p.in_sensor[0] and p.h[0] == h
        assert not p.lie[0]
        assert fconfig.gain(p.h_shaped[0]) > 0

    def test_active_row_is_scaled_lie_derivative(self, fconfig, turn_config):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            pair = random_valid_pair(rng, turn_config, span=250.0)
            h = h_value(pair, turn_config).value
            if not (0 < h < fconfig.shaping.xi):
                continue
            p = pair_pass([pair.a, pair.b], fconfig)
            assert p.in_sensor[0] and p.lie[0]
            _, lg = lie_derivatives(pair, turn_config)
            want = psi_deriv_batch(h, fconfig.shaping) * lg
            np.testing.assert_allclose(_shaped_rows(p, [0], fconfig)[0], want, atol=1e-9)
            checked += 1


class TestFilterControls:
    def test_no_sensed_pair_passes_nominal(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        nominal = [ControlInput(20, 0.1, 0), ControlInput(18, -0.05, 1)]
        res = filter_controls(world, nominal, fconfig)
        assert np.array_equal(res.controls, nominal)
        assert not res.events

    def test_feasible_nominal_returned_exactly(self, fconfig):
        # sensed but far from conflict: plateau row is vacuous
        world = [vehicle(0, 0, math.pi / 2), vehicle(340, 0, math.pi / 2)]
        nominal = [ControlInput(20, 0.0, 0), ControlInput(20, 0.0, 0)]
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
                ControlInput(rng.uniform(10, 30), rng.uniform(-0.4, 0.4), rng.uniform(-8, 8))
                for _ in range(4)
            ]
            res = filter_controls(world, nominal, fconfig)
            for u in res.controls.tolist():
                assert limits.contains(ControlInput(*u), tol=1e-9)

    def test_centralized_margins_nonnegative(self, fconfig):
        rng = np.random.default_rng(42)
        for _ in range(20):
            world = [
                VehicleState(rng.uniform(-120, 120), rng.uniform(-120, 120),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(3)
            ]
            nominal = [ControlInput(25, 0, 0)] * 3
            res = filter_controls(world, nominal, fconfig)
            if res.fallback:
                continue  # infeasible step resolved by evading maneuver
            margins = res.margin[res.in_sensor]
            assert np.all(margins[np.isfinite(margins)] >= -1e-8)

    def test_symmetric_head_on_turn_rates_equal(self, limits):
        # point-symmetric head-on: swapping the vehicles maps the problem to
        # itself (delta -> 0), so the unique QP solution gives both vehicles
        # the same turn rate; their world-frame deflections are opposite
        man = TurnManeuver(sigma=1.0, speed=16.0, turn_rate=0.9 * math.radians(13))
        cfg = BarrierConfig(man, SafetyParams(delta=1e-13, ds=5.0))
        xi = xi_from_range(350.0, man, cfg.safety)
        fc = FilterConfig(cfg, SensorModel(350.0), limits, LinearGain(1.0),
                          make_quadratic_psi(xi, 0.9))
        world = [vehicle(-40, 0, 0), vehicle(40, 0, math.pi)]
        nominal = [ControlInput(20, 0, 0), ControlInput(20, 0, 0)]
        res = filter_controls(world, nominal, fc)
        ua, ub = map(ControlInput._make, res.controls.tolist())
        assert ua.turn_rate == pytest.approx(ub.turn_rate, abs=1e-6)
        assert ua.speed == pytest.approx(ub.speed, abs=1e-6)
        assert ua.turn_rate != 0  # constraint actually bit
        # equal body-frame turn rates on opposed headings deflect the two
        # velocity vectors in opposite world directions
        da = ua.turn_rate * ua.speed * math.cos(world[0].heading + math.pi / 2)
        db = ub.turn_rate * ub.speed * math.cos(world[1].heading + math.pi / 2)
        assert da * db < 0

    def test_split_mode_halves_imply_pair_row(self, fconfig):
        rng = np.random.default_rng(43)
        for _ in range(20):
            world = [
                VehicleState(rng.uniform(-100, 100), rng.uniform(-100, 100),
                             rng.uniform(-math.pi, math.pi), 0)
                for _ in range(3)
            ]
            nominal = [ControlInput(25, 0, 0)] * 3
            res = filter_controls(world, nominal, fconfig, mode="split")
            if res.fallback:
                continue
            margins = res.margin[res.in_sensor]
            assert np.all(margins[np.isfinite(margins)] >= -1e-8)

    def test_off_mode_passthrough(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(30, 0, math.pi)]
        nominal = [ControlInput(20, 0.1, 0), ControlInput(20, -0.1, 0)]
        res = filter_controls(world, nominal, fconfig, mode="off")
        assert np.array_equal(res.controls, nominal)

    def test_single_vehicle_identity(self, fconfig):
        res = filter_controls([vehicle(0, 0, 0)], [ControlInput(20, 0, 0)], fconfig)
        assert np.array_equal(res.controls, [ControlInput(20, 0, 0)])

    def test_unknown_mode_rejected(self, fconfig):
        with pytest.raises(ValueError):
            filter_controls([], [], fconfig, mode="magic")

    def test_deep_conflict_falls_back_to_maneuver(self, fconfig, limits):
        # head-on inside range with h already far negative: the row cannot be
        # satisfied inside the box, so both vehicles take the evading turn
        raw = FilterConfig(fconfig.barrier, SensorModel(350.0), limits,
                           LinearGain(1.0), shaping=None)
        world = [vehicle(0, 0, 0), vehicle(10, 0, math.pi)]
        nominal = [ControlInput(25, 0, 0), ControlInput(25, 0, 0)]
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
        nominal = [ControlInput(30, 0, 0), ControlInput(20, 0, -9)]
        res = filter_controls(self.HEAD_ON, nominal, fconfig)
        assert res.active  # the QP ran and wrote the filtered controls
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
        nominal = [ControlInput(20, 0, 0)] * 2
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
        nominal = [ControlInput(20, 0, 0)] * 2
        with pytest.raises(ValueError, match="non-finite filtered control for vehicle 1"):
            filter_controls(self.HEAD_ON, nominal, fconfig)


class TestWarmStartHint:
    """The previous step's active set only warm-starts the centralized QP."""

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
        nominal = [ControlInput(25, 0, 0)] * 4
        hinted = 0
        for world in self.worlds(44, 40):
            cold = filter_controls(world, nominal, fconfig)
            if not cold.active:
                continue
            # the exact active set, a stale one and ids naming nothing
            for hint in (cold.active, cold.active[:1], [-1, 10**6] + cold.active):
                warm = filter_controls(world, nominal, fconfig, hint=hint)
                np.testing.assert_allclose(warm.controls, cold.controls, rtol=0, atol=1e-9)
                np.testing.assert_allclose(warm.margin, cold.margin, rtol=0, atol=1e-9)
                assert warm.active == cold.active
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
        nominal = [ControlInput(25, 0, 0)] * 4
        checked = 0
        for world in self.worlds(47, 40):
            solves.clear()
            cold = filter_controls(world, nominal, fconfig)
            if not cold.active or not solves:
                continue
            filter_controls(world, nominal, fconfig, hint=[-1, 30, 10**6] + cold.active)
            (_, mult), (guess, _) = solves
            assert guess == np.flatnonzero(mult > 0.0).tolist()
            checked += 1
        assert checked >= 10

    def test_active_ids_name_tight_constraints(self, fconfig, limits):
        nominal = [ControlInput(25, 0, 0)] * 4
        lo = [limits.v_min, -limits.omega_max, -limits.zeta_max] * 4
        hi = [limits.v_max, limits.omega_max, limits.zeta_max] * 4
        faces = lo + hi  # stacked box faces: lower, then upper
        n_pairs = 6
        for world in self.worlds(45, 40):
            res = filter_controls(world, nominal, fconfig)
            if res.fallback:
                continue  # the margins are those of the evading maneuver
            u = res.controls.ravel()
            for i in res.active:
                if i < n_pairs:
                    assert res.margin[i] == pytest.approx(0.0, abs=1e-8)
                else:
                    face = i - n_pairs
                    assert u[face % 12] == pytest.approx(faces[face], abs=1e-9)

    def test_no_active_set_without_centralized_qp(self, fconfig):
        nominal = [ControlInput(25, 0, 0)] * 4
        for world in self.worlds(46, 20):
            hint = filter_controls(world, nominal, fconfig).active
            for mode in ("split", "off"):
                assert filter_controls(world, nominal, fconfig, mode, hint).active == []
        far = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        assert filter_controls(far, nominal[:2], fconfig, hint=[0]).active == []


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
        nominal = [ControlInput(rng.uniform(10, 30), rng.uniform(-0.4, 0.4), rng.uniform(-6, 6))
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
            res = filter_controls(world, nominal, fconfig)
            with monkeypatch.context() as m:
                m.setattr(safety_filter, "solve_row_batch", lambda *args: None)
                ref = filter_controls(world, nominal, fconfig)
            np.testing.assert_allclose(res.controls, ref.controls, rtol=0, atol=1e-9)
            np.testing.assert_allclose(res.margin, ref.margin, rtol=0, atol=1e-9)
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
            assert res.active == sorted(res.active)
            for i in res.active:
                if i < n_pairs:
                    assert res.margin[i] == pytest.approx(0.0, abs=1e-8)
                else:
                    face = i - n_pairs
                    assert u[face % (3 * n)] == faces[face]
        assert answered >= 20


class TestDomainErrors:
    # 0.05 m apart the turn barrier's radicand is negative: h is undefined
    WORLD = [vehicle(0, 0, 0), vehicle(0.05, 0, math.pi)]
    NOMINAL = [ControlInput(30, 0.5, 0), ControlInput(10, -1, 2)]

    def test_undefined_pair_falls_back_to_maneuver(self, fconfig):
        res = filter_controls(self.WORLD, self.NOMINAL, fconfig)
        assert len(res.events) == 1
        assert res.events[0].startswith("domain-error pair=(0,1) negative radicand ")
        assert res.fallback == {0, 1}
        u1, u2 = fconfig.barrier.maneuver.controls()
        assert np.array_equal(res.controls, [u1, u2])
        assert np.isnan(res.margin).all()

    def test_off_mode_reports_without_fallback(self, fconfig, limits):
        res = filter_controls(self.WORLD, self.NOMINAL, fconfig, mode="off")
        assert res.events == filter_controls(self.WORLD, self.NOMINAL, fconfig).events
        assert res.fallback == set()
        assert np.array_equal(res.controls, [reference_clamp(u, limits) for u in self.NOMINAL])
        assert np.isnan(res.margin).all()

    def test_role_from_evaluable_pair_first(self, fconfig, limits):
        # vehicle 1 is the first vehicle of the undefined pair (1, 2) but the
        # second of the evaluable pair (0, 1), which fixes its role
        man = TurnManeuver(sigma=0.9, speed=17.78, turn_rate=fconfig.barrier.maneuver.turn_rate)
        fc = FilterConfig(BarrierConfig(man, fconfig.barrier.safety), SensorModel(350.0),
                          limits, LinearGain(1.0), shaping=None)
        world = [vehicle(-30, 0, 0), vehicle(0, 0, 0), vehicle(0.05, 0, math.pi)]
        res = filter_controls(world, [ControlInput(20, 0, 0)] * 3, fc)
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


class TestTwinConfigsShareNothing:
    """FilterConfig derives its box, maneuver vector and role weights per
    instance.  Two configs that differ only in the sign of a zero compare
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
                                shaping=None if xi is None else make_quadratic_psi(xi, 0.9))

        world = data.draw(st.lists(_near, min_size=2, max_size=4), label="world")
        climb = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        nominal = data.draw(st.lists(st.builds(ControlInput, st.floats(10.0, 30.0),
                                               st.floats(-0.5, 0.5), climb),
                                     min_size=len(world), max_size=len(world)), label="nominal")
        mode = data.draw(st.sampled_from(["centralized", "split", "off"]), label="mode")
        ii, jj = pair_index(len(world))
        cols = np.array([(s.px, s.py, s.heading) for s in world]).T

        def run(cfg):
            res = filter_controls(world, nominal, cfg, mode=mode)
            clamped = [reference_clamp(u, cfg.limits) for u in nominal]
            assert _bits(res.nominal) == _bits(clamped)
            # h_batch builds its pair rows from the maneuver's own fields
            assert _bits(res.h) == _bits(h_batch((*cols[:, ii], *cols[:, jj]), cfg.barrier))
            evading = cfg.barrier.maneuver.controls()
            for v in res.fallback:
                assert _bits(res.controls[v]) in (_bits(evading[0]), _bits(evading[1]))
            arrays = (res.nominal, res.controls, res.h, res.h_shaped, res.margin)
            return ([_bits(a) for a in arrays], res.in_sensor.tolist(), res.events,
                    sorted(res.fallback), res.active)

        first, twin = config(zero), config(-zero)
        assert first == twin and hash(first) == hash(twin)
        alone = run(first)
        run(twin)
        assert run(first) == alone
        assert run(config(zero)) == alone

    @settings(max_examples=60)
    @given(zero=st.sampled_from([0.0, -0.0]),
           pairs=st.lists(st.tuples(_near, _near), min_size=1, max_size=6))
    def test_barrier_ignores_a_twin_run_first(self, zero, pairs):
        # a straight maneuver with v1 = +-0.0 lies outside every actuator box,
        # so the barrier's one-pair wrappers, which read role_weights, take it
        def run(z):
            cfg = BarrierConfig(StraightManeuver(v1=z, v2=20.0), SafetyParams(0.01, 5.0))
            out = []
            for a, b in pairs:
                try:
                    value = h_value(PairState(a, b), cfg)
                    lg = lie_derivatives(PairState(a, b), cfg)[1]
                except DomainError as err:
                    out.append(str(err))
                else:
                    out.append([_bits(value), _bits(lg)])
            return out

        alone = run(zero)
        run(-zero)
        assert run(zero) == alone
