import math

import numpy as np
import pytest

from wingsafe.barrier import (
    BarrierConfig,
    LinearGain,
    PairState,
    SafetyParams,
    TurnManeuver,
    h_value,
    lie_derivatives,
)
from wingsafe.dynamics import ControlInput, VehicleState, clamp_input
from wingsafe.safety_filter import (
    FilterConfig,
    assemble_pair_constraint,
    filter_controls,
)
from wingsafe.shaping import SensorModel, make_quadratic_psi, psi_deriv, xi_from_range

from conftest import random_valid_pair


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
    def test_outside_sensing_returns_none(self, fconfig):
        pair = PairState(vehicle(0, 0, 0), vehicle(400, 0, math.pi))
        assert assemble_pair_constraint(pair, fconfig) is None

    def test_plateau_row_vacuous(self, fconfig):
        # inside range but far from conflict: h above xi, zero row with
        # positive offset
        pair = PairState(vehicle(0, 0, math.pi / 2), vehicle(349, 0, math.pi / 2))
        h = h_value(pair, fconfig.barrier).value
        assert h >= fconfig.shaping.xi
        row = assemble_pair_constraint(pair, fconfig)
        assert row is not None
        assert not row.coeffs.any()
        assert row.offset > 0

    def test_active_row_is_scaled_lie_derivative(self, fconfig, turn_config):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            pair = random_valid_pair(rng, turn_config, span=250.0)
            h = h_value(pair, turn_config).value
            if not (0 < h < fconfig.shaping.xi):
                continue
            row = assemble_pair_constraint(pair, fconfig)
            _, lg = lie_derivatives(pair, turn_config)
            np.testing.assert_allclose(
                row.coeffs, psi_deriv(h, fconfig.shaping) * lg, atol=1e-9
            )
            checked += 1


class TestFilterControls:
    def test_no_sensed_pair_passes_nominal(self, fconfig):
        world = [vehicle(0, 0, 0), vehicle(1000, 0, math.pi)]
        nominal = [ControlInput(20, 0.1, 0), ControlInput(18, -0.05, 1)]
        res = filter_controls(world, nominal, fconfig)
        assert res.controls == nominal
        assert not res.events

    def test_feasible_nominal_returned_exactly(self, fconfig):
        # sensed but far from conflict: plateau row is vacuous
        world = [vehicle(0, 0, math.pi / 2), vehicle(340, 0, math.pi / 2)]
        nominal = [ControlInput(20, 0.0, 0), ControlInput(20, 0.0, 0)]
        res = filter_controls(world, nominal, fconfig)
        assert res.controls == nominal

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
            for u in res.controls:
                assert limits.contains(u, tol=1e-9)

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
        ua, ub = res.controls
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
        assert res.controls == nominal

    def test_single_vehicle_identity(self, fconfig):
        res = filter_controls([vehicle(0, 0, 0)], [ControlInput(20, 0, 0)], fconfig)
        assert res.controls == [ControlInput(20, 0, 0)]

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
        man = fconfig.barrier.maneuver
        assert res.controls[0].turn_rate == pytest.approx(man.turn_rate)
        assert res.controls[0].speed == pytest.approx(man.sigma * man.speed)
        assert res.controls[1].speed == pytest.approx(man.speed)


def _array(controls):
    return np.array([(c.speed, c.turn_rate, c.climb_rate) for c in controls])


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
                np.testing.assert_allclose(_array(warm.controls), _array(cold.controls),
                                           rtol=0, atol=1e-9)
                np.testing.assert_allclose(warm.margin, cold.margin, rtol=0, atol=1e-9)
                assert warm.active == cold.active
                assert warm.events == cold.events and warm.fallback == cold.fallback
            hinted += 1
        assert hinted >= 10

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
            u = _array(res.controls).ravel()
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
        assert res.controls == [ControlInput(*u1), ControlInput(*u2)]
        assert np.isnan(res.margin).all()

    def test_off_mode_reports_without_fallback(self, fconfig, limits):
        res = filter_controls(self.WORLD, self.NOMINAL, fconfig, mode="off")
        assert res.events == filter_controls(self.WORLD, self.NOMINAL, fconfig).events
        assert res.fallback == set()
        assert res.controls == [clamp_input(u, limits) for u in self.NOMINAL]
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
        assert res.controls[1] == ControlInput(17.78, man.turn_rate, 0.0)
