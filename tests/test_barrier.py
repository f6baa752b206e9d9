import math

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
    StraightPass,
    TurnManeuver,
    barrier_pass,
    h_batch,
    h_oracle,
    h_value,
    lie_derivatives,
    lie_rows,
    minimizer_tau,
    flat_pair_rows,
    pair_rows,
    phasor_rows,
    role_weights,
    rho_straight,
    rho_turn,
    squared_planar_distance,
)
from wingsafe.dynamics import VehicleState, propagate_straight, propagate_turn

from conftest import random_straight_config, random_turn_config, random_valid_pair


def pair_at(ax, ay, ath, bx, by, bth):
    return PairState(VehicleState(ax, ay, ath, 0), VehicleState(bx, by, bth, 0))


class TestSafetyFunctions:
    def test_squared_distance_345(self):
        assert squared_planar_distance(pair_at(0, 0, 0, 3, 4, 0)) == 25

    def test_squared_distance_coincident(self):
        assert squared_planar_distance(pair_at(1, 2, 0, 1, 2, 1)) == 0

    def test_squared_distance_collinear(self):
        assert squared_planar_distance(pair_at(-5, 0, 0, 5, 0, 0)) == 100

    def test_rho_straight(self):
        assert rho_straight(pair_at(0, 0, 0, 10, 0, 0), 5.0) == 5.0
        assert rho_straight(pair_at(0, 0, 0, 5, 0, 0), 5.0) == 0.0
        assert rho_straight(pair_at(0, 0, 0, 0, 0, 0), 5.0) == -5.0

    def test_rho_turn_hand_value(self):
        # d12 = 100, theta1 = pi/2: radicand = 100 - 2*0.01 + 0.01 = 99.99
        p = pair_at(0, 0, math.pi / 2, 10, 0, 0)
        got = rho_turn(p, SafetyParams(delta=0.01, ds=5.0))
        assert got == pytest.approx(math.sqrt(99.99) - 5.0, abs=1e-12)

    def test_rho_turn_delta_limit(self):
        p = pair_at(3, -4, 0.7, -8, 2, -1.1)
        tiny = rho_turn(p, SafetyParams(delta=1e-12, ds=5.0))
        assert tiny == pytest.approx(rho_straight(p, 5.0), abs=1e-9)

    def test_rho_turn_zero_radicand(self):
        # d12 at the domain boundary 2*delta - delta*sin(th1) + delta*cos(th1)
        # (nudged up by 1e-12 so fp rounding cannot push the radicand negative)
        de, th1 = 0.04, 0.3
        d = 2 * de - de * math.sin(th1) + de * math.cos(th1)
        p = pair_at(0, 0, th1, math.sqrt(d + 1e-12), 0, 0)
        assert rho_turn(p, SafetyParams(delta=de, ds=5.0)) == pytest.approx(-5.0, abs=1e-5)

    def test_rho_turn_negative_radicand(self):
        with pytest.raises(DomainError):
            rho_turn(pair_at(0, 0, 0, 0.01, 0, 0), SafetyParams(delta=0.05, ds=5.0))


class TestHStraight:
    def test_head_on_collision_course(self):
        m = StraightManeuver(v1=1, v2=2)
        cfg = BarrierConfig(m, SafetyParams(0.01, 5.0))
        val = h_value(pair_at(0, 0, 0, 10, 0, math.pi), cfg)
        assert val.value == pytest.approx(-5.0, abs=1e-12)
        assert val.minimizer_tau == pytest.approx(10 / 3, abs=1e-12)

    def test_offset_cpa(self):
        # p0 = (-10,-5), dv = (3,0): tau* = 10/3, closest distance 5
        m = StraightManeuver(v1=2, v2=1)
        cfg = BarrierConfig(m, SafetyParams(0.01, 5.0))
        val = h_value(pair_at(0, 0, 0, 10, 5, math.pi), cfg)
        assert val.value == pytest.approx(0.0, abs=1e-12)
        assert val.minimizer_tau == pytest.approx(10 / 3, abs=1e-12)

    def test_diverging_infimum_at_zero(self):
        m = StraightManeuver(v1=3, v2=1)
        p = pair_at(0, 0, 0, -10, 0, math.pi)  # opening along x
        val = h_value(p, BarrierConfig(m, SafetyParams(0.01, 5.0)))
        assert val.minimizer_tau == 0.0
        assert val.value == pytest.approx(math.sqrt(squared_planar_distance(p)) - 5.0)

    def test_equal_speeds_rejected(self):
        with pytest.raises(ValueError):
            StraightManeuver(v1=2, v2=2)

    @pytest.mark.parametrize("speed", [0.0, -0.0, -20.0])
    @pytest.mark.parametrize("name", ["v1", "v2"])
    def test_non_positive_speed_rejected(self, name, speed):
        # airspeeds are positive, so no speed is a signed zero
        with pytest.raises(ValueError, match="require v1 > 0 and v2 > 0"):
            StraightManeuver(**{"v1": 20.0, "v2": 25.0, name: speed})


class TestHTurn:
    def test_synchronized_identical_turn_constant_distance(self):
        m = TurnManeuver(sigma=1.0, speed=1.0, turn_rate=1.0)
        p = pair_at(0, 0, 0.8, 12, -3, 0.8)
        val = h_value(p, BarrierConfig(m, SafetyParams(delta=1e-12, ds=5.0)))
        assert val.value == pytest.approx(
            math.sqrt(squared_planar_distance(p)) - 5.0, abs=1e-5
        )

    def test_phasor_hand_value(self):
        # parallel headings pi/2, sigma=1: w = 0, A = d - 2*delta,
        # M = sqrt(2)*delta from the heading terms alone
        m = TurnManeuver(sigma=1.0, speed=1.0, turn_rate=1.0)
        cfg = BarrierConfig(m, SafetyParams(0.01, 5.0))
        val = h_value(pair_at(0, 0, math.pi / 2, 10, 0, math.pi / 2), cfg)
        want = math.sqrt(100 - 0.02 - 0.01 * math.sqrt(2)) - 5.0
        assert val.value == pytest.approx(want, abs=1e-12)
        assert val.value == pytest.approx(4.99829, abs=1e-5)

    def test_minimizer_consistency(self, turn_config):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pair = random_valid_pair(rng, turn_config, span=400.0)
            val = h_value(pair, turn_config)
            man = turn_config.maneuver
            a = propagate_turn(pair.a, man.sigma * man.speed, man.turn_rate, val.minimizer_tau)
            b = propagate_turn(pair.b, man.speed, man.turn_rate, val.minimizer_tau)
            assert rho_turn(PairState(a, b), turn_config.safety) == pytest.approx(
                val.value, abs=1e-9
            )

    def test_minimizer_consistency_straight(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cfg = random_straight_config(rng)
            pair = random_valid_pair(rng, cfg, span=100.0)
            val = h_value(pair, cfg)
            a = propagate_straight(pair.a, cfg.maneuver.v1, cfg.maneuver.zeta1, val.minimizer_tau)
            b = propagate_straight(pair.b, cfg.maneuver.v2, cfg.maneuver.zeta2, val.minimizer_tau)
            assert rho_straight(PairState(a, b), cfg.safety.ds) == pytest.approx(
                val.value, abs=1e-9
            )

    def test_domain_error(self):
        # nearly coincident turn circles force a negative radicand
        m = TurnManeuver(sigma=1.0, speed=10.0, turn_rate=0.2)
        with pytest.raises(DomainError):
            h_value(
                pair_at(0, 0, math.pi / 2, 0.05, 0, -math.pi / 2),
                BarrierConfig(m, SafetyParams(0.01, 5.0)),
            )


class TestOracleEquivalence:
    def test_turn_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cfg = random_turn_config(rng)
            span = 4.0 * (cfg.maneuver.r1 + cfg.maneuver.r2) + 20.0
            pair = random_valid_pair(rng, cfg, span=span)
            closed = h_value(pair, cfg).value
            assert closed == pytest.approx(h_oracle(pair, cfg), abs=1e-6)

    def test_straight_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            cfg = random_straight_config(rng)
            pair = random_valid_pair(rng, cfg, span=100.0)
            closed = h_value(pair, cfg).value
            assert closed == pytest.approx(h_oracle(pair, cfg), abs=1e-6)

    def test_constant_distance_case(self):
        m = TurnManeuver(sigma=1.0, speed=1.0, turn_rate=1.0)
        cfg = BarrierConfig(m, SafetyParams(delta=1e-12, ds=5.0))
        p = pair_at(0, 0, 1.1, 15, 4, 1.1)
        want = math.sqrt(squared_planar_distance(p)) - 5.0
        assert h_oracle(p, cfg) == pytest.approx(want, abs=1e-5)

    def test_oracle_validates_arguments(self, turn_config):
        p = pair_at(0, 0, 0, 100, 0, math.pi)
        with pytest.raises(ValueError):
            h_oracle(p, turn_config, n=1)
        with pytest.raises(ValueError):
            h_oracle(p, turn_config, horizon=1.0)  # below one period

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(44)
        for make in (random_turn_config, random_straight_config):
            cfg = make(rng)
            pairs = [random_valid_pair(rng, cfg, span=300.0) for _ in range(100)]
            arrays = tuple(
                np.array(v)
                for v in zip(
                    *[
                        (p.a.px, p.a.py, p.a.heading, p.b.px, p.b.py, p.b.heading)
                        for p in pairs
                    ]
                )
            )
            got = h_batch(arrays, cfg)
            want = [h_value(p, cfg).value for p in pairs]
            np.testing.assert_allclose(got, want, atol=1e-12)


FD_STEP = 1e-5
PLANAR = [0, 1, 2, 4, 5, 6]  # the rows of pair columns that the barrier reads


def pair_columns(pairs):
    """Pair states as the columns of an (8, P) array
    [a.px, a.py, a.heading, a.pz, b.px, b.py, b.heading, b.pz]."""
    return np.array([(*p.a, *p.b) for p in pairs], dtype=float).reshape(-1, 8).T


def pass_at(cols, config):
    """barrier_pass at pair columns, and the pairs' heading phasors (P, 2)."""
    th = cols[[2, 6]].T
    return barrier_pass(flat_pair_rows(cols[PLANAR], config), config), np.cos(th) + 1j * np.sin(th)


def probe(cols, config, step=FD_STEP):
    """One barrier pass over each pair column and its 16 central-difference
    perturbations (+-step in each coordinate).  Returns h there, (17, P): the
    columns, then their + and - perturbations; and the analytic gradient at
    each column, (P, 8) over [p1x, p1y, th1, p1z, p2x, p2y, th2, p2z], from
    lie_rows: dh/dp1 = n = -dh/dp2, dh/dth = L_g h in the turn rates, no
    altitude term."""
    P = cols.shape[1]
    shift = step * np.eye(8)[:, :, None]
    points = np.concatenate([cols[:, None], cols[:, None] + shift, cols[:, None] - shift], 1)
    p, e = pass_at(points.reshape(8, -1), config)
    n, lg = lie_rows(type(p)(*(a[..., :P] for a in p)), e[:P], config)
    zero = np.zeros(P)
    grad = np.stack([n.real, n.imag, lg[:, 1], zero, -n.real, -n.imag, lg[:, 4], zero], axis=1)
    return (p.s - config.safety.ds).reshape(17, P), grad


def central_difference(values, step=FD_STEP):
    """Central differences (P, 8) of values (17, P) at probe's points."""
    return ((values[1:9] - values[9:]) / (2 * step)).T


def smooth_rows(p, e, config):
    """Rows of a pass away from the barrier's kinks (CPA boundary / vanishing
    phasor) and, for FD probing, from the turn domain boundary and from a
    near-coincident straight CPA, whose gradient is steep and ill-conditioned."""
    man, ds = config.maneuver, config.safety.ds
    if isinstance(p, StraightPass):
        dv = np.abs(man.v1 * e[:, 0] - man.v2 * e[:, 1])
        return (np.abs(p.proj) >= 1e-3 * np.sqrt(p.d2) * dv) & (p.s - ds >= -0.9 * ds)
    return (p.M >= 1e-3 * (1.0 + np.abs(p.rad + p.M))) & (p.rad >= 1.0)


def smooth_pair(rng, cfg, span):
    """A random valid pair state in smooth_rows."""
    while True:
        pair = random_valid_pair(rng, cfg, span=span)
        if smooth_rows(*pass_at(pair_columns([pair]), cfg), cfg)[0]:
            return pair


def pair_margins(pairs, u, config, alpha):
    """L_f h + L_g h . u + alpha(h) of each pair (L_f h = 0); u is a stacked
    6-vector control, or one per pair."""
    p, e = pass_at(pair_columns(pairs), config)
    _, lg = lie_rows(p, e, config)
    return (lg * u).sum(axis=1) + alpha(p.s - config.safety.ds)


class TestGradient:
    def test_fd_agreement_turn(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cfg = random_turn_config(rng)
            span = 4.0 * (cfg.maneuver.r1 + cfg.maneuver.r2) + 20.0
            pair = smooth_pair(rng, cfg, span)
            h, g = probe(pair_columns([pair]), cfg)
            np.testing.assert_allclose(g[0], central_difference(h)[0], rtol=1e-5, atol=1e-8)

    def test_fd_agreement_straight(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = random_straight_config(rng)
            pair = smooth_pair(rng, cfg, span=100.0)
            h, g = probe(pair_columns([pair]), cfg)
            np.testing.assert_allclose(g[0], central_difference(h)[0], rtol=1e-5, atol=1e-8)

    def test_translation_antisymmetry_and_zero_altitude(self, turn_config):
        rng = np.random.default_rng(7)
        pairs = [random_valid_pair(rng, turn_config, span=400.0) for _ in range(50)]
        _, g = probe(pair_columns(pairs), turn_config)
        np.testing.assert_allclose(g[:, 0:2], -g[:, 4:6], atol=1e-15)
        assert not g[:, [3, 7]].any()

    def test_straight_kink_flagged_one_sided(self):
        # perpendicular geometry (exact in fp): headings 0 give dv = (1, 0),
        # vertical separation gives p0 = (0, -20), so p0 . dv == 0
        m = StraightManeuver(v1=2, v2=1)
        pair = pair_at(0, 0, 0, 0, 20, 0)
        cfg = BarrierConfig(m, SafetyParams(0.01, 5.0))
        assert pass_at(pair_columns([pair]), cfg)[0].proj[0] == 0.0
        # one-sided value is the tau* = 0 gradient: unit relative position
        _, g = probe(pair_columns([pair]), cfg)
        np.testing.assert_allclose(g[0, 0:2], (0.0, -1.0), atol=1e-12)
        rng = np.random.default_rng(8)
        smooth = smooth_pair(rng, cfg, 100.0)
        assert pass_at(pair_columns([smooth]), cfg)[0].proj[0] != 0.0

    def test_h_translation_invariance(self, turn_config):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pair = random_valid_pair(rng, turn_config, span=400.0)
            dx, dy, dz = rng.uniform(-500, 500, 3)
            moved = PairState(
                VehicleState(pair.a.px + dx, pair.a.py + dy, pair.a.heading, pair.a.pz + dz),
                VehicleState(pair.b.px + dx, pair.b.py + dy, pair.b.heading, pair.b.pz + dz),
            )
            assert h_value(moved, turn_config).value == pytest.approx(
                h_value(pair, turn_config).value, abs=1e-9
            )

    def test_h_rigid_motion_invariance_vanishing_delta(self):
        # The heading-dependent regularization of the turn safety function is
        # tied to vehicle 1's absolute heading, so exact rotation invariance
        # only holds as delta -> 0 (see decisions ledger).
        m = TurnManeuver(sigma=0.7, speed=10.0, turn_rate=0.3)
        cfg = BarrierConfig(m, SafetyParams(delta=1e-13, ds=5.0))
        rng = np.random.default_rng(10)
        for _ in range(50):
            pair = random_valid_pair(rng, cfg, span=300.0)
            ang = rng.uniform(-math.pi, math.pi)
            ca, sa = math.cos(ang), math.sin(ang)
            dx, dy = rng.uniform(-500, 500, 2)

            def move(s):
                return VehicleState(
                    ca * s.px - sa * s.py + dx,
                    sa * s.px + ca * s.py + dy,
                    s.heading + ang,
                    s.pz,
                )

            moved = PairState(move(pair.a), move(pair.b))
            assert h_value(moved, cfg).value == pytest.approx(
                h_value(pair, cfg).value, abs=1e-9
            )

    def test_h_below_rho(self, turn_config):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pair = random_valid_pair(rng, turn_config, span=400.0)
            assert h_value(pair, turn_config).value <= rho_turn(
                pair, turn_config.safety
            ) + 1e-12
        for _ in range(100):
            cfg = random_straight_config(rng)
            pair = random_valid_pair(rng, cfg, span=100.0)
            assert h_value(pair, cfg).value <= rho_straight(pair, cfg.safety.ds) + 1e-12


class TestLieDerivatives:
    def test_drift_term_zero(self, turn_config):
        rng = np.random.default_rng(12)
        pair = random_valid_pair(rng, turn_config, span=300.0)
        lf, _ = lie_derivatives(pair, turn_config)
        assert lf == 0.0

    def test_zeta_columns_zero(self, turn_config):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pair = random_valid_pair(rng, turn_config, span=300.0)
            _, lg = lie_derivatives(pair, turn_config)
            assert lg[2] == 0.0 and lg[5] == 0.0

    def test_maneuver_is_admissible_direction(self):
        # h is non-decreasing along its own evading flow, so Lg h . gamma >= 0
        rng = np.random.default_rng(14)
        for make, span in ((random_turn_config, 300.0), (random_straight_config, 100.0)):
            for _ in range(50):
                cfg = make(rng)
                pair = random_valid_pair(rng, cfg, span=span)
                _, lg = lie_derivatives(pair, cfg)
                gamma = np.ravel(cfg.maneuver.controls())
                assert float(lg @ gamma) >= -1e-9


class TestConstraintMargin:
    def test_maneuver_margin_nonnegative_on_safe_states(self, turn_config):
        rng = np.random.default_rng(15)
        alpha = LinearGain(1.0)
        gamma = np.ravel(turn_config.maneuver.controls())
        pairs = [
            random_valid_pair(rng, turn_config, span=400.0, require_safe=True) for _ in range(100)
        ]
        assert np.all(pair_margins(pairs, gamma, turn_config, alpha) >= -1e-9)

    def test_affine_in_u(self, turn_config):
        rng = np.random.default_rng(16)
        alpha = LinearGain(0.7)
        pair = random_valid_pair(rng, turn_config, span=300.0)
        u1 = rng.uniform(-5, 5, 6)
        u2 = rng.uniform(-5, 5, 6)
        m = lambda u: float(pair_margins([pair], u, turn_config, alpha)[0])
        assert m(u1) + m(u2) - m(np.zeros(6)) == pytest.approx(m(u1 + u2), abs=1e-9)

    def test_alpha_dominance(self, turn_config):
        # far-apart pair: alpha(h) is large, any bounded control is admissible
        pair = pair_at(0, 0, 0.4, 5000, 0, -1.0)
        alpha = LinearGain(1.0)
        u = np.array([25, 0.23, 5, 25, 0.23, 5])
        assert pair_margins([pair], u, turn_config, alpha)[0] > 0.0


def barrier_configs():
    turn = st.builds(
        lambda sigma, speed, rate, delta, ds: BarrierConfig(
            TurnManeuver(sigma, speed, rate), SafetyParams(delta, ds)
        ),
        st.floats(0.2, 1.0), st.floats(2.0, 25.0), st.floats(0.05, 1.0),
        st.floats(1e-4, 0.1), st.floats(1.0, 10.0),
    )
    straight = st.builds(
        lambda v1, dv, ds: BarrierConfig(StraightManeuver(v1, v1 + dv), SafetyParams(0.01, ds)),
        st.floats(2.0, 25.0), st.floats(0.5, 10.0) | st.floats(-1.9, -0.5), st.floats(1.0, 10.0),
    )
    return turn | straight


states = st.builds(
    lambda x, y, th: VehicleState(x, y, th, 0.0),
    st.floats(-300.0, 300.0), st.floats(-300.0, 300.0), st.floats(-math.pi, math.pi),
)


class TestArrayPassAgreement:
    """The scalar wrappers are the array pass with one row: identical values,
    and a DomainError exactly where the pass gives NaN."""

    @settings(max_examples=150)
    @given(barrier_configs(), st.lists(st.tuples(states, states), min_size=1, max_size=12))
    def test_wrappers_match_array_pass(self, cfg, pairs):
        pairs = [PairState(a, b) for a, b in pairs]
        g = np.stack([phasor_rows([p.a for p in pairs]), phasor_rows([p.b for p in pairs])])
        pair_arrays = np.array(
            [(p.a.px, p.a.py, p.a.heading, p.b.px, p.b.py, p.b.heading) for p in pairs]
        ).T
        y = pair_rows(g, role_weights(cfg))
        p = barrier_pass(y, cfg)
        tau = minimizer_tau(p, cfg)
        _, lg = lie_rows(p, g[:, 1].T, cfg)
        h = h_batch(pair_arrays, cfg)
        np.testing.assert_array_equal(flat_pair_rows(pair_arrays, cfg), y)
        np.testing.assert_array_equal(h, p.s - cfg.safety.ds)
        for k, pair in enumerate(pairs):
            if np.isnan(p.s[k]):
                with pytest.raises(DomainError):
                    h_value(pair, cfg)
                continue
            val = h_value(pair, cfg)
            assert val.value == h[k] and val.minimizer_tau == tau[k]
            if p.s[k] > 0.0:
                np.testing.assert_array_equal(lie_derivatives(pair, cfg)[1], lg[k])
            else:
                with pytest.raises(DomainError):
                    lie_derivatives(pair, cfg)

    @settings(max_examples=60)
    @given(barrier_configs(), st.lists(states, min_size=2, max_size=7))
    def test_filter_pass_matches_wrappers(self, cfg, world):
        from wingsafe.safety_filter import FilterConfig, filter_controls
        from wingsafe.dynamics import ActuatorLimits, ControlInput
        from wingsafe.shaping import SensorModel

        limits = ActuatorLimits(0.1, 50.0, 1.5, 5.0)  # contains every drawn maneuver
        fc = FilterConfig(cfg, SensorModel(150.0), limits)
        res = filter_controls(world, [ControlInput(10.0, 0.0)] * len(world), fc, mode="off")
        want = []
        for i in range(len(world)):
            for j in range(i + 1, len(world)):
                try:
                    want.append(h_value(PairState(world[i], world[j]), cfg).value)
                except DomainError:
                    want.append(math.nan)
        np.testing.assert_array_equal(res.h, want)
