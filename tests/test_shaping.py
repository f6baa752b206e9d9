import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.barrier import (
    BarrierConfig,
    LinearGain,
    SafetyParams,
    StraightManeuver,
    TurnManeuver,
    lie_derivatives,
)
from wingsafe.shaping import (
    SensorModel,
    ShapingParams,
    analytic_compatible,
    check_sensor_compatible,
    in_sensor_set,
    min_sensing_range,
    psi_deriv_batch,
    shape_h,
    xi_from_range,
)

from conftest import DELTA, DS, pair_h, random_pair_columns, random_valid_pair
from test_barrier import central_difference, pair_columns, pass_at, probe


def alpha2(h, alpha, params):
    """Effective gain psi'(h)^-1 * alpha(psi(h)), for h < xi (see the shaping
    module docstring)."""
    return alpha(shape_h(h, params)) / psi_deriv_batch(h, params)


class TestSensorSet:
    R = 100.0

    def sensed(self, d):
        """Whether a pair d apart on the x axis is sensed at range R."""
        return in_sensor_set(np.array([d * d]), np.array(self.R * self.R))[0]

    def test_inside(self):
        assert self.sensed(99.0)

    def test_outside(self):
        assert not self.sensed(101.0)

    def test_boundary_included(self):
        assert self.sensed(100.0)


class TestQuadraticPsi:
    def test_reference_coefficients(self):
        p = ShapingParams(1.0, 0.5)
        assert (p.c1, p.c2, p.c3) == (-1.0, 2.0, -0.25)

    def test_blending_constraints(self):
        p = ShapingParams(1.0, 0.5)
        assert shape_h(0.5, p) == pytest.approx(0.5, abs=1e-15)
        assert psi_deriv_batch(0.5 + 1e-15, p) == pytest.approx(1.0, abs=1e-12)
        assert psi_deriv_batch(1.0, p) == pytest.approx(0.0, abs=1e-15)

    def test_plateau_value(self):
        p = ShapingParams(1.0, 0.5)
        assert shape_h(1.0, p) == pytest.approx(0.75, abs=1e-15)

    def test_constraints_random_parameters(self):
        # the three blending constraints, to 1e-12, over random (xi, beta)
        rng = np.random.default_rng(20)
        for _ in range(100):
            xi = rng.uniform(0.05, 500.0)
            beta = rng.uniform(0.05, 0.95)
            p = ShapingParams(xi, beta)
            bx = beta * xi
            quad = lambda e: (p.c1 * e + p.c2) * e + p.c3
            dquad = lambda e: 2 * p.c1 * e + p.c2
            assert quad(bx) == pytest.approx(bx, rel=1e-12, abs=1e-12)
            assert dquad(bx) == pytest.approx(1.0, abs=1e-12)
            assert dquad(xi) == pytest.approx(0.0, abs=1e-12)
            # strictly increasing with negative curvature in between
            mid = rng.uniform(bx, xi)
            assert dquad(mid) > 0.0
            assert p.c1 < 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ShapingParams(-1.0, 0.5)
        with pytest.raises(ValueError):
            ShapingParams(1.0, 1.0)
        with pytest.raises(ValueError):
            ShapingParams(1.0, 0.0)

    @settings(max_examples=400, deadline=None)
    @given(xi=st.floats() | st.floats(1e-3, 1e3), beta=st.floats() | st.floats(0.0, 1.0))
    def test_params_derive_a_blending_psi(self, xi, beta):
        # any (xi, beta) is rejected, naming the bad value, or gives the C1 psi
        try:
            p = ShapingParams(xi, beta)
        except ValueError as err:
            if not 0.0 < xi < math.inf:
                assert "xi" in str(err)
            elif not 0.0 < beta < 1.0:
                assert "beta" in str(err)
            else:  # the coefficients overflow
                assert f"xi={xi!r}" in str(err) and f"beta={beta!r}" in str(err)
            return
        c1, c2, c3, bx = p.c1, p.c2, p.c3, beta * xi
        assert all(map(math.isfinite, (c1, c2, c3)))
        # each condition to rounding: a few ulps of the largest term it sums
        eps = 8 * np.finfo(float).eps
        scale = abs(c1) * bx * bx + abs(c2) * bx + abs(c3)
        assert abs((c1 * bx + c2) * bx + c3 - bx) <= eps * scale + 1e-300
        assert abs(2.0 * c1 * bx + c2 - 1.0) <= eps * (abs(2.0 * c1 * bx) + abs(c2))
        assert abs(2.0 * c1 * xi + c2) <= eps * (abs(2.0 * c1 * xi) + abs(c2))
        # the coefficients are derived, not settable, and take no part in equality
        q = ShapingParams(xi, beta)
        assert q == p and hash(q) == hash(p)
        with pytest.raises(TypeError):
            ShapingParams(xi, beta, c1=c1)


class TestPsiEval:
    P = ShapingParams(1.0, 0.5)

    def test_identity_branch(self):
        assert shape_h(0.3, self.P) == 0.3
        assert psi_deriv_batch(0.3, self.P) == 1.0

    def test_quadratic_branch(self):
        assert shape_h(0.75, self.P) == pytest.approx(0.6875, abs=1e-15)
        assert psi_deriv_batch(0.75, self.P) == pytest.approx(0.5, abs=1e-15)

    def test_derivative_continuous_at_blend_point(self):
        left = psi_deriv_batch(0.5 - 1e-12, self.P)
        right = psi_deriv_batch(0.5 + 1e-12, self.P)
        assert left == pytest.approx(right, abs=1e-10)


class TestShapeH:
    P = ShapingParams(1.0, 0.5)

    def test_pass_through(self):
        assert shape_h(0.3, self.P) == 0.3

    def test_quadratic(self):
        assert shape_h(0.75, self.P) == pytest.approx(0.6875, abs=1e-15)

    def test_plateau(self):
        assert shape_h(2.0, self.P) == pytest.approx(0.75, abs=1e-15)

    def test_batch_matches_scalar(self):
        hs = np.linspace(-2.0, 3.0, 101)
        got = shape_h(hs, self.P)
        want = [shape_h(float(h), self.P) for h in hs]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_continuously_differentiable(self):
        # one-sided difference quotients agree at both joints
        for joint in (0.5, 1.0):
            eps = 1e-7
            left = (shape_h(joint, self.P) - shape_h(joint - eps, self.P)) / eps
            right = (shape_h(joint + eps, self.P) - shape_h(joint, self.P)) / eps
            assert left == pytest.approx(right, abs=1e-6)

    def test_nondecreasing_positive_plateau(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = ShapingParams(rng.uniform(0.1, 100), rng.uniform(0.1, 0.9))
            hs = np.linspace(-p.xi, 3 * p.xi, 301)
            vals = shape_h(hs, p)
            assert np.all(np.diff(vals) >= -1e-12)
            assert shape_h(p.xi, p) > 0.0

    def test_shape_grad(self):
        # chain rule through the shaping: psi'(h) * grad below xi; the plateau
        # is flat, so the filter gives it no gradient row (see pair_pass)
        g = np.arange(8.0)
        np.testing.assert_array_equal(psi_deriv_batch(0.3, self.P) * g, g)
        np.testing.assert_allclose(psi_deriv_batch(0.75, self.P) * g, 0.5 * g, atol=1e-15)
        assert shape_h(1.5, self.P) == shape_h(1.0, self.P)


class TestShapedGradientFiniteDifference:
    def test_fd_through_pipeline(self, turn_config):
        # d(shape_h(h(x)))/dx vs psi'(h)*grad_h away from the joints
        p = ShapingParams(30.0, 0.5)
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 40:
            pair = random_valid_pair(rng, turn_config, span=400.0)
            h = pair_h(pair, turn_config)
            bx = p.beta * p.xi
            if min(abs(h - bx), abs(h - p.xi)) < 0.5 or h > p.xi + 2.0:
                continue
            hs, g = probe(pair_columns([pair]), turn_config)
            analytic = (psi_deriv_batch(h, p) if h < p.xi else 0.0) * g[0]  # 0 on the plateau
            fd = central_difference(shape_h(hs, p))[0]
            np.testing.assert_allclose(analytic, fd, rtol=2e-5, atol=1e-5)
            checked += 1


class TestRangeFormulas:
    def test_headline_threshold(self, turn_maneuver, safety):
        assert min_sensing_range(turn_maneuver, safety) == pytest.approx(318.4, abs=0.1)

    def test_delta_limit(self):
        m = TurnManeuver(sigma=0.5, speed=10, turn_rate=0.25)
        s = SafetyParams(delta=1e-15, ds=5.0)
        want = 2 * m.r1 + 2 * m.r2 + 5.0
        assert min_sensing_range(m, s) == pytest.approx(want, abs=1e-6)

    def test_radius_linearity_in_speed(self):
        s = SafetyParams(delta=0.01, ds=5.0)
        m1 = TurnManeuver(sigma=0.5, speed=10, turn_rate=0.25)
        m2 = TurnManeuver(sigma=0.5, speed=20, turn_rate=0.25)
        tail = math.sqrt(s.ds**2 + 4 * s.delta)
        assert min_sensing_range(m2, s) - tail == pytest.approx(
            2 * (min_sensing_range(m1, s) - tail), rel=1e-12
        )

    def test_xi_headline_value(self, turn_maneuver, safety):
        assert xi_from_range(350.0, turn_maneuver, safety) == pytest.approx(31.59, abs=0.01)

    def test_xi_boundary(self, turn_maneuver, safety):
        rmin = min_sensing_range(turn_maneuver, safety)
        assert xi_from_range(rmin + 1e-9, turn_maneuver, safety) < 1e-3
        with pytest.raises(ValueError):
            xi_from_range(rmin, turn_maneuver, safety)
        with pytest.raises(ValueError):
            xi_from_range(300.0, turn_maneuver, safety)

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_xi_needs_a_finite_range(self, R, turn_maneuver, safety):
        with pytest.raises(ValueError, match="finite sensor range"):
            xi_from_range(R, turn_maneuver, safety)

    def test_xi_overflow_names_the_range(self, turn_maneuver, safety):
        with pytest.raises(ValueError, match="sensor range .*R = 1e[+]200"):
            xi_from_range(1e200, turn_maneuver, safety)

    def test_analytic_bound_not_shown_where_xi_overflows(self, turn_config):
        # xi(R) has no float value, so no xi can be shown to lie below it
        shaping = ShapingParams(5.0, 0.9)
        assert analytic_compatible(turn_config, shaping, SensorModel(1e150))
        assert not analytic_compatible(turn_config, shaping, SensorModel(1e200))

    @pytest.mark.parametrize("R", [319.0, 350.0, 1e6, 1e150])
    def test_finite_xi_keeps_its_formula(self, R, turn_maneuver, safety):
        reach = R - 2.0 * turn_maneuver.r1 - 2.0 * turn_maneuver.r2
        want = math.sqrt(reach * reach - 4.0 * safety.delta) - safety.ds
        assert xi_from_range(R, turn_maneuver, safety) == want

    def test_r_min_overflow_names_ds(self, turn_maneuver):
        with pytest.raises(ValueError, match="ds = 1e[+]200"):
            min_sensing_range(turn_maneuver, SafetyParams(delta=0.01, ds=1e200))

    def test_infinite_range_sensor_is_valid(self):
        # full sensing with the raw barrier is a real configuration
        sensor = SensorModel(math.inf)
        d = 1e300
        assert in_sensor_set(d * d, sensor.range_m * sensor.range_m)  # inf <= inf

    def test_xi_monotone_in_range(self, turn_maneuver, safety):
        rs = np.linspace(319, 600, 40)
        xs = [xi_from_range(r, turn_maneuver, safety) for r in rs]
        assert np.all(np.diff(xs) > 0)


class TestAlpha2:
    P = ShapingParams(1.0, 0.5)

    def test_identity_branch(self):
        a = LinearGain(1.3)
        assert alpha2(0.2, a, self.P) == pytest.approx(a(0.2), abs=1e-15)

    def test_reference_value(self):
        a = LinearGain(1.0)
        assert alpha2(0.75, a, self.P) == pytest.approx(0.6875 / 0.5, abs=1e-12)
        assert alpha2(0.75, a, self.P) >= a(0.75)

    def test_dominates_alpha(self):
        # alpha2 >= alpha on (0, xi) for any valid shaping and linear gain
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = ShapingParams(rng.uniform(0.1, 50), rng.uniform(0.1, 0.9))
            a = LinearGain(rng.uniform(0.1, 3.0))
            hs = rng.uniform(0.0, p.xi * (1 - 1e-12), 500)
            assert np.all(alpha2(hs, a, p) >= a(hs) - 1e-12)


def below_xi_rows(rng, config, xi, count, draws):
    """h and L_g h of the first count valid pairs with h < xi among draws
    pairs drawn as random_valid_pair draws them (span 400), from one array
    pass, with one random control per pair inside +-(25, 0.23, 5) per vehicle."""
    cols = random_pair_columns(rng, draws, span=400.0)
    h = pass_at(cols, config)[0].s - config.safety.ds
    cols = cols[:, h < xi][:, :count]  # NaN (outside the domain) drops out
    assert cols.shape[1] == count
    p, e = pass_at(cols, config)
    _, lg = lie_derivatives(p, e, config)
    u = rng.uniform(-1, 1, (count, 6)) * np.array([25, 0.23, 5, 25, 0.23, 5])
    return p.s - config.safety.ds, (lg * u).sum(axis=1)


class TestSignEquivalence:
    def test_shaped_margin_sign_matches_alpha2_form(self, turn_config):
        p = ShapingParams(20.0, 0.6)
        a = LinearGain(1.0)
        h, lgu = below_xi_rows(np.random.default_rng(24), turn_config, p.xi, 2_000, 100_000)
        shaped = psi_deriv_batch(h, p) * lgu + a(shape_h(h, p))
        raw_a2 = lgu + alpha2(h, a, p)
        checked = (np.abs(shaped) >= 1e-12) & (np.abs(raw_a2) >= 1e-12)
        assert np.count_nonzero(checked) >= 200
        assert np.array_equal(np.sign(shaped[checked]), np.sign(raw_a2[checked]))

    def test_admissible_set_containment(self, turn_config):
        # any control admissible under (h, alpha) stays admissible under the
        # shaped barrier with the same gain
        p = ShapingParams(20.0, 0.6)
        a = LinearGain(1.0)
        h, lgu = below_xi_rows(np.random.default_rng(25), turn_config, p.xi, 2_000, 100_000)
        checked = lgu + a(h) >= 0
        assert np.count_nonzero(checked) >= 500
        shaped = psi_deriv_batch(h, p) * lgu + a(shape_h(h, p))
        assert np.all(shaped[checked] >= -1e-12)


class TestSensorCompatibility:
    def test_turn_with_valid_xi_is_compatible(self, turn_config):
        R = 350.0
        xi = xi_from_range(R, turn_config.maneuver, turn_config.safety)
        rep = check_sensor_compatible(
            turn_config, ShapingParams(xi, 0.9), SensorModel(R), sample_count=100_000
        )
        assert rep.ok and rep.analytic_ok and rep.witness is None
        assert rep.samples == 100_000
        assert rep.min_h_outside > xi

    def test_straight_head_on_witness(self):
        cfg = BarrierConfig(StraightManeuver(16.0, 20.0), SafetyParams(DELTA, DS))
        rep = check_sensor_compatible(
            cfg, ShapingParams(1.0, 0.9), SensorModel(350.0), sample_count=1000
        )
        assert not rep.ok and rep.witness is not None
        assert rep.witness_h == pytest.approx(-DS, abs=1e-9)

    def test_turn_below_min_range_has_witness(self, turn_config):
        # R below R_min: near-tangent geometry just outside range undercuts xi
        rep = check_sensor_compatible(
            turn_config, ShapingParams(1.0, 0.9), SensorModel(300.0), sample_count=1000
        )
        assert not rep.ok and not rep.analytic_ok
        assert rep.witness is not None

    def test_theorem_sampling_no_low_h_outside(self, turn_config):
        # with xi from the range formula, no sampled state outside the sensor
        # set has h <= xi
        R = 330.0
        xi = xi_from_range(R, turn_config.maneuver, turn_config.safety)
        rep = check_sensor_compatible(
            turn_config, ShapingParams(xi, 0.9), SensorModel(R), sample_count=50_000
        )
        assert rep.ok
