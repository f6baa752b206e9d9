import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingsafe.dynamics import (
    ActuatorLimits,
    VehicleState,
    step_rk4,
    wrap_angle,
)

from conftest import filter_clamp, reference_clamp
from reference import propagate_straight, propagate_turn


def rk4_many(state, u, total, n):
    dt = total / n
    for _ in range(n):
        state = step_rk4(state, u, dt)
    return state


class TestDerivative:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(float("inf"), 0, 0, 0)


# finite values of either numeric type: floats include +-0.0, subnormals and
# values near the largest double
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**62, 2**62))
NON_FINITE = [math.nan, math.inf, -math.inf]
VALUE_TYPES = [(VehicleState, 4)]


def bits(values):
    """The values with each float as its exact bit pattern (so -0.0 != 0.0)."""
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in values]


def expected_fields(values):
    """The fields construction should store: the heading wrapped, the rest as given."""
    return [values[0], values[1], wrap_angle(values[2]), values[3]]


class TestValueTypes:
    """VehicleState is a validating named tuple."""

    @settings(max_examples=200)
    @given(st.sampled_from(VALUE_TYPES).flatmap(
        lambda t: st.tuples(st.just(t[0]), st.lists(FINITE, min_size=t[1], max_size=t[1]))))
    def test_fields_and_heading_wrap(self, case):
        # the heading, and only it, is stored as wrap_angle(heading), bitwise
        cls, values = case
        x = cls(*values)
        want = expected_fields(values)
        assert bits(x) == bits(want)
        assert bits(getattr(x, f) for f in cls._fields) == bits(want)
        assert bits(x[i] for i in range(len(want))) == bits(want)
        assert x == tuple(want)
        assert bits(cls(*x)) == bits(x)  # wrapping a wrapped heading is exact

    @pytest.mark.parametrize("cls, n", VALUE_TYPES)
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_field_rejected(self, cls, n, bad):
        for i in range(n):
            values = [1.0] * n
            values[i] = bad
            with pytest.raises(ValueError, match=f"non-finite .* in {cls.__name__}"):
                cls(*values)

    @settings(max_examples=100)
    @given(st.sampled_from(VALUE_TYPES).flatmap(
        lambda t: st.tuples(st.just(t[0]), st.lists(FINITE, min_size=t[1], max_size=t[1]))))
    def test_pickle_and_copy_round_trips_bitwise(self, case):
        cls, values = case
        x = cls(*values)
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol=p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert type(y) is cls
            assert bits(y) == bits(x)

    @pytest.mark.parametrize("cls, n", VALUE_TYPES)
    def test_immutable(self, cls, n):
        x = cls(*[1.0] * n)
        with pytest.raises(AttributeError):
            setattr(x, cls._fields[0], 2.0)
        with pytest.raises(AttributeError):
            x.extra = 2.0

    @settings(max_examples=100)
    @given(st.lists(FINITE, min_size=4, max_size=4))
    def test_repr_format(self, values):
        px, py, heading, pz = values
        assert repr(VehicleState(*values)) == (
            f"VehicleState(px={px!r}, py={py!r}, heading={wrap_angle(heading)!r}, pz={pz!r})"
        )

    def test_defaults(self):
        assert VehicleState(1.0, 2.0, 0.5) == (1.0, 2.0, 0.5, 0.0)

    @pytest.mark.parametrize("cls, n", VALUE_TYPES)
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_replace_and_make_validate(self, cls, n, bad):
        x = cls(*[1.0] * n)
        for f in cls._fields:
            with pytest.raises(ValueError):
                x._replace(**{f: bad})
        with pytest.raises(ValueError):
            cls._make([bad] * n)
        assert type(x._replace()) is cls

    def test_replace_and_make_wrap_the_heading(self):
        s = VehicleState(0.0, 0.0, 0.0)._replace(heading=7.0)
        assert s.heading == wrap_angle(7.0)
        assert VehicleState._make([0.0, 0.0, -4.0, 1.0]).heading == wrap_angle(-4.0)


class TestStepRK4:
    def test_straight_motion_exact(self):
        s = step_rk4(VehicleState(0, 0, 0, 0), (1, 0, 0), 1.0)
        assert (s.px, s.py, s.heading, s.pz) == (1, 0, 0, 0)

    def test_matches_closed_form_turn(self):
        u = (1, 1, 0)
        got = rk4_many(VehicleState(0, 0, 0, 0), u, math.pi, 10_000)
        want = propagate_turn(VehicleState(0, 0, 0, 0), 1, 1, math.pi)
        np.testing.assert_allclose(
            (got.px, got.py, got.pz), (want.px, want.py, want.pz), atol=1e-6
        )
        # heading difference compared modulo 2*pi (both sit at the +/-pi seam)
        assert abs(wrap_angle(got.heading - want.heading)) < 1e-6

    def test_altitude_decoupled(self):
        s = step_rk4(VehicleState(3, -2, 0.7, 10), (5, 0, -1.5), 0.25)
        assert s.pz == pytest.approx(10 - 1.5 * 0.25, abs=1e-15)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step_rk4(VehicleState(0, 0, 0, 0), (1, 0, 0), 0.0)
        with pytest.raises(ValueError):
            step_rk4(VehicleState(0, 0, 0, 0), (1, 0, 0), -0.1)

    # headings on both sides of the +-pi seam, and anywhere
    HEADING = st.one_of(
        st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                         math.nextafter(-math.pi, 0.0)]),
        st.floats(math.pi - 1e-6, math.pi), st.floats(-math.pi, -math.pi + 1e-6),
        st.floats(-math.pi, math.pi),
    )

    @settings(max_examples=300)
    @given(st.builds(VehicleState, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), HEADING,
                     st.floats(-1e4, 1e4)),
           st.tuples(st.floats(0.0, 100.0), st.floats(-2.0, 2.0), st.floats(-10.0, 10.0)),
           st.floats(1e-9, 1.0))
    def test_result_is_a_checked_vehicle_state(self, s0, u, dt):
        # the step builds its result through VehicleState.__new__: a
        # VehicleState with the heading wrapped, bit for bit what the class call gives
        s = step_rk4(s0, u, dt)
        assert type(s) is VehicleState
        assert bits(s) == bits(VehicleState(*s))
        assert -math.pi < s.heading <= math.pi

    @pytest.mark.parametrize("s0, u", [
        (VehicleState(1.7e308, 0.0, 0.0, 0.0), (1e308, 0.0, 0.0)),  # px overflows
        (VehicleState(0.0, 0.0, math.pi / 2, 0.0), (1e308, 0.0, 0.0)),  # py overflows
        (VehicleState(0.0, 0.0, 0.0, 1e308), (20.0, 0.0, 1e308)),  # pz overflows
        (VehicleState(0.0, 0.0, 0.0, 0.0), (20.0, 1e308, 0.0)),  # the heading overflows
        (VehicleState(0.0, 0.0, 0.0, 0.0), (20.0, math.inf, 0.0)),  # an infinite turn rate
    ])
    def test_non_finite_result_rejected(self, s0, u):
        with pytest.raises(ValueError, match="non-finite state field in VehicleState"):
            step_rk4(s0, u, 10.0)

    def test_fourth_order_convergence(self):
        # single-step error against the exact arc should drop by >= 1e4
        # (O(dt^5) per step) when dt shrinks 10x
        s0 = VehicleState(0.3, -0.8, 0.9, 0)
        errs = []
        for dt in (1e-1, 1e-2):
            got = step_rk4(s0, (2.0, 1.3, 0), dt)
            want = propagate_turn(s0, 2.0, 1.3, dt)
            errs.append(
                max(abs(got.px - want.px), abs(got.py - want.py), abs(got.heading - want.heading))
            )
        assert errs[0] / errs[1] >= 1e4


class TestPropagateTurn:
    def test_half_circle(self):
        s = propagate_turn(VehicleState(0, 0, 0, 0), 1, 1, math.pi)
        np.testing.assert_allclose((s.px, s.py), (0, 2), atol=1e-12)
        assert s.heading == pytest.approx(math.pi)

    def test_full_period_returns(self):
        s = propagate_turn(VehicleState(0, 0, 0, 0), 1, 1, 2 * math.pi)
        np.testing.assert_allclose((s.px, s.py, s.heading, s.pz), (0, 0, 0, 0), atol=1e-12)

    def test_against_rk4_substeps(self):
        s0 = VehicleState(0, 0, math.pi / 2, 0)
        got = propagate_turn(s0, 2, -1, math.pi / 2)
        want = rk4_many(s0, (2, -1, 0), math.pi / 2, 15_708)
        np.testing.assert_allclose(
            (got.px, got.py, got.heading), (want.px, want.py, want.heading), atol=1e-6
        )

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            propagate_turn(VehicleState(0, 0, 0, 0), 1, 0, 1)

    def test_semigroup(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s0 = VehicleState(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi), 0)
            v, w = rng.uniform(1, 20), rng.uniform(-0.5, 0.5)
            if w == 0:
                continue
            t1, t2 = rng.uniform(0, 5, 2)
            one = propagate_turn(s0, v, w, t1 + t2)
            two = propagate_turn(propagate_turn(s0, v, w, t1), v, w, t2)
            np.testing.assert_allclose(
                (one.px, one.py, one.pz), (two.px, two.py, two.pz), atol=1e-12
            )
            assert math.cos(one.heading) == pytest.approx(math.cos(two.heading), abs=1e-12)
            assert math.sin(one.heading) == pytest.approx(math.sin(two.heading), abs=1e-12)


class TestPropagateStraight:
    def test_along_x(self):
        s = propagate_straight(VehicleState(0, 0, 0, 0), 3, 0, 2)
        assert (s.px, s.py, s.heading, s.pz) == (6, 0, 0, 0)

    def test_heading_pi_descending(self):
        s = propagate_straight(VehicleState(1, 1, math.pi, 5), 1, -1, 3)
        np.testing.assert_allclose((s.px, s.py, s.heading, s.pz), (-2, 1, math.pi, 2), atol=1e-12)

    def test_tau_zero_identity(self):
        s0 = VehicleState(4.2, -7.5, 1.1, 3.3)
        s = propagate_straight(s0, 12, 2, 0)
        assert s == s0


class TestClampInput:
    """The filter's one clamp into the actuator box (FilterResult.nominal)."""

    LIMITS = ActuatorLimits(v_min=15, v_max=25, omega_max=0.2042, zeta_max=2)
    # signed zeros and the faces of the box of test_matches_the_copyto_rule_at_signed_zero_faces
    FACES = [0.0, -0.0, 15.0, 25.0, 0.2, -0.2]

    def clamp(self, u: tuple) -> tuple:
        return tuple(filter_clamp([u], self.LIMITS)[0].tolist())

    def test_speed_clamped(self):
        u = self.clamp((30, 0, 0))
        assert u == (25, 0, 0)

    def test_turn_rate_clamped(self):
        u = self.clamp((20, 0.5, 0))
        assert u == (20, 0.2042, 0)

    def test_inside_box_unchanged(self):
        u0 = (20, -0.1, 1)
        assert self.clamp(u0) == u0

    def test_idempotent(self):
        u = self.clamp((5, -3, 9))
        assert self.clamp(u) == u

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_reference_clamp_bitwise(self, data):
        # signed zeros, values exactly at a bound and beyond it, and boxes
        # with zero climb authority, where a bound is itself a signed zero
        v_min = data.draw(st.floats(0.5, 30.0), label="v_min")
        v_max = v_min + data.draw(st.sampled_from([0.0, 1e-9, 10.0]), label="v_span")
        omega_max = data.draw(st.floats(1e-3, 2.0), label="omega_max")
        zeta_max = data.draw(st.sampled_from([0.0, -0.0, 2.0]), label="zeta_max")
        limits = ActuatorLimits(v_min, v_max, omega_max, zeta_max)

        def field(*bounds):
            edges = [0.0, -0.0, *bounds, *(-b for b in bounds)]
            return st.one_of(st.sampled_from(edges), st.floats(-100.0, 100.0))

        control = st.tuples(field(v_min, v_max), field(omega_max),
                            field(zeta_max))
        controls = data.draw(st.lists(control, min_size=1, max_size=6), label="controls")
        got = filter_clamp(controls, limits)
        want = np.array([reference_clamp(u, limits) for u in controls], dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(*(st.sampled_from(FACES) | st.floats(-40.0, 40.0),) * 3),
                    min_size=1, max_size=5))
    def test_matches_the_copyto_rule_at_signed_zero_faces(self, controls):
        # zeta_max = 0: the climb faces are -0.0 and 0.0.  The rule: an entry
        # strictly below its lower face takes that face, one strictly above
        # its upper face takes that one, and any other keeps its bits
        limits = ActuatorLimits(15.0, 25.0, 0.2, 0.0)
        n = len(controls)
        lo, hi = np.tile([15.0, -0.2, -0.0], n), np.tile([25.0, 0.2, 0.0], n)
        want = np.array(controls, dtype=float).ravel()
        np.copyto(want, lo, where=want < lo)
        np.copyto(want, hi, where=want > hi)
        got = filter_clamp(controls, limits)
        assert got.ravel().view(np.int64).tolist() == want.view(np.int64).tolist(), (got, want)

    def test_signed_zero_climb_bounds_kept_apart(self):
        # 0.0 and -0.0 make equal limits; each clamps to its own zero
        for zeta_max in (0.0, -0.0, 0.0):
            limits = ActuatorLimits(0.5, 0.5, 0.5, zeta_max)
            controls = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
            got = filter_clamp(controls, limits)
            want = np.array([reference_clamp(u, limits) for u in controls], dtype=float)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (zeta_max, got)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ActuatorLimits(0, 10, 1)
        with pytest.raises(ValueError):
            ActuatorLimits(5, 4, 1)
        with pytest.raises(ValueError):
            ActuatorLimits(1, 2, 0)


class TestWrapAngle:
    def test_interval(self):
        rng = np.random.default_rng(11)
        for th in rng.uniform(-50, 50, 500):
            w = wrap_angle(th)
            assert -math.pi < w <= math.pi

    def test_boundaries(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_preserves_trig(self):
        rng = np.random.default_rng(13)
        for th in rng.uniform(-20, 20, 500):
            w = wrap_angle(th)
            assert math.cos(w) == pytest.approx(math.cos(th), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(th), abs=1e-12)
