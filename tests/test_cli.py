import collections
import concurrent.futures
import contextlib
import copy
import csv
import importlib.util
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wingsafe
from wingsafe.barrier import LinearGain, SafetyParams, StraightManeuver, TurnManeuver
from wingsafe.cli import TRACE_BLOCK_ROWS, TRACE_COLUMNS, RunManifest, main, write_outputs
from wingsafe.dynamics import ActuatorLimits
from wingsafe.scenarios import (
    builtin_scenarios,
    config_from_dict,
    config_to_dict,
    load_config,
    run_scenario,
    scenario_circle20,
    scenario_sweep,
)
from wingsafe.shaping import SensorModel, ShapingParams
from wingsafe.sim import Metrics, SimTrace

from conftest import replay_pairs


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["example1", "example2", "sweep", "circle20"])
    def test_parse_serialize_parse_identical(self, name, tmp_path):
        cfg = builtin_scenarios()[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        again = load_config(path)
        assert again == cfg
        # a second cycle is also a fixed point
        assert config_from_dict(config_to_dict(again)) == again

    def test_bad_kind_rejected(self):
        d = config_to_dict(scenario_sweep())
        d["barrier"]["kind"] = "zigzag"
        with pytest.raises(ValueError):
            config_from_dict(d)


def run_cli(*argv):
    return main(list(argv))


def _load_workloads():
    """perfbench/workloads.py, the benchmark's stdlib-only input generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def benchmark_inputs():
    """(name, config dict) of every config the benchmark generates: the
    airspace and encounter streams, and the self-test's edits of them."""
    yield from ((f"airspace({seed})", WORKLOADS.airspace(seed)) for seed in (1, 2, 3))
    stream = WORKLOADS.encounters(1)
    yield from ((f"encounters(1)[{k}]", next(stream)) for k in range(20))
    stream = WORKLOADS.encounters(1)
    yield from ((f"encounters(1)[{k}] mode off", dict(next(stream), mode="off"))
                for k in range(5))
    goal = WORKLOADS.goal_vehicle
    yield "parallel flights", WORKLOADS.scenario(
        [goal(0.0, 0.0, 0.0, (2000.0, 0.0), cruise_speed=20.0),
         goal(0.0, 1000.0, 0.0, (2000.0, 1000.0), cruise_speed=20.0)],
        WORKLOADS.ENCOUNTER_DURATION, 1)


class TestBenchmarkInputs:
    """A schema change must not show up first as failed benchmark operations."""

    @pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in benchmark_inputs()])
    def test_benchmark_config_loads_and_round_trips(self, d):
        cfg = config_from_dict(copy.deepcopy(d))
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
        cfg.filter_config()
        assert len(cfg.controllers()) == len(d["vehicles"])

    def test_every_input_meets_the_alpha_dt_bound(self):
        configs = [*builtin_scenarios().values(),
                   *(config_from_dict(copy.deepcopy(d)) for _, d in benchmark_inputs())]
        assert {cfg.alpha_slope * cfg.dt for cfg in configs} == {0.01}

    @pytest.mark.parametrize("manifest", [
        dict(scenario="circle20", config_path=None),
        dict(scenario="sweep", config_path=None, sensor_range=350.0),
    ], ids=["circle20", "check"])
    def test_benchmark_manifest_loads(self, manifest):
        cfg = RunManifest(out_dir=Path("."), **manifest).load()
        assert config_from_dict(config_to_dict(cfg)) == cfg
        cfg.filter_config()


def _paths(node, path=()):
    """Every path into a JSON value, as a tuple of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


ODD_VALUES = [1e308, -1e308, 5e-324, 0, -0.0, -1, 10**400, math.nan, math.inf, -math.inf,
              True, None, "x", [], {}, [1.0]]


class TestConfigFuzz:
    SEEDS = [config_to_dict(cfg) for cfg in builtin_scenarios().values()] + [
        WORKLOADS.airspace(1), next(WORKLOADS.encounters(1))]

    @settings(max_examples=600, derandomize=True)
    @given(data=st.data())
    def test_odd_edit_loads_or_names_its_field(self, data, tmp_path_factory):
        """Any one edit of any field of a builtin or benchmark config either
        loads, and then runs through check, or is rejected with an error that
        names the field or its section."""
        d = copy.deepcopy(data.draw(st.sampled_from(self.SEEDS), label="seed config"))
        path = data.draw(st.sampled_from(list(_paths(d))), label="path")
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        edit = data.draw(st.sampled_from(["replace", "delete", "sibling"]), label="edit")
        if edit == "replace":
            parent[path[-1]] = data.draw(st.sampled_from(ODD_VALUES), label="value")
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["zz_unknown"] = 1.0
            path = path[:-1] + ("zz_unknown",)
        else:
            parent.append(1.0)
            path = path[:-1] + (len(parent) - 1,)
        try:
            cfg = config_from_dict(d)
        except ValueError as err:
            text, where = str(err), _dotted(path)
            assert text.startswith("config field "), text
            # the field or fields named: the edited one, its section, or one in it
            named = re.split(r"[ :]", text[len("config field "):].replace(", ", ","), maxsplit=1)
            assert any(where.startswith(n) or n.startswith(where)
                       for n in named[0].split(",")), (where, text)
            return
        for derived in (cfg.filter_config, cfg.controllers, lambda: cfg.n_steps):
            try:
                derived()
            except ValueError:
                pass
        config = tmp_path_factory.getbasetemp() / "fuzz-scenario.json"
        config.write_text(json.dumps(d))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--config", str(config), "--samples", "200"])
        assert code in (0, 1, 3), (code, err.getvalue())


class TestCmdRun:
    def test_clean_run_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--scenario", "sweep", "--range", "350", "--out", str(out), "--dt", "0.05"
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "events.log").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["min_distance"] >= 5.0
        assert not metrics["violation"]

    def test_failure_demo_exit_two(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--scenario", "example1", "--out", str(out))
        assert code == 2
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["violation"]
        assert metrics["min_distance"] < 5.0

    def test_auto_shaping_below_rmin_exit_one(self, tmp_path, capsys):
        code = run_cli(
            "run", "--scenario", "sweep", "--range", "300", "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert "no positive xi exists" in capsys.readouterr().err

    def test_unknown_scenario_exit_one(self, tmp_path):
        assert run_cli("run", "--scenario", "nope", "--out", str(tmp_path / "o")) == 1

    def test_trace_csv_parses_back_exact(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "sweep", "--range", "350", "--out", str(out),
                "--dt", "0.05")
        cfg = load_config(out / "config.json")
        trace, metrics = run_scenario(cfg)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == trace.n_steps * 2
        # spot-check exact float round-trip on first and last rows
        for ridx, (s, v) in ((0, (0, 0)), (len(rows) - 1, (trace.n_steps - 1, 1))):
            row = rows[ridx]
            assert float(row["t"]) == trace.times[s]
            assert float(row["px"]) == trace.states[s, v, 0]
            assert float(row["flt_turn_rate"]) == trace.filtered[s, v, 1]
        metrics_json = json.loads((out / "metrics.json").read_text())
        assert metrics_json["min_distance"] == metrics.min_distance
        assert metrics_json["min_h_tilde"] == metrics.min_h_shaped

    def test_event_times_match_trace_rows(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "example2", "--mode", "off", "--out", str(out))
        n = len(json.loads((out / "config.json").read_text())["vehicles"])
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        events = (out / "events.log").read_text().splitlines()
        assert events
        for line in events:
            step, t = re.match(r"step=(\d+) t=(\S+) ", line).groups()
            step_rows = rows[int(step) * n:(int(step) + 1) * n]
            assert [r["t"] for r in step_rows] == [t] * n, line

    def test_config_file_input(self, tmp_path):
        cfg = scenario_sweep(400.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out), "--dt", "0.05") == 0


class TestCmdSweep:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--scenario", "sweep", "--range", "330,350,400",
            "--out", str(out), "--dt", "0.05",
        )
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["R"]) for r in rows] == [330.0, 350.0, 400.0]
        for r in rows:
            assert float(r["min_distance"]) >= 5.0
            assert float(r["r_min"]) == pytest.approx(318.4168, abs=1e-3)
        # per-range run outputs exist
        assert (out / "R_330" / "metrics.json").exists()
        # sweep csv values parse back to the per-run metrics exactly
        m330 = json.loads((out / "R_330" / "metrics.json").read_text())
        assert float(rows[0]["min_distance"]) == m330["min_distance"]
        assert float(rows[0]["min_h_tilde"]) == m330["min_h_tilde"]

    def test_workers_do_not_change_outputs(self, tmp_path, monkeypatch):
        # the pool takes min(4, ranges, usable CPUs) processes: one CPU runs serially
        outputs = []
        for cores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                                raising=False)
            out = tmp_path / str(cores)
            assert run_cli("sweep", "--scenario", "sweep", "--range", "330,400", "--out", str(out),
                           "--dt", "0.05") == 0
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] == outputs[1]

    def test_one_usable_cpu_builds_no_pool(self, tmp_path, monkeypatch):
        # the affinity mask, not the host's CPU count, sizes the pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_cli("sweep", "--scenario", "sweep", "--range", "330,400",
                       "--out", str(tmp_path / "o"), "--dt", "0.05") == 0

    def test_empty_range_exit_one(self, tmp_path):
        assert run_cli("sweep", "--scenario", "sweep", "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("ranges, values", [
        ("350.0001,350.0002", ("350.0001", "350.0002")),
        ("330,400,330", ("330.0", "330.0")),
    ], ids=["same-6-digits", "repeated"])
    def test_colliding_output_dirs_exit_one(self, ranges, values, tmp_path, capsys):
        # R_{R:g} keeps 6 significant digits: two such ranges would share
        # one directory and the later run would overwrite the earlier one
        out = tmp_path / "o"
        code = run_cli("sweep", "--scenario", "sweep", "--range", ranges, "--out", str(out),
                       "--dt", "0.05")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(v in err for v in values)
        assert not out.exists()  # rejected before any run

    def test_below_rmin_exit_one(self, tmp_path):
        code = run_cli(
            "sweep", "--scenario", "sweep", "--range", "300,350",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1


class TestCmdCheck:
    def test_headline_parameters_compatible(self, tmp_path, capsys):
        code = run_cli(
            "check", "--scenario", "sweep", "--range", "350",
            "--out", str(tmp_path / "o"), "--samples", "5000",
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "R_min: 318.416" in stdout
        assert "xi: 31.586" in stdout
        assert "sensor compatible: yes" in stdout

    def test_straight_barrier_witness_exit_three(self, tmp_path, capsys):
        code = run_cli(
            "check", "--scenario", "example1", "--out", str(tmp_path / "o"),
            "--samples", "1000",
        )
        stdout = capsys.readouterr().out
        assert code == 3
        assert "witness" in stdout
        assert "sensor compatible: no" in stdout

    def test_below_threshold_exit_three(self, tmp_path, capsys):
        code = run_cli(
            "check", "--scenario", "sweep", "--range", "300",
            "--out", str(tmp_path / "o"), "--samples", "1000",
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "no positive xi exists" in out or "not satisfied" in out


class TestSensorCompatible:
    """metrics.json says whether the analytic bound guarantees the run needs
    no sensing beyond range."""

    @pytest.mark.parametrize("name, argv, expected", [
        pytest.param("sweep", [], True, id="sweep"),
        pytest.param("circle20", [], True, id="circle20"),
        pytest.param("sweep", ["--xi", "40"], False, id="sweep-xi-40"),
        pytest.param("example1", [], False, id="example1-raw-straight"),
        pytest.param("example2", [], False, id="example2-raw-turn"),
    ])
    def test_run_writes_sensor_compatible(self, name, argv, expected, tmp_path):
        # the verdict depends on the configuration alone: a short run suffices
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(replace(builtin_scenarios()[name],
                                                          duration=0.2))))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), *argv, "--out", str(out)) in (0, 2)
        assert json.loads((out / "metrics.json").read_text())["sensor_compatible"] is expected

    @pytest.mark.parametrize("argv", [[], ["--xi", "40"], ["--range", "319"]],
                             ids=["auto", "xi-40", "range-319"])
    def test_run_agrees_with_check(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "sweep", "--dt", "10", "--alpha", "0.1", *argv,
                "--out", str(out))
        compatible = json.loads((out / "metrics.json").read_text())["sensor_compatible"]
        run_cli("check", "--scenario", "sweep", "--samples", "1000", *argv,
                "--out", str(tmp_path / "o"))
        stdout = capsys.readouterr().out
        assert f"analytic bound: {'ok' if compatible else 'not satisfied'}" in stdout


def row_by_row_trace(trace, pair_h_shaped=None) -> bytes:
    """trace.csv as formatted one row at a time (the reference format).  Each
    vehicle's least shaped barrier is taken over its pairs' values when the
    (T, P) pair values are given, else read from the trace."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(TRACE_COLUMNS)
    n = trace.states.shape[1]
    for s in range(trace.n_steps):
        for v in range(n):
            if pair_h_shaped is None:
                vals = trace.min_pair_h_shaped[s, v:v + 1]
            else:
                vals = pair_h_shaped[s, [k for k, (i, j) in enumerate(trace.pairs) if v in (i, j)]]
            vals = vals[np.isfinite(vals)]
            w.writerow(
                [repr(float(trace.times[s])), v]
                + [repr(float(x)) for x in trace.states[s, v]]
                + [repr(float(x)) for x in trace.nominal[s, v]]
                + [repr(float(x)) for x in trace.filtered[s, v]]
                + [repr(float(vals.min())) if vals.size else ""]
            )
    return fh.getvalue().encode()


class TestOutputs:
    @pytest.mark.parametrize(
        "cfg",
        [
            replace(scenario_sweep(350.0), duration=6.0, dt=0.05),
            replace(scenario_circle20(), vehicles=scenario_circle20().vehicles[:3],
                    duration=1.0, dt=0.05),
            replace(scenario_sweep(350.0), vehicles=scenario_sweep().vehicles[:1], duration=0.5),
        ],
        ids=["sweep", "three-vehicles", "one-vehicle"],
    )
    def test_bulk_trace_matches_row_by_row(self, cfg, tmp_path):
        trace, metrics = run_scenario(cfg)
        write_outputs(tmp_path, cfg, trace, metrics)
        _, pair_h_shaped, _ = replay_pairs(trace, cfg.filter_config())
        assert (tmp_path / "trace.csv").read_bytes() == row_by_row_trace(trace, pair_h_shaped)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_block_writer_matches_row_by_row(self, data, tmp_path_factory):
        n = data.draw(st.sampled_from([1, 2, 3, 7]), label="vehicles")
        # step counts whose row count T*N falls on, across and off block boundaries
        b = TRACE_BLOCK_ROWS
        n_steps = data.draw(st.sampled_from(
            sorted({0, 1, 3, b // n, b // n + 1, 2 * b // n, 2 * b // n + 1})), label="steps")
        pool = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -1.5, 0.1, 1e300]
            + data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
        )
        nan_share = data.draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]), label="nan share")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def values(*shape):
            fresh = rng.normal(scale=100.0, size=shape)  # mostly distinct values
            return np.where(rng.random(shape) < 0.5, rng.choice(pool, size=shape), fresh)

        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # NaNs of several bit patterns: every one is written as ""
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FFC00000000ABCD, 0xFFFFFFFFFFFFFFFF], np.uint64).view(np.float64)
        min_h_shaped = np.where(rng.random((n_steps, n)) < nan_share,
                                rng.choice(nans, size=(n_steps, n)), values(n_steps, n))
        trace = SimTrace(
            pairs=pairs,
            times=values(n_steps),
            states=values(n_steps, n, 4),
            nominal=values(n_steps, n, 3),
            filtered=values(n_steps, n, 3),
            min_pair_h_shaped=min_h_shaped,
            events=[],
            final_states=values(n, 4),
            final_time=0.0,
        )
        metrics = Metrics(0.0, 0.0, (), {}, False, n_steps, 0)
        out = tmp_path_factory.mktemp("trace")
        write_outputs(out, scenario_sweep(), trace, metrics)
        assert (out / "trace.csv").read_bytes() == row_by_row_trace(trace)

    def test_outputs_follow_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert run_cli("run", "--scenario", "sweep", "--out", str(tmp_path / "out"),
                           "--dt", "0.05") == 0
        finally:
            os.umask(old)
        for name in ("trace.csv", "metrics.json", "events.log", "config.json"):
            assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == 0o644

    def test_run_unwritable_out_exit_one(self, tmp_path, capsys):
        blocker = tmp_path / "out"
        blocker.write_text("not a directory")
        code = run_cli("run", "--scenario", "sweep", "--out", str(blocker), "--dt", "0.05")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_unwritable_out_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "R_330").write_text("not a directory")
        code = run_cli("sweep", "--scenario", "sweep", "--range", "330,350", "--out", str(out),
                       "--dt", "0.05")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


NAN = math.nan
CIRCLE = {"type": "circle", "center": [0.0, 0.0], "radius": 100.0, "direction": 1, "speed": 20.0}


def _controller(d, spec=None, **fields):
    """The second vehicle's controller spec in the config dict d, replaced by
    spec (a copy) with fields set when spec is given."""
    vehicle = d["vehicles"][1]
    if spec is not None:
        vehicle["controller"] = {**spec, **fields}
    return vehicle["controller"]


class TestInputValidation:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: SensorModel(NAN), id="SensorModel.range_m"),
        pytest.param(lambda: ShapingParams(NAN, 0.9), id="ShapingParams.xi"),
        pytest.param(lambda: replace(scenario_sweep(), dt=NAN), id="ScenarioConfig.dt"),
        pytest.param(lambda: replace(scenario_sweep(), duration=NAN), id="ScenarioConfig.duration"),
        pytest.param(lambda: replace(scenario_sweep(), shaping_xi=NAN).resolve_shaping(),
                     id="ScenarioConfig.shaping_xi"),
        pytest.param(lambda: SafetyParams(delta=NAN, ds=5.0), id="SafetyParams.delta"),
        pytest.param(lambda: SafetyParams(delta=0.01, ds=NAN), id="SafetyParams.ds"),
        pytest.param(lambda: TurnManeuver(sigma=1.0, speed=NAN, turn_rate=0.2),
                     id="TurnManeuver.speed"),
        pytest.param(lambda: TurnManeuver(sigma=1.0, speed=16.0, turn_rate=NAN),
                     id="TurnManeuver.turn_rate"),
        pytest.param(lambda: LinearGain(NAN), id="LinearGain.slope"),
        pytest.param(lambda: ActuatorLimits(15.0, 25.0, NAN, 5.0), id="ActuatorLimits.omega_max"),
        pytest.param(lambda: ActuatorLimits(15.0, 25.0, 0.2, NAN), id="ActuatorLimits.zeta_max"),
        pytest.param(lambda: StraightManeuver(v1=NAN, v2=20.0), id="StraightManeuver.v1"),
        pytest.param(lambda: StraightManeuver(v1=20.0, v2=NAN), id="StraightManeuver.v2"),
        pytest.param(lambda: StraightManeuver(20.0, 25.0, zeta1=NAN), id="StraightManeuver.zeta1"),
        pytest.param(lambda: StraightManeuver(20.0, 25.0, zeta2=math.inf),
                     id="StraightManeuver.zeta2"),
        pytest.param(lambda: replace(scenario_sweep(), dt=math.inf), id="ScenarioConfig.dt=inf"),
        pytest.param(lambda: replace(scenario_sweep(), duration=math.inf),
                     id="ScenarioConfig.duration=inf"),
        pytest.param(lambda: ShapingParams(math.inf, 0.9), id="ShapingParams.xi=inf"),
        pytest.param(lambda: ShapingParams(5e-324, 0.9), id="ShapingParams.xi=5e-324"),
        # the raw barrier's config has no shaping section, yet check reads beta
        pytest.param(lambda: replace(builtin_scenarios()["example1"], shaping_beta=5.0),
                     id="ScenarioConfig.shaping_beta-raw"),
        pytest.param(lambda: LinearGain(math.inf), id="LinearGain.slope=inf"),
    ])
    def test_nan_parameter_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("flag, value, field", [
        pytest.param("--range", "nan", "sensor_range", id="--range"),
        pytest.param("--xi", "nan", "shaping.xi", id="--xi"),
        pytest.param("--alpha", "nan", "alpha.slope", id="--alpha"),
        pytest.param("--dt", "inf", "dt", id="--dt=inf"),
        pytest.param("--xi", "inf", "shaping.xi", id="--xi=inf"),
        pytest.param("--alpha", "inf", "alpha.slope", id="--alpha=inf"),
        pytest.param("--dt", "5e-324", "dt", id="--dt=5e-324"),  # duration / dt overflows
        pytest.param("--xi", "0", "shaping.xi", id="--xi=0"),
        pytest.param("--alpha", "-1", "alpha.slope", id="--alpha=-1"),
        pytest.param("--seed", "-3", "seed", id="--seed=-3"),
        pytest.param("--beta", "5", "shaping.beta", id="--beta=5"),
        pytest.param("--mode", "central", "mode", id="--mode=central"),
    ])
    def test_nan_override_exit_one(self, flag, value, field, tmp_path, capsys):
        # an override is checked as the config field it sets, by every command
        for command, extra in (("run", []), ("sweep", ["--range", "350"]),
                               ("check", ["--samples", "100"])):
            if flag == "--range" and command == "sweep":
                extra = []
            code = run_cli(command, "--scenario", "sweep", "--dt", "0.05", flag, value, *extra,
                           "--out", str(tmp_path / "o"))
            err = capsys.readouterr().err
            assert code == 1, command
            assert err.startswith("error: config field ") and field in err, (command, err)
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--alpha", "150"], ["--dt", "0.1", "--alpha", "20"]],
                             ids=["alpha=150", "dt=0.1,alpha=20"])
    def test_alpha_dt_above_one_exit_one(self, argv, tmp_path, capsys):
        # a held step would let the class-K row drive h past zero
        for command, extra in (("run", []), ("sweep", ["--range", "350"]),
                               ("check", ["--samples", "100"])):
            code = run_cli(command, "--scenario", "sweep", *argv, *extra,
                           "--out", str(tmp_path / "o"))
            err = capsys.readouterr().err
            assert code == 1, command
            assert err.startswith("error: config field alpha.slope, dt must be "), (command, err)

    def test_alpha_dt_of_one_loads(self):
        cfg = replace(scenario_sweep(), alpha_slope=100.0)
        assert cfg.alpha_slope * cfg.dt == 1.0

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_infinite_range_with_auto_shaping_exit_one(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        code = run_cli(command, "--scenario", "sweep", "--range", "inf", *out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "range" in err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_range_too_large_for_auto_shaping_exit_one(self, command, tmp_path, capsys):
        # (R - 2*r1 - 2*r2)^2 overflows, so xi(R) has no float value
        code = run_cli(command, "--scenario", "sweep", "--range", "1e200",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sensor range" in err and "R = 1e+200" in err, err

    def test_infinite_duration_in_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        d = config_to_dict(scenario_sweep())
        d["duration"] = math.inf
        path.write_text(json.dumps(d))  # written as the token Infinity
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "duration must be finite" in capsys.readouterr().err

    def test_zero_step_config_exit_one(self, tmp_path, capsys):
        # round(0.04 / 0.1) is 0: the run would write a header-only trace and exit 0
        d = config_to_dict(scenario_sweep())
        d.update(dt=0.1, duration=0.04)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config field dt, duration: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["run"], id="run"),
        pytest.param(["sweep", "--range", "330"], id="sweep"),
    ])
    def test_unrecordable_step_count_exit_one(self, argv, tmp_path, capsys):
        # 3e301 steps: numpy rejects the recording arrays' shape before
        # allocating anything, so the run fails before its first step
        code = run_cli(*argv, "--scenario", "sweep", "--dt", "1e-300",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3e+301 steps" in err

    def test_nan_straight_speed_in_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        d = config_to_dict(builtin_scenarios()["example1"])
        d["barrier"]["v1"] = NAN
        path.write_text(json.dumps(d))  # NaN is written as the token NaN
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "barrier.v1" in err and "finite" in err

    @pytest.mark.parametrize("speed, turn_rate", [(16.0, 5e-324), (1e308, 1.0)])
    def test_turn_radii_overflow_in_config_rejected(self, speed, turn_rate):
        d = config_to_dict(builtin_scenarios()["sweep"])
        d["barrier"].update(speed=speed, turn_rate=turn_rate)
        with pytest.raises(ValueError, match=re.escape(
                "config field barrier: require finite 2 * (r1 + r2), got r1 = ")):
            config_from_dict(d)

    @pytest.mark.parametrize("turn_rate", [1e-160, 1e-100])
    def test_turn_radii_past_the_radicand_rounding_in_config_rejected(self, turn_rate):
        d = config_to_dict(builtin_scenarios()["sweep"])
        d["barrier"].update(turn_rate=turn_rate)
        with pytest.raises(ValueError, match=re.escape(
                "config field barrier: require 4 * (r1 + r2)^2 < ds^2 * 2^52, got r1 = ")):
            config_from_dict(d)

    @pytest.mark.parametrize("speed", [0, -0.0])
    @pytest.mark.parametrize("name", ["v1", "v2"])
    def test_zero_straight_speed_in_config_exit_one(self, name, speed, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        d = config_to_dict(builtin_scenarios()["example1"])
        d["barrier"][name] = speed
        path.write_text(json.dumps(d))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "config field barrier" in err and "require v1 > 0 and v2 > 0" in err, err

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--scenario", "sweep", "--bogus"], id="unknown-flag"),
        pytest.param(["run", "--scenario", "sweep", "--dt", "abc"], id="bad-float"),
    ])
    def test_usage_error_exit_one(self, argv, capsys):
        # exit 2 is reserved for a recorded safety violation
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_range_list_outside_sweep_exit_one(self, command, tmp_path, capsys):
        code = run_cli(command, "--scenario", "sweep", "--range", "330,350",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "--range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda d: d["vehicles"][0].update(state=[0.0, 0.0]), "vehicles[0].state",
                     id="two-element-state"),
        pytest.param(lambda d: d["limits"].update(v_min="15"), "limits.v_min", id="string-v_min"),
        pytest.param(lambda d: d.update(vehicles=5), "vehicles", id="vehicles-5"),
        pytest.param(lambda d: d["barrier"].update(ds=[5.0]), "barrier.ds", id="list-ds"),
        pytest.param(lambda d: d.update(seed=1.5), "seed", id="float-seed"),
        pytest.param(lambda d: d["shaping"].update(xi=True), "shaping.xi", id="bool-xi"),
        pytest.param(lambda d: d.pop("barrier"), "barrier", id="no-barrier"),
        pytest.param(lambda d: _controller(d).update(goal=5), "vehicles[1].controller.goal",
                     id="goal-5"),
        pytest.param(lambda d: _controller(d).update(goal=[1.0]), "vehicles[1].controller.goal",
                     id="one-element-goal"),
        pytest.param(lambda d: _controller(d).update(goal=[1.0, NAN]),
                     "vehicles[1].controller.goal[1]", id="nan-goal"),
        pytest.param(lambda d: _controller(d).update(cruise_speed="20"),
                     "vehicles[1].controller.cruise_speed", id="string-cruise_speed"),
        pytest.param(lambda d: _controller(d).update(arrival_time=math.inf),
                     "vehicles[1].controller.arrival_time", id="infinite-arrival_time"),
        pytest.param(lambda d: _controller(d).update(type="spiral"),
                     "vehicles[1].controller.type", id="unknown-controller"),
        pytest.param(lambda d: _controller(d, CIRCLE, radius=0), "vehicles[1].controller.radius",
                     id="zero-radius"),
        pytest.param(lambda d: _controller(d, CIRCLE, direction=0),
                     "vehicles[1].controller.direction", id="zero-direction"),
        pytest.param(lambda d: _controller(d, CIRCLE, center=[0.0]),
                     "vehicles[1].controller.center", id="one-element-center"),
        pytest.param(lambda d: d.update(dt=10**400), "dt", id="huge-dt"),
        pytest.param(lambda d: d["shaping"].update(xi=10**400), "shaping.xi", id="huge-xi"),
        pytest.param(lambda d: _controller(d).update(cruise_speed=-10**400),
                     "vehicles[1].controller.cruise_speed", id="huge-cruise_speed"),
        # duration / dt and R_min = 2*r1 + 2*r2 + sqrt(ds^2 + 4*delta) overflow
        pytest.param(lambda d: d.update(duration=1e308), "duration", id="huge-duration"),
        pytest.param(lambda d: d["barrier"].update(ds=1e308), "barrier", id="huge-ds"),
        pytest.param(lambda d: d["shaping"].update(xi=0), "shaping.xi", id="zero-xi"),
        # psi's coefficient 1 / (2 xi (1 - beta)) divides by zero
        pytest.param(lambda d: d["shaping"].update(xi=5e-324), "shaping", id="subnormal-xi"),
        pytest.param(lambda d: d["shaping"].update(xi=-math.inf), "shaping.xi",
                     id="minus-infinite-xi"),
        pytest.param(lambda d: d["alpha"].update(slope=0), "alpha.slope", id="zero-slope"),
        pytest.param(lambda d: d.update(sensor_range=-1), "sensor_range", id="negative-range"),
        pytest.param(lambda d: d.pop("vehicles"), "vehicles", id="no-vehicles"),
        pytest.param(lambda d: d.update(mdoe="off"), "mdoe", id="unknown-key"),
        pytest.param(lambda d: d["limits"].update(zeta_max=math.inf), "limits.zeta_max",
                     id="infinite-zeta_max"),
        pytest.param(lambda d: d["limits"].update(v_max=math.inf), "limits.v_max",
                     id="infinite-v_max"),
        pytest.param(lambda d: _controller(d).update(arrival_time=-1),
                     "vehicles[1].controller.arrival_time", id="negative-arrival_time"),
        pytest.param(lambda d: d.update(seed=-3), "seed", id="negative-seed"),
        pytest.param(lambda d: d["limits"].update(v_max=14.0), "limits", id="v_max-below-v_min"),
        pytest.param(lambda d: d["barrier"].update(speed=30.0), "barrier",
                     id="maneuver-outside-box"),
    ])
    def test_malformed_config_exit_one(self, command, edit, field, tmp_path, capsys):
        d = config_to_dict(scenario_sweep())
        edit(d)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        extra = ["--range", "350"] if command == "sweep" else []
        # an exception escaping main is what the command line prints as a traceback
        code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "o"), *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config field ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_sweep_workers_below_one_exit_one(self, workers, tmp_path, capsys):
        # --workers is an unknown flag: the pool size follows the ranges and the cores
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "sweep", "--range", "350", "--workers", workers,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert f"unrecognized arguments: --workers {workers}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_check_zero_samples_exit_one(self, tmp_path, capsys):
        code = run_cli("check", "--scenario", "sweep", "--samples", "0",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error: " in capsys.readouterr().err


# a fresh interpreter that finds the package under test
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(wingsafe.__file__).resolve().parents[1])}


def _loaded_by_cli_import(module: str) -> bool:
    """Whether importing wingsafe.cli in a fresh interpreter loads module."""
    probe = f"import sys, wingsafe.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency (tests/reference.py); importing
    # wingsafe.cli imports the whole package
    assert not _loaded_by_cli_import("scipy")


def test_cli_import_leaves_hashlib_out():
    # the output writer names its temp files with os.urandom; secrets would
    # load hmac and hashlib on every start
    assert not _loaded_by_cli_import("hashlib")
    assert not _loaded_by_cli_import("secrets")


def test_cli_import_leaves_process_pool_out():
    # only a sweep with more than one worker starts processes
    assert not _loaded_by_cli_import("concurrent.futures.process")


def _fresh_lines(probe: str, blas_threads: str | None = None) -> list[str]:
    """What a fresh interpreter prints for probe, with OPENBLAS_NUM_THREADS
    unset (this process may have set it) or set to blas_threads."""
    env = {k: v for k, v in SRC_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_wingsafe_starts_numpy_with_one_blas_thread():
    # OpenBLAS reads the variable when numpy loads it: one thread starts no pool
    probe = ("import os, sys, wingsafe; print(os.environ.get('OPENBLAS_NUM_THREADS'));"
             "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)")
    assert _fresh_lines(probe) == ["1", "1"]


def test_a_preset_blas_thread_count_wins():
    probe = "import os, wingsafe; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_lines(probe, blas_threads="2") == ["2"]


def test_numpy_imported_first_keeps_its_blas():
    probe = "import os, numpy, wingsafe; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_lines(probe) == ["None"]


def test_every_export_has_a_caller():
    # a name of __all__ must be used, besides defined, in the package's own
    # modules; the four below are kept only for the benchmark tracer
    counts = collections.Counter()
    for path in Path(wingsafe.__file__).resolve().parent.glob("*.py"):
        if path.name != "__init__.py":
            with tokenize.open(path) as fh:
                counts.update(tok.string for tok in tokenize.generate_tokens(fh.readline)
                              if tok.type == tokenize.NAME)
    lonely = {name for name in wingsafe.__all__ if counts[name] < 2}
    assert lonely == {"h_value", "lie_derivatives", "in_sensor_set", "shape_h"}


@pytest.mark.parametrize("argv", [
    ("run", "--scenario", "sweep"),
    ("sweep", "--scenario", "sweep", "--range", "350"),
    ("check", "--scenario", "sweep"),
], ids=lambda argv: argv[0])
def test_commands_run_without_scipy(argv, tmp_path):
    # a None entry in sys.modules makes every import of scipy raise
    blocked = "import sys; sys.modules['scipy'] = None; import wingsafe.cli as c; sys.exit(c.main())"
    out = subprocess.run([sys.executable, "-c", blocked, *argv, "--out", str(tmp_path / "o")],
                         env=SRC_ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
