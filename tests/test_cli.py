import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wingsafe
from wingsafe.barrier import LinearGain, SafetyParams, StraightManeuver, TurnManeuver
from wingsafe.cli import TRACE_COLUMNS, main, write_outputs
from wingsafe.dynamics import ActuatorLimits
from wingsafe.scenarios import (
    builtin_scenarios,
    config_from_dict,
    config_to_dict,
    load_config,
    run_scenario,
    save_config,
    scenario_circle20,
    scenario_sweep,
)
from wingsafe.shaping import SensorModel, make_quadratic_psi


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["example1", "example2", "sweep", "circle20"])
    def test_parse_serialize_parse_identical(self, name, tmp_path):
        cfg = builtin_scenarios()[name]
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
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

    def test_zero_steps_header_only_trace(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "sweep", "--out", str(out), "--dt", "100") == 0
        assert (out / "trace.csv").read_text().splitlines() == [",".join(TRACE_COLUMNS)]

    def test_config_file_input(self, tmp_path):
        cfg = scenario_sweep(400.0)
        path = tmp_path / "scenario.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out), "--dt", "0.05") == 0


class TestCmdSweep:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--scenario", "sweep", "--range", "330,350,400",
            "--out", str(out), "--dt", "0.05", "--workers", "1",
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

    def test_workers_do_not_change_outputs(self, tmp_path):
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert run_cli("sweep", "--scenario", "sweep", "--range", "330,400", "--out", str(out),
                           "--dt", "0.05", "--workers", workers) == 0
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] == outputs[1]

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
                       "--dt", "0.05", "--workers", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(v in err for v in values)
        assert not out.exists()  # rejected before any run

    def test_below_rmin_exit_one(self, tmp_path):
        code = run_cli(
            "sweep", "--scenario", "sweep", "--range", "300,350",
            "--out", str(tmp_path / "o"), "--workers", "1",
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


def row_by_row_trace(trace) -> bytes:
    """trace.csv as formatted one row at a time (the reference format)."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(TRACE_COLUMNS)
    n = trace.states.shape[1]
    for s in range(trace.n_steps):
        for v in range(n):
            ks = [k for k, (i, j) in enumerate(trace.pairs) if v in (i, j)]
            vals = trace.pair_h_shaped[s, ks]
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
        assert (tmp_path / "trace.csv").read_bytes() == row_by_row_trace(trace)

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
                       "--dt", "0.05", "--workers", "1")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


NAN = math.nan


class TestInputValidation:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: SensorModel(NAN), id="SensorModel.range_m"),
        pytest.param(lambda: make_quadratic_psi(NAN, 0.9), id="make_quadratic_psi.xi"),
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
    ])
    def test_nan_parameter_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("flag", ["--range", "--xi", "--alpha"])
    def test_nan_override_exit_one(self, flag, tmp_path, capsys):
        code = run_cli("run", "--scenario", "sweep", flag, "nan", "--out", str(tmp_path / "o"),
                       "--dt", "0.05")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_straight_speed_in_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        save_config(builtin_scenarios()["example1"], path)
        d = json.loads(path.read_text())
        d["barrier"]["v1"] = NAN
        path.write_text(json.dumps(d))  # NaN is written as the token NaN
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "require finite v1" in capsys.readouterr().err

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

    def test_check_zero_samples_exit_one(self, tmp_path, capsys):
        code = run_cli("check", "--scenario", "sweep", "--samples", "0",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error: " in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy serves only qp.kkt_residual, which no run path calls
    env = {**os.environ, "PYTHONPATH": str(Path(wingsafe.__file__).resolve().parents[1])}
    probe = "import sys, wingsafe.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
