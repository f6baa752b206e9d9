"""The program surface that the benchmark reaches into from outside.

perfbench/tracer.py and perfbench/worker.py wrap the functions and methods
below by name, at every wingsafe module attribute bound to them, and read a
few attributes of their arguments.  A name that goes missing turns its
benchmark metrics into null, and a changed argument breaks the tracer's
reads.  This test checks both without importing anything from perfbench/.

The benchmark change of ROADMAP item 1, which re-aims the tracer, updates this
test together with perfbench/tracer.py.
"""

import dataclasses
import importlib
import inspect
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wingsafe.cli
from wingsafe.safety_filter import FilterConfig, FilterRun, pair_pass
from wingsafe.scenarios import config_from_dict, run_scenario, scenario_circle20

WRAPPED_FUNCTIONS = [
    ("wingsafe.barrier", "h_value"),
    ("wingsafe.barrier", "lie_derivatives"),
    ("wingsafe.barrier", "h_batch"),
    ("wingsafe.shaping", "in_sensor_set"),
    ("wingsafe.shaping", "shape_h"),
    ("wingsafe.shaping", "h_batch"),
    ("wingsafe.shaping", "check_sensor_compatible"),
    ("wingsafe.dynamics", "step_rk4"),
    ("wingsafe.safety_filter", "filter_controls"),
    ("wingsafe.qp", "solve_qp"),
    ("wingsafe.sim", "compute_metrics"),
    ("wingsafe.cli", "write_outputs"),
    ("wingsafe.cli", "check_sensor_compatible"),
]


@pytest.mark.parametrize("home, name", WRAPPED_FUNCTIONS,
                         ids=[f"{h}.{n}" for h, n in WRAPPED_FUNCTIONS])
def test_wrapped_function_exists(home, name):
    assert callable(getattr(importlib.import_module(home), name))


@pytest.mark.parametrize("name", ["step", "finalize"])
def test_simulation_method_exists(name):
    from wingsafe.sim import Simulation

    assert callable(Simulation.__dict__[name])  # wrapped on the class itself


def test_run_manifest_fields():
    fields = {f.name for f in dataclasses.fields(wingsafe.cli.RunManifest)}
    assert {"scenario", "config_path", "out_dir", "sensor_range"} <= fields
    assert callable(wingsafe.cli.RunManifest.load)


def _encounter(duration: float) -> dict:
    """A two-vehicle crossing in the JSON shape of the benchmark's generated
    inputs: goal controllers, "auto" shaping, the headline parameter set."""
    def goal_vehicle(x, heading, goal_x):
        return {"state": [x, 0.0, heading, 0.0],
                "controller": {"type": "goal", "goal": [goal_x, 0.0, 0.0], "cruise_speed": 20.0}}

    return {
        "limits": {"v_min": 15.0, "v_max": 25.0, "omega_max": math.radians(13.0),
                   "zeta_max": 5.0},
        "barrier": {"kind": "turn", "sigma": 1.0, "speed": 16.0,
                    "turn_rate": 0.9 * math.radians(13.0), "delta": 0.01, "ds": 5.0},
        "sensor_range": 350.0,
        "shaping": {"xi": "auto", "beta": 0.9},
        "alpha": {"kind": "linear", "slope": 1.0},
        "dt": 0.01,
        "mode": "centralized",
        "vehicles": [goal_vehicle(-150.0, 0.0, 300.0), goal_vehicle(150.0, math.pi, -300.0)],
        "duration": duration,
        "seed": 1,
    }


@pytest.mark.parametrize("source", ["scenario", "config"])
def test_manifest_set_up(source, tmp_path):
    # the set-up a worker times: load, then what a run builds from the config
    if source == "scenario":
        manifest = wingsafe.cli.RunManifest(scenario="circle20", config_path=None,
                                            out_dir=tmp_path)
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_encounter(1.0)))
        manifest = wingsafe.cli.RunManifest(scenario=None, config_path=str(path),
                                            out_dir=tmp_path)
    cfg = manifest.load()
    assert isinstance(cfg.filter_config(), FilterConfig)
    assert len(cfg.controllers()) == len(cfg.vehicles)
    shaping = cfg.resolve_shaping()
    assert shaping.beta * shaping.xi > 0.0
    # the check workload's set-up
    sweep = wingsafe.cli.RunManifest(scenario="sweep", config_path=None, out_dir=Path("."),
                                     sensor_range=350.0)
    assert sweep.load().resolve_shaping().xi > 0.0


def test_run_scenario_result_is_readable():
    # what the encounter gates and the tracer read of a run_scenario result
    trace, metrics = run_scenario(config_from_dict(_encounter(2.0)))
    assert math.isfinite(metrics.min_h_shaped)
    assert metrics.n_events == len(trace.events)
    assert all(isinstance(k, int) and isinstance(e, str) for k, e in trace.events)
    assert config_from_dict(_encounter(2.0)).resolve_shaping().xi > 0.0


def test_a_controller_class_defines_control():
    found = [
        obj
        for name, mod in list(sys.modules.items())
        if name.startswith("wingsafe.")
        for obj in vars(mod).values()
        if inspect.isclass(obj)
        and obj.__module__ == name
        and "control" in obj.__dict__
        and not getattr(obj, "_is_protocol", False)
    ]
    assert found


def _record_calls(monkeypatch, home, name, calls):
    """Wrap home.name at every wingsafe module attribute bound to it."""
    orig = getattr(importlib.import_module(home), name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "wingsafe" or mod_name.startswith("wingsafe."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)


def test_filter_world_and_qp_rows_are_readable(monkeypatch):
    filter_calls, qp_calls = [], []
    _record_calls(monkeypatch, "wingsafe.safety_filter", "filter_controls", filter_calls)
    _record_calls(monkeypatch, "wingsafe.qp", "solve_qp", qp_calls)
    # 20 vehicles 90 m from the centre: binding rows share vehicles at once,
    # so solve_qp runs (rows that share none are solved in closed form)
    config = replace(scenario_circle20(start_radius=90.0), duration=1.0)
    run_scenario(config)
    # the tracer spans each step's one filter_controls call and reads the
    # sensor range off its positional argument 2
    assert len(filter_calls) == config.n_steps and qp_calls
    for args in filter_calls:
        assert args[2].sensor.range_m == config.sensor_range
    for args in filter_calls[:10]:
        world = args[0]
        pos = np.array([[s.px, s.py] for s in world])
        assert pos.shape == (len(world), 2) and np.isfinite(pos).all()
    for args in qp_calls:
        problem = args[0]
        coeffs = np.array([r.coeffs for r in problem.rows])
        # the tracer reads each row's coupling as (rows, vehicles, 3 controls)
        assert coeffs.reshape(len(problem.rows), -1, 3).shape[1] == len(config.vehicles)


def test_pair_layers_stay_on_the_run_path(monkeypatch):
    # the tracer's pair-evaluation metrics (barrier.h_calls, barrier.lie_calls,
    # shaping.sensor_calls, shaping.shape_calls) time these four functions
    layers = {"h_value": "wingsafe.barrier", "lie_derivatives": "wingsafe.barrier",
              "in_sensor_set": "wingsafe.shaping", "shape_h": "wingsafe.shaping",
              "filter_controls": "wingsafe.safety_filter"}
    calls = {name: [] for name in layers}
    for name, home in layers.items():
        _record_calls(monkeypatch, home, name, calls[name])
    config = replace(scenario_circle20(start_radius=90.0), duration=1.0)
    run_scenario(config)
    counts = {name: len(c) for name, c in calls.items()}
    monkeypatch.undo()
    pairs = len(config.vehicles) * (len(config.vehicles) - 1) // 2
    # one array call per step over every pair
    assert counts["filter_controls"] == config.n_steps
    for name in ("h_value", "in_sensor_set", "shape_h"):
        assert counts[name] == config.n_steps, name
        assert all(np.shape(args[0])[-1] == pairs for args in calls[name]), name
    # the Lie rows once per step with a row that can bind (sensed, defined,
    # below the shaping threshold), over exactly those rows
    fconfig = config.filter_config()
    binding = [
        np.count_nonzero(p.in_sensor & p.lie & (p.barrier.s > 0.0))
        for p in (pair_pass(args[0], FilterRun(fconfig, len(args[0])))
                  for args in calls["filter_controls"])
    ]
    assert counts["lie_derivatives"] > 0
    assert [len(args[1]) for args in calls["lie_derivatives"]] == [k for k in binding if k]
