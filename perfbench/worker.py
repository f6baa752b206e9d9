"""One benchmark process: runs one workload of wingsafe and prints one JSON
line.  `run.py` starts it fresh for every measurement, so each measurement
pays the program's real start-up.

Modes:

* setup    - stop at the first simulation step (at the check call for
             `check`) and print the monotonic time; nothing else runs.
* run      - untraced: operations back to back for --seconds, timing each
             operation and each step, then the correctness gates.
* trace    - a fixed set of operations untraced, then the same set traced;
             per-layer metrics and the tracing overhead.
* selftest - known-bad inputs through every gate; each must trip.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

import gates  # noqa: E402  (benchmark modules, stdlib only)
import workloads  # noqa: E402

perf = time.perf_counter

CHECK_SAMPLES = 2_000_000
TRACED_ENCOUNTERS = 30
TRACED_CHECKS = 5
SETUP_PROBES = 5


@dataclass
class Op:
    wall: float
    reasons: list[str]
    digest: str | None
    input_id: str
    engaged: bool = False


def import_program():
    """Import wingsafe from this checkout's src/ and return (cli, scenarios)."""
    sys.path.insert(0, str(ROOT / "src"))
    import wingsafe
    import wingsafe.cli as cli
    import wingsafe.scenarios as scenarios

    if not Path(wingsafe.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"wingsafe imported from {wingsafe.__file__}, not from {ROOT / 'src'}")
    return cli, scenarios


# ---------------------------------------------------------------------------
# workloads


@dataclass
class CliRun:
    """`wingsafe run` in process, writing outputs to a scratch directory."""

    cli: object
    argv: list[str]
    manifest: dict
    input_id: str
    scratch: Path
    min_ops: int
    traced_ops: int = 1
    setup_boundary: tuple = ("wingsafe.sim", "Simulation.step")
    step_boundary: tuple = ("wingsafe.sim", "Simulation.step")

    def op(self, i: int) -> Op:
        out = self.scratch / f"op{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf()
            rc = self.cli.main(self.argv + ["--out", str(out)])
            wall = perf() - t0
        try:
            reasons = gates.run_outputs(rc, out)
            digest = gates.run_digest(out) if not reasons else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Op(wall, reasons, digest, self.input_id)

    def build(self):
        cfg = self.cli.RunManifest(out_dir=self.scratch, **self.manifest).load()
        cfg.filter_config()
        cfg.controllers()


@dataclass
class Encounters:
    """Seeded two-vehicle encounters through `run_scenario`, no outputs."""

    scenarios: object
    seed: int
    min_ops: int = 1
    traced_ops: int = TRACED_ENCOUNTERS
    setup_boundary: tuple = ("wingsafe.sim", "Simulation.step")
    step_boundary: tuple = ("wingsafe.sim", "Simulation.step")
    _dicts: list = field(default_factory=list)

    def __post_init__(self):
        self._stream = workloads.encounters(self.seed)
        shaping = self.config(0).resolve_shaping()
        self.engage_below = shaping.beta * shaping.xi

    def config(self, i: int):
        while len(self._dicts) <= i:
            self._dicts.append(next(self._stream))
        return self.scenarios.config_from_dict(self._dicts[i])

    def op(self, i: int) -> Op:
        cfg = self.config(i)
        t0 = perf()
        trace, metrics = self.scenarios.run_scenario(cfg)
        wall = perf() - t0
        return Op(
            wall,
            gates.encounter(metrics.min_h_shaped),
            gates.sim_digest(trace, metrics),
            "encounter-" + gates.text_digest(json.dumps(self._dicts[i]))[:16],
            engaged=metrics.min_h_shaped < self.engage_below,
        )

    def build(self):
        cfg = self.config(0)
        cfg.filter_config()
        cfg.controllers()


@dataclass
class Check:
    """`wingsafe check --scenario sweep --range 350` at CHECK_SAMPLES samples."""

    cli: object
    seed: int
    min_ops: int = 2
    traced_ops: int = TRACED_CHECKS
    setup_boundary: tuple = ("wingsafe.cli", "check_sensor_compatible")
    step_boundary: tuple = ("wingsafe.shaping", "h_batch")

    @property
    def argv(self):
        return ["check", "--scenario", "sweep", "--range", "350",
                "--samples", str(CHECK_SAMPLES), "--seed", str(self.seed)]

    def op(self, i: int) -> Op:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf()
            rc = self.cli.main(self.argv)
            wall = perf() - t0
        out = buf.getvalue()
        return Op(wall, gates.check_report(rc, out), gates.text_digest(out),
                  " ".join(self.argv))

    def build(self):
        manifest = self.cli.RunManifest(scenario="sweep", config_path=None,
                                        out_dir=Path("."), sensor_range=350.0)
        manifest.load().resolve_shaping()


def attempt(wl, i: int) -> Op:
    """Run operation i; an exception fails the operation, not the run."""
    t0 = perf()
    try:
        return wl.op(i)
    except Exception as err:
        traceback.print_exc()
        return Op(perf() - t0, [f"{type(err).__name__}: {err}"], None, f"op-{i}")


def make_workload(name: str, seed: int, input_path: str | None, cli, scenarios):
    scratch = CACHE / f"out-{os.getpid()}"
    if name == "circle20":
        return CliRun(cli, ["run", "--scenario", "circle20"],
                      {"scenario": "circle20", "config_path": None}, "circle20", scratch, 1)
    if name == "airspace":
        digest = gates.text_digest(Path(input_path).read_text())[:16]
        return CliRun(cli, ["run", "--config", input_path],
                      {"scenario": None, "config_path": input_path}, f"airspace-{digest}",
                      scratch, 2)
    if name == "encounters":
        return Encounters(scenarios, seed)
    if name == "check":
        return Check(cli, seed)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# boundaries used by the untraced modes


def wrap_boundary(patcher, boundary, make_wrapper) -> None:
    from tracer import find_method

    home, name = boundary
    if "." in name:
        found = find_method(home, name)
        if found is None:
            raise SystemExit(f"boundary {home}.{name} does not exist")
        patcher.method(*found, make_wrapper)
    elif not patcher.function(home, name, make_wrapper):
        raise SystemExit(f"boundary {home}.{name} does not exist")


class StepTimer:
    """Times every call of the step boundary, per operation, probes the host
    speed between steps, and notes when the setup boundary is first
    reached."""

    def __init__(self, speed):
        self.raw: list[list[float]] = []
        self.samples: list[list[float]] = []  # divided by the local slowdown
        self.ready: float | None = None
        self.active = True
        self.speed = speed

    def begin_op(self) -> None:
        self.raw.append([])
        self.samples.append([])

    def step(self, fn):
        speed = self.speed

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.active:
                    dt = perf() - t0
                    self.raw[-1].append(dt)
                    self.samples[-1].append(dt / speed.now)
                speed.maybe_probe()

        return wrapper

    def first_call(self, fn):
        def wrapper(*args, **kwargs):
            if self.ready is None:
                self.ready = time.monotonic()
            return fn(*args, **kwargs)

        return wrapper


def stop_at_first_call(fn):
    def wrapper(*args, **kwargs):
        ready = time.monotonic()
        from speed import Speedometer

        speed = Speedometer()
        for _ in range(SETUP_PROBES):
            speed.probe()
        result = {"ready": ready, "speed_factor": speed.factor()}
        # the program's stdout may be redirected here: write to fd 1
        os.write(1, (json.dumps(result) + "\n").encode())
        os._exit(0)

    return wrapper


# ---------------------------------------------------------------------------
# cross-run determinism


def source_key() -> str:
    import numpy

    h = hashlib.sha256(numpy.__version__.encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    return h.hexdigest()[:16]


def cross_run(cache_file: Path, key: str, digest: str | None) -> list[str]:
    """Compare with the digest an earlier run of the same source and input
    stored in this checkout, or store it."""
    if digest is None:
        return []
    try:
        known = json.loads(cache_file.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != digest:
            return [f"output differs from an earlier run of the same code and input ({key})"]
        return []
    known[key] = digest
    tmp = cache_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(tmp, cache_file)
    return []


def judge(ops: list[Op], workload, key_prefix: str) -> list[str]:
    """Per-operation gates, repetition gates and the encounter ensemble gate;
    returns one reason per failed operation."""
    failed = [f"op {i}: {'; '.join(o.reasons)}" for i, o in enumerate(ops) if o.reasons]
    by_input: dict[str, list[str]] = {}
    for o in ops:
        if o.digest is not None:
            by_input.setdefault(o.input_id, []).append(o.digest)
    for input_id, digests in by_input.items():
        failed += [f"{input_id}: {r}" for r in gates.repetitions(digests)]
        failed += cross_run(CACHE / "digests.json", f"{key_prefix}:{input_id}", digests[0])
    if isinstance(workload, Encounters):
        distinct = {o.input_id: o for o in ops}.values()
        failed += gates.engagement(sum(o.engaged for o in distinct), len(distinct))
    return failed


# ---------------------------------------------------------------------------
# modes


def mode_run(wl, seconds: float, patcher) -> dict:
    from speed import Speedometer

    speed = Speedometer()
    timer = StepTimer(speed)
    if wl.setup_boundary == wl.step_boundary:
        def both(fn):
            return timer.step(timer.first_call(fn))
        wrap_boundary(patcher, wl.step_boundary, both)
    else:
        wrap_boundary(patcher, wl.setup_boundary, timer.first_call)
        wrap_boundary(patcher, wl.step_boundary, timer.step)

    ops: list[Op] = []
    walls = []  # divided by the mean local slowdown over the operation
    start = perf()
    while True:
        speed.probe()
        timer.begin_op()
        first, probing = len(speed.local) - 1, speed.probe_s
        ops.append(attempt(wl, len(ops)))
        ops[-1].wall -= speed.probe_s - probing  # probes between steps
        walls.append(ops[-1].wall / statistics.fmean(speed.local[first:]))
        elapsed = perf() - start
        typical = statistics.median(o.wall for o in ops)
        if len(ops) >= wl.min_ops and elapsed + typical > seconds:
            break
    raw_walls = [o.wall for o in ops]
    if isinstance(wl, Encounters):
        timer.active = False
        ops.append(attempt(wl, 0))  # repetition of the first encounter

    from tracer import percentile

    failed = judge(ops, wl, source_key())

    def step_ms(per_op, q):
        """Median over operations of each operation's step percentile."""
        return 1e3 * statistics.median(percentile(sorted(s), q) for s in per_op if s)

    return {
        "ready": timer.ready,
        "speed_factor": speed.factor(),
        "probes": len(speed.factors),
        "walls": walls,
        "raw_walls": raw_walls,
        "step_p50_ms": step_ms(timer.samples, 50.0),
        "step_p99_ms": step_ms(timer.samples, 99.0),
        "raw_step_p50_ms": step_ms(timer.raw, 50.0),
        "raw_step_p99_ms": step_ms(timer.raw, 99.0),
        "step_samples": sum(map(len, timer.samples)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failed),
        "reasons": failed[:10],
    }


def mode_trace(wl, import_s: float, workload: str, seed: int) -> dict:
    from tracer import Tracer, layer_groups

    builds = []
    try:
        for _ in range(5):
            t0 = perf()
            wl.build()
            builds.append(perf() - t0)
        build_s = statistics.median(builds)
    except (AttributeError, TypeError):
        build_s = None

    plain = [attempt(wl, i) for i in range(wl.traced_ops)]
    tracer = Tracer()
    tracer.install()
    traced = []
    for i in range(wl.traced_ops):
        tracer.op = i
        traced.append(attempt(wl, i))
    tracer.uninstall()

    metrics = tracer.layer_metrics()
    metrics["wingsafe.import_s"] = import_s
    metrics["scenarios.build_s"] = build_s
    metrics["trace.overhead_s"] = sum(o.wall for o in traced) - sum(o.wall for o in plain)
    failed = judge(plain + traced, wl, source_key())

    CACHE.mkdir(exist_ok=True)
    spans_file = CACHE / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.span_records()))
    groups = layer_groups(metrics)
    return {
        "metrics": metrics,
        "missing": sorted(tracer.missing),
        "groups": groups,
        "untraced_wall_s": sum(o.wall for o in plain),
        "traced_ops": wl.traced_ops,
        "attempted": len(plain) + len(traced),
        "failed": len(failed),
        "reasons": failed[:10],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def mode_selftest(cli, scenarios) -> dict:
    """Known-bad inputs: every gate must report a failure."""
    scratch = CACHE / f"selftest-{os.getpid()}"
    results = {}

    def cli_run(argv, mutate=None):
        out = scratch / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(out)])
        if mutate:
            mutate(out)
        try:
            return gates.run_outputs(rc, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def truncate(out):
        lines = (out / "trace.csv").read_bytes().splitlines(keepends=True)
        (out / "trace.csv").write_bytes(b"".join(lines[:-1]))

    def check(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return gates.check_report(rc, buf.getvalue())

    def run_dict(d):
        return scenarios.run_scenario(scenarios.config_from_dict(d))

    try:
        results["run: sweep scenario (good input, must pass)"] = cli_run(
            ["run", "--scenario", "sweep"])
        results["run: example1 (exits 2, distance below D_s)"] = cli_run(
            ["run", "--scenario", "example1"])
        results["run: sweep with trace.csv cut by one row"] = cli_run(
            ["run", "--scenario", "sweep"], mutate=truncate)

        stream = workloads.encounters(1)
        unfiltered = []
        for _ in range(5):
            d = dict(next(stream), mode="off")
            unfiltered += gates.encounter(run_dict(d)[1].min_h_shaped)
        results["encounter: filter off (--mode off), 5 encounters"] = unfiltered

        far = workloads.scenario(
            [workloads.goal_vehicle(0.0, 0.0, 0.0, (2000.0, 0.0), cruise_speed=20.0),
             workloads.goal_vehicle(0.0, 1000.0, 0.0, (2000.0, 1000.0), cruise_speed=20.0)],
            workloads.ENCOUNTER_DURATION, 1)
        _, metrics = run_dict(far)
        shaping = scenarios.config_from_dict(far).resolve_shaping()
        engaged = metrics.min_h_shaped < shaping.beta * shaping.xi
        results["encounters: parallel flights 1000 m apart never engage"] = gates.engagement(
            int(engaged), 1)

        results["check: --range 300 (below R_min)"] = check(
            ["check", "--scenario", "sweep", "--range", "300", "--samples", "20000"])
        results["check: --range 330 --xi 60 (xi above xi(R))"] = check(
            ["check", "--scenario", "sweep", "--range", "330", "--xi", "60",
             "--samples", "20000"])

        d1, d2 = (next(stream) for _ in range(2))
        results["repetition: two different outputs for one input"] = gates.repetitions(
            [gates.sim_digest(*run_dict(d1)), gates.sim_digest(*run_dict(d2))])
        scratch.mkdir(parents=True, exist_ok=True)
        cache_file = scratch / "digests.json"
        cache_file.write_text(json.dumps({"k": "0" * 64}))
        results["cross-run: digest differs from the stored one"] = cross_run(
            cache_file, "k", "1" * 64)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    good = "run: sweep scenario (good input, must pass)"
    ok = not results[good] and all(r for name, r in results.items() if name != good)
    return {"ok": ok, "gates": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["setup", "run", "trace", "selftest"], required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--input", help="generated scenario JSON (airspace)")
    args = p.parse_args(argv)

    t0 = perf()
    cli, scenarios = import_program()
    import_s = perf() - t0
    from tracer import Patcher

    if args.mode == "selftest":
        result = mode_selftest(cli, scenarios)
    else:
        wl = make_workload(args.workload, args.seed, args.input, cli, scenarios)
        patcher = Patcher()
        if args.mode == "setup":
            wrap_boundary(patcher, wl.setup_boundary, stop_at_first_call)
            wl.op(0)
            raise SystemExit("setup boundary was never reached")
        if args.mode == "run":
            result = mode_run(wl, args.seconds, patcher)
        else:
            result = mode_trace(wl, import_s, args.workload, args.seed)
        patcher.undo()
        scratch = getattr(wl, "scratch", None)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
