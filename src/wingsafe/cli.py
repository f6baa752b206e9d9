"""Command-line front end: run scenarios, sweep sensing ranges, check
sensor compatibility.

Subcommands and exit codes:

* run:   0 clean run, 2 when a safety violation (pairwise distance below ds)
         was recorded, 1 on configuration or usage errors.
         Writes trace.csv, metrics.json, events.log into --out.
* sweep: runs the two-vehicle scenario once per sensing range in --range and
         writes sweep.csv (R, min_distance, min_h_tilde, r_min) plus per-R
         run outputs in subdirectories.  Exit codes as run.
* check: prints the minimum sensing range, the shaping threshold and
         interpolant coefficients, and the sampled sensor-compatibility
         report; exit 0 iff compatible, 3 with a witness otherwise, 1 on
         configuration or usage errors.

All floating-point output uses repr-exact formatting ('.' decimal
separator), so CSV/JSON values parse back bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .scenarios import (
    ScenarioConfig,
    builtin_scenarios,
    config_to_dict,
    load_config,
    run_scenario,
)
from .shaping import (
    SensorModel,
    ShapingParams,
    analytic_compatible,
    check_sensor_compatible,
    xi_from_range,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_INCOMPATIBLE = 3


@dataclass(frozen=True)
class RunManifest:
    """A resolved request: scenario plus typed overrides."""

    scenario: str | None
    config_path: str | None
    out_dir: Path
    sensor_range: float | None = None
    xi: float | None = None
    beta: float | None = None
    alpha: float | None = None
    dt: float | None = None
    mode: str | None = None
    seed: int | None = None

    def load(self) -> ScenarioConfig:
        if (self.scenario is None) == (self.config_path is None):
            raise ValueError("exactly one of --scenario / --config is required")
        if self.config_path is not None:
            cfg = load_config(self.config_path)
        else:
            builtins = builtin_scenarios()
            if self.scenario not in builtins:
                raise ValueError(
                    f"unknown scenario {self.scenario!r}; choose from {sorted(builtins)}"
                )
            cfg = builtins[self.scenario]
        updates = {"sensor_range": self.sensor_range, "shaping_xi": self.xi,
                   "shaping_beta": self.beta, "alpha_slope": self.alpha, "dt": self.dt,
                   "mode": self.mode, "seed": self.seed}
        updates = {k: v for k, v in updates.items() if v is not None}
        return replace(cfg, **updates) if updates else cfg


def _atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file in the same directory, then rename.  The temp
    file is created with mode 0o666 filtered by the umask, as open() would."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


TRACE_COLUMNS = [
    "t", "vehicle", "px", "py", "heading", "pz",
    "nom_speed", "nom_turn_rate", "nom_climb_rate",
    "flt_speed", "flt_turn_rate", "flt_climb_rate",
    "min_pair_h_tilde",
]


TRACE_BLOCK_ROWS = 1024  # trace.csv rows formatted at once


def write_outputs(out_dir: Path, cfg: ScenarioConfig, trace, metrics) -> None:
    def write_trace(fh):
        # No field (float repr, vehicle number or "") needs quoting, so rows
        # are joined directly, ended as csv's excel dialect ends them.
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        n = trace.states.shape[1]
        rows = trace.n_steps * n
        vehicles = [str(v) for v in range(n)]
        for r0 in range(0, rows, TRACE_BLOCK_ROWS):
            step, v = np.divmod(np.arange(r0, min(r0 + TRACE_BLOCK_ROWS, rows)), n)
            block = np.concatenate([
                trace.times[step, None], trace.states[step, v], trace.nominal[step, v],
                trace.filtered[step, v], trace.min_pair_h_shaped[step, v, None],
            ], axis=1)
            # repr once per distinct bit pattern (so -0.0 stays apart from 0.0); NaN is ""
            distinct, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            text = [repr(x) if x == x else "" for x in distinct.view(np.float64).tolist()]
            # column 1 is the vehicle number, its text stored after the distinct values
            index = np.insert(inverse.reshape(block.shape), 1, len(text) + v, axis=1)
            lines = map(",".join, np.array(text + vehicles, dtype=object)[index].tolist())
            fh.write("".join(f"{line}\r\n" for line in lines))

    _atomic_write(out_dir / "trace.csv", write_trace)

    payload = {
        "min_distance": metrics.min_distance,
        "min_h_tilde": metrics.min_h_shaped,
        "violation": metrics.violation,
        "max_control_jump": list(metrics.max_control_jump),
        "closest_approach": {k: list(v) for k, v in metrics.closest_approach.items()},
        "n_steps": metrics.n_steps,
        "n_events": metrics.n_events,
        # the analytic bound `check` reports: no sensing needed beyond range
        "sensor_compatible": analytic_compatible(
            cfg.barrier, cfg.resolve_shaping(), SensorModel(cfg.sensor_range)),
    }
    _atomic_write(out_dir / "metrics.json", lambda fh: json.dump(payload, fh, indent=2))

    def write_events(fh):
        for step, msg in trace.events:
            fh.write(f"step={step} t={repr(float(trace.times[step]))} {msg}\n")

    _atomic_write(out_dir / "events.log", write_events)
    _atomic_write(
        out_dir / "config.json",
        lambda fh: json.dump(config_to_dict(cfg), fh, indent=2),
    )


def cmd_run(manifest: RunManifest) -> int:
    try:
        cfg = manifest.load()
        trace, metrics = run_scenario(cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_outputs(manifest.out_dir, cfg, trace, metrics)
    except OSError as err:
        print(f"error: cannot write outputs: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"run complete: steps={metrics.n_steps} min_distance={metrics.min_distance!r} "
        f"min_h_tilde={metrics.min_h_shaped!r} events={metrics.n_events}"
    )
    return EXIT_VIOLATION if metrics.violation else EXIT_OK


def _sweep_one(args) -> dict:
    cfg, out_dir = args
    trace, metrics = run_scenario(cfg)
    write_outputs(Path(out_dir), cfg, trace, metrics)
    return {
        "R": cfg.sensor_range,
        "min_distance": metrics.min_distance,
        "min_h_tilde": metrics.min_h_shaped,
        "violation": metrics.violation,
    }


def cmd_sweep(manifest: RunManifest, ranges: list[float]) -> int:
    if not ranges:
        print("error: --range list must be nonempty", file=sys.stderr)
        return EXIT_CONFIG
    out_dirs: dict[str, float] = {}  # per-range output directory -> its range
    for R in ranges:
        name = f"R_{R:g}"
        if name in out_dirs:
            print(f"error: --range values {out_dirs[name]!r} and {R!r} share the output "
                  f"directory {name}", file=sys.stderr)
            return EXIT_CONFIG
        out_dirs[name] = R
    try:
        base = manifest.load()
        jobs = []
        for name, R in out_dirs.items():
            cfg = replace(base, sensor_range=R)
            cfg.resolve_shaping()  # fail fast (e.g. auto shaping below R_min)
            jobs.append((cfg, str(manifest.out_dir / name)))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    # the CPUs this process may run on, not the host's
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(4, len(jobs), cpus or 1)

    def write_sweep(fh):
        w = csv.writer(fh)
        w.writerow(["R", "min_distance", "min_h_tilde", "r_min"])
        for row in results:
            w.writerow(
                [repr(row["R"]), repr(row["min_distance"]), repr(row["min_h_tilde"]),
                 repr(base.r_min)]
            )

    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # kept off run and check
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_one, jobs))
        else:
            results = [_sweep_one(j) for j in jobs]
        _atomic_write(manifest.out_dir / "sweep.csv", write_sweep)
    except ValueError as err:  # e.g. a step count too large to record
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: cannot write outputs: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for row in results:
        print(
            f"R={row['R']!r}: min_distance={row['min_distance']!r} "
            f"min_h_tilde={row['min_h_tilde']!r}"
        )
    print(f"sweep complete: {len(results)} runs, R_min={base.r_min!r}")
    return EXIT_VIOLATION if any(r["violation"] for r in results) else EXIT_OK


def cmd_check(manifest: RunManifest, samples: int) -> int:
    try:
        return _check(manifest.load(), samples)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def _check(cfg: ScenarioConfig, samples: int) -> int:
    print(f"barrier kind: {cfg.barrier.kind}")
    print(f"sensor range R: {cfg.sensor_range!r}")

    if cfg.barrier.kind == "turn":
        print(f"minimum sensing range R_min: {cfg.r_min!r}")
        try:
            shaping = cfg.resolve_shaping()
        except ValueError as err:
            print(f"shaping: {err}")
            shaping = None
        if shaping is None:
            # no (valid) shaping configured: try the largest provable xi
            try:
                xi = xi_from_range(cfg.sensor_range, cfg.barrier.maneuver, cfg.barrier.safety)
            except ValueError as err:
                if cfg.sensor_range > cfg.r_min:
                    raise  # R not finite, or too large for xi: a usage error, not incompatibility
                print(f"no positive xi exists ({err})")
                print("sensor compatible: no")
                return EXIT_INCOMPATIBLE
            shaping = ShapingParams(xi, cfg.shaping_beta)
    else:
        shaping = cfg.resolve_shaping() or ShapingParams(1.0, cfg.shaping_beta)

    print(f"xi: {shaping.xi!r}")
    print(f"beta: {shaping.beta!r}")
    print(f"psi coefficients: c1={shaping.c1!r} c2={shaping.c2!r} c3={shaping.c3!r}")

    report = check_sensor_compatible(
        cfg.barrier, shaping, SensorModel(cfg.sensor_range), sample_count=samples, seed=cfg.seed
    )
    print(f"analytic bound: {'ok' if report.analytic_ok else 'not satisfied'}")
    print(
        f"sampled check: {report.samples} samples outside range, "
        f"min h = {report.min_h_outside!r}"
    )
    if report.witness is not None:
        a, b = report.witness.a, report.witness.b
        print(
            "witness (h = {h!r}): vehicle1=({a.px!r}, {a.py!r}, {a.heading!r}) "
            "vehicle2=({b.px!r}, {b.py!r}, {b.heading!r})".format(h=report.witness_h, a=a, b=b)
        )
    print(f"sensor compatible: {'yes' if report.ok else 'no'}")
    return EXIT_OK if report.ok else EXIT_INCOMPATIBLE


def _manifest_from_args(args) -> RunManifest:
    ranges = _parse_ranges(args.range) if args.range else None
    if ranges and len(ranges) > 1 and args.command != "sweep":
        raise ValueError(f"--range takes a single value for {args.command}, got {args.range!r}")
    return RunManifest(
        scenario=args.scenario,
        config_path=args.config,
        out_dir=Path(args.out),
        sensor_range=ranges[0] if ranges and args.command != "sweep" else None,
        **{name: getattr(args, name) for name in ("xi", "beta", "alpha", "dt", "mode", "seed")},
    )


def _parse_ranges(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_CONFIG on usage errors (argparse's 2 is EXIT_VIOLATION)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wingsafe",
        description="Barrier-function collision avoidance under limited-range sensing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one scenario and write trace/metrics/events"),
        ("sweep", "run the scenario once per sensing range"),
        ("check", "verify sensor compatibility of the configured barrier"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", help="builtin scenario name")
        p.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--out", default="wingsafe_out", help="output directory")
        p.add_argument("--range", help="sensor range override; comma list for sweep")
        p.add_argument("--seed", type=int, help="seed for randomized checks")
        p.add_argument("--dt", type=float, help="integration step override")
        p.add_argument("--mode", help="filter mode: centralized, split or off")
        p.add_argument("--xi", type=float, help="shaping threshold override")
        p.add_argument("--beta", type=float, help="shaping blend factor override")
        p.add_argument("--alpha", type=float, help="linear class-K slope override")
        if name == "check":
            p.add_argument("--samples", type=int, default=100_000,
                           help="sample count for the compatibility check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = _manifest_from_args(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "run":
        return cmd_run(manifest)
    if args.command == "sweep":
        return cmd_sweep(manifest, _parse_ranges(args.range or ""))
    if args.command == "check":
        return cmd_check(manifest, args.samples)
    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
