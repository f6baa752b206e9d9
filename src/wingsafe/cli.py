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
import math
import os
import secrets
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .barrier import TurnManeuver
from .scenarios import (
    ScenarioConfig,
    builtin_scenarios,
    config_to_dict,
    load_config,
    run_scenario,
)
from .shaping import (
    SensorModel,
    check_sensor_compatible,
    make_quadratic_psi,
    min_sensing_range,
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
        updates = {}
        if self.sensor_range is not None:
            updates["sensor_range"] = self.sensor_range
        if self.xi is not None:
            updates["shaping_xi"] = self.xi
        if self.beta is not None:
            updates["shaping_beta"] = self.beta
        if self.alpha is not None:
            updates["alpha_slope"] = self.alpha
        if self.dt is not None:
            updates["dt"] = self.dt
        if self.mode is not None:
            updates["mode"] = self.mode
        if self.seed is not None:
            updates["seed"] = self.seed
        return replace(cfg, **updates) if updates else cfg


def _atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file in the same directory, then rename.  The temp
    file is created with mode 0o666 filtered by the umask, as open() would."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{secrets.token_hex(4)}.tmp")
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


def write_outputs(out_dir: Path, cfg: ScenarioConfig, trace, metrics) -> None:
    def write_trace(fh):
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        # per step and vehicle: the minimum shaped barrier over its pairs
        vehicles = range(trace.states.shape[1])
        pairs = np.array(trace.pairs, dtype=int).reshape(-1, 2)
        min_h = np.stack([
            np.fmin.reduce(trace.pair_h_shaped[:, (pairs == v).any(axis=1)], axis=1, initial=np.nan)
            for v in vehicles
        ], axis=1)
        for s0 in range(0, trace.n_steps, 64):  # 64 steps of rows formatted at once
            block = slice(s0, s0 + 64)
            columns = np.concatenate(
                (trace.states[block], trace.nominal[block], trace.filtered[block]), axis=2
            ).tolist()
            w.writerows(
                [repr(t), v, *map(repr, columns[b][v]), repr(h) if h == h else ""]
                for b, (t, hs) in enumerate(zip(trace.times[block].tolist(), min_h[block].tolist()))
                for v, h in zip(vehicles, hs)
            )

    _atomic_write(out_dir / "trace.csv", write_trace)

    payload = {
        "min_distance": metrics.min_distance,
        "min_h_tilde": metrics.min_h_shaped,
        "violation": metrics.violation,
        "max_control_jump": list(metrics.max_control_jump),
        "closest_approach": {k: list(v) for k, v in metrics.closest_approach.items()},
        "n_steps": metrics.n_steps,
        "n_events": metrics.n_events,
    }
    _atomic_write(out_dir / "metrics.json", lambda fh: json.dump(payload, fh, indent=2))

    def write_events(fh):
        dt = cfg.dt
        for step, msg in trace.events:
            fh.write(f"step={step} t={repr(step * dt)} {msg}\n")

    _atomic_write(out_dir / "events.log", write_events)
    _atomic_write(
        out_dir / "config.json",
        lambda fh: json.dump(config_to_dict(cfg), fh, indent=2),
    )


def cmd_run(manifest: RunManifest) -> int:
    try:
        cfg = manifest.load()
        trace, metrics = run_scenario(cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
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


def cmd_sweep(manifest: RunManifest, ranges: list[float], workers: int | None = None) -> int:
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
        rmin = (
            min_sensing_range(base.barrier.maneuver, base.barrier.safety)
            if base.barrier.kind == "turn"
            else math.nan
        )
        jobs = []
        for name, R in out_dirs.items():
            cfg = replace(base, sensor_range=R)
            cfg.resolve_shaping()  # fail fast (e.g. auto shaping below R_min)
            jobs.append((cfg, str(manifest.out_dir / name)))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    if workers is None:
        workers = min(4, len(jobs), os.cpu_count() or 1)

    def write_sweep(fh):
        w = csv.writer(fh)
        w.writerow(["R", "min_distance", "min_h_tilde", "r_min"])
        for row in results:
            w.writerow(
                [repr(row["R"]), repr(row["min_distance"]), repr(row["min_h_tilde"]), repr(rmin)]
            )

    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_one, jobs))
        else:
            results = [_sweep_one(j) for j in jobs]
        _atomic_write(manifest.out_dir / "sweep.csv", write_sweep)
    except OSError as err:
        print(f"error: cannot write outputs: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for row in results:
        print(
            f"R={row['R']!r}: min_distance={row['min_distance']!r} "
            f"min_h_tilde={row['min_h_tilde']!r}"
        )
    print(f"sweep complete: {len(results)} runs, R_min={rmin!r}")
    return EXIT_VIOLATION if any(r["violation"] for r in results) else EXIT_OK


def cmd_check(manifest: RunManifest, samples: int = 100_000) -> int:
    try:
        return _check(manifest.load(), samples)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def _check(cfg: ScenarioConfig, samples: int) -> int:
    seed = cfg.seed
    print(f"barrier kind: {cfg.barrier.kind}")
    print(f"sensor range R: {cfg.sensor_range!r}")

    if cfg.barrier.kind == "turn":
        man: TurnManeuver = cfg.barrier.maneuver
        rmin = min_sensing_range(man, cfg.barrier.safety)
        print(f"minimum sensing range R_min: {rmin!r}")
        try:
            shaping = cfg.resolve_shaping()
        except ValueError as err:
            print(f"shaping: {err}")
            shaping = None
        if shaping is None:
            # no (valid) shaping configured: try the largest provable xi
            try:
                xi = xi_from_range(cfg.sensor_range, man, cfg.barrier.safety)
            except ValueError as err:
                print(f"no positive xi exists ({err})")
                print("sensor compatible: no")
                return EXIT_INCOMPATIBLE
            shaping = make_quadratic_psi(xi, cfg.shaping_beta)
    else:
        shaping = cfg.resolve_shaping() or make_quadratic_psi(1.0, cfg.shaping_beta)

    print(f"xi: {shaping.xi!r}")
    print(f"beta: {shaping.beta!r}")
    print(f"psi coefficients: c1={shaping.c1!r} c2={shaping.c2!r} c3={shaping.c3!r}")

    report = check_sensor_compatible(
        cfg.barrier, shaping, SensorModel(cfg.sensor_range), sample_count=samples, seed=seed
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
        xi=args.xi,
        beta=args.beta,
        alpha=args.alpha,
        dt=args.dt,
        mode=args.mode,
        seed=args.seed,
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
        p.add_argument("--mode", choices=["centralized", "split", "off"], help="filter mode")
        p.add_argument("--xi", type=float, help="shaping threshold override")
        p.add_argument("--beta", type=float, help="shaping blend factor override")
        p.add_argument("--alpha", type=float, help="linear class-K slope override")
        if name == "sweep":
            p.add_argument("--workers", type=int, help="sweep worker processes")
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
        return cmd_sweep(manifest, _parse_ranges(args.range or ""), args.workers)
    if args.command == "check":
        return cmd_check(manifest, args.samples)
    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
