"""wingsafe benchmark.

One run (the form `command` in BENCHMARK.json takes):

    python3 perfbench/run.py --workload circle20 --seed 1 --seconds 20 --trace 0

prints the metrics by name with their units and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
per-layer ones.  Other modes:

    --suite          every workload, untraced and traced, one seed
    --steady         two sets of seeded runs per workload; do they agree
                     within the bounds of BENCHMARK.json?
    --gate-selftest  known-bad inputs through every correctness gate

Each measurement runs in a fresh worker process (worker.py).  This file
uses the standard library only and never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up is sampled from this many extra process starts, plus the measuring
# worker's own start
SETUP_PROCESSES = 6
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = version(pkg)
        except PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions}


class WorkerError(RuntimeError):
    pass


def worker(deadline: float, *args: str) -> tuple[dict, float]:
    """Run worker.py in a fresh process; return its JSON line and the
    monotonic time just before the process was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time")
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {' '.join(args)} timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1]), started


def prepare_input(workload: str, seed: int) -> list[str]:
    """Write the generated scenario the program receives, if the workload
    takes one as a file; return the worker arguments naming it."""
    if workload != "airspace":
        return []
    path = CACHE / "inputs" / f"airspace-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(workloads.airspace(seed), indent=1))
    return ["--input", str(path.relative_to(ROOT))]


def one_run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), *prepare_input(workload, seed)]
    print(f"host: {json.dumps(host())}")
    if trace:
        res, _ = worker(deadline, "--mode", "trace", *common)
        metrics = res["metrics"]
        names = spec["per_layer"]
    else:
        setup, raw_setup = [], []
        for _ in range(SETUP_PROCESSES):
            ready, started = worker(deadline, "--mode", "setup", *common)
            raw_setup.append(ready["ready"] - started)
            setup.append(raw_setup[-1] / ready["speed_factor"])
        res, started = worker(deadline, "--mode", "run", "--seconds", str(seconds), *common)
        raw_setup.append(res["ready"] - started)
        setup.append(raw_setup[-1] / res["speed_factor"])
        factor = res["speed_factor"]
        raw = {
            "wall_s": statistics.median(res["raw_walls"]),
            "setup_s": statistics.median(raw_setup),
            "step_p50_ms": res["raw_step_p50_ms"],
            "step_p99_ms": res["raw_step_p99_ms"],
        }
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setup),
            "step_p50_ms": res["step_p50_ms"],
            "step_p99_ms": res["step_p99_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = spec["end_to_end"]

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{attempted} operations, {failed} failed (failed_frac {failed / attempted:.4g})")
    for reason in res["reasons"]:
        print(f"  gate failed: {reason}")
    if trace:
        print(f"  {res['traced_ops']} operations traced after the same ones untraced "
              f"({res['untraced_wall_s']:.3f} s); spans in {res['spans_file']}")
        if res["missing"]:
            print(f"  missing boundaries: {', '.join(res['missing'])}")
    else:
        print(f"  {len(res['walls'])} timed operations, {res['step_samples']} steps, "
              f"{len(setup)} set-up samples; host speed factor {factor:.4g} "
              f"(median of {res['probes']} probes); raw times in brackets")
    for m in names:
        value = metrics.get(m["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        note = f"  [{raw[m['name']]:.6g}]" if not trace and m["name"] in raw else ""
        print(f"  {m['name']:<34} {shown:>14} {m['unit']}{note}")
    if trace:
        total = sum(res["groups"].values()) or 1.0
        print("  self time by layer group:")
        for group, secs in sorted(res["groups"].items(), key=lambda kv: -kv[1]):
            print(f"    {100 * secs / total:5.1f}%  {secs:9.3f} s  {group}")
        top = max(res["groups"], key=res["groups"].get)
        print(f"  the time is held by: {top}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in names},
    }


def self_invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the form `python3 perfbench/run.py --workload ...`, in its own
    process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise WorkerError(f"run {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as `statistics.quantiles(n=4)` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(spec, names, runs, seconds, first_seed) -> dict:
    """Two sets of `runs` seeded runs per workload: each end-to-end metric's
    quartile spread against its bound, and the drift of the second set's
    median from the first's."""
    report = {"host": host(), "runs": runs, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        sets = []
        for k in range(2):
            seeds = range(first_seed + k * runs, first_seed + (k + 1) * runs)
            sets.append([self_invoke(name, s, seconds, 0) for s in seeds])
        rows = {}
        for m in spec["end_to_end"]:
            a, b = ([r["metrics"][m["name"]]["value"] for r in rs] for rs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            drift = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            spreads = [quartile_spread(a), quartile_spread(b), quartile_spread(a + b)]
            bounded = m["name"] == "setup_s" or max(spreads) <= m["bound"]
            agree = drift <= m["bound"]
            ok &= bounded and agree
            rows[m["name"]] = {
                "median": [med_a, med_b], "spread": spreads, "worse_by": drift,
                "bound": m["bound"], "within_bound": bounded, "agree": agree,
                "steady": max(spreads) < m["bound"] / 3,
                "values": [a, b],
            }
        failed = sum(r["failed"] for rs in sets for r in rs)
        report["workloads"][name] = {"metrics": rows, "failed": failed}
        ok &= failed == 0
    print(f"\nsteadiness, {runs} + {runs} runs of {seconds:g} s; host {json.dumps(report['host'])}")
    print(f"{'workload':<11} {'metric':<12} {'median 1':>10} {'median 2':>10} "
          f"{'spread 1':>9} {'spread 2':>9} {'spread all':>10} {'worse by':>9} {'bound':>6}  verdict")
    for name, w in report["workloads"].items():
        for metric, r in w["metrics"].items():
            verdict = ("steady" if r["steady"] else "within bound" if r["within_bound"]
                       else "TOO WIDE") + ("" if r["agree"] else ", SETS DISAGREE")
            print(f"{name:<11} {metric:<12} {r['median'][0]:>10.4g} {r['median'][1]:>10.4g} "
                  f"{r['spread'][0]:>9.2%} {r['spread'][1]:>9.2%} {r['spread'][2]:>10.2%} "
                  f"{r['worse_by']:>9.2%} {r['bound']:>6.2f}  {verdict}")
        print(f"{name:<11} failed operations: {w['failed']}")
    report["ok"] = ok
    return report


def suite(spec, names, seed, seconds) -> dict:
    report = {"host": host(), "seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        report["workloads"][name] = {
            "end_to_end": self_invoke(name, seed, seconds, 0),
            "per_layer": self_invoke(name, seed, seconds, 1),
        }
    report["ok"] = all(r["correct"] for w in report["workloads"].values() for r in w.values())
    print(f"\nsuite seed {seed}: {'all gates passed' if report['ok'] else 'GATES FAILED'}")
    for name, w in report["workloads"].items():
        pl = w["per_layer"]["metrics"]
        props = ", ".join(f"{k} {pl[k]['value']:.4g}" for k in (
            "safety_filter.sensed_ratio", "safety_filter.binding_ratio",
            "qp.multi_component_share") if pl[k]["value"] is not None)
        print(f"  {name}: {props}")
    return report


def selftest() -> bool:
    res, _ = worker(time.monotonic() + DEADLINE_S, "--mode", "selftest")
    for gate, reasons in res["gates"].items():
        state = "passes" if not reasons else "trips"
        print(f"{state:>7}  {gate}" + (f": {reasons[0]}" if reasons else ""))
    print("gate self-test " + ("ok" if res["ok"] else "FAILED"))
    return res["ok"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name from BENCHMARK.json (--steady, --suite: "
                   "comma list, default all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=5, help="runs per set for --steady")
    p.add_argument("--gate-selftest", action="store_true")
    p.add_argument("--results", help="write the --suite / --steady report here (JSON)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wingsafe" / "__init__.py").is_file():
        print(f"error: no wingsafe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    CACHE.mkdir(exist_ok=True)

    try:
        if args.gate_selftest:
            return 0 if selftest() else 1
        if args.suite or args.steady:
            names = args.workload.split(",") if args.workload else known
            if not set(names) <= set(known):
                p.error(f"unknown workload in {names}; choose from {known}")
            if args.suite:
                report = suite(spec, names, args.seed, seconds)
            else:
                report = steady(spec, names, args.runs, seconds, args.seed)
            if args.results:
                Path(args.results).write_text(json.dumps(report, indent=1) + "\n")
            return 0 if report["ok"] else 1
        if args.workload not in known:
            p.error(f"--workload must be one of {known}")
        result = one_run(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
