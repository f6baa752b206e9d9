"""Correctness gates.  Each gate returns the list of reasons an operation
failed; an empty list means it passed.  Gates read what a user of the
program sees: the exit code, the files a run writes, the printed check
report, or the metrics `run_scenario` returns."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# forward-invariance tolerance of the acceptance suite (criteria 5 and 9)
MIN_H_TOLERANCE = -1e-3

RUN_OUTPUTS = ("trace.csv", "metrics.json", "events.log", "config.json")


def run_outputs(rc: int, out_dir: Path) -> list[str]:
    """`wingsafe run`: exit 0, min distance >= D_s, min shaped barrier >=
    -1e-3, no events, and outputs that parse with the expected row count."""
    reasons = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text())
        config = json.loads((out_dir / "config.json").read_text())
        events = (out_dir / "events.log").read_text()
        with open(out_dir / "trace.csv", "rb") as fh:
            header = fh.readline().decode().strip().split(",")
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    except (OSError, ValueError) as err:
        return reasons + [f"outputs do not parse: {err}"]
    ds = config["barrier"]["ds"]
    if not metrics["min_distance"] >= ds:
        reasons.append(f"min_distance {metrics['min_distance']!r} < D_s {ds!r}")
    if not metrics["min_h_tilde"] >= MIN_H_TOLERANCE:
        reasons.append(f"min_h_tilde {metrics['min_h_tilde']!r} < {MIN_H_TOLERANCE}")
    if metrics["n_events"] or events.strip():
        reasons.append(f"{metrics['n_events']} events recorded")
    expected = metrics["n_steps"] * len(config["vehicles"])
    if header[:2] != ["t", "vehicle"] or rows != expected:
        reasons.append(f"trace.csv has {rows} rows (expected {expected}) and header {header[:2]}")
    return reasons


def run_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in RUN_OUTPUTS:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def encounter(min_h_shaped: float) -> list[str]:
    """One encounter: the shaped barrier never drops below -1e-3."""
    if not min_h_shaped >= MIN_H_TOLERANCE:
        return [f"min_h_tilde {min_h_shaped!r} < {MIN_H_TOLERANCE}"]
    return []


def engagement(engaged: int, runs: int) -> list[str]:
    """The ensemble exercises the filter: at least half of the encounters
    reach min_h_tilde < beta * xi."""
    if 2 * engaged < runs:
        return [f"only {engaged} of {runs} encounters engaged the constraint"]
    return []


def sim_digest(trace, metrics) -> str:
    """Digest of a `run_scenario` result: every array the trace holds, its
    events and the metrics."""
    h = hashlib.sha256()
    for name, value in sorted(vars(trace).items()):
        h.update(name.encode())
        if hasattr(value, "tobytes"):
            h.update(str(value.dtype).encode() + str(value.shape).encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    h.update(repr(metrics).encode())
    return h.hexdigest()


def check_report(rc: int, output: str) -> list[str]:
    """`wingsafe check`: exit 0 and no witness."""
    reasons = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    if "witness" in output or "sensor compatible: yes" not in output:
        reasons.append("check reported a witness or no compatibility verdict")
    return reasons


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def repetitions(digests: list[str]) -> list[str]:
    """Repeated operations on the same input give bit-identical output."""
    if len(set(digests)) > 1:
        return [f"{len(set(digests))} different outputs over {len(digests)} repetitions"]
    return []
