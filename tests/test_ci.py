"""The CI workflow and the packaging metadata: the tier-1 job runs the
command that ROADMAP.md names and the benchmark's gate self-test, every job
has a time limit, and the program needs numpy alone."""

import re
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def workflow_jobs():
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())["jobs"]


def test_workflow_runs_the_roadmap_tier1_command():
    steps = workflow_jobs()["tier1"]["steps"]
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)
    assert steps[-1]["run"] == command
    assert "perfbench" not in command


def test_tier1_job_runs_the_gate_selftest():
    # the benchmark's correctness gates each trip on a known-bad input
    runs = [step.get("run") for step in workflow_jobs()["tier1"]["steps"]]
    assert "python3 perfbench/run.py --gate-selftest" in runs[:-1]


@pytest.mark.parametrize("workload", ["circle20", "airspace"])
def test_tier1_job_runs_a_traced_workload_with_no_null_metric(workload):
    # the traced run's last line is strict JSON with no null metric
    runs = [step.get("run") or "" for step in workflow_jobs()["tier1"]["steps"]]
    run = next(r for r in runs if f"perfbench/run.py --workload {workload} --trace 1" in r)
    assert "parse_constant=reject" in run and '["value"] is None' in run
    assert "tail -n 1" in run and "sys.exit(" in run


@pytest.mark.parametrize("workload", ["circle20", "airspace"])
def test_tier1_job_fails_a_traced_workload_with_an_uncalled_pair_layer(workload):
    # each of the four pair layers the tracer times must read a non-zero call count
    runs = [step.get("run") or "" for step in workflow_jobs()["tier1"]["steps"]]
    run = next(r for r in runs if f"perfbench/run.py --workload {workload} --trace 1" in r)
    for metric in ("barrier.h_calls", "barrier.lie_calls", "shaping.sensor_calls",
                   "shaping.shape_calls"):
        assert f'"{metric}"' in run, metric
    assert '["value"] == 0' in run and "uncalled pair layers" in run


def test_every_job_sets_a_timeout():
    # without one, a hung job runs until GitHub's 6-hour default
    jobs = workflow_jobs()
    assert jobs
    for name, job in jobs.items():
        minutes = job.get("timeout-minutes")
        assert isinstance(minutes, int) and 0 < minutes <= 60, name


def test_product_job_runs_without_scipy():
    runs = [step.get("run", "") for step in workflow_jobs()["product"]["steps"]]
    installs = [line for run in runs for line in run.splitlines() if "pip install" in line]
    assert installs == ["python -m pip install numpy==2.4.6"]
    commands = "\n".join(runs)
    assert "scipy" not in commands
    assert "wingsafe.cli run --scenario sweep" in commands
    assert "wingsafe.cli check --scenario sweep" in commands
    assert "wingsafe.cli sweep --scenario sweep --range 330,350" in commands
    lines = [line.strip() for line in commands.splitlines()]
    # floating-point warnings are errors in every command of the program
    cli = "PYTHONPATH=src python -W error::RuntimeWarning -m wingsafe.cli "
    runs = [line for line in lines if "wingsafe.cli" in line]
    assert len(runs) == 7 and all(cli in line for line in runs), runs
    # the paper's headline run in centralized and split mode
    assert cli + 'run --scenario circle20 --out "$RUNNER_TEMP/circle20"' in lines
    assert cli + 'run --scenario circle20 --mode split --out "$RUNNER_TEMP/circle20-split"' in lines
    # the failure demo exits 2 and R = 300 < R_min exits 3; rc keeps each code under bash -e
    for command, code in (("run --scenario example1", 2),
                          ("check --scenario sweep --range 300", 3)):
        assert any(line.startswith("rc=0; " + cli + command)
                   and line.endswith(f'|| rc=$?; test "$rc" -eq {code}') for line in lines), command


def test_scipy_is_a_test_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
    assert any(re.match(r"scipy\b", d) for d in project["optional-dependencies"]["test"])


def test_tier1_job_installs_pyyaml():
    # the workflow tests above skip without PyYAML, so this one reads the
    # tier-1 job's lines as text: from its key to the next job's
    text = (ROOT / ".github/workflows/tier1.yml").read_text()
    job = re.search(r"^  tier1:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S).group(1)
    installs = [line for line in job.splitlines() if "pip install" in line]
    assert installs and all(re.search(r"\bpyyaml\b", line) for line in installs)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert any(re.match(r"pyyaml\b", d) for d in project["optional-dependencies"]["test"])
