"""The CI workflow and the packaging metadata: the tier-1 job runs the
command that ROADMAP.md names, every job has a time limit, and the program
needs numpy alone."""

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
    # the failure demo exits 2 and R = 300 < R_min exits 3; rc keeps each code under bash -e
    for command, code in (("run --scenario example1", 2),
                          ("check --scenario sweep --range 300", 3)):
        assert any(line.startswith("rc=0; PYTHONPATH=src python -m wingsafe.cli " + command)
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
