"""The CI workflow runs the tier-1 command that ROADMAP.md names."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_roadmap_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = workflow["jobs"]["tier1"]["steps"]
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)
    assert steps[-1]["run"] == command
    assert "perfbench" not in command
