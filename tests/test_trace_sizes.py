"""Smoke test of `scripts/trace_sizes.py`, which measures the bytes of each
trace column that `pipeline` writes."""

from __future__ import annotations

import os
import subprocess
import sys

from .conftest import REPO_ROOT, SCENARIO_FILES


def test_trace_sizes_rows_add_up_to_the_total_and_hold_no_lat():
    """One fixture, 3 samples.  The script asserts that the exact sizes add up;
    the printed means, each rounded to 0.1 B, add up to the total within
    their rounding."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "trace_sizes.py"),
         str(SCENARIO_FILES["straight-1"]), "--samples", "3"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=False)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "3 traces: 1 documents x 3 samples from seed 7, trace format 5"
    rows = {line[:28].strip(): float(line[28:]) for line in lines[1:]}
    total = rows.pop("bytes per trace")
    assert len(rows) == len(lines) - 2  # all but the summary and the total
    assert {"header", "t", "id", "x", "y", "heading", "speed", "lane"} <= set(rows)
    assert "lat" not in rows
    assert abs(sum(rows.values()) - total) <= 0.05 * len(rows) + 1e-9
