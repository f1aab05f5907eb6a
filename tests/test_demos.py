"""The demos run to their final summary line against this checkout's sources.

Each demo runs in a fresh process from an empty working directory, which
must stay empty. Demo 04 (the absorbing-ball probe, about 12 s) is left
out; the acceptance tests cover the probe.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FINAL_LINES = {
    "01_filter_and_deconvolution.py": "series vs closed form, worst relative gap over N <= 20: ",
    "02_operator_checks.py": "23/23 operator checks passed",
    "03_energy_balance.py": "observed order: 2.00 (the scheme is second order)",
    "05_snapshot_restart.py": "after 50 more steps on each path: bit-identical = True",
}


@pytest.mark.parametrize("demo", sorted(FINAL_LINES))
def test_demo_runs_to_its_summary(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(FINAL_LINES[demo])
    assert list(tmp_path.iterdir()) == []
