"""Smoke runs of the experiment scripts under scripts/ on small tapes.

Only the exit status and the summary line are checked: at these sizes the
detector pass rates are noise.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import washdetect

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,summary",
    [
        (
            "detector_closure.py",
            ["--seeds", "1", "--n", "20000"],
            r"clean tapes passing all families: \d/1; wash tapes failing >= 2: \d/1 \(\d+s\)",
        ),
        (
            "wash_recovery.py",
            ["--seeds", "1", "--target-n", "20000"],
            r"injected fractions: 0%, 25%, 50%, 75%, 90% \(\d+s\)",
        ),
    ],
)
def test_script_runs_to_its_summary(script, args, summary):
    src = Path(washdetect.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert re.fullmatch(summary, out.stdout.splitlines()[-1])
