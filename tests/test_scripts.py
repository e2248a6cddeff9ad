"""Smoke run of the calibration script under scripts/ on small tapes.

The script runs once; each test checks one of its two summary lines and the
exit status, not the pass rates: at these sizes the detector pass rates are
noise.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import washdetect

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def calibrate_run():
    src = Path(washdetect.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate.py"), "--seeds", "1", "--n", "20000"],
        env=env,
        capture_output=True,
        text=True,
    )


def test_calibrate_prints_the_closure_summary(calibrate_run):
    assert calibrate_run.returncode == 0, calibrate_run.stderr
    summary = r"clean tapes passing all families: \d/1; wash tapes failing >= 2: \d/1"
    assert any(re.fullmatch(summary, line) for line in calibrate_run.stdout.splitlines())


def test_calibrate_prints_the_recovery_summary(calibrate_run):
    assert calibrate_run.returncode == 0, calibrate_run.stderr
    summary = r"injected fractions: 0%, 25%, 50%, 75%, 90% \(\d+s\)"
    assert re.fullmatch(summary, calibrate_run.stdout.splitlines()[-1])
