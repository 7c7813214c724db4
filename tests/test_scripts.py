"""Command-line scripts under scripts/, run as their own processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import connramsey

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_thresholds_sweeps_hc_below_classical():
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_thresholds.py"),
         "--modes", "classical", "hc", "--min-m", "2", "--max-m", "4", "--max-n", "6"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    hc = [r for r in rows if r["mode"] == "hc"]
    # j >= m - 1 is classical, so each m sweeps j = 1..m-2 and m = 2 has none.
    assert [(r["m"], r["j"]) for r in hc] == [(3, 1), (4, 1), (4, 2)]
    assert all("j" not in r for r in rows if r["mode"] == "classical")
    assert {(r["m"], r["j"]): r["threshold"] for r in hc} == {(3, 1): 3, (4, 1): 4, (4, 2): 6}


def test_run_thresholds_reports_a_capped_cell_and_goes_on():
    # The walk colors 14 vertices without an hc m=5 j=3 witness in about
    # 0.3 s, and level 15 ran past 120 s (2 vCPUs, Python 3.11), so the
    # cell caps at the 0.2 s budget, and the j=2 cell may cap too; a
    # capped cell prints a row with its proven lower bound and the sweep
    # goes on.
    max_n = 16
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_thresholds.py"), "--modes", "hc",
         "--min-m", "5", "--max-m", "5", "--max-n", str(max_n), "--time-limit", "0.2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["j"] for r in rows] == [1, 2, 3]
    assert rows[-1]["capped"] is True
    for row in rows:
        if row.get("capped"):
            assert row["threshold"] is None and 5 <= row["at_least"] <= max_n
        else:
            assert "at_least" not in row and row["threshold"] is not None


@pytest.mark.parametrize("script, argv, message", [
    ("run_thresholds.py", ["--modes", "classical", "--min-m", "3", "--max-m", "5", "--max-n", "4"],
     "--max-n must be at least --max-m"),
    ("run_thresholds.py", ["--colors", "0"], "--colors must be at least 1"),
    ("run_thresholds.py", ["--palette-size", "0"], "--palette-size must be at least 1"),
    ("run_thresholds.py", ["--min-m", "1"], "--min-m must be at least 2"),
    ("run_thresholds.py", ["--time-limit", "nan"], "--time-limit must be a number of seconds"),
    ("run_thresholds.py", ["--min-m", "5", "--max-m", "4"], "--min-m must be at most --max-m"),
])
def test_bad_parameter_exits_2_before_any_cell(script, argv, message):
    env = dict(os.environ, PYTHONPATH=str(Path(connramsey.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr
    assert "Traceback" not in done.stderr
