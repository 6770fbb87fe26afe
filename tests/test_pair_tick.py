"""Smoke test of tools/pair_tick.py: this checkout paired against itself."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself_is_byte_equal():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_tick.py"), str(ROOT), str(ROOT),
         "--rounds", "2", "--scenarios", "2", "--ticks", "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines[:2], 1):
        assert re.fullmatch(rf"round {k}: A \d+\.\d\d us  B \d+\.\d\d us  B/A \d+\.\d{{4}}", line)
    assert re.fullmatch(r"median B/A \d+\.\d{4}; B won [012] of 2 rounds; final states byte-equal: yes", lines[2])


@pytest.mark.parametrize("workload", ["unshielded", "shielded"])
def test_training_tick_against_itself_is_byte_equal(workload):
    # six 200-step episodes pass the 1000-transition warm-up, so learner rounds run
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_tick.py"), str(ROOT), str(ROOT),
         "--train", workload, "--rounds", "2", "--seeds", "1", "--episodes", "6"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines[:2], 1):
        assert re.fullmatch(rf"round {k}: A \d+\.\d\d us  B \d+\.\d\d us  B/A \d+\.\d{{4}}", line)
    assert re.fullmatch(r"median B/A \d+\.\d{4}; B won [012] of 2 rounds; trained weights byte-equal: yes", lines[2])
