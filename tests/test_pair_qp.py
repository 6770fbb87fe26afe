"""Smoke test of tools/pair_qp.py: this checkout paired against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checkout_against_itself_is_byte_equal():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pair_qp.py"), str(ROOT), str(ROOT),
         "--rounds", "2", "--seeds", "1", "--episodes", "1", "--scenarios", "2", "--ticks", "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0] == "480 problems, 2 rounds"  # 200 training steps and 2 x 20 ticks, two agents each
    for line, path in zip(lines[1:5], ("fast", "one row", "pair", "relaxed")):
        timed = rf"{path} +\d+ problems  A \d+\.\d\d us  B \d+\.\d\d us  B/A \d+\.\d{{4}}  B won [012] of 2"
        assert re.fullmatch(timed, line) or re.fullmatch(rf"{path} +0 problems", line), line
    assert lines[5] == "outputs byte-equal: yes"
