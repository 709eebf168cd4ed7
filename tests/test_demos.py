"""Each demo prints its recorded output.

`demos/NAME.py` runs in a new interpreter, under `python -O` when this
process runs under it, and its stdout must equal `demos/expected/NAME.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_recorded_output(demo):
    flag = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flag, str(demo)], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
