"""The six demos print exactly the bytes recorded in tests/golden/demos/.

Each demo runs in a fresh interpreter with the package source on its
path, so a change anywhere in the kernel that moves a printed value, a
basis or a verdict shows up as a diff against its golden file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_golden_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
