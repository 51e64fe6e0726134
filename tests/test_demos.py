"""Every narrative demo runs to completion against the library and prints
exactly the stdout pinned below (the demos are seeded and write no files)."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change here must be a deliberate one
STDOUT_SHA256 = {
    "01_windows_and_sampling.py": "0cfb3b2fde44af060884ed4a9d47ebedeaac34849ed4cb1fc475d7c5b8112eeb",
    "02_crossing_numbers.py": "faed2794957c188b39cd219969f81d562114ea3e41b16299036db1af0b6f56e6",
    "03_merge_trees_and_barcodes.py": "23077817c30f967890569867dbab766842038e385415668b535c4140abec35a5",
    "04_functionals_and_stabilization.py": "c6d0709877c3226f1b9035a21421be0b675431052d514420de17edd6f0665909",
    "05_normal_approximation.py": "e9cedd60197a32ea393540ee51382eb0240be21a8b471e6f97c455882ec6b5af",
    "06_shield_configurations.py": "dc6107945bdc1c20519692f173019696c12ebd9e251cf200be605af770cb9e7c",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
