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
    "01_windows_and_sampling.py": "81faee6875cb85b6fc743c52ad5d7fe3cdf83d9bed9a45c3901d5d120a49a391",
    "02_crossing_numbers.py": "faed2794957c188b39cd219969f81d562114ea3e41b16299036db1af0b6f56e6",
    "03_merge_trees_and_barcodes.py": "19e1a7ed83df77ef4702ad87f0ae995324743c021dfbdd47eee6d53a665fc733",
    "04_functionals_and_stabilization.py": "e3e7d5ccd8fb12c1a236db91f6b09fc2c3e6692f6e93c985a950781e7c852313",
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
