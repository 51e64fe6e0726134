"""The import contract: ``import pairfunc`` loads numpy and the standard
library only.  scipy.spatial loads at the first k-d tree (crossing models,
shield checks), scipy.special at the first distance to normal.  A tree-model
stabilization survey builds no k-d tree."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import pairfunc, pairfunc.cli, pairfunc.experiment
from pairfunc.geometry import Window
from pairfunc.models import get_model

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def evaluate(name):
    model = get_model(name)
    model.evaluate(model.sample(Window(n=8.0, dim=2), (1, 0, 0)))

report = {"import": scipy_modules()}
for name in ("inversion-uniform", "treelog-uniform", "inversion-tree", "treelog-tree"):
    evaluate(name)
report["uniform_and_tree"] = scipy_modules()
pairfunc.experiment.stabilization_survey("treelog-tree", 8.0, 3, 1, with_admissibility=True)
report["tree_survey"] = scipy_modules()
evaluate("crossing-fixed")
report["crossing"] = scipy_modules()
print(json.dumps(report))
"""


def test_scipy_loads_where_it_is_first_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert "scipy.spatial" not in report["uniform_and_tree"]
    assert "scipy.spatial" not in report["tree_survey"]
    assert "scipy.spatial" in report["crossing"]
