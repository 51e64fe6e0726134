"""The library names that the benchmark under ``bench/`` imports and rebinds.

``bench/tracing.py`` imports classes from ``pairfunc.functionals`` by name and
rebinds library attributes (``AdmissibilityRule.mask``, ``Model.evaluate``,
...) while a traced run is installed.  A rename or a move in the library that
would make every benchmark process die at start-up fails here instead.
``bench/worker.py`` is left out: it starts a timer signal on import.
"""
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_modules_import_and_tracer_installs():
    sys.path.insert(0, str(BENCH))
    try:
        modules = {
            name: importlib.import_module(name)
            for name in ("tracing", "checks", "layer_table", "workloads")
        }
        tracing = modules["tracing"]
        originals = [getattr(owner, attr) for owner, attr, *_ in tracing._TARGETS]
        with tracing.Tracer():
            pass
        # leaving the block restores every rebound library attribute
        assert [getattr(owner, attr) for owner, attr, *_ in tracing._TARGETS] == originals
    finally:
        sys.path.remove(str(BENCH))
