"""The library names that the benchmark under ``bench/`` imports and rebinds.

``bench/tracing.py`` imports classes from ``pairfunc.functionals`` by name and
rebinds library attributes (``AdmissibilityRule.mask``, ``Model.evaluate``,
...) while a traced run is installed.  A rename or a move in the library that
would make every benchmark process die at start-up fails here instead.
``bench/worker.py`` is left out: it starts a timer signal on import.
"""
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from pairfunc import functionals, graphs
from pairfunc.geometry import Window
from pairfunc.models import get_model
from pairfunc.process import insert_point

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


def test_tracer_wraps_each_function_once():
    # two targets that resolve to one function (a context class inheriting
    # another's changed_pairs, say) would wrap it twice and double its counts
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        targets = [getattr(owner, attr) for owner, attr, *_ in tracing._TARGETS]
        assert len({id(fn) for fn in targets}) == len(targets)
    finally:
        sys.path.remove(str(BENCH))


def test_traced_graph_counters_are_builtin_ints():
    # the tracer sums graph fields and pair scores into counters that it
    # writes with json.dumps; numpy integers there would fail the dump
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        cfg = get_model("crossing-fixed").sample(Window(n=12.0, dim=2), (7, 0, 0))
        with tracing.Tracer() as tracer:
            graph = graphs.build_edges(cfg, graphs.FixedRadius())
            crossings = graphs.crossing_number(graph)
            graphs.crossing_pair_scores(graph)
        assert crossings > 0
        json.dumps(dict(tracer.counts))
        assert tracer.counts["graphs.crossings"] == 2 * crossings
        assert all(type(v) is int for v in tracer.counts.values())
    finally:
        sys.path.remove(str(BENCH))


def test_traced_stabilization_radius_counts_changed_pairs():
    # the tracer consumes each context's pair-score diff, counts its rows and
    # hands them back as an iterator of rows; the radius must read them as before
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        for model_id, window, seed, x in (
            ("crossing-fixed", Window(n=6.0, dim=3), 3, (3.0, 3.0, 3.0)),
            ("inversion-tree", Window(n=12.0, dim=2), 0, (10.3, 6.0)),
        ):
            model = get_model(model_id)
            cfg = model.sample(window, (seed, 0, 0))
            before = model.build_context(cfg)
            after = model.build_context(insert_point(cfg, x))
            changed = len(before.changed_pairs(after))
            assert changed > 0
            radius = functionals.empirical_stabilization_radius(cfg, x, model)
            with tracing.Tracer() as tracer:
                traced = functionals.empirical_stabilization_radius(cfg, x, model)
            assert traced == radius
            count = tracer.counts["functionals.changed_pairs"]
            assert type(count) is int and count == changed
    finally:
        sys.path.remove(str(BENCH))


def test_benchmark_calls_fit_the_library_signatures():
    # run_call builds an ExperimentConfig and calls stabilization_survey by
    # keyword; a signature change there would fail every benchmark round
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
        calls = [call for w in workloads.WORKLOADS.values() for call in w.calls]
        call = next(call for call in calls if not call.survey)
        record = workloads.run_call(replace(call, reps=2), 1)
        assert len(record.rows) == 2 * len(call.n_grid)
        call = next(call for call in calls if call.survey)
        assert len(workloads.run_call(replace(call, reps=1), 1).radii) == 1
    finally:
        sys.path.remove(str(BENCH))


def test_mc_tree_rounds_with_ulp_tied_cells_do_not_fail():
    # each of these rounds draws two treelog-tree replications one ulp apart
    # at n = 48, a degenerate cell that used to abort run_experiment
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
        for seed, r in ((5005, 134), (1, 118)):
            results, failed = workloads.run_round(workloads.WORKLOADS["mc-tree"], seed, r)
            assert failed == 0
            tree_log = results[1].summaries
            assert [s.degenerate for s in tree_log] == [True, False]
            assert tree_log[0].variance == 0.0
    finally:
        sys.path.remove(str(BENCH))
