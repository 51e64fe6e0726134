"""The task driver of ``run_experiment``: a task is a grid cell, one of
``jobs`` chunks of it, or a run of about ``_BATCH_POINTS`` expected points.
A task samples its replications into one column stack, and a barcode model
evaluates them in one band pass.  ``stabilization_survey`` takes its draws
in runs of about ``_BATCH_POINTS`` expected points, too."""
import concurrent.futures
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pairfunc import barcodes, experiment
from pairfunc.experiment import (
    ExperimentConfig, checked_window, run_experiment, stabilization_survey, write_outputs,
)
from pairfunc.functionals import empirical_stabilization_radius, evaluate_all
from pairfunc.geometry import Window
from pairfunc.models import get_model
from pairfunc.process import MarkedPoint, PointConfiguration, derive_rng, sample_ppp, sample_stack


def _files(config, out):
    write_outputs(run_experiment(config), out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "model_id, n", [("treelog-uniform", 8.0), ("inversion-tree", 12.0), ("crossing-fixed", 8.0)]
)
def test_outputs_are_byte_identical_under_jobs_1_2_3(tmp_path, monkeypatch, model_id, n):
    # one grid cell of 7 replications: jobs 2 and 3 split it into contiguous
    # chunks of 4 + 3 and 3 + 3 + 1 replications, whose rows must join in
    # replication order
    chunks = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            chunks.append([len(reps) for _, _, reps in tasks])
            return super().map(fn, tasks, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    files = [
        _files(ExperimentConfig(model=model_id, n_grid=(n,), reps=7, seed=41, jobs=jobs),
               tmp_path / str(jobs))
        for jobs in (1, 2, 3)
    ]
    assert chunks == [[4, 3], [3, 3, 1]]
    assert files[0] == files[1] == files[2]


# sha256 over the (name, bytes) of every write_outputs file of a crossing
# model's run, seed 11: grids (4, 6, 8) in d = 2 and (2, 3, 4) in d = 3 with
# 6 replications, and one d = 2 cell at n = 128 (about 16k points a
# replication) with 5.  They were recorded when each replication still built
# its own configuration and graph; a change here must be a deliberate one.
CROSSING_OUTPUT_SHA256 = {
    ("crossing-fixed", 2): "fee7da44023c20728e3011172cb42e376ae9a08920db050279e5739e5422f019",
    ("crossing-fixed", 3): "f27ca9a42bb35a985721badccb2e2f67e885b8675a62077838f7b29ff77cd991",
    ("crossing-fixed", "large"): "737a5605e5b752c37457f3e422c6f5435b134af8c908c6882727aed17318bd03",
    ("crossing-max", 2): "d99a8eba5c773ed639c105f3cd430025dc6329dbefd65810984e96b299e77e34",
    ("crossing-max", 3): "3d665684f84316bd6c3167857314b55cce26aebb8494f65b85ce02c299d2f5d9",
    ("crossing-max", "large"): "e0b2673e2fa00f9252ef50cdc417051ee42f996ec618f53e5da2300ce03d8693",
    ("crossing-localized:16", 2): "edb1a26413f5c0388505a2e3cf5b63adb0867d4ec36893b23aa4ad5b4f11435f",
    ("crossing-localized:16", 3): "ca92db8c8ccde0173320d99e47b87a283bb6d45b1a1268554653d44c7f3fd3ec",
    ("crossing-localized:16", "large"): "cdf6e00954a328b58a628532ed5e1ef16a1ff698e8541e2a4831cda860731c70",
}


def _digest(config, out) -> str:
    h = hashlib.sha256()
    for name, data in _files(config, out).items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


@pytest.mark.parametrize("model_id", ["crossing-fixed", "crossing-max", "crossing-localized:16"])
def test_crossing_outputs_are_pinned(tmp_path, monkeypatch, model_id):
    for d, grid in ((2, (4.0, 6.0, 8.0)), (3, (2.0, 3.0, 4.0))):
        for jobs in (1, 2, 3):
            config = ExperimentConfig(model=model_id, n_grid=grid, reps=6, seed=11, d=d, jobs=jobs)
            assert _digest(config, tmp_path / f"{d}-{jobs}") == CROSSING_OUTPUT_SHA256[model_id, d]
    # _BATCH_POINTS splits the n = 128 cell into tasks of 4 and 1 replications
    tasks, run_batch = [], experiment._run_batch
    monkeypatch.setattr(experiment, "_run_batch",
                        lambda task: tasks.append(len(task[2])) or run_batch(task))
    config = ExperimentConfig(model=model_id, n_grid=(128.0,), reps=5, seed=11, jobs=1)
    assert _digest(config, tmp_path / "large") == CROSSING_OUTPUT_SHA256[model_id, "large"]
    assert tasks == [4, 1]


@pytest.mark.parametrize("model_id", ["treelog-uniform", "inversion-tree"])
def test_outputs_do_not_depend_on_the_batch_size(tmp_path, monkeypatch, model_id):
    config = ExperimentConfig(model=model_id, n_grid=(8.0, 12.0), reps=9, seed=5, jobs=1)
    whole = _files(config, tmp_path / "whole")
    monkeypatch.setattr(experiment, "_BATCH_POINTS", 150)  # tasks of 2, then of 1 replication
    assert _files(config, tmp_path / "batched") == whole


@pytest.mark.parametrize("model_id", [
    "crossing-fixed", "crossing-max", "crossing-localized:16", "inversion-uniform",
    "inversion-tree", "treelog-uniform", "treelog-tree",
])
def test_evaluate_all_matches_evaluate(model_id):
    # the graph models take each configuration's total(), the barcode models
    # one band pass over the stack; an empty configuration is a group of no
    # rows between two others
    model, window = get_model(model_id), Window(n=6.0, dim=2)
    seeds = [(3, 0, k) for k in range(3)]
    positions, marks, bounds = sample_stack(window, 1.0, model.mark_model, seeds)
    bounds = np.insert(bounds, 2, bounds[1])
    cfgs = [model.sample(window, seed) for seed in seeds]
    cfgs.insert(1, PointConfiguration(window, model.mark_model, ()))
    values = evaluate_all(model, window, positions, marks, bounds)
    assert values == [model.evaluate(cfg) for cfg in cfgs]
    assert evaluate_all(model, window, *sample_stack(window, 1.0, model.mark_model, [])) == []


def test_cell_memory_stays_flat_as_replications_grow():
    # one inversion-uniform cell at n = 32 (about 1,024 points a replication):
    # eight batches' worth of replications peak within 10% of two batches'
    per_batch = experiment._BATCH_POINTS // 1024

    def run(reps):
        config = ExperimentConfig(model="inversion-uniform", n_grid=(32.0,), reps=reps, seed=7, jobs=1)
        run_experiment(config)

    run(2)  # one-time imports and caches stay out of the traced peaks
    peaks = []
    for batches in (2, 8):
        tracemalloc.start()
        try:
            run(batches * per_batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# (model, d, n_grid, config keys): d = 1, 2 and 3, windows with non-default
# a, alpha and margin, and low intensities whose small cells hold replications
# of 0 or 1 points
_ORACLE_CASES = [
    pytest.param("inversion-uniform", 1, (2.0, 60.0), {"intensity": 0.4}, id="inversion-uniform-d1"),
    pytest.param("treelog-uniform", 1, (30.0, 60.0), {"intensity": 3.0, "margin": 0.3},
                 id="treelog-uniform-d1"),
    pytest.param("treelog-uniform", 3, (5.0, 6.0),
                 {"a": [1.2, 0.8], "alpha": [0.9, 1.0], "margin": 0.25}, id="treelog-uniform-d3"),
    pytest.param("inversion-tree", 2, (1.0, 20.0),
                 {"intensity": 1.5, "a": [2.0], "alpha": [0.6]}, id="inversion-tree-d2"),
    pytest.param("treelog-tree", 3, (5.0, 7.0),
                 {"a": [1.0, 1.3], "alpha": [1.0, 0.9], "margin": 0.15}, id="treelog-tree-d3"),
    pytest.param("crossing-max", 2, (1.5, 8.0), {"intensity": 1.2, "margin": 0.4},
                 id="crossing-max-d2"),
]


@pytest.mark.parametrize("jobs, batch_points", [(1, None), (1, 40), (2, None), (3, None)],
                         ids=["jobs1", "jobs1-batched", "jobs2", "jobs3"])
@pytest.mark.parametrize("model_id, d, grid, keys", _ORACLE_CASES)
def test_rows_match_evaluate_of_each_replication(monkeypatch, model_id, d, grid, keys, jobs,
                                                 batch_points):
    # every row equals Model.evaluate of the configuration that Model.sample
    # draws from the replication's stream, whichever task the row came from
    if batch_points is not None:  # tasks of one to a few replications
        monkeypatch.setattr(experiment, "_BATCH_POINTS", batch_points)
    config = ExperimentConfig(model=model_id, n_grid=grid, reps=7, seed=23, d=d, jobs=jobs, **keys)
    model = get_model(model_id)
    sizes = []
    for row in run_experiment(config).rows:
        cfg = sample_ppp(config.window(row.n), config.intensity, model.mark_model,
                         (23, grid.index(row.n), row.rep))
        fv = model.evaluate(cfg)
        assert (row.value, row.admissible, row.dropped_zero_g) == (
            fv.value, fv.admissible_count, fv.dropped_zero_g)
        sizes.append(len(cfg))
    if grid[0] <= 2.0:  # the small cell holds replications of 0 or 1 points
        assert min(sizes) <= 1


def _count_calls(monkeypatch, calls, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[f"{owner.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_uniform_task_makes_one_band_pass_and_builds_no_configuration(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, barcodes, "inversion_compound_counts")
    _count_calls(monkeypatch, calls, PointConfiguration, "__post_init__")
    _count_calls(monkeypatch, calls, barcodes.Barcode, "__post_init__")
    for model_id in ("inversion-uniform", "treelog-uniform"):
        config = ExperimentConfig(model=model_id, n_grid=(8.0,), reps=20, seed=3, jobs=1)
        assert len(run_experiment(config).rows) == 20
    assert calls == {"pairfunc.barcodes.inversion_compound_counts": 2}


def test_a_tree_task_makes_one_forest_pass_and_builds_no_configuration(monkeypatch):
    # one merge-forest pass and one band pass per task; no configuration,
    # merge forest or barcode per replication
    calls = Counter()
    for name in ("_ancestor_indices", "inversion_compound_counts", "build_merge_forest"):
        _count_calls(monkeypatch, calls, barcodes, name)
    _count_calls(monkeypatch, calls, PointConfiguration, "__post_init__")
    _count_calls(monkeypatch, calls, barcodes.Barcode, "__post_init__")
    for model_id in ("inversion-tree", "treelog-tree"):
        config = ExperimentConfig(model=model_id, n_grid=(12.0,), reps=20, seed=3, jobs=1)
        assert len(run_experiment(config).rows) == 20
    assert calls == {"pairfunc.barcodes._ancestor_indices": 2,
                     "pairfunc.barcodes.inversion_compound_counts": 2}


def _survey_draws(model_id, n, d, seed, draws, with_admissibility):
    """Each draw of a survey as the survey's streams give it: the
    configuration and the point to insert."""
    model = get_model(model_id)
    window = checked_window(model.admissibility if with_admissibility else None, n=n, dim=d)
    for r in range(draws):
        cfg = model.sample(window, (seed, 0, r))
        rng = derive_rng(seed, 1, r)
        x = tuple(rng.uniform(0.0, 1.0, d) * np.array(window.sides))
        mark = model.mark_model.sample(rng, 1)
        yield cfg, x if mark is None else MarkedPoint(x, float(mark[0]), -1)


@pytest.mark.parametrize("batch_points", [None, 500], ids=["one-run", "runs-of-a-few-draws"])
@pytest.mark.parametrize("model_id, n, d, with_admissibility", [
    ("inversion-tree", 12.0, 2, False),
    ("inversion-tree", 12.0, 2, True),
    ("treelog-tree", 12.0, 2, False),
    ("treelog-tree", 12.0, 2, True),
    ("treelog-tree", 6.0, 3, True),
    ("treelog-uniform", 12.0, 2, True),  # a marked insertion
    ("crossing-fixed", 4.0, 3, False),
])
def test_survey_radii_are_each_draws_stabilization_radius(monkeypatch, model_id, n, d,
                                                          with_admissibility, batch_points):
    # the stacked survey gives every draw the radius that
    # empirical_stabilization_radius gives it alone; at 500 points a run takes
    # 2, 3 or 7 draws here, so 8 draws span several runs.  Seed 2 gives every
    # barcode model a radius past the floor of 1 (the fixed-radius crossing
    # stabilizes at 1)
    if batch_points is not None:
        monkeypatch.setattr(experiment, "_BATCH_POINTS", batch_points)
    survey = stabilization_survey(model_id, n, 8, 2, d=d, with_admissibility=with_admissibility)
    model = get_model(model_id)
    rule = model.admissibility if with_admissibility else None
    expected = [
        empirical_stabilization_radius(cfg, x, model, rule)
        for cfg, x in _survey_draws(model_id, n, d, 2, 8, with_admissibility)
    ]
    assert list(survey.radii) == expected
    assert max(expected) > 1 or model_id == "crossing-fixed"


def test_survey_memory_stays_flat_as_draws_grow(monkeypatch):
    # runs of 3 draws at n = 24 (about 576 points a draw): eight runs' worth
    # of draws peak within 10% of two runs'
    monkeypatch.setattr(experiment, "_BATCH_POINTS", 2000)
    stabilization_survey("treelog-tree", 24.0, 2, 5, with_admissibility=True)  # imports, caches
    peaks = []
    for runs in (2, 8):
        tracemalloc.start()
        try:
            stabilization_survey("treelog-tree", 24.0, 3 * runs, 5, with_admissibility=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
