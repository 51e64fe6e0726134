"""The task driver of ``run_experiment``: a task is a grid cell, one of
``jobs`` chunks of it, or a run of about ``_BATCH_POINTS`` expected points,
and a barcode model evaluates a task's replications in one band pass."""
import concurrent.futures
import tracemalloc

import pytest

from pairfunc import experiment
from pairfunc.experiment import ExperimentConfig, run_experiment, write_outputs
from pairfunc.functionals import evaluate_all
from pairfunc.geometry import Window
from pairfunc.models import get_model
from pairfunc.process import PointConfiguration


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
    # the graph models take each context's total(), the barcode models one
    # band pass; the empty configuration is a group of no bars between two others
    model = get_model(model_id)
    cfgs = [model.sample(Window(n=n, dim=2), (3, 0, k)) for k, n in enumerate((6.0, 7.0, 5.0))]
    cfgs.insert(1, PointConfiguration(Window(n=6.0, dim=2), model.mark_model, ()))
    assert evaluate_all(cfgs, model) == [model.evaluate(cfg) for cfg in cfgs]
    assert evaluate_all([], model) == []


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
