"""Self-tests of the benchmark: its output checks, its tracer and its contract.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import digest_check, independent_check, output_digests  # noqa: E402
from layer_table import DENSE_CAP_BYTES, dense_bytes  # noqa: E402
from speed import KERNEL_NOMINAL_S, SpeedSampler, kernel  # noqa: E402
from tracing import _TARGETS, PER_LAYER, Tracer, durations, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_round  # noqa: E402


@pytest.fixture(scope="module")
def uniform_round():
    return run_round(WORKLOADS["mc-uniform"], DEFAULT_SEED, 0)[0]


@pytest.fixture(scope="module")
def survey_round():
    return run_round(WORKLOADS["stabilization"], DEFAULT_SEED, 0)[0]


def _perturb_value(record):
    row = record.rows[0]
    return dataclasses.replace(record, rows=(dataclasses.replace(row, value=row.value + 1.0),) + record.rows[1:])


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["reps_per_s", "setup_s", "peak_rss_mb"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_checks_accept_the_seed_commit_outputs(uniform_round, survey_round):
    for name, results in (("mc-uniform", uniform_round), ("stabilization", survey_round)):
        workload = WORKLOADS[name]
        assert independent_check(workload, DEFAULT_SEED, results) == []
        assert digest_check(workload, output_digests(workload, results)) == []


def test_checks_reject_a_perturbed_results_file(uniform_round):
    workload = WORKLOADS["mc-uniform"]
    results = [_perturb_value(uniform_round[0])] + uniform_round[1:]
    problems = digest_check(workload, output_digests(workload, results))
    assert problems == ["inversion-uniform/results.csv: digest differs from the seed commit"]
    assert len(independent_check(workload, DEFAULT_SEED, results)) == 1


def test_checks_reject_a_perturbed_radius(survey_round):
    workload = WORKLOADS["stabilization"]
    survey = survey_round[0]
    bumped = dataclasses.replace(survey, radii=(survey.radii[0] + 1,) + survey.radii[1:])
    results = [bumped] + survey_round[1:]
    assert digest_check(workload, output_digests(workload, results)) == [
        "inversion-tree/radii: digest differs from the seed commit"
    ]
    assert len(independent_check(workload, DEFAULT_SEED, results)) == 1


@pytest.mark.parametrize("name", ["mc-tree", "mc-crossing"])
def test_independent_check_agrees_on_another_seed(name):
    workload = WORKLOADS[name]
    results, failed = run_round(workload, 7, 0)
    assert failed == 0
    assert independent_check(workload, 7, results) == []


@pytest.mark.parametrize("name", ["mc-uniform", "stabilization"])
def test_traced_and_untraced_runs_write_identical_outputs(name):
    workload = WORKLOADS[name]
    untraced, _ = run_round(workload, 3, 1)
    originals = [getattr(owner, attr) for owner, attr, *_ in _TARGETS]
    with Tracer() as tracer:
        traced, _ = run_round(workload, 3, 1)
    assert [getattr(owner, attr) for owner, attr, *_ in _TARGETS] == originals
    assert output_digests(workload, traced) == output_digests(workload, untraced)
    metrics = layer_metrics(tracer, traced_wall=1.0, overhead_frac=0.0)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    samples = sum(1 for span in tracer.spans if span[0] == "process.sample_ppp")
    assert metrics["process.sample_ppp.calls"]["value"] == samples > 0


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    busy, own = durations(spans)
    assert busy == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_speed_sampler_scales_program_time_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with SpeedSampler() as speed:
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.kernel_s) >= 5
    assert speed.work_s + sum(speed.kernel_s) == pytest.approx(wall, abs=0.01)
    # each stretch is scaled by nominal over a median of recent kernel times
    slowest, fastest = max(speed.kernel_s), min(speed.kernel_s)
    assert KERNEL_NOMINAL_S / slowest <= speed.scale <= KERNEL_NOMINAL_S / fastest


def test_speed_kernel_is_near_its_nominal_time():
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    # loose: a shared machine can be a few times slower, never 10x faster
    assert KERNEL_NOMINAL_S / 10 < min(times) < KERNEL_NOMINAL_S * 10


def test_layer_table_never_attempts_a_cell_over_the_memory_cap():
    assert dense_bytes("crossing-fixed", 128.0) > DENSE_CAP_BYTES
    assert dense_bytes("crossing-fixed", 64.0) > DENSE_CAP_BYTES
    assert dense_bytes("inversion-tree", 64.0) <= DENSE_CAP_BYTES
    assert dense_bytes("treelog-uniform", 128.0) == 0.0


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
