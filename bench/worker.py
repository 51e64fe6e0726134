"""One benchmark process: set-up, then the timed or the traced phase, then the
output checks.  ``run.py`` starts it in a fresh interpreter, so that set-up
time and peak memory belong to one workload alone.

Protocol on standard output: ``READY <json>`` once set-up is done, then
``RESULT <json>`` at the end.  Everything else goes to standard error.

    python3 bench/worker.py --workload mc-uniform --seed 1 --seconds 10 --trace 0
    python3 bench/worker.py --workload mc-uniform --setup-only
    python3 bench/worker.py --record-digests
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler

SETUP_SPEED = SpeedSampler().__enter__()  # sampled until READY

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import pairfunc  # noqa: E402,F401  (set-up covers the library import)
from checks import DIGESTS, RESULTS, digest_check, independent_check, output_digests  # noqa: E402
from layer_table import markdown, run_table  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, run_round, warm_up  # noqa: E402

FIXED_ROUNDS = 5  # peak memory is the largest input's; more rounds steady that maximum


def check_outputs(workload: Workload, seed: int, first: list) -> list[str]:
    """Independent recomputation of round 0 and, for the default seed, its
    output digests against the seed commit's."""
    if any(r is None for r in first):
        return []  # the failed call is already counted
    try:
        problems = independent_check(workload, seed, first)
        if seed == DEFAULT_SEED:
            problems += digest_check(workload, output_digests(workload, first))
    except Exception:
        traceback.print_exc()
        problems = ["output check raised"]
    return problems


def timed_phase(workload: Workload, seed: int, seconds: float) -> dict:
    """Closed loop of rounds until ``seconds`` have passed, and at least
    ``FIXED_ROUNDS``.  ``reps_per_s`` is the ops of the rounds that completed
    without a failure over their time scaled to the reference speed
    (``speed.py``); ``reps_per_s_wall`` is the same over their wall time.
    ``peak_rss_mb`` is read after ``FIXED_ROUNDS`` rounds, so that it covers
    the same work on a fast and a slow machine."""
    round_s, scaled_s, ops, failed, first, peak_rss_mb = [], [], 0, 0, None, None
    start = time.perf_counter()
    r = 0
    while r < FIXED_ROUNDS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with SpeedSampler() as speed:
            results, round_failed = run_round(workload, seed, r)
        elapsed = time.perf_counter() - t0
        if r == 0:
            first = results
        if not round_failed:
            round_s.append(elapsed)
            scaled_s.append(speed.scaled_s)
        ops += workload.ops_per_round
        failed += round_failed
        r += 1
        if r == FIXED_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(workload, seed, first)
    return {
        "ops": ops,
        "ops_failed": failed + len(problems),
        "problems": problems,
        "round_s": round_s,
        "round_scaled_s": scaled_s,
        "reps_per_s": len(scaled_s) * workload.ops_per_round / sum(scaled_s) if scaled_s else 0.0,
        "reps_per_s_wall": len(round_s) * workload.ops_per_round / sum(round_s) if round_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_phase(workload: Workload, seed: int) -> dict:
    """Each of the workload's fixed trace rounds untraced and then traced, then
    the layer table, traced.  Both passes of a round must write identical
    outputs; their times at the reference speed give the tracing overhead, and
    alternating them keeps the machine's drift out of that ratio.  The speed
    samples of the traced pass (about 2%) fall inside its spans."""
    k = workload.trace_rounds
    tracer = Tracer()
    untraced, traced, untraced_scaled, traced_scaled, traced_wall = [], [], 0.0, 0.0, 0.0
    for r in range(k):
        with SpeedSampler() as speed:
            untraced.append(run_round(workload, seed, r))
        untraced_scaled += speed.scaled_s
        t0 = time.perf_counter()
        with SpeedSampler() as speed, tracer:
            traced.append(run_round(workload, seed, r))
        traced_wall += time.perf_counter() - t0
        traced_scaled += speed.scaled_s
    t0 = time.perf_counter()
    with tracer:
        table, table_ops, table_failed = run_table(tracer, seed)
    traced_wall += time.perf_counter() - t0
    ops = 2 * k * workload.ops_per_round
    failed = sum(f for _, f in untraced + traced) + table_failed
    problems = check_outputs(workload, seed, traced[0][0])
    for r, ((a, _), (b, _)) in enumerate(zip(untraced, traced)):
        if None not in a + b and output_digests(workload, a) != output_digests(workload, b):
            problems.append(f"round {r}: traced and untraced outputs differ")
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"spans-{workload.name}-seed{seed}.json")
    return {
        "ops": ops + table_ops,
        "ops_failed": failed + len(problems),
        "problems": problems,
        "metrics": layer_metrics(tracer, traced_wall, traced_scaled / untraced_scaled - 1.0),
        "layer_table": table,
        "layer_table_md": markdown(table),
    }


def record_digests() -> None:
    """Write ``digests.json`` from round 0 of every workload at the default
    seed.  Run this only at a commit whose outputs are the reference."""
    digests = {}
    for workload in WORKLOADS.values():
        results, failed = run_round(workload, DEFAULT_SEED, 0)
        if failed:
            raise SystemExit(f"{workload.name}: a call failed; no digests written")
        digests[workload.name] = output_digests(workload, results)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        SETUP_SPEED.__exit__(None, None, None)
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    warm_up(workload, args.seed)
    SETUP_SPEED.__exit__(None, None, None)
    ready = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_scale": SETUP_SPEED.scale,
    }
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_phase(workload, args.seed)
    else:
        result = timed_phase(workload, args.seed, args.seconds)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
