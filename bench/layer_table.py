"""The per-(model, n) layer table, taken in the traced run.

For every model at n in {16, 32, 64, 128} (d = 2) one replication is sampled
and evaluated under the tracer, and its spans give sample / build / reduce
time: build is the context builder (``graphs.build_edges`` or the barcode
builders), reduce the rest of ``Model.evaluate``.  A cell whose dense N x N
allocation is predicted above ``DENSE_CAP_BYTES``, or whose time predicted from
the previous n exceeds ``CELL_BUDGET_S``, is recorded as skipped and never
attempted, so that the shared machine cannot run out of memory.  Rows for the
E8 survey shapes (insert / rebuild / diff) and for aggregation on the E2 grid
follow, so that every traced layer is exercised on every workload.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import replace

from pairfunc.geometry import Window
from pairfunc.models import get_model

from tracing import Tracer, durations
from workloads import E2_GRID, WORKLOADS, Call, round_seed, run_call

TABLE_MODELS = (
    "inversion-uniform", "treelog-uniform", "inversion-tree", "treelog-tree",
    "crossing-fixed", "crossing-max", "crossing-localized:4", "crossing-localized:16",
)
TABLE_N = (16.0, 32.0, 64.0, 128.0)
CELL_BUDGET_S = 5.0
DENSE_CAP_BYTES = 192 * 2**20
BUILD_SPANS = (
    "graphs.build_edges", "barcodes.uniform_lifetimes",
    "barcodes.build_merge_forest", "barcodes.elder_lifetimes",
)


def dense_bytes(model_id: str, n: float, d: int = 2) -> float:
    """Largest N x N array the model's context builder allocates at N = n^d."""
    N = n**d
    if model_id.startswith("crossing"):
        return N * N * d * 8  # graphs.build_edges: all pairwise differences
    if model_id.endswith("tree"):
        return N * N * (d - 1) * 8  # barcodes._ancestor_indices: cylinder differences
    return 0.0  # uniform lifetimes need no N x N array


def _cells(tracer: Tracer, seed: int) -> tuple[list[dict], int, int]:
    rows, ops, failed = [], 0, 0
    for model_id in TABLE_MODELS:
        model = get_model(model_id)
        last = None  # (n, seconds) of the previous cell that ran
        for n in TABLE_N:
            row = {"model": model_id, "n": n}
            rows.append(row)
            predicted = None if last is None else last[1] * (n / last[0]) ** 4
            if dense_bytes(model_id, n) > DENSE_CAP_BYTES:
                row["skipped"] = f"dense allocation {dense_bytes(model_id, n) / 2**20:.0f} MiB"
                continue
            if predicted is not None and predicted > CELL_BUDGET_S:
                row["skipped"] = f"predicted {predicted:.1f} s"
                continue
            ops += 1
            first = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                cfg = model.sample(Window(n=n), (round_seed(seed, -2), 0, int(n)))
                model.evaluate(cfg)
            except Exception:
                traceback.print_exc()
                row["failed"] = True
                failed += 1
                continue
            last = (n, time.perf_counter() - t0)
            busy, _ = durations(tracer.spans, first)
            build = sum(busy[b] for b in BUILD_SPANS)
            evaluate = busy["models.evaluate." + model_id.replace(":", "-")]
            row.update(
                points=len(cfg),
                sample_ms=1e3 * busy["process.sample_ppp"],
                build_ms=1e3 * build,
                reduce_ms=1e3 * (evaluate - build),
            )
    return rows, ops, failed


def _traced_call(tracer: Tracer, call: Call, seed: int):
    """Run one call under ``tracer``; busy and self time of its spans."""
    first = len(tracer.spans)
    run_call(call, seed)
    return durations(tracer.spans, first)


def run_table(tracer: Tracer, seed: int) -> tuple[dict, int, int]:
    """Run the table under ``tracer``; returns (table, ops attempted, failed)."""
    cells, ops, failed = _cells(tracer, seed)
    s = round_seed(seed, -2)
    surveys = []
    for call in WORKLOADS["stabilization"].calls:
        call = replace(call, reps=2)
        busy, _ = _traced_call(tracer, call, s)
        surveys.append({
            "model": call.model, "n": call.n_grid[0], "d": call.d, "draws": call.reps,
            "insert_ms": 1e3 * busy["process.insert_point"],
            "rebuild_ms": 1e3 * sum(busy[b] for b in BUILD_SPANS),
            "diff_ms": 1e3 * busy["functionals.changed_pairs"],
            "total_ms": 1e3 * busy["experiment.stabilization_survey"],
        })
        ops += call.ops
    call = Call("treelog-uniform", E2_GRID, 4)
    busy, own = _traced_call(tracer, call, s)
    top_stats = [v for k, v in busy.items() if k.startswith("stats.") and k != "stats.loglinear_fit"]
    aggregation = {
        "model": call.model, "n_grid": list(call.n_grid), "reps": call.reps,
        "sample_ms": 1e3 * busy["process.sample_ppp"],
        "evaluate_ms": 1e3 * sum(v for k, v in busy.items() if k.startswith("models.evaluate.")),
        "aggregate_ms": 1e3 * (own["experiment.run_experiment"] + sum(top_stats)),
        "total_ms": 1e3 * busy["experiment.run_experiment"],
    }
    ops += call.ops
    return {"cells": cells, "surveys": surveys, "aggregation": aggregation}, ops, failed


def markdown(table: dict) -> str:
    """The cells in the shape of the ROADMAP baseline table: sample / build /
    reduce in ms per replication, or why the cell was skipped."""
    lines = ["| model | " + " | ".join(f"n={n:g}" for n in TABLE_N) + " |",
             "| --- |" + " --- |" * len(TABLE_N)]
    for model_id in TABLE_MODELS:
        cells = []
        for row in table["cells"]:
            if row["model"] != model_id:
                continue
            if "skipped" in row:
                cells.append("skipped: " + row["skipped"])
            elif row.get("failed"):
                cells.append("failed")
            else:
                cells.append(f"{row['sample_ms']:.0f} / {row['build_ms']:.0f} / {row['reduce_ms']:.0f}")
        lines.append(f"| {model_id} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
