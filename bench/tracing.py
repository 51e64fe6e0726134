"""Span recorder for the traced run, attached from outside the library.

``Tracer`` rebinds the module and class attributes that the library's callers
look up at call time (``pairfunc.models.sample_ppp``,
``pairfunc.graphs.build_edges``, ``AdmissibilityRule.mask``, ...) to wrappers
that record a span per call: name, start, end and parent.  Spans and counts
stay in memory; ``dump`` writes them out when the run ends.  Leaving the
``with`` block restores every original attribute.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from pairfunc import barcodes, experiment, functionals, graphs, models, stats
from pairfunc.functionals import AdmissibilityRule, BarPairSnapshot, SparsePairSnapshot
from pairfunc.models import Model

# Every model id a traced run evaluates (the workloads and the layer table),
# with ':' mapped to '-' as in the metric names.
EVALUATED_MODELS = (
    "inversion-uniform", "treelog-uniform", "inversion-tree", "treelog-tree",
    "crossing-fixed", "crossing-max", "crossing-localized-4", "crossing-localized-16",
)

PER_LAYER = (
    ("process.sample_ppp.busy_s", "s"),
    ("process.sample_ppp.calls", "count"),
    ("process.points", "count"),
    ("process.insert_point.busy_s", "s"),
    ("graphs.build_edges.busy_s", "s"),
    ("graphs.crossing_number.busy_s", "s"),
    ("graphs.crossing_pair_scores.busy_s", "s"),
    ("graphs.edges", "count"),
    ("graphs.segments_retained", "count"),
    ("graphs.candidate_pairs", "count"),
    ("graphs.crossings", "count"),
    ("graphs.crossing_yield", "ratio"),
    ("barcodes.uniform_lifetimes.busy_s", "s"),
    ("barcodes.build_merge_forest.busy_s", "s"),
    ("barcodes.elder_lifetimes.busy_s", "s"),
    ("barcodes.inversion_count.busy_s", "s"),
    ("barcodes.inversion_compound_counts.busy_s", "s"),
    ("barcodes.bars", "count"),
    ("barcodes.bars_admissible", "count"),
    ("barcodes.merge_points", "count"),
    ("functionals.double_sum.self_s", "s"),
    ("functionals.sum_log_sum.self_s", "s"),
    ("functionals.mask.busy_s", "s"),
    ("functionals.empirical_stabilization_radius.self_s", "s"),
    ("functionals.changed_pairs.busy_s", "s"),
    ("functionals.changed_pairs", "count"),
    ("functionals.admissible", "count"),
    ("functionals.dropped_zero_g", "count"),
    *((f"models.evaluate.{m}.busy_s", "s") for m in EVALUATED_MODELS),
    ("stats.busy_s", "s"),
    ("stats.calls", "count"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.stabilization_survey.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _count_sample(c, cfg, args):
    c["process.points"] += len(cfg)


def _count_graph(c, graph, args):
    c["graphs.edges"] += len(graph.edges)
    c["graphs.segments_retained"] += sum(graph.retained)


def _candidates(c, graph) -> None:
    s = sum(graph.retained)
    c["graphs.candidate_pairs"] += s * (s - 1) // 2


def _count_crossing_number(c, crossings, args):
    _candidates(c, args[0])
    c["graphs.crossings"] += crossings


def _count_pair_scores(c, scores, args):
    _candidates(c, args[0])
    c["graphs.crossings"] += sum(scores.values()) // 4  # 2 x 2 endpoint pairs per crossing


def _count_bars(c, barcode, args):
    c["barcodes.bars"] += len(barcode)
    c["barcodes.bars_admissible"] += sum(1 for b in barcode.bars if 0.0 < b.lifetime < 1.0)


def _count_forest(c, forest, args):
    c["barcodes.merge_points"] += len(forest.merge_points)


def _count_sum_log_sum(c, value, args):
    c["functionals.admissible"] += value.admissible_count
    c["functionals.dropped_zero_g"] += value.dropped_zero_g


def _count_changed(c, pairs, args):
    c["functionals.changed_pairs"] += len(pairs)


def _evaluate_name(args) -> str:
    return "models.evaluate." + args[0].name.replace(":", "-")


# (owner, attribute, span name or name function, counter, consume generator)
_TARGETS = (
    (models, "sample_ppp", "process.sample_ppp", _count_sample, False),
    (functionals, "insert_point", "process.insert_point", None, False),
    (graphs, "build_edges", "graphs.build_edges", _count_graph, False),
    (graphs, "crossing_number", "graphs.crossing_number", _count_crossing_number, False),
    (graphs, "crossing_pair_scores", "graphs.crossing_pair_scores", _count_pair_scores, False),
    (barcodes, "uniform_lifetimes", "barcodes.uniform_lifetimes", _count_bars, False),
    (barcodes, "build_merge_forest", "barcodes.build_merge_forest", _count_forest, False),
    (barcodes, "elder_lifetimes", "barcodes.elder_lifetimes", _count_bars, False),
    (barcodes, "inversion_count", "barcodes.inversion_count", None, False),
    (barcodes, "inversion_compound_counts", "barcodes.inversion_compound_counts", None, False),
    (models, "double_sum", "functionals.double_sum", None, False),
    (models, "sum_log_sum", "functionals.sum_log_sum", _count_sum_log_sum, False),
    (AdmissibilityRule, "mask", "functionals.mask", None, False),
    (functionals, "empirical_stabilization_radius",
     "functionals.empirical_stabilization_radius", None, False),
    (SparsePairSnapshot, "changed_pairs", "functionals.changed_pairs", _count_changed, True),
    (BarPairSnapshot, "changed_pairs", "functionals.changed_pairs", _count_changed, True),
    (Model, "evaluate", _evaluate_name, None, False),
    (experiment, "summarize_sample", "stats.summarize_sample", None, False),
    (experiment, "wasserstein1_to_standard_normal", "stats.wasserstein1", None, False),
    (experiment, "kolmogorov_to_standard_normal", "stats.kolmogorov", None, False),
    (experiment, "variance_scaling_fit", "stats.variance_scaling_fit", None, False),
    (stats, "loglinear_fit", "stats.loglinear_fit", None, False),
    (experiment, "run_experiment", "experiment.run_experiment", None, False),
    (experiment, "stabilization_survey", "experiment.stabilization_survey", None, False),
)


class Tracer:
    """Records spans ``[name, start, end, parent index]`` and counts while
    installed as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count, consume):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:  # a generator does its work while it is consumed
                    result = list(result)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, result, args)
            return iter(result) if consume else result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count, consume in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count, consume))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}) + "\n")


def durations(spans: list[list], first: int = 0) -> tuple[Counter, Counter]:
    """Busy time and self time per span name over ``spans[first:]``.  Self time
    is a span's duration minus that of its direct children; calls are
    sequential, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans[first:]:
        if parent >= 0:
            child[parent] += end - start
    busy, own = Counter(), Counter()
    for k in range(first, len(spans)):
        name, start, end, _ = spans[k]
        busy[name] += end - start
        own[name] += end - start - child[k]
    return busy, own


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_frac: float) -> dict:
    """Every ``PER_LAYER`` metric over all spans the tracer recorded in
    ``traced_wall`` seconds.  ``overhead_frac`` is measured by the caller."""
    spans = tracer.spans
    busy, own = durations(spans)
    c = tracer.counts
    is_stats = [s[0].startswith("stats.") for s in spans]
    values = {
        "process.sample_ppp.calls": sum(1 for s in spans if s[0] == "process.sample_ppp"),
        "graphs.crossing_yield": c["graphs.crossings"] / c["graphs.candidate_pairs"]
        if c["graphs.candidate_pairs"] else 0.0,
        "stats.busy_s": sum(
            s[2] - s[1] for k, s in enumerate(spans)
            if is_stats[k] and not (s[3] >= 0 and is_stats[s[3]])
        ),
        "stats.calls": sum(is_stats),
        "trace.coverage": sum(s[2] - s[1] for s in spans if s[3] < 0) / traced_wall,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".busy_s"):
            value = busy[name[: -len(".busy_s")]]
        elif name.endswith(".self_s"):
            value = own[name[: -len(".self_s")]]
        else:
            value = c[name]
        out[name] = {"value": value, "unit": unit}
    return out
