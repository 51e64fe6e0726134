"""Model catalog: the seven named pair-functional models.

crossing-fixed | crossing-max | crossing-localized:<cap>   (double sum, k = 2)
inversion-uniform | inversion-tree                         (double sum, k = 1)
treelog-uniform | treelog-tree                             (sum-log-sum, k = 1)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import barcodes, graphs
from .functionals import (
    AdmissibilityRule,
    BarPairSnapshot,
    FunctionalValue,
    PairScore,
    SparsePairSnapshot,
    double_sum,
    sum_log_sum,
)
from .process import MarkModel, PointConfiguration, id_rows, sample_ppp
from .geometry import Window

__all__ = ["Model", "get_model", "MODEL_NAMES"]

MODEL_NAMES = (
    "crossing-fixed",
    "crossing-max",
    "crossing-localized",
    "inversion-uniform",
    "inversion-tree",
    "treelog-uniform",
    "treelog-tree",
)


def _crossing_pair_value(a: int, b: int, graph: graphs.GeometricGraph) -> float:
    if a == b:
        return 0.0
    key = (min(a, b), max(a, b))
    return graph.pair_scores.get(key, 0) / 8.0


def _crossing_total(graph: graphs.GeometricGraph) -> float:
    return float(graphs.crossing_number(graph))


def _crossing_snapshot(graph: graphs.GeometricGraph) -> SparsePairSnapshot:
    # the integer counts themselves: x / 8 != y / 8 exactly when x != y
    return SparsePairSnapshot(graph.pair_scores, graph.cfg.ids)


def _inversion_pair_value(a: int, b: int, barcode: barcodes.Barcode) -> float:
    if a == b:
        return 0.0
    ka, kb = id_rows(barcode.owners, (a, b)).tolist()  # the scalar view serves the oracles
    return float(barcodes.inversion_score(barcode.bars[ka], barcode.bars[kb]))


def _inversion_total(barcode: barcodes.Barcode) -> float:
    return float(barcodes.inversion_count(barcode))


def _inversion_compound(barcode: barcodes.Barcode) -> np.ndarray:
    return barcodes.inversion_compound_counts(barcode.births, barcode.lifetimes)


def _inversion_snapshot(barcode: barcodes.Barcode) -> BarPairSnapshot:
    return BarPairSnapshot(barcode.owners, barcode.births, barcode.lifetimes)


@dataclass(frozen=True)
class Model:
    """A named model: mark distribution, context builder, pair score, and the
    functional it feeds (double sum or sum-log-sum)."""

    name: str
    functional_kind: str          # "double_sum" | "sum_log_sum"
    locality_order: int
    min_dim: int                  # smallest window dimension the context can be built in
    mark_model: MarkModel
    score: PairScore
    admissibility: AdmissibilityRule

    def sample(self, window: Window, seed, intensity: float = 1.0) -> PointConfiguration:
        return sample_ppp(window, intensity, self.mark_model, seed)

    def evaluate(self, cfg: PointConfiguration) -> FunctionalValue:
        if self.functional_kind == "double_sum":
            return FunctionalValue("double_sum", double_sum(cfg, self.score))
        return sum_log_sum(cfg, self.score, self.admissibility)

    def functional(self) -> Callable[[PointConfiguration], float]:
        return lambda cfg: self.evaluate(cfg).value


def _crossing_model(name: str, kernel, mark_model: MarkModel, cutoff: float) -> Model:
    def build(cfg: PointConfiguration) -> graphs.GeometricGraph:
        return graphs.build_edges(cfg, kernel, slab_cutoff=cutoff)

    score = PairScore(
        name=name,
        locality_cutoff=2.0 * cutoff,
        build_context=build,
        pair_value=_crossing_pair_value,
        integer_valued=False,  # ordered form carries the 1/8 weight
        total=_crossing_total,
        snapshot=_crossing_snapshot,
    )
    return Model(name, "double_sum", 2, 2, mark_model, score, AdmissibilityRule.all())


def _barcode_model(name: str, lifetime_model: str, functional_kind: str, cutoff: float) -> Model:
    if lifetime_model == "uniform":
        mark_model = MarkModel.uniform01()

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            return barcodes.uniform_lifetimes(cfg)

    else:
        mark_model = MarkModel.none()

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            forest = barcodes.build_merge_forest(cfg, cylinder_radius=cutoff)
            return barcodes.elder_lifetimes(forest)

    score = PairScore(
        name=name,
        locality_cutoff=1.0,
        build_context=build,
        pair_value=_inversion_pair_value,
        integer_valued=True,
        total=_inversion_total,
        compound_all=_inversion_compound,
        snapshot=_inversion_snapshot,
    )
    rule = (
        AdmissibilityRule.tree_realization()
        if functional_kind == "sum_log_sum"
        else AdmissibilityRule.all()
    )
    min_dim = 1 if lifetime_model == "uniform" else 2  # merge forests need a cylinder
    return Model(name, functional_kind, 1, min_dim, mark_model, score, rule)


def get_model(model_id: str, cutoff: float = 1.0) -> Model:
    """Resolve a model id; crossing-localized alone takes a ':<cap>' suffix."""
    base = model_id.partition(":")[0]
    if base == "crossing-localized":
        kernel = graphs.Localized(graphs.parse_cap(model_id, base))
        return _crossing_model(model_id, kernel, MarkModel.exponential(1.0), cutoff)
    if base in MODEL_NAMES and model_id != base:
        raise ValueError(f"model {base} takes no ':' suffix, got {model_id!r}")
    if base == "crossing-fixed":
        return _crossing_model(model_id, graphs.FixedRadius(1.0), MarkModel.none(), cutoff)
    if base == "crossing-max":
        return _crossing_model(model_id, graphs.MaxKernel(), MarkModel.exponential(1.0), cutoff)
    if base == "inversion-uniform":
        return _barcode_model(model_id, "uniform", "double_sum", cutoff)
    if base == "inversion-tree":
        return _barcode_model(model_id, "tree", "double_sum", cutoff)
    if base == "treelog-uniform":
        return _barcode_model(model_id, "uniform", "sum_log_sum", cutoff)
    if base == "treelog-tree":
        return _barcode_model(model_id, "tree", "sum_log_sum", cutoff)
    raise ValueError(f"unknown model id {model_id!r}")
