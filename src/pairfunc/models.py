"""Model catalog: the seven named pair-functional models.

crossing-fixed | crossing-max | crossing-localized:<cap>   (double sum, k = 2)
inversion-uniform | inversion-tree                         (double sum, k = 1)
treelog-uniform | treelog-tree                             (sum-log-sum, k = 1)

Each model's context (a ``GeometricGraph`` or a ``Barcode``) answers
``changed_pairs(other)``, the pair-score diff that stabilization radii read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import barcodes, graphs
from .functionals import AdmissibilityRule, FunctionalValue, double_sum, sum_log_sum
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


def _inversion_pair_value(a: int, b: int, barcode: barcodes.Barcode) -> float:
    if a == b:
        return 0.0
    ka, kb = id_rows(barcode.owners, (a, b)).tolist()  # the scalar view serves the oracles
    return float(barcodes.inversion_score(barcode.bars[ka], barcode.bars[kb]))


def _inversion_total(barcode: barcodes.Barcode) -> float:
    return float(barcodes.inversion_count(barcode))


def _inversion_compound(barcode: barcodes.Barcode) -> np.ndarray:
    return barcodes.inversion_compound_counts(barcode.births, barcode.lifetimes)


@dataclass(frozen=True)
class Model:
    """A named model: mark distribution, the functional it feeds (double sum
    or sum-log-sum) and the kernels of its pair score on a context (a graph or
    a barcode): the score of ids a and b, the total over ordered pairs and,
    barcode models only, G of every row."""

    name: str
    functional_kind: str          # "double_sum" | "sum_log_sum"
    locality_order: int
    min_dim: int                  # smallest window dimension the context can be built in
    mark_model: MarkModel
    admissibility: AdmissibilityRule
    build_context: Callable[[PointConfiguration], Any]
    pair_value: Callable[[int, int, Any], float]
    total: Callable[[Any], float]
    locality_cutoff: float        # pairs farther apart in a local coordinate score 0
    compound_all: Callable[[Any], np.ndarray] | None = None

    def sample(self, window: Window, seed, intensity: float = 1.0) -> PointConfiguration:
        return sample_ppp(window, intensity, self.mark_model, seed)

    def evaluate(self, cfg: PointConfiguration) -> FunctionalValue:
        if self.functional_kind == "double_sum":
            return FunctionalValue("double_sum", double_sum(cfg, self))
        return sum_log_sum(cfg, self)

    def functional(self) -> Callable[[PointConfiguration], float]:
        return lambda cfg: self.evaluate(cfg).value


def _crossing_model(name: str, kernel, mark_model: MarkModel, cutoff: float) -> Model:
    def build(cfg: PointConfiguration) -> graphs.GeometricGraph:
        return graphs.build_edges(cfg, kernel, slab_cutoff=cutoff)

    return Model(
        name, "double_sum", 2, 2, mark_model, AdmissibilityRule.all(), build_context=build,
        pair_value=_crossing_pair_value, total=_crossing_total, locality_cutoff=2.0 * cutoff,
    )


def _barcode_model(name: str, cutoff: float) -> Model:
    """inversion-* feeds the double sum and treelog-* the sum-log-sum; *-uniform
    draws the lifetimes as marks and *-tree reads them off a merge forest."""
    score, _, lifetimes = name.partition("-")
    if lifetimes == "uniform":
        mark_model, min_dim = MarkModel.uniform01(), 1

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            return barcodes.uniform_lifetimes(cfg)

    else:
        mark_model, min_dim = MarkModel.none(), 2  # merge forests need a cylinder

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            forest = barcodes.build_merge_forest(cfg, cylinder_radius=cutoff)
            return barcodes.elder_lifetimes(forest)

    if score == "treelog":
        functional_kind, rule = "sum_log_sum", AdmissibilityRule.tree_realization()
    else:
        functional_kind, rule = "double_sum", AdmissibilityRule.all()
    return Model(
        name, functional_kind, 1, min_dim, mark_model, rule, build_context=build,
        pair_value=_inversion_pair_value, total=_inversion_total,
        locality_cutoff=1.0, compound_all=_inversion_compound,
    )


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
    if base in MODEL_NAMES:  # the barcode models are left
        return _barcode_model(model_id, cutoff)
    raise ValueError(f"unknown model id {model_id!r}")
