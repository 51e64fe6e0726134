"""Model catalog: the seven named pair-functional models.

crossing-fixed | crossing-max | crossing-localized:<cap>   (double sum, k = 2)
inversion-uniform | inversion-tree                         (double sum, k = 1)
treelog-uniform | treelog-tree                             (sum-log-sum, k = 1)

A model holds no kernel code.  Its context (a ``GeometricGraph`` or a
``Barcode``) answers ``total()``, the pair score summed over ordered pairs,
and ``changed_pairs(other)``, the pair-score diff that stabilization radii
read; the functionals take G of barcodes from their columns.  Every model
also gives G of a whole column stack at once, and a barcode model its
lifetimes: one crossing pass or one band pass per stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import barcodes, graphs
from .functionals import AdmissibilityRule, FunctionalValue, double_sum, sum_log_sum
from .process import MarkModel, PointConfiguration, sample_ppp
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


@dataclass(frozen=True)
class Model:
    """A named model: mark distribution, the functional it feeds (double sum
    or sum-log-sum), its admissibility rule and the builder of its context (a
    graph or a barcode), which answers every query of the pair score.
    ``stack_scores(positions, marks, bounds)`` gives the compound scores G of
    every row of a column stack (``process.sample_stack``) and the rows' bar
    lifetimes (None for a graph model), each as one column."""

    name: str
    functional_kind: str          # "double_sum" | "sum_log_sum"
    min_dim: int                  # smallest window dimension the context can be built in
    mark_model: MarkModel
    admissibility: AdmissibilityRule
    build_context: Callable[[PointConfiguration], Any]
    stack_scores: Callable[..., tuple[Any, Any]]

    def sample(self, window: Window, seed) -> PointConfiguration:
        return sample_ppp(window, 1.0, self.mark_model, seed)

    def evaluate(self, cfg: PointConfiguration) -> FunctionalValue:
        if self.functional_kind == "double_sum":
            return FunctionalValue("double_sum", double_sum(cfg, self))
        return sum_log_sum(cfg, self)

    def functional(self) -> Callable[[PointConfiguration], float]:
        return lambda cfg: self.evaluate(cfg).value


def _crossing_model(name: str, kernel, mark_model: MarkModel, cutoff: float) -> Model:
    def build(cfg: PointConfiguration) -> graphs.GeometricGraph:
        return graphs.build_edges(cfg, kernel, slab_cutoff=cutoff)

    def stack(positions, marks, bounds):
        return graphs.stack_compound_scores(positions, marks, bounds, kernel, cutoff), None

    return Model(name, "double_sum", 2, mark_model, AdmissibilityRule.all(), build, stack)


def _barcode_model(name: str, cutoff: float) -> Model:
    """inversion-* feeds the double sum and treelog-* the sum-log-sum; *-uniform
    draws the lifetimes as marks and *-tree reads them off a merge forest."""
    score, _, lifetimes = name.partition("-")
    if lifetimes == "uniform":
        mark_model, min_dim = MarkModel.uniform01(), 1

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            return barcodes.uniform_lifetimes(cfg)

        def stack(positions, marks, bounds):
            return barcodes.inversion_compound_counts(positions[:, 0], marks, bounds), marks

    else:
        mark_model, min_dim = MarkModel.none(), 2  # merge forests need a cylinder

        def build(cfg: PointConfiguration) -> barcodes.Barcode:
            forest = barcodes.build_merge_forest(cfg, cylinder_radius=cutoff)
            return barcodes.elder_lifetimes(forest)

        def stack(positions, marks, bounds):
            life = barcodes.stacked_elder_lifetimes(positions, bounds, cutoff)
            return barcodes.inversion_compound_counts(positions[:, 0], life, bounds), life

    if score == "treelog":
        functional_kind, rule = "sum_log_sum", AdmissibilityRule.tree_realization()
    else:
        functional_kind, rule = "double_sum", AdmissibilityRule.all()
    return Model(name, functional_kind, min_dim, mark_model, rule, build, stack)


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
