"""Generic pair functionals: double sums, compound scores, sum-log-sums,
difference operators and empirical stabilization radii.

Each functional takes a ``pairfunc.models.Model`` and asks the context it
builds (a graph or a barcode): ``total()`` is the double sum, and the
compound scores G of one or more barcodes come from one band pass over their
stacked columns.  Stabilization diffs two contexts with the context's own
``changed_pairs``.  Difference operators recompute the model from scratch on
augmented configurations; correctness first, desk-scale inputs keep that cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import barcodes
from .graphs import GeometricGraph
from .process import MarkedPoint, PointConfiguration, _stacked_configurations, id_rows, insert_point

if TYPE_CHECKING:
    from .models import Model

__all__ = [
    "AdmissibilityRule",
    "FunctionalValue",
    "double_sum",
    "compound_score",
    "sum_log_sum",
    "diff_first",
    "diff_second",
    "empirical_stabilization_radius",
]

# The names under which bench/tracing.py imports the two contexts to wrap
# their pair-score diffs; they go when the tracer no longer imports them.
SparsePairSnapshot, BarPairSnapshot = GeometricGraph, barcodes.Barcode


@dataclass(frozen=True)
class AdmissibilityRule:
    """Which points enter the sum-log-sum: everything, or (for tree
    realization) points inside the shrunk window with a lifetime in (0, 1)."""

    kind: str = "all"  # "all" | "tree_realization"

    @classmethod
    def all(cls) -> "AdmissibilityRule":
        return cls("all")

    @classmethod
    def tree_realization(cls) -> "AdmissibilityRule":
        return cls("tree_realization")

    def mask(self, window, positions: np.ndarray, lifetimes: np.ndarray) -> np.ndarray:
        """Admissibility of every row of a column store in ``window`` (one
        configuration, or a stack of them): a boolean (N,) array.  The
        tree-realization rule reads the rows' barcode lifetimes."""
        if self.kind == "all":
            return np.ones(len(positions), dtype=bool)
        return window.shrunk().mask(positions) & (lifetimes > 0.0) & (lifetimes < 1.0)


@dataclass(frozen=True)
class FunctionalValue:
    """Evaluated functional: a double sum, or a sum-log-sum with its product
    materialized only on demand (log space first)."""

    kind: str  # "double_sum" | "sum_log_sum"
    value: float
    admissible_count: int | None = None
    dropped_zero_g: int | None = None

    def product_mantissa_exponent(self) -> tuple[float, int]:
        if self.kind != "sum_log_sum":
            raise ValueError("product only defined for sum-log-sum values")
        log10 = self.value / math.log(10.0)
        exp = math.floor(log10)
        return 10.0 ** (log10 - exp), int(exp)

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "admissible_count": self.admissible_count,
            "dropped_zero_g": self.dropped_zero_g,
        }


def double_sum(cfg: PointConfiguration, model: Model) -> float:
    """Sum of the pair score over ordered pairs of configuration points."""
    return float(model.build_context(cfg).total())


def _compound(ctx) -> np.ndarray:
    """G of every bar of a barcode context; a ValueError for any other context."""
    if not isinstance(ctx, barcodes.Barcode):
        raise ValueError("a context other than a barcode provides no compound scores")
    return barcodes.inversion_compound_counts(ctx.births, ctx.lifetimes)


def compound_score(cfg: PointConfiguration, z, model: Model, ctx=None) -> float:
    """G(Z): total score between Z and every other point."""
    z_id = z.id if isinstance(z, MarkedPoint) else int(z)
    row = id_rows(cfg.ids, [z_id])[0]  # KeyError on an unknown id
    return _compound(model.build_context(cfg) if ctx is None else ctx)[row].item()


def _sum_log_sums(G: np.ndarray, admitted: np.ndarray, bounds) -> list[FunctionalValue]:
    """The sum-log-sum of each group of rows ``bounds[k]:bounds[k + 1]`` and
    its admitted and dropped (G = 0) counts.  A sequential ``np.cumsum`` of
    exact ``math.log`` values folds a group left in row order, bit for bit as
    ``total += math.log(g)`` does (``np.sum`` adds pairwise)."""
    kept = admitted & (G > 0)
    logs = np.array([0.0, *map(math.log, range(1, int(G.max(initial=0)) + 1))])[G[kept]]
    cuts = np.searchsorted(np.flatnonzero(kept), bounds).tolist()  # each group's kept logs
    counts = np.diff(np.searchsorted(np.flatnonzero(admitted), bounds)).tolist()
    return [
        FunctionalValue("sum_log_sum", float(np.cumsum(logs[i:j])[-1]) if j > i else 0.0,
                        n, n - (j - i))
        for i, j, n in zip(cuts, cuts[1:], counts)
    ]


def sum_log_sum(cfg: PointConfiguration, model: Model) -> FunctionalValue:
    """Sum of log G over the points that the model's admissibility rule admits
    with positive G; counts how many admitted points were dropped for G = 0."""
    ctx = model.build_context(cfg)
    G = _compound(ctx)
    admitted = model.admissibility.mask(cfg.window, cfg.positions, ctx.lifetimes)
    return _sum_log_sums(G, admitted, [0, len(cfg)])[0]


def evaluate_all(model: Model, window, positions, marks, bounds) -> list[FunctionalValue]:
    """``model.evaluate`` of each configuration of a column stack
    (``process.sample_stack``): a graph's ``total()``, or G of all barcodes
    from one band pass, each group's added or folded.  A *-uniform model's
    lifetimes are its uniform01 marks, so it builds no configuration."""
    lifetimes = marks
    if model.mark_model.kind != "uniform01":
        cfgs = _stacked_configurations(window, model.mark_model, positions, marks, bounds)
        ctxs = [model.build_context(cfg) for cfg in cfgs]
        if not all(isinstance(ctx, barcodes.Barcode) for ctx in ctxs):  # graphs have no G
            return [FunctionalValue("double_sum", float(ctx.total())) for ctx in ctxs]
        lifetimes = np.concatenate([bc.lifetimes for bc in ctxs] + [np.empty(0)])
    G = barcodes.inversion_compound_counts(positions[:, 0], lifetimes, bounds)
    if model.functional_kind == "double_sum":  # each group's G, added as integers
        sums = np.diff(np.concatenate(([0], np.cumsum(G)))[bounds]).tolist()
        return [FunctionalValue("double_sum", float(g)) for g in sums]
    return _sum_log_sums(G, model.admissibility.mask(window, positions, lifetimes), bounds)


def diff_first(cfg: PointConfiguration, x, functional: Callable[[PointConfiguration], float]) -> float:
    """First-order difference: functional(cfg + x) - functional(cfg), with the
    model rebuilt from scratch on the augmented configuration."""
    return functional(insert_point(cfg, x)) - functional(cfg)


def diff_second(cfg: PointConfiguration, x, y, functional: Callable[[PointConfiguration], float]) -> float:
    """Second-order difference via four full evaluations."""
    cfg_x = insert_point(cfg, x)
    cfg_y = insert_point(cfg, y)
    cfg_xy = insert_point(cfg_x, y)
    return functional(cfg_xy) - functional(cfg_x) - functional(cfg_y) + functional(cfg)


def empirical_stabilization_radius(
    cfg: PointConfiguration,
    x,
    model: Model,
    rule: AdmissibilityRule | None = None,
) -> int:
    """Smallest integer m >= 1 such that inserting x leaves every pair score
    between points outside the cube Q(x, m) unchanged (and, when a rule is
    given, leaves admissible-with-positive-G membership unchanged outside it).

    Computed by locating all changed pairs and memberships and taking the max
    Chebyshev distance, floored at 1.
    """
    x_pos = x.position if isinstance(x, MarkedPoint) else tuple(float(v) for v in x)
    ctx_before = model.build_context(cfg)
    cfg2 = insert_point(cfg, x)
    ctx_after = model.build_context(cfg2)
    dist = np.abs(cfg.positions - np.array(x_pos)).max(axis=1)  # Chebyshev, per row
    # list(): the benchmark's tracer (bench/tracing.py) hands the pairs back as
    # an iterator of rows, on which np.asarray would make a 0-d object array
    changed = np.array(list(ctx_before.changed_pairs(ctx_after)), dtype=np.int64).reshape(-1, 2)
    worst = float(np.minimum(*dist[id_rows(cfg.ids, changed)].T).max(initial=0.0))
    if rule is not None:
        members_before = _positive_membership(cfg, ctx_before, rule)
        members_after = _positive_membership(cfg2, ctx_after, rule)
        moved = members_before != members_after[id_rows(cfg2.ids, cfg.ids)]
        worst = max(worst, float(dist[moved].max(initial=0.0)))
    return max(1, math.ceil(worst))


def _positive_membership(cfg, ctx, rule: AdmissibilityRule) -> np.ndarray:
    """Row mask of the admissible points with positive compound score."""
    return (_compound(ctx) > 0) & rule.mask(cfg.window, cfg.positions, ctx.lifetimes)
