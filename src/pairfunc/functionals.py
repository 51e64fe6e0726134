"""Generic pair functionals: double sums, sum-log-sums over compound scores,
difference operators and empirical stabilization radii.

Each functional takes a ``pairfunc.models.Model`` and asks the context it
builds (a graph or a barcode): ``total()`` is the double sum.  The compound
scores G of a whole column stack come from one crossing or band pass over
its rows (``Model.stack_scores``).  Stabilization diffs the contexts of each
configuration and of ``process.insert_point`` of it with the context's own
``changed_pairs``; the barcodes of many such pairs come from one stack per
side.  Difference
operators recompute the model from scratch on augmented configurations;
correctness first, desk-scale inputs keep that cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import barcodes
from .graphs import GeometricGraph
from .process import PointConfiguration, id_rows, insert_point

if TYPE_CHECKING:
    from .models import Model

__all__ = [
    "AdmissibilityRule",
    "FunctionalValue",
    "double_sum",
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
    if not isinstance(ctx, barcodes.Barcode):
        raise ValueError("a context other than a barcode provides no compound scores")
    G = barcodes.inversion_compound_counts(ctx.births, ctx.lifetimes)
    admitted = model.admissibility.mask(cfg.window, cfg.positions, ctx.lifetimes)
    return _sum_log_sums(G, admitted, [0, len(cfg)])[0]


def evaluate_all(model: Model, window, positions, marks, bounds) -> list[FunctionalValue]:
    """``model.evaluate`` of each configuration of a column stack
    (``process.sample_stack``), from G of every row by the model's
    ``stack_scores`` (one crossing pass for a graph model; one band pass over
    one merge-forest pass for a tree model, over the marks for a *-uniform
    one), each group's added or folded.  No configuration is built."""
    G, lifetimes = model.stack_scores(positions, marks, bounds)
    if model.functional_kind == "double_sum":  # each group's G, added exactly
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
    Chebyshev distance, floored at 1: the one-configuration case of
    ``stabilization_radii``.
    """
    return stabilization_radii(model, [cfg], [x], rule)[0]


def stabilization_radii(model: Model, cfgs, xs, rule=None) -> list[int]:
    """``empirical_stabilization_radius`` of each configuration of ``cfgs``
    (one window and mark model) at its point of ``xs``, each taken as
    ``insert_point`` takes it.  Both sides' contexts, and with a rule the
    memberships, come from ``_contexts``.  Each radius is the ceiling, at
    least 1, of the largest Chebyshev distance to x of the nearer point of a
    pair that ``changed_pairs`` lists, or of a point whose membership moved."""
    afters = [insert_point(cfg, x) for cfg, x in zip(cfgs, xs)]
    (before, members), (after, members2) = (_contexts(model, side, rule) for side in (cfgs, afters))
    radii = []
    for cfg, cfg2, ctx_before, ctx_after, m, m2 in zip(cfgs, afters, before, after, members, members2):
        fresh = cfg2.ids == cfg.next_id()
        dist = np.abs(cfg.positions - cfg2.positions[fresh]).max(axis=1)  # Chebyshev, per row
        # list(): the benchmark's tracer (bench/tracing.py) hands the pairs back as
        # an iterator of rows, on which np.asarray would make a 0-d object array
        changed = np.array(list(ctx_before.changed_pairs(ctx_after)), dtype=np.int64).reshape(-1, 2)
        worst = float(np.minimum(*dist[id_rows(cfg.ids, changed)].T).max(initial=0.0))
        moved = 0.0 if m is None else float(dist[m != m2[~fresh]].max(initial=0.0))
        radii.append(max(1, math.ceil(max(worst, moved))))
    return radii


def _contexts(model: Model, cfgs, rule):
    """The context of each configuration and, with a rule, the row mask of
    the points that it admits with positive G.  A graph model builds one
    graph per configuration, as the fold reaches it; a barcode model takes
    the lifetimes, and G, of all configurations from one pass over their
    stacked rows (``Model.stack_scores``)."""
    if model.name.startswith("crossing"):
        if rule is not None:
            raise ValueError("a context other than a barcode provides no compound scores")
        return map(model.build_context, cfgs), [None] * len(cfgs)
    bounds = np.cumsum([0] + [len(cfg) for cfg in cfgs])
    positions = np.concatenate([cfg.positions for cfg in cfgs])
    marks = None if cfgs[0].marks is None else np.concatenate([cfg.marks for cfg in cfgs])
    G, life = model.stack_scores(positions, marks, bounds)
    rows = list(zip(bounds[:-1], bounds[1:]))
    bars = [barcodes.Barcode(cfg.ids, cfg.positions[:, 0], life[i:j]) for cfg, (i, j) in zip(cfgs, rows)]
    members = None if rule is None else (G > 0) & rule.mask(cfgs[0].window, positions, life)
    return bars, [None if members is None else members[i:j] for i, j in rows]
