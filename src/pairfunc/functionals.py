"""Generic pair functionals: double sums, compound scores, sum-log-sums,
difference operators and empirical stabilization radii.

Each functional takes a ``pairfunc.models.Model`` and asks the context it
builds (a graph or a barcode): ``total()`` is the double sum, and the
compound scores G of one or more barcodes come from one band pass over their
stacked columns.  Stabilization diffs two contexts with the context's own
``changed_pairs``, the contexts of many insertions built from one stack per
side.  Difference operators recompute the model from scratch on
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
    from one band pass over the model's ``stack_lifetimes`` (one merge-forest
    pass for a tree model, the marks for a *-uniform one), each group's added
    or folded.  A barcode model builds no configuration."""
    if model.stack_lifetimes is None:  # graphs have no G
        cfgs = _stacked_configurations(window, model.mark_model, positions, marks, bounds)
        return [FunctionalValue("double_sum", float(model.build_context(cfg).total())) for cfg in cfgs]
    lifetimes = model.stack_lifetimes(positions, marks, bounds)
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
    Chebyshev distance, floored at 1: the one-configuration case of
    ``stabilization_radii``.
    """
    insert_point(cfg, x)  # rejects a position outside the window or a bad mark
    marked = isinstance(x, MarkedPoint)
    mark = np.array([x.mark], dtype=np.float64) if marked and x.mark is not None else None
    x_pos = np.array([x.position if marked else x], dtype=np.float64)
    return stabilization_radii(model, [cfg], x_pos, mark, rule)[0]


def stabilization_radii(model: Model, cfgs, x_pos, x_marks=None, rule=None) -> list[int]:
    """``empirical_stabilization_radius`` of each configuration of ``cfgs``
    (one window and mark model) at its row of ``x_pos``, marked by
    ``x_marks`` under a marked model.  Every x goes into one stacked
    after-copy of the configurations under a fresh id.  A barcode model takes
    each side's lifetimes, and with a rule its G, from one pass over the stack
    (``Model.stack_lifetimes``); a graph model builds one graph per
    configuration, as ``evaluate_all`` does.  Each radius is the ceiling, at
    least 1, of the largest Chebyshev distance to x of the nearer point of a
    pair that ``changed_pairs`` lists, or of a point whose membership moved."""
    window, bounds = cfgs[0].window, np.cumsum([0] + [len(cfg) for cfg in cfgs])
    pos, ids = np.concatenate([c.positions for c in cfgs]), np.concatenate([c.ids for c in cfgs])
    marks = None if x_marks is None else np.concatenate([cfg.marks for cfg in cfgs])
    # x follows the rows at or below it in (position, id) order: its id is the largest
    below, x_at = True, np.repeat(x_pos, np.diff(bounds), axis=0)
    for k in reversed(range(window.dim)):
        below = (pos[:, k] < x_at[:, k]) | (pos[:, k] == x_at[:, k]) & below
    at = bounds[:-1] + np.diff(np.concatenate(([0], np.cumsum(below)))[bounds])
    pos2, bounds2 = np.insert(pos, at, x_pos, axis=0), bounds + np.arange(len(bounds))
    ids2 = np.insert(ids, at, [cfg.next_id() for cfg in cfgs])
    marks2 = None if marks is None else np.insert(marks, at, x_marks)
    moved = np.zeros(len(pos), dtype=bool)
    if model.stack_lifetimes is None:
        if rule is not None:
            raise ValueError("a context other than a barcode provides no compound scores")
        after = _stacked_configurations(window, model.mark_model, pos2, marks2, bounds2, ids2)
        ctxs = zip(map(model.build_context, cfgs), map(model.build_context, after))
    else:
        (before, members), (after, members2) = (
            _barcode_stack(model, window, *side, rule)
            for side in ((pos, ids, marks, bounds), (pos2, ids2, marks2, bounds2))
        )
        ctxs = zip(before, after)
        if rule is not None:
            moved = members != np.delete(members2, at + np.arange(len(cfgs)))
    radii = []
    for x, lo, hi, (ctx_before, ctx_after) in zip(x_pos, bounds[:-1], bounds[1:], ctxs):
        dist = np.abs(pos[lo:hi] - x).max(axis=1)  # Chebyshev, per row
        # list(): the benchmark's tracer (bench/tracing.py) hands the pairs back as
        # an iterator of rows, on which np.asarray would make a 0-d object array
        changed = np.array(list(ctx_before.changed_pairs(ctx_after)), dtype=np.int64).reshape(-1, 2)
        worst = float(np.minimum(*dist[id_rows(ids[lo:hi], changed)].T).max(initial=0.0))
        radii.append(max(1, math.ceil(max(worst, float(dist[moved[lo:hi]].max(initial=0.0))))))
    return radii


def _barcode_stack(model: Model, window, positions, ids, marks, bounds, rule):
    """The barcode of each configuration of a column stack, from one
    ``model.stack_lifetimes`` pass, and the stack's row mask of the points
    that ``rule`` admits with positive G (None without a rule)."""
    life = model.stack_lifetimes(positions, marks, bounds)
    bars = [barcodes.Barcode(ids[i:j], positions[i:j, 0], life[i:j])
            for i, j in zip(bounds[:-1], bounds[1:])]
    if rule is None:
        return bars, None
    G = barcodes.inversion_compound_counts(positions[:, 0], life, bounds)
    return bars, (G > 0) & rule.mask(window, positions, life)
