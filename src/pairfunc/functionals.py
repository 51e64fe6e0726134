"""Generic pair functionals: double sums, compound scores, sum-log-sums,
difference operators and empirical stabilization radii.

Each functional takes a ``pairfunc.models.Model``, which carries what the
functionals need: a context builder (graph, barcode, ...), a per-pair value,
the total over ordered pairs and, where the model has them, the compound
scores.  Stabilization diffs two contexts with the context's own
``changed_pairs``.  Difference operators recompute the model from scratch on
augmented configurations; correctness first, desk-scale inputs keep that cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .barcodes import Barcode
from .graphs import GeometricGraph
from .process import MarkedPoint, PointConfiguration, id_rows, insert_point

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
SparsePairSnapshot, BarPairSnapshot = GeometricGraph, Barcode


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

    def mask(self, cfg: PointConfiguration, ctx) -> np.ndarray:
        """Admissibility of every point: a boolean (N,) array aligned with the
        configuration's rows.  The tree-realization rule reads the lifetimes
        of a barcode context."""
        if self.kind == "all":
            return np.ones(len(cfg), dtype=bool)
        lifetimes = getattr(ctx, "lifetimes", None)
        if lifetimes is None:
            raise ValueError("admissibility rule needs a barcode-bearing context")
        inside = cfg.window.shrunk().mask(cfg.positions)
        return inside & (lifetimes > 0.0) & (lifetimes < 1.0)


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
    return model.total(model.build_context(cfg))


def _require_compound(model: Model) -> None:
    if model.compound_all is None:
        raise ValueError(f"score {model.name!r} provides no compound scores")


def compound_score(cfg: PointConfiguration, z, model: Model, ctx=None) -> float:
    """G(Z): total score between Z and every other point."""
    z_id = z.id if isinstance(z, MarkedPoint) else int(z)
    row = id_rows(cfg.ids, [z_id])[0]  # KeyError on an unknown id
    _require_compound(model)
    if ctx is None:
        ctx = model.build_context(cfg)
    return model.compound_all(ctx)[row].item()


def sum_log_sum(cfg: PointConfiguration, model: Model) -> FunctionalValue:
    """Sum of log G over the points that the model's admissibility rule admits
    with positive G; counts how many admitted points were dropped for G = 0."""
    _require_compound(model)
    ctx = model.build_context(cfg)
    mask = model.admissibility.mask(cfg, ctx)
    G = model.compound_all(ctx)[mask].tolist()
    positive = [g for g in G if g > 0]
    total = 0.0
    for g in positive:  # a left fold in row order keeps the value byte-stable
        total += math.log(g)
    return FunctionalValue("sum_log_sum", total, len(G), len(G) - len(positive))


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
        members_before = _positive_membership(cfg, ctx_before, model, rule)
        members_after = _positive_membership(cfg2, ctx_after, model, rule)
        moved = members_before != members_after[id_rows(cfg2.ids, cfg.ids)]
        worst = max(worst, float(dist[moved].max(initial=0.0)))
    return max(1, math.ceil(worst))


def _positive_membership(cfg, ctx, model: Model, rule: AdmissibilityRule) -> np.ndarray:
    """Row mask of the admissible points with positive compound score."""
    _require_compound(model)
    return rule.mask(cfg, ctx) & (model.compound_all(ctx) > 0)
