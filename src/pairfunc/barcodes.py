"""Barcodes: lifetime models, merge forests with the Elder rule, inversion
counts, and shield configurations for insertion-insensitive boxes.

Coordinate 1 plays the role of time throughout.  A bar is (birth, lifetime);
lifetime +inf encodes a branch that never dies inside the window, and such
bars are never admissible (admissibility requires a lifetime in the open
interval (0, 1)).  Barcodes and merge forests are stored as arrays aligned
with the rows of their configuration; ``Bar`` is the scalar form that the
literal definitions (``inversion_score``) take.

The merge forest uses the column-type locality of the model: a point's
ancestor lies within the cylinder radius r in coordinates 2..d.  Bucket
those coordinates into cells a little wider than r; a pair within the
cylinder then lies in the same or in neighbouring cells.  One dense pass
tests the first later row of each of the 3^(d-1) cells around a point by
the exact predicate, and the few searches left walk on in row order
(``_ancestor_indices``).  Memory stays linear in N, and no N x N array is
built on the tree-lifetime path.

Inversions are local in time, too.  Only admissible bars invert, so
0 < l < 1, and a bar dies at the rounded sum d = fl(b + l).  If
b_j >= fl(b_i + 1), then, because rounding is monotone,
d_i = fl(b_i + l_i) <= fl(b_i + 1) <= b_j <= fl(b_j + l_j) = d_j, and the two
bars cannot invert.  With the admissible bars sorted by birth, every partner
of a bar lies in its unit band: among the bars born later but before
fl(b + 1), or among the bars whose own band reaches it.  One band set-up
(``_unit_band``) lays the sorted deaths out in one column; comparing it with
itself shifted by 1 .. width gives the compound counts
(``inversion_compound_counts``) and the inverting pairs (``_inversion_pairs``).
The column may stack barcodes (a batch of replications), NaN pads between
them.  The shield check compares two pair tables; the pair-score diff bands
only the bars near a bar that moved (``_changed_rows``).  No N x N array is
built.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Cube, _kd_tree
from .process import PointConfiguration, _all_unique, _lex_order, id_rows, insert_point

__all__ = [
    "Bar",
    "Barcode",
    "MergeForest",
    "uniform_lifetimes",
    "build_merge_forest",
    "elder_lifetimes",
    "inversion_score",
    "inversion_count",
    "shield_membership",
    "shield_property_check",
]


@dataclass(frozen=True)
class Bar:
    owner: int
    birth: float
    lifetime: float

    def __post_init__(self):
        if self.lifetime < 0:
            raise ValueError("lifetimes are nonnegative")

    @property
    def admissible(self) -> bool:
        return 0.0 < self.lifetime < 1.0


@dataclass(frozen=True, eq=False)
class Barcode:
    """Bars stored as three read-only columns of equal length: ``owners``
    (int64 point ids, unique), ``births`` (finite float64) and ``lifetimes``
    (float64, nonnegative or +inf).  ``bars`` is a tuple of ``Bar`` views of
    the rows, built on first access."""

    owners: np.ndarray
    births: np.ndarray
    lifetimes: np.ndarray

    def __post_init__(self):
        # views, so that freezing them leaves the caller's arrays writeable
        owners = np.asarray(self.owners, dtype=np.int64).view()
        births = np.asarray(self.births, dtype=np.float64).view()
        lifetimes = np.asarray(self.lifetimes, dtype=np.float64).view()
        n = len(owners)
        if not owners.shape == births.shape == lifetimes.shape == (n,):
            raise ValueError("owners, births and lifetimes must be 1-D columns of equal length")
        if not np.isfinite(births).all():
            raise ValueError("births must be finite")
        if not (lifetimes >= 0.0).all():
            raise ValueError("lifetimes are nonnegative (NaN is not a lifetime)")
        if not _all_unique(owners):
            raise ValueError("bar owners must be unique")
        for name, column in (("owners", owners), ("births", births), ("lifetimes", lifetimes)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.owners)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return (
            np.array_equal(self.owners, other.owners)
            and np.array_equal(self.births, other.births)
            and np.array_equal(self.lifetimes, other.lifetimes)
        )

    @cached_property
    def bars(self) -> tuple[Bar, ...]:
        return tuple(
            map(Bar, self.owners.tolist(), self.births.tolist(), self.lifetimes.tolist())
        )

    @cached_property
    def inversion_pairs(self) -> np.ndarray:
        """(K, 2) int64 array of the owner pairs that invert, each pair once
        as a (min, max) row, rows in ascending order; read-only."""
        pairs = np.sort(self.owners[_inversion_pairs(self.births, self.lifetimes)], axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        pairs.flags.writeable = False
        return pairs

    def total(self) -> int:
        """The inversion count: the inversion score summed over ordered pairs."""
        return inversion_count(self)

    def changed_pairs(self, other: "Barcode") -> np.ndarray:
        """(P, 2) int64 array of the owner pairs whose inversion score differs
        in ``other``, as (min, max) rows in ascending order.  Only pairs of
        owners present in both barcodes count: a pair with an owner missing
        from either (an inserted or a removed point) is left out."""
        keep = np.flatnonzero(np.isin(self.owners, other.owners))
        keep = keep[np.argsort(self.owners[keep])]  # common rows in owner order
        rows = id_rows(other.owners, self.owners[keep])
        pairs = _changed_rows(
            self.births[keep], self.lifetimes[keep], other.births[rows], other.lifetimes[rows]
        )
        return self.owners[keep][pairs]


def uniform_lifetimes(cfg: PointConfiguration) -> Barcode:
    """Pass-through lifetimes: each point's bar takes its uniform mark.  Bars
    follow the configuration's row order."""
    if cfg.mark_model.kind != "uniform01":
        raise ValueError("uniform lifetimes need the uniform01 mark model")
    return Barcode(cfg.ids, cfg.positions[:, 0], cfg.marks)


def _ancestor_indices(positions: np.ndarray, cylinder_radius: float, bounds=None) -> np.ndarray:
    """For each row, the earliest later row of its group in row order whose
    coordinates 2..d lie within the cylinder: the sum of squared coordinate
    differences is at most the squared radius.  -1 when there is none.  Group
    k holds rows ``bounds[k]:bounds[k + 1]`` (all rows when ``bounds`` is
    None), so a stack of configurations gets each one's ancestors, shifted
    by its first row.

    A cell list walked in row order.  Coordinates 2..d are bucketed into
    cubic cells of side s = r (1 + 1e-9) + M 2^-50, M the largest coordinate
    magnitude.  A pair that passes the predicate has every |dx_k| <= r
    (1 + 2^-50) (the rounded square of each difference is at most the
    rounded sum, which is at most fl(r^2)), and each rounded quotient x / s
    is off by at most M / s 2^-53, so two such quotients differ by at most
    (r (1 + 2^-50) + M 2^-52) / s <= 1 and their floors, the cells, by at
    most 1 in every coordinate: the partners of a row lie in the 3^(d-1)
    cells around its own.  The M term keeps this exact at any coordinate
    magnitude; the argument needs only a squared radius that is a finite
    normal float.
    Cells are coarsened by powers of two while the flat (group, cell) index
    times N would overflow int64; coarser cells only add candidates.

    One sorted int64 key ``(group, cell) * N + row`` makes the later rows of
    each neighbour cell of a row's own group a contiguous run in ascending
    row order, so no candidate crosses a group.  A dense
    (3^(d-1), N) pass decides every run's first candidate, found by
    ``searchsorted`` on one sorted needle row per offset, and folds the hits
    with a min over the offsets.  A run that missed walks on, k = 4, 16, ...
    candidates per step (hits fold in by ``np.minimum.at``), only while rows
    before the row's best are left.  Boundaries, ties and repeated positions
    decide as in a dense all-pairs test, and memory stays linear in N.
    """
    if not (math.isfinite(cylinder_radius) and cylinder_radius > 0):
        raise ValueError(f"cylinder radius must be finite and > 0, got {cylinder_radius}")
    n = len(positions)
    if n < 2:
        return np.full(n, -1, dtype=np.int64)
    bounds = np.asarray((0, n) if bounds is None else bounds)
    rest = positions[:, 1:]
    side = cylinder_radius * (1.0 + 1e-9) + float(np.abs(rest).max(initial=0.0)) * 2.0**-50
    while True:
        cells = np.floor(rest / side).astype(np.int64)
        cells -= cells.min(axis=0) - 1  # a neighbour offset never wraps into another cell
        extent = cells.max(axis=0) + 2
        volume = math.prod(extent.tolist())  # cells per group
        if volume * (len(bounds) - 1) * n < 2**62:
            break
        side *= 2.0
    strides = np.cumprod(np.concatenate(([1], extent[:0:-1])))[::-1]
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)) * volume
    key = (cells @ strides + group) * n + np.arange(n)
    order = np.argsort(key)
    key = key[order]
    cell_start = key - key % n  # key of the sorted row's cell, row 0

    # the first candidate of every (neighbour offset, sorted row) run, in one pass
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=rest.shape[1]))) @ strides * n
    lo = np.searchsorted(key, key + offsets[:, None] + 1)
    live = (lo < n) & (key.take(lo, mode="clip") < cell_start + offsets[:, None] + n)
    cand = order.take(lo, mode="clip")
    diff = rest.take(order, axis=0) - rest.take(cand, axis=0)  # take: ~2.5x a fancy index
    r2 = cylinder_radius**2 + 0.0
    hit = live & (np.einsum("ijk,ijk->ij", diff, diff) <= r2)
    best = np.full(n, n, dtype=np.int64)
    best[order] = np.where(hit, cand, n).min(axis=0)

    # a run that missed walks on while its next row comes before the best
    off, pos = np.nonzero(live & (cand < best[order]))
    row, lo = order[pos], lo[off, pos] + 1
    hi = np.searchsorted(key, cell_start[pos] + offsets[off] + n)
    k = 4
    while True:
        open_ = lo < hi
        open_[open_] = order[lo[open_]] < best[row[open_]]
        row, lo, hi = row[open_], lo[open_], hi[open_]
        if not len(row):
            return np.where(best < n, best, -1)
        take = np.minimum(hi - lo, k)
        run = np.repeat(np.arange(len(row)), take)
        cand = order[(lo + take - np.cumsum(take))[run] + np.arange(len(run))]
        diff = rest.take(row[run], axis=0) - rest.take(cand, axis=0)
        within = np.einsum("ij,ij->i", diff, diff) <= r2
        np.minimum.at(best, row[run[within]], cand[within])
        lo += take
        k *= 4


@dataclass(frozen=True, eq=False)
class MergeForest:
    """Forest built by linking each point to its earliest later neighbor inside
    a unit cylinder, with Elder-rule survivor bookkeeping.

    Every field is indexed by configuration row.  ``ancestor`` (N,) holds the
    ancestor's row, or the point's own row when it has none; ``leaves`` and
    ``merge_points`` (tree degree >= 3) are ascending row arrays;
    ``survivor`` is aligned with ``merge_points`` and holds the leaf row that
    survives each merge; ``death`` (N,) holds the row of the merge point that
    kills a leaf, or -1.
    """

    cfg: PointConfiguration
    ancestor: np.ndarray
    leaves: np.ndarray
    merge_points: np.ndarray
    survivor: np.ndarray
    death: np.ndarray


def _subtree_minima(up: np.ndarray) -> np.ndarray:
    """Smallest row of each subtree, row i hanging from ``up[i]`` (a root from
    itself), by pointer doubling: pass k hands each minimum 2^k steps up."""
    carried = np.arange(len(up))
    while True:
        np.minimum.at(carried, up, carried)
        ahead = up[up]
        if np.array_equal(ahead, up):
            return carried
        up = ahead


def _merge_forest(positions: np.ndarray, cylinder_radius: float, bounds=None) -> tuple:
    """The ``MergeForest`` fields but ``cfg`` of each group's forest, row
    indices over the whole stack (groups as in ``_ancestor_indices``)."""
    if positions.shape[1] < 2:
        raise ValueError("merge forests need dimension >= 2")
    n = len(positions)
    anc = _ancestor_indices(positions, cylinder_radius, bounds)
    linked = anc >= 0
    children = np.bincount(anc[linked], minlength=n)
    merge = children + linked >= 3
    up = np.where(linked, anc, np.arange(n))

    # Children precede their ancestor in row order, so each subtree's smallest
    # row is its birth-minimal leaf: the one the Elder rule keeps alive.
    carried = _subtree_minima(up)

    # At a merge point every arriving branch but the survivor's dies.
    kids = np.flatnonzero(linked)
    kids = kids[merge[anc[kids]] & (carried[kids] != carried[anc[kids]])]
    death = np.full(n, -1, dtype=np.int64)
    death[carried[kids]] = anc[kids]
    merge_points = np.flatnonzero(merge)
    return up, np.flatnonzero(children == 0), merge_points, carried[merge_points], death


def build_merge_forest(cfg: PointConfiguration, cylinder_radius: float = 1.0) -> MergeForest:
    return MergeForest(cfg, *_merge_forest(cfg.positions, cylinder_radius))


def _elder(t: np.ndarray, leaves: np.ndarray, death: np.ndarray) -> np.ndarray:
    leaf = np.zeros(len(t), dtype=bool)
    leaf[leaves] = True
    return np.where(death >= 0, t[death] - t, np.where(leaf, math.inf, 0.0))


def elder_lifetimes(forest: MergeForest) -> Barcode:
    """Branch lifetimes: death time minus birth time for dying leaves, +inf for
    leaves that never lose a merge, 0 for non-leaves.  Bars follow the
    configuration's row order."""
    t = forest.cfg.positions[:, 0]
    return Barcode(forest.cfg.ids, t, _elder(t, forest.leaves, forest.death))


def stacked_elder_lifetimes(positions: np.ndarray, bounds, cylinder_radius: float = 1.0) -> np.ndarray:
    """``elder_lifetimes`` of every configuration of a column stack, rows
    ``bounds[k]:bounds[k + 1]`` in configuration order, from one merge-forest
    pass over the stack: its lifetimes column."""
    _, leaves, _, _, death = _merge_forest(positions, cylinder_radius, bounds)
    return _elder(positions[:, 0], leaves, death)


def inversion_score(x_bar: Bar, y_bar: Bar) -> int:
    """1 iff the two bars invert: births and deaths oppositely ordered, both
    lifetimes strictly inside (0, 1).  Deaths are the rounded sums
    fl(birth + lifetime), as in every array form of the score."""
    if not (x_bar.admissible and y_bar.admissible):
        return 0
    db = x_bar.birth - y_bar.birth
    dd = (x_bar.birth + x_bar.lifetime) - (y_bar.birth + y_bar.lifetime)
    return 1 if (db < 0 < dd) or (dd < 0 < db) else 0


def _unit_band(births: np.ndarray, lifetimes: np.ndarray, bounds=None):
    """The admissible bars sorted by (group, birth, death), group k holding
    rows ``bounds[k]:bounds[k + 1]`` (all rows when ``bounds`` is None): their
    rows ``idx``, their deaths fl(b + l) in one column with ``width`` NaN pads
    between groups, each bar's position ``at`` in it, and ``width`` >= 1, the
    most later bars of its group in one bar's unit band.  A later bar of a
    group with a tied birth never has a smaller death, so positions p < q
    invert exactly when d_q < d_p, and then q <= p + width.

    ``width`` comes from one ``searchsorted`` over the keys fl(b + g S), g
    the group and S = 2 (spread of the births and 0) + 2, which rounding keeps
    sorted.  An over-estimate only adds comparisons that never hit; an
    under-estimate would lose partners.  So it counts, with ``side="right"``,
    the keys at most the needle fl(fl(b + 1) + g S): rounding is monotone, so
    every later bar of the group born before fl(b + 1) has such a key, also
    one that rounding ties with the needle."""
    bounds = np.asarray((0, len(births)) if bounds is None else bounds)
    idx = np.flatnonzero((lifetimes > 0.0) & (lifetimes < 1.0))
    cuts = np.searchsorted(idx, bounds)  # each group's first admissible bar
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(cuts))
    b, d = births[idx], births[idx] + lifetimes[idx]
    if not ((b[1:] > b[:-1]) | (b[1:] == b[:-1]) & (d[1:] >= d[:-1]) | (np.diff(group) > 0)).all():
        order = np.lexsort((d, b, group))  # a configuration's bars come sorted
        idx, b, d = idx[order], b[order], d[order]
    offset = group * (2.0 * (b.max(initial=0.0) - b.min(initial=0.0) + 1.0))
    band = np.searchsorted(b + offset, (b + 1) + offset, side="right") - np.arange(len(b))
    width = int(band.max(initial=2)) - 1  # at least 1, also for no group
    at = np.arange(len(d)) + width * group
    deaths = np.full(len(d) + width * max(len(bounds) - 2, 0), np.nan)
    deaths[at] = d
    return idx, deaths, at, width


def inversion_compound_counts(births: np.ndarray, lifetimes: np.ndarray, bounds=None) -> np.ndarray:
    """G(Z) for every bar: the number of partners forming an inversion with it.

    Exact (sign comparisons only).  Bars with a lifetime outside (0, 1) get
    G = 0.  ``bounds`` (row offsets 0 .. N) stacks barcodes, as ``_unit_band``,
    and a bar's partners are in its own group.  For k = 1 .. width, one
    comparison of the death column with itself shifted by k finds the
    inverting pairs k positions apart, a NaN pad never; each counts at both
    its bars."""
    G = np.zeros(len(births), dtype=np.int64)
    idx, deaths, at, width = _unit_band(births, lifetimes, bounds)
    counts = np.zeros(len(deaths), dtype=np.int64)
    for k in range(1, width + 1):
        hit = deaths[k:] < deaths[:-k]
        counts[:-k] += hit
        counts[k:] += hit
    G[idx] = counts[at]
    return G


def _inversion_pairs(births: np.ndarray, lifetimes: np.ndarray) -> np.ndarray:
    """(K, 2) int64 array of the row pairs that invert, each pair once: the
    hits of the same shifted comparisons as ``inversion_compound_counts``, so
    memory stays linear in N plus K."""
    idx, deaths, _, width = _unit_band(births, lifetimes)  # one group: no pads
    found = [np.empty((0, 2), dtype=np.int64)]
    for k in range(1, width + 1):
        p = np.flatnonzero(deaths[k:] < deaths[:-k])
        found.append(np.column_stack((p, p + k)))
    return idx[np.concatenate(found)]


def _changed_rows(b0: np.ndarray, l0: np.ndarray, b1: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Row pairs (i < j, ascending) whose inversion score differs between two
    row-aligned bar tables, as a (P, 2) int64 array.  A score changes only at
    a pair with a moved bar (birth or lifetime changed), and a bar born at b
    inverts only with bars born at some v with fl(v + 1) > b and v < fl(b + 1)
    (module docstring), so each table bands only the bars in those ranges
    around a moved bar: none if no bar moved."""
    moved, n, keys = (b0 != b1) | (l0 != l1), len(b0), []
    if not moved.any():
        return np.empty((0, 2), dtype=np.int64)
    for births, lifetimes in ((b0, l0), (b1, l1)):
        below = np.concatenate(([-np.inf], np.sort(births[moved])))  # -inf: no moved bar below
        near = np.flatnonzero(births < below[np.searchsorted(below[1:], births + 1.0)] + 1.0)
        pairs = near[_inversion_pairs(births[near], lifetimes[near])]
        pairs = pairs[moved[pairs].any(axis=1)]
        keys.append(pairs.min(axis=1) * n + pairs.max(axis=1))
    # each table lists a pair at most once: a key seen once inverts in one table only
    return np.column_stack(np.divmod(np.setxor1d(*keys, assume_unique=True), n))


def inversion_count(barcode: Barcode) -> int:
    """Ordered inversion pairs: each unordered inversion is counted once at
    each of its bars, so this is the sum of the compound counts."""
    return int(inversion_compound_counts(barcode.births, barcode.lifetimes).sum())


# -- Shield configurations ---------------------------------------------------
#
# A shielded box is an axis-aligned cube of side 8 whose outer half-unit time
# slabs (the pads) are populated so densely that inserting points in the
# central side-4 cube cannot alter the merge forest outside the box.  The
# geometry is fixed, and its constants are written for the unit cylinder.

HALF_SIDE = 4.0          # half-side of the box
INNER_HALF_SIDE = 2.0    # half-side of the central cube that takes insertions
PAD_DEPTH = 0.5          # time extent of each pad
BALL_RADIUS = 0.25       # pads must be covered by balls of this radius
COVERAGE_GRID = 0.02     # spacing of the grid on which pad coverage is checked
GAP = 0.5                # successor / earliest-child gap bound inside pads
TOP_STRIP = 0.5          # exempt strip at the top of the last axis


def _pad_masks(rel: np.ndarray):
    """Row masks of the early-time pad F- and the late-time pad F+."""
    t = rel[:, 0]
    minus = (t >= -HALF_SIDE) & (t <= -HALF_SIDE + PAD_DEPTH)
    plus = (t <= HALF_SIDE) & (t >= HALF_SIDE - PAD_DEPTH)
    return minus, plus


def _pads_covered(rel_pad: np.ndarray, t_lo: float, t_hi: float) -> bool:
    """Conservative coverage test: every grid point of the pad rectangle must be
    within BALL_RADIUS - grid*sqrt(2)/2 of a pad point, which guarantees the
    continuous region is covered by the radius-1/4 balls."""
    if len(rel_pad) == 0:
        return False
    slack = BALL_RADIUS - COVERAGE_GRID * math.sqrt(2.0) / 2.0
    ts = np.arange(t_lo, t_hi + COVERAGE_GRID / 2, COVERAGE_GRID)
    hs = np.arange(-HALF_SIDE, HALF_SIDE + COVERAGE_GRID / 2, COVERAGE_GRID)
    tt, hh = np.meshgrid(ts, hs, indexing="ij")
    queries = np.column_stack([tt.ravel(), hh.ravel()])
    dists, _ = _kd_tree(rel_pad).query(queries, k=1)
    return bool(np.all(dists <= slack))


def _pad_gaps_ok(rel_pad: np.ndarray, mode: str) -> bool:
    """Gap clauses inside one pad, evaluated pad-locally with self-default.

    mode 'successor': every non-top point with a strict successor in the pad
    cylinder must see it within GAP.  mode 'child': every non-top point's
    earliest pad child must be within GAP.
    """
    if len(rel_pad) == 0:
        return True
    pad = rel_pad[_lex_order(*rel_pad.T)]
    anc = _ancestor_indices(pad, 1.0)
    top = pad[:, -1] >= HALF_SIDE - TOP_STRIP
    if mode == "successor":
        rows = np.flatnonzero(~top & (anc >= 0))
        return not (pad[anc[rows], 0] - pad[rows, 0] > GAP).any()
    kids = np.flatnonzero(anc >= 0)
    # kid rows ascend in time, so each parent's first kid is its earliest child
    parents, first = np.unique(anc[kids], return_index=True)
    rows = ~top[parents]
    return not (pad[parents[rows], 0] - pad[kids[first][rows], 0] > GAP).any()


def shield_membership(cfg: PointConfiguration, center) -> bool:
    """True iff the content of the side-8 box at ``center`` forms a shield:
    all annulus points in the two pads, pads covered by radius-1/4 balls, gap
    clauses satisfied, and the rest of the annulus void."""
    if cfg.window.dim != 2:
        raise ValueError("shield membership is implemented for dimension 2")
    if len(center) != 2:
        raise ValueError("box center dimension does not match the configuration")
    positions = cfg.positions
    inner = Cube(tuple(center), INNER_HALF_SIDE).mask(positions)
    annulus = positions[~_outside_box(cfg, center) & ~inner] - np.array(center, dtype=float)
    if len(annulus) == 0:
        return False  # empty pads can never be covered
    minus, plus = _pad_masks(annulus)
    if not np.all(minus | plus):
        return False
    pad_minus = annulus[minus]
    pad_plus = annulus[plus]
    if not _pads_covered(pad_minus, -HALF_SIDE, -HALF_SIDE + PAD_DEPTH):
        return False
    if not _pads_covered(pad_plus, HALF_SIDE - PAD_DEPTH, HALF_SIDE):
        return False
    if not _pad_gaps_ok(pad_minus, "successor"):
        return False
    if not _pad_gaps_ok(pad_plus, "child"):
        return False
    return True


def _outside_box(cfg: PointConfiguration, center) -> np.ndarray:
    """Row mask of the points outside the side-8 box at ``center``."""
    return ~Cube(tuple(center), HALF_SIDE).mask(cfg.positions)


def outside_pair_scores(cfg: PointConfiguration, center):
    """Tree-lifetime inversions between the points outside the side-8 box at
    ``center``: returns (outside ids in row order, the outside bars'
    ``Barcode.inversion_pairs``)."""
    outside = _outside_box(cfg, center)
    barcode = elder_lifetimes(build_merge_forest(cfg))
    sub = Barcode(barcode.owners[outside], barcode.births[outside], barcode.lifetimes[outside])
    return cfg.ids[outside].tolist(), sub.inversion_pairs


def shield_property_check(cfg: PointConfiguration, center, x) -> bool:
    """Insert x into the inner cube of the side-8 box at ``center`` and report
    whether every pair score between points outside the box is unchanged;
    whether the box holds a shield is ``shield_membership``'s question.
    ``x`` is a position or a ``MarkedPoint``, inserted by ``insert_point``.
    """
    augmented = insert_point(cfg, x)
    fresh = augmented.positions[augmented.ids == cfg.next_id()]
    if not Cube(tuple(center), INNER_HALF_SIDE).mask(fresh).all():
        raise ValueError("insertion point must lie in the inner cube")
    # x lies inside the box, so both tables cover the same outside points
    _, before = outside_pair_scores(cfg, center)
    _, after = outside_pair_scores(augmented, center)
    return np.array_equal(before, after)
