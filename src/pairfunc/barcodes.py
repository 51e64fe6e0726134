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
built on the tree-lifetime path.  Likewise the pairs whose
inversion score changes between two bar tables are found among the pairs
that touch a changed bar (``changed_inversion_pairs``).

Inversions are local in time, too.  Only admissible bars invert, so
0 < l < 1, and a bar dies at the rounded sum d = fl(b + l).  If
b_j >= fl(b_i + 1), then, because rounding is monotone,
d_i = fl(b_i + l_i) <= fl(b_i + 1) <= b_j <= fl(b_j + l_j) = d_j, and the two
bars cannot invert.  With the admissible bars sorted by birth, every partner
of a bar lies in its unit band: among the bars born later but before
fl(b + 1), or among the bars whose own band reaches it.  So the compound
counts and the inversion count take one banded pass (``_inversion_partners``)
instead of an all-pairs comparison.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import Cube, _g17, _kd_tree
from .process import MarkedPoint, PointConfiguration, _all_unique, _lex_order, id_rows, insert_point

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
    "barcode_to_text",
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

    def changed_pairs(self, other: "Barcode") -> np.ndarray:
        """(P, 2) int64 array of the owner pairs, both owners in both
        barcodes, whose inversion score differs."""
        keep_self = np.flatnonzero(np.isin(self.owners, other.owners))
        common = self.owners[keep_self]
        keep_other = id_rows(other.owners, common)
        pairs = changed_inversion_pairs(
            self.births[keep_self], self.lifetimes[keep_self],
            other.births[keep_other], other.lifetimes[keep_other],
        )
        return common[pairs]


def uniform_lifetimes(cfg: PointConfiguration) -> Barcode:
    """Pass-through lifetimes: each point's bar takes its uniform mark.  Bars
    follow the configuration's row order."""
    if cfg.mark_model.kind != "uniform01":
        raise ValueError("uniform lifetimes need the uniform01 mark model")
    return Barcode(cfg.ids, cfg.positions[:, 0], cfg.marks)


def _ancestor_indices(positions: np.ndarray, cylinder_radius: float) -> np.ndarray:
    """For each row, the earliest later row in row order whose coordinates
    2..d lie within the cylinder: the sum of squared coordinate differences
    is at most the squared radius.  -1 when there is none.

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
    Cells are coarsened by powers of two while the flat cell index times N
    would overflow int64; coarser cells only add candidates.

    One sorted int64 key ``cell * N + row`` makes the later rows of each
    neighbour cell a contiguous run in ascending row order.  A dense
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
    rest = positions[:, 1:]
    side = cylinder_radius * (1.0 + 1e-9) + float(np.abs(rest).max(initial=0.0)) * 2.0**-50
    while True:
        cells = np.floor(rest / side).astype(np.int64)
        cells -= cells.min(axis=0) - 1  # a neighbour offset never wraps into another cell
        extent = cells.max(axis=0) + 2
        if math.prod(extent.tolist()) * n < 2**62:
            break
        side *= 2.0
    strides = np.cumprod(np.concatenate(([1], extent[:0:-1])))[::-1]
    key = cells @ strides * n + np.arange(n)
    order = np.argsort(key)
    key = key[order]
    cell_start = key - key % n  # key of the sorted row's cell, row 0

    # the first candidate of every (neighbour offset, sorted row) run, in one pass
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=rest.shape[1]))) @ strides * n
    lo = np.searchsorted(key, key + offsets[:, None] + 1)
    live = (lo < n) & (key.take(lo, mode="clip") < cell_start + offsets[:, None] + n)
    cand = order.take(lo, mode="clip")
    diff = rest[order] - rest[cand]
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
        diff = rest[row[run]] - rest[cand]
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


def build_merge_forest(cfg: PointConfiguration, cylinder_radius: float = 1.0) -> MergeForest:
    if cfg.window.dim < 2:
        raise ValueError("merge forests need dimension >= 2")
    n = len(cfg)
    anc = _ancestor_indices(cfg.positions, cylinder_radius)
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
    return MergeForest(
        cfg,
        up,
        np.flatnonzero(children == 0),
        merge_points,
        carried[merge_points],
        death,
    )


def elder_lifetimes(forest: MergeForest) -> Barcode:
    """Branch lifetimes: death time minus birth time for dying leaves, +inf for
    leaves that never lose a merge, 0 for non-leaves.  Bars follow the
    configuration's row order."""
    t = forest.cfg.positions[:, 0]
    leaf = np.zeros(len(t), dtype=bool)
    leaf[forest.leaves] = True
    life = np.where(forest.death >= 0, t[forest.death] - t, np.where(leaf, math.inf, 0.0))
    return Barcode(forest.cfg.ids, t, life)


def inversion_score(x_bar: Bar, y_bar: Bar) -> int:
    """1 iff the two bars invert: births and deaths oppositely ordered, both
    lifetimes strictly inside (0, 1).  Deaths are the rounded sums
    fl(birth + lifetime), as in every array form of the score."""
    if not (x_bar.admissible and y_bar.admissible):
        return 0
    db = x_bar.birth - y_bar.birth
    dd = (x_bar.birth + x_bar.lifetime) - (y_bar.birth + y_bar.lifetime)
    return 1 if (db < 0 < dd) or (dd < 0 < db) else 0


def _inversion_rows(births: np.ndarray, lifetimes: np.ndarray, rows) -> np.ndarray:
    """``inversion_score`` between the bars at ``rows`` and every bar: a
    (len(rows), N) boolean matrix."""
    ok = (lifetimes > 0) & (lifetimes < 1)
    d = np.where(ok, births + np.where(ok, lifetimes, 0.0), 0.0)  # masked rows never compare
    bb = births[rows, None] - births[None, :]
    dd = d[rows, None] - d[None, :]
    inv = ((bb < 0) & (dd > 0)) | ((bb > 0) & (dd < 0))
    return inv & ok[rows, None] & ok[None, :]


def changed_inversion_pairs(
    births0: np.ndarray, lifetimes0: np.ndarray, births1: np.ndarray, lifetimes1: np.ndarray
) -> np.ndarray:
    """Row pairs (i < j, ascending) whose inversion score differs between two
    row-aligned bar tables, as a (P, 2) int64 array.

    A score depends only on its two bars, so only the pairs that touch one of
    the k rows whose birth or lifetime changed are evaluated: k x N scores per
    table, in blocks of bounded size.
    """
    n = len(births0)
    moved = np.flatnonzero((births0 != births1) | (lifetimes0 != lifetimes1))
    found = [np.empty((0, 2), dtype=np.int64)]
    block = max(1, 2_000_000 // max(1, n))
    for start in range(0, len(moved), block):
        rows = moved[start : start + block]
        diff = _inversion_rows(births0, lifetimes0, rows) != _inversion_rows(
            births1, lifetimes1, rows
        )
        k, j = np.nonzero(diff)
        i = rows[k]
        found.append(np.column_stack((np.minimum(i, j), np.maximum(i, j))))
    return np.unique(np.concatenate(found), axis=0)  # a pair of two moved rows shows twice


def _inversion_partners(births: np.ndarray, lifetimes: np.ndarray) -> np.ndarray:
    """G for every bar: how many bars invert with it (0 if inadmissible).

    The admissible bars are sorted by (birth, death), so a later row with a
    tied birth never has a smaller death, and one strict death comparison
    decides whether two rows invert.  A bar's partners lie in its unit band
    (module docstring), so each row is compared with the ``width`` rows on
    either side only, ``width`` the widest band, through sliding windows
    padded with infinities, in row chunks of about 1M cells.
    """
    G = np.zeros(len(births), dtype=np.int64)
    idx = np.flatnonzero((lifetimes > 0.0) & (lifetimes < 1.0))
    idx = idx[_lex_order(births[idx], births[idx] + lifetimes[idx])]
    b = births[idx]
    d = b + lifetimes[idx]
    n = len(b)
    width = int((np.searchsorted(b, b + 1.0) - np.arange(n)).max(initial=1)) - 1
    if width <= 0:
        return G
    pad = np.full(width, np.inf)
    later = sliding_window_view(np.concatenate((d[1:], pad)), width)
    earlier = sliding_window_view(np.concatenate((-pad, d[:-1])), width)
    counts = np.empty(n, dtype=np.int64)
    step = max(1, 2**20 // width)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        own = d[rows, None]
        counts[rows] = np.count_nonzero(later[rows] < own, axis=1) + np.count_nonzero(
            earlier[rows] > own, axis=1
        )
    G[idx] = counts
    return G


def inversion_count(barcode: Barcode) -> int:
    """Ordered inversion pairs: each unordered inversion is counted once at
    each of its bars, so this is the sum of the compound counts."""
    return int(_inversion_partners(barcode.births, barcode.lifetimes).sum())


def inversion_compound_counts(births: np.ndarray, lifetimes: np.ndarray) -> np.ndarray:
    """G(Z) for every bar: the number of partners forming an inversion with it.

    Exact (sign comparisons only).  Bars with a lifetime outside (0, 1) get
    G = 0.
    """
    return _inversion_partners(births, lifetimes)


def barcode_to_text(barcode: Barcode) -> str:
    """One ``owner birth lifetime`` line per bar, floats in lossless 17-digit
    form (+inf as ``inf``)."""
    columns = (barcode.owners.tolist(), barcode.births.tolist(), barcode.lifetimes.tolist())
    return "".join(f"{o} {_g17(b)} {_g17(life)}\n" for o, b, life in zip(*columns))


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


def _tree_barcode_rows(cfg: PointConfiguration, ids):
    """Tree-lifetime (birth, lifetime) columns of the points with the given ids."""
    barcode = elder_lifetimes(build_merge_forest(cfg))
    rows = id_rows(cfg.ids, ids)
    return barcode.births[rows], barcode.lifetimes[rows]


def outside_pair_scores(cfg: PointConfiguration, center):
    """Tree-lifetime inversion scores between all pairs of points outside the
    side-8 box at ``center``: returns (outside ids, boolean score matrix)."""
    outside = cfg.ids[_outside_box(cfg, center)].tolist()
    return outside, _inversion_rows(*_tree_barcode_rows(cfg, outside), slice(None))


def shield_property_check(
    cfg: PointConfiguration,
    center,
    x,
    require_membership: bool = True,
) -> bool:
    """Insert x into the inner cube of the side-8 box at ``center`` and report
    whether every pair score between points outside the box is unchanged.
    ``x`` is a position or a ``MarkedPoint``, inserted as ``insert_point``
    takes it.
    """
    inner = Cube(tuple(center), INNER_HALF_SIDE)
    pos = x.position if isinstance(x, MarkedPoint) else tuple(float(v) for v in x)
    if not inner.contains(pos):
        raise ValueError("insertion point must lie in the inner cube")
    if require_membership and not shield_membership(cfg, center):
        raise ValueError("box content is not a shield configuration")
    outside = cfg.ids[_outside_box(cfg, center)]
    before = _tree_barcode_rows(cfg, outside)
    after = _tree_barcode_rows(insert_point(cfg, x), outside)
    return len(changed_inversion_pairs(*before, *after)) == 0
