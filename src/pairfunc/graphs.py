"""Random connection kernels, geometric graphs and projected crossing numbers.

The crossing number is a purely combinatorial quantity and is kept as an exact
integer unordered-pair count; the 1/8-weighted ordered form only appears in
the crossing models' pair score, which reads ``crossing_pair_scores``.  Edges
and crossings are found through cKDTree queries, so the work grows with the
number of nearby pairs, not with N^2; ``crossing_number_direct`` is a plain
double loop over edge pairs, and the two must agree exactly.

A ``GeometricGraph`` holds its edges, segments and retained flags as
read-only columns (``edge_ids``, ``segment_ids``, ``retained_mask``), and the
crossing path stays in arrays from ``build_edges`` to the count; the tuple
views ``edges`` and ``retained`` are built only when read.  One code path
serves a column stack of many configurations (``stack_compound_scores``) and
one graph (``build_edges``, ``crossing_number``): one cKDTree per group.
Candidate crossing pairs (midpoints within the slab cutoff) lose the adjacent
pairs and the pairs whose projected bounding boxes are strictly disjoint on
an axis before any orientation test.  That reject is exact: a proper crossing
point lies on both segments, hence in both closed boxes, so the boxes meet on
every axis; the comparisons read stored coordinates and involve no rounding.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .geometry import _CCW_ERRBOUND, _kd_tree, segments_properly_cross
from .process import PointConfiguration, id_rows

__all__ = [
    "FixedRadius",
    "DirectedRandom",
    "MaxKernel",
    "Localized",
    "ConnectivityKernel",
    "GeometricGraph",
    "build_edges",
    "crossing_number",
    "crossing_number_direct",
    "crossing_pair_scores",
    "stack_compound_scores",
    "kernel_from_flag",
    "parse_cap",
    "graph_to_text",
]


@dataclass(frozen=True)
class FixedRadius:
    """Undirected edge whenever the distance is at most ``radius``."""

    radius: float = 1.0


@dataclass(frozen=True)
class DirectedRandom:
    """Directed edge Z -> Z' whenever |Z - Z'| <= R_Z (marks are radii)."""


@dataclass(frozen=True)
class MaxKernel:
    """Undirected edge whenever the distance is within both radii (min governs)."""


@dataclass(frozen=True)
class Localized:
    """Min-kernel on effective radii R_x * 1{#(points in B(x, R_x)) <= cap}.

    A point crowded by more than ``cap`` neighbors (itself included) loses its
    connectivity entirely; cap=None disables the cut and recovers MaxKernel.
    """

    cap: int | None = None


ConnectivityKernel = Union[FixedRadius, DirectedRandom, MaxKernel, Localized]


def parse_cap(flag: str, name: str) -> int | None:
    """The crowding cap of ``name`` or ``name:<cap>``: None without a suffix
    (no cut), else the decimal integer ``<cap>``, which must be >= 1 because
    the crowding count includes the point itself.  ValueError otherwise."""
    base, colon, cap = flag.partition(":")
    if base != name:
        raise ValueError(f"expected {name!r} or '{name}:<cap>', got {flag!r}")
    if colon and not (cap.isascii() and cap.isdigit() and int(cap) >= 1):
        raise ValueError(f"the cap in {flag!r} must be an integer >= 1")
    return int(cap) if colon else None


def kernel_from_flag(flag: str) -> ConnectivityKernel:
    """Parse a --kernel flag: fixed | directed | max | localized[:<cap>]."""
    if flag == "fixed":
        return FixedRadius()
    if flag == "directed":
        return DirectedRandom()
    if flag == "max":
        return MaxKernel()
    if flag.partition(":")[0] == "localized":
        return Localized(parse_cap(flag, "localized"))
    raise ValueError(f"unknown kernel flag {flag!r}")


@dataclass(frozen=True, eq=False)
class GeometricGraph:
    """Edge set of a kernel over a configuration, stored as read-only columns.

    ``edge_ids`` is an (E, 2) int64 array of id pairs: ordered (src, dst) for
    the directed kernel, (min, max) otherwise.  ``segment_ids`` (S, 2) is the
    undirected support used for crossing counts, (min, max) rows, and
    ``retained_mask`` (S,) flags the segments whose endpoints stay within
    ``slab_cutoff`` of each other in the first two coordinates.  The
    constructor takes arrays or sequences of pairs.  ``edges`` and
    ``retained`` are tuple views of the columns (builtin ints and bools),
    built on first access.  The graph is the context of the crossing models.
    """

    cfg: PointConfiguration
    kernel: ConnectivityKernel
    edge_ids: np.ndarray
    slab_cutoff: float = 1.0
    segment_ids: np.ndarray = ()
    retained_mask: np.ndarray = ()

    def __post_init__(self):
        # views, so that freezing them leaves the caller's arrays writeable
        edge_ids = np.asarray(self.edge_ids, dtype=np.int64).reshape(-1, 2)
        segment_ids = np.asarray(self.segment_ids, dtype=np.int64).reshape(-1, 2)
        retained_mask = np.asarray(self.retained_mask, dtype=bool).view()
        if retained_mask.shape != (len(segment_ids),):
            raise ValueError("retained needs one flag per segment")
        for name, column in (
            ("edge_ids", edge_ids), ("segment_ids", segment_ids), ("retained_mask", retained_mask)
        ):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.edge_ids[:, 0].tolist(), self.edge_ids[:, 1].tolist()))

    @cached_property
    def retained(self) -> tuple[bool, ...]:
        return tuple(self.retained_mask.tolist())

    def total(self) -> int:
        """The crossing number: the 1/8-weighted pair score summed over
        ordered pairs of ids."""
        return crossing_number(self)

    def changed_pairs(self, other: "GeometricGraph") -> np.ndarray:
        """(P, 2) int64 array of the id pairs whose pair score differs in
        ``other``, in ascending order.  Only pairs of ids present in both
        configurations count: a pair with a point missing from either (an
        inserted or a removed point) is left out."""
        before, after = crossing_pair_scores(self), crossing_pair_scores(other)
        keys = {key for key, _ in before.items() ^ after.items()}
        pairs = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2)
        kept = np.isin(pairs, self.cfg.ids).all(axis=1) & np.isin(pairs, other.cfg.ids).all(axis=1)
        return pairs[kept]


# Tree queries are widened by a relative 1e-9; every candidate is then decided
# by the float expressions below, never by the tree's own distance arithmetic,
# which may differ from them in the last ulp.
_WIDEN = 1.0 + 1e-9


def _distances(pos: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|pos[i] - pos[j]| row by row, in the float expression every edge
    decision uses."""
    diff = pos.take(i, axis=0) - pos.take(j, axis=0)  # take: ~3x a fancy index on rows
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _tree_pairs(points: np.ndarray, reach: float, bounds, p: float = 2.0) -> tuple:
    """Rows (i, j), i < j, of the pairs within ``reach`` (Minkowski ``p``) of
    each group of rows ``bounds[k]:bounds[k + 1]``: one cKDTree per group."""
    pairs = [_kd_tree(points[a:b]).query_pairs(reach, p=p, output_type="ndarray") + a
             for a, b in zip(bounds[:-1], bounds[1:])]
    return tuple(np.concatenate(pairs + [np.empty((0, 2), dtype=np.intp)]).T)


def _ball_pairs(pos: np.ndarray, radii: np.ndarray, bounds):
    """Rows (i, j, |pos[i] - pos[j]|) of every j of i's group within the
    widened radius of i, the pair (i, i) included: one cKDTree per group,
    whose Python neighbour lists are flattened before the next group's."""
    rows = [np.empty(0, dtype=np.intp)] * 2
    for a, b in zip(bounds[:-1], bounds[1:]):
        hits = _kd_tree(pos[a:b]).query_ball_point(pos[a:b], radii[a:b] * _WIDEN, return_sorted=False)
        lens = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
        j = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(lens.sum()))
        rows += [np.repeat(np.arange(a, b), lens), j + a]
    i, j = np.concatenate(rows[0::2]), np.concatenate(rows[1::2])
    del rows  # before the distances, the peak of a task's edge search
    return i, j, _distances(pos, i, j)


def _edges(pos: np.ndarray, marks, bounds, kernel: ConnectivityKernel, slab_cutoff: float, ids):
    """The kernel's edge rows (src, dst) in each group of rows, segment rows
    (lo, hi), ``ids[lo] < ids[hi]``, in (id, id) order, and retained flags.
    Each candidate is decided by the float distance against the kernel's
    limit: ``radius``, ``R_i`` (directed) or ``min(R_i, R_j)``."""
    if isinstance(kernel, FixedRadius):
        i, j = _tree_pairs(pos, kernel.radius * _WIDEN, bounds)
        keep = _distances(pos, i, j) <= kernel.radius
    elif isinstance(kernel, DirectedRandom):
        i, j, dist = _ball_pairs(pos, marks, bounds)
        keep = (i != j) & (dist <= marks[i])
    elif isinstance(kernel, (MaxKernel, Localized)):
        radii = marks
        i, j, dist = _ball_pairs(pos, radii, bounds)
        if isinstance(kernel, Localized) and kernel.cap is not None:
            # crowding counts include the point itself
            counts = np.bincount(i[dist <= radii[i]], minlength=len(pos))
            radii = np.where(counts <= kernel.cap, radii, 0.0)
        keep = (i < j) & (dist <= np.minimum(radii[i], radii[j]))
    else:
        raise TypeError(f"unsupported kernel {kernel!r}")
    src, dst = i[keep], j[keep]
    # segment rows: the smaller id first, one per id pair (Z -> Z' and
    # Z' -> Z share a segment), in (id, id) order
    flip = ids[src] > ids[dst]
    lo, hi = np.where(flip, dst, src), np.where(flip, src, dst)
    order, starts = _runs(ids[lo], ids[hi])
    lo, hi = lo[order[starts]], hi[order[starts]]
    xy = pos[:, :2]
    retained = (np.abs(xy.take(lo, axis=0) - xy.take(hi, axis=0)) <= slab_cutoff).all(axis=1)
    return src, dst, lo, hi, retained


def build_edges(
    cfg: PointConfiguration,
    kernel: ConnectivityKernel,
    slab_cutoff: float = 1.0,
) -> GeometricGraph:
    """Complete edge list for the kernel; deterministic given the
    configuration: the one-group case of ``_edges``."""
    if not isinstance(kernel, FixedRadius) and not cfg.mark_model.has_marks:
        raise ValueError(f"kernel {type(kernel).__name__} requires radius marks")
    if cfg.window.dim < 2:
        raise ValueError(f"crossing graphs need points of dimension >= 2, got {cfg.window.dim}")
    ids = cfg.ids
    src, dst, lo, hi, retained = _edges(cfg.positions, cfg.marks, [0, len(ids)], kernel, slab_cutoff, ids)
    edge_ids = segment_ids = np.stack([ids[lo], ids[hi]], axis=1)
    if isinstance(kernel, DirectedRandom):
        edge_ids = np.stack([ids[src], ids[dst]], axis=1)[np.lexsort((ids[dst], ids[src]))]
    return GeometricGraph(cfg, kernel, edge_ids, slab_cutoff, segment_ids, retained)


def stack_compound_scores(pos, marks, bounds, kernel: ConnectivityKernel, slab_cutoff: float = 1.0):
    """G of every row of a column stack (``process.sample_stack``): a quarter
    of the crossing pairs whose segments the row ends, so each group's G adds
    up to its crossing number.  Segments end at stack rows, no ids."""
    _, _, lo, hi, retained = _edges(pos, marks, bounds, kernel, slab_cutoff, np.arange(len(pos)))
    ends = np.stack([lo, hi], axis=1)[retained]
    coords = pos[:, :2].take(ends, axis=0).reshape(-1, 4)  # (x0, y0, x1, y1) rows
    pairs = _crossing_pairs(coords, ends, slab_cutoff, np.searchsorted(ends[:, 0], bounds))
    return np.bincount(ends[pairs].ravel(), minlength=len(pos)) / 4.0


def _runs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic order of the rows (a, b), and the positions in that
    order where a run of equal rows starts."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, np.flatnonzero(new)


def _segment_geometry(graph: GeometricGraph):
    """Projected endpoints (x0, y0, x1, y1) and endpoint ids of the retained
    segments."""
    ends = graph.segment_ids[graph.retained_mask]
    return graph.cfg.positions[:, :2].take(id_rows(graph.cfg.ids, ends), axis=0).reshape(-1, 4), ends


def _orient_block(ox, oy, ex, ey, px, py):
    left = (ex - ox) * (py - oy)
    right = (ey - oy) * (px - ox)
    det = left - right
    uncertain = np.abs(det) <= _CCW_ERRBOUND * (np.abs(left) + np.abs(right))
    return np.sign(det), uncertain


def _crossing_pairs(coords: np.ndarray, ends: np.ndarray, slab_cutoff: float, bounds=None) -> np.ndarray:
    """(K, 2) rows (i, j), i < j, in lexicographic order: the properly
    crossing, non-adjacent pairs of retained segments of one group of rows.

    A retained segment spans at most ``slab_cutoff`` on each projected axis,
    so two segments that properly cross have midpoints within Chebyshev
    distance ``slab_cutoff``; only those candidate pairs are tested, from one
    midpoint cKDTree per group.  The query is widened by a relative 1e-9 plus
    the midpoints' rounding error.  Adjacent pairs are dropped, and so are
    pairs whose bounding boxes are strictly disjoint on an axis: a proper
    crossing point lies in both boxes.  Each remaining pair goes through a
    float orientation filter; borderline determinants fall back to the exact
    scalar predicate."""
    mid = (coords[:, :2] + coords[:, 2:]) / 2.0
    reach = slab_cutoff * _WIDEN + 4.0 * np.finfo(float).eps * np.abs(mid).max(initial=0.0)
    ii, jj = _tree_pairs(mid, reach, (0, len(coords)) if bounds is None else bounds, p=np.inf)
    e0, e1 = ends[:, 0], ends[:, 1]
    keep = (e0[ii] != e0[jj]) & (e0[ii] != e1[jj]) & (e1[ii] != e0[jj]) & (e1[ii] != e1[jj])
    ii, jj = ii[keep], jj[keep]
    for axis in (0, 1):
        lo = np.minimum(coords[:, axis], coords[:, axis + 2])
        hi = np.maximum(coords[:, axis], coords[:, axis + 2])
        keep = (lo[ii] <= hi[jj]) & (lo[jj] <= hi[ii])
        ii, jj = ii[keep], jj[keep]
    a = coords[ii]
    b = coords[jj]
    s1, u1 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 0], a[:, 1])
    s2, u2 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 2], a[:, 3])
    s3, u3 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 0], b[:, 1])
    s4, u4 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 2], b[:, 3])
    certain = ~(u1 | u2 | u3 | u4)
    crosses = certain & (s1 * s2 < 0) & (s3 * s4 < 0)
    # unresolved determinants: decide exactly one pair at a time
    for k in np.flatnonzero(~certain):
        i, j = ii[k], jj[k]
        p1, q1 = (coords[i, 0], coords[i, 1]), (coords[i, 2], coords[i, 3])
        p2, q2 = (coords[j, 0], coords[j, 1]), (coords[j, 2], coords[j, 3])
        crosses[k] = segments_properly_cross(p1, q1, p2, q2)
    ii, jj = ii[crosses], jj[crosses]
    order = np.lexsort((jj, ii))
    return np.stack([ii[order], jj[order]], axis=1)


def crossing_number(graph: GeometricGraph) -> int:
    """Number of unordered pairs of distinct, non-adjacent slab-retained edges
    whose plane projections properly cross."""
    return len(_crossing_pairs(*_segment_geometry(graph), graph.slab_cutoff))


def crossing_number_direct(graph: GeometricGraph) -> int:
    """Brute-force double loop over unordered edge pairs; same crossing convention."""
    coords, ends = _segment_geometry(graph)
    m = len(coords)
    total = 0
    for i in range(m):
        p1 = (coords[i, 0], coords[i, 1])
        q1 = (coords[i, 2], coords[i, 3])
        for j in range(i + 1, m):
            if (
                ends[i, 0] == ends[j, 0]
                or ends[i, 0] == ends[j, 1]
                or ends[i, 1] == ends[j, 0]
                or ends[i, 1] == ends[j, 1]
            ):
                continue
            p2 = (coords[j, 0], coords[j, 1])
            q2 = (coords[j, 2], coords[j, 3])
            if segments_properly_cross(p1, q1, p2, q2):
                total += 1
    return total


def crossing_pair_scores(graph: GeometricGraph) -> dict[tuple[int, int], int]:
    """Sparse map (id_min, id_max) -> number of crossing segment pairs that
    separate the two points (one endpoint in each segment).  The pair score of
    (Z, V) is this count divided by 8 after the ordered sum collapses."""
    coords, ends = _segment_geometry(graph)
    pairs = _crossing_pairs(coords, ends, graph.slab_cutoff)
    first, second = ends[pairs[:, 0]], ends[pairs[:, 1]]
    # the 2 x 2 endpoint pairings of every crossing pair, as (min, max) rows
    a = np.repeat(first, 2, axis=1).ravel()
    b = np.tile(second, 2).ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order, starts = _runs(lo, hi)
    counts = np.diff(np.append(starts, len(order)))
    keys = order[starts]
    return dict(zip(zip(lo[keys].tolist(), hi[keys].tolist()), counts.tolist()))


def graph_to_text(graph: GeometricGraph, points_ref: str = "-") -> str:
    """Graph dump: point file reference, kernel descriptor, one edge per line."""
    k = graph.kernel
    if isinstance(k, FixedRadius):
        desc = f"fixed:{k.radius!r}"
    elif isinstance(k, DirectedRandom):
        desc = "directed"
    elif isinstance(k, MaxKernel):
        desc = "max"
    else:
        desc = f"localized:{k.cap if k.cap is not None else ''}"
    lines = [f"points={points_ref} kernel={desc} cutoff={graph.slab_cutoff!r}"]
    lines += [f"{a} {b}" for a, b in graph.edge_ids.tolist()]
    return "\n".join(lines) + "\n"
