"""Random connection kernels, geometric graphs and projected crossing numbers.

The crossing number is a purely combinatorial quantity and is kept as an exact
integer unordered-pair count; the 1/8-weighted ordered form only appears in
``crossing_score``.  Edges and crossings are found through cKDTree queries,
so the work grows with the number of nearby pairs, not with N^2;
``crossing_number_direct`` is a plain double loop over edge pairs, and the two
must agree exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.spatial import cKDTree

from .geometry import segments_properly_cross
from .process import MarkedPoint, PointConfiguration, id_rows

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
    "crossing_score",
    "crossing_pair_scores",
    "kernel_from_flag",
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


def kernel_needs_marks(kernel: ConnectivityKernel) -> bool:
    return not isinstance(kernel, FixedRadius)


def kernel_from_flag(flag: str) -> ConnectivityKernel:
    """Parse a --kernel flag: fixed | directed | max | localized:<cap>."""
    if flag == "fixed":
        return FixedRadius()
    if flag == "directed":
        return DirectedRandom()
    if flag == "max":
        return MaxKernel()
    if flag.startswith("localized"):
        _, _, cap = flag.partition(":")
        return Localized(cap=int(cap) if cap else None)
    raise ValueError(f"unknown kernel flag {flag!r}")


@dataclass(frozen=True)
class GeometricGraph:
    """Edge set of a kernel over a configuration.

    ``edges`` are id pairs: ordered (src, dst) for the directed kernel,
    (min, max) otherwise.  ``segments`` is the undirected support used for
    crossing counts, and ``retained`` flags segments whose endpoints stay
    within ``slab_cutoff`` of each other in the first two coordinates.
    """

    cfg: PointConfiguration
    kernel: ConnectivityKernel
    edges: tuple[tuple[int, int], ...]
    slab_cutoff: float = 1.0
    segments: tuple[tuple[int, int], ...] = field(default=())
    retained: tuple[bool, ...] = field(default=())


# Tree queries are widened by a relative 1e-9; every candidate is then decided
# by the float expressions below, never by the tree's own distance arithmetic,
# which may differ from them in the last ulp.
_WIDEN = 1.0 + 1e-9


def _distances(pos: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|pos[i] - pos[j]| row by row, in the float expression every edge
    decision uses."""
    diff = pos[i] - pos[j]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _ball_pairs(pos: np.ndarray, radii: np.ndarray):
    """Rows (i, j, |pos[i] - pos[j]|) of every j within the widened radius
    of i, the pair (i, i) included."""
    hits = cKDTree(pos).query_ball_point(pos, radii * _WIDEN, return_sorted=False)
    lens = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    i = np.repeat(np.arange(len(hits)), lens)
    j = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(lens.sum()))
    return i, j, _distances(pos, i, j)


def _pair_tuples(pairs: np.ndarray) -> tuple[tuple[int, int], ...]:
    """An (E, 2) int array as a tuple of builtin-int pairs."""
    return tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def build_edges(
    cfg: PointConfiguration,
    kernel: ConnectivityKernel,
    slab_cutoff: float = 1.0,
) -> GeometricGraph:
    """Complete edge list for the kernel; deterministic given the configuration.

    Candidate pairs come from a cKDTree over the positions; each is decided by
    the float distance sqrt(sum((pos_i - pos_j)**2)) against the kernel's
    limit: ``radius``, ``R_i`` (directed) or ``min(R_i, R_j)`` (max and
    localized).  Localized crowding counts come from the same decisions.
    """
    if kernel_needs_marks(kernel) and not cfg.mark_model.has_marks:
        raise ValueError(f"kernel {type(kernel).__name__} requires radius marks")
    if cfg.window.dim < 2:
        raise ValueError(f"crossing graphs need points of dimension >= 2, got {cfg.window.dim}")
    ids = cfg.ids
    pos = cfg.positions
    if isinstance(kernel, FixedRadius):
        i, j = cKDTree(pos).query_pairs(kernel.radius * _WIDEN, output_type="ndarray").T
        keep = _distances(pos, i, j) <= kernel.radius
    elif isinstance(kernel, DirectedRandom):
        radii = cfg.marks
        i, j, dist = _ball_pairs(pos, radii)
        keep = (i != j) & (dist <= radii[i])
    elif isinstance(kernel, (MaxKernel, Localized)):
        radii = cfg.marks
        i, j, dist = _ball_pairs(pos, radii)
        if isinstance(kernel, Localized) and kernel.cap is not None:
            # crowding counts include the point itself
            counts = np.bincount(i[dist <= radii[i]], minlength=len(pos))
            radii = np.where(counts <= kernel.cap, radii, 0.0)
        keep = (i < j) & (dist <= np.minimum(radii[i], radii[j]))
    else:
        raise TypeError(f"unsupported kernel {kernel!r}")
    a, b = ids[i[keep]], ids[j[keep]]
    if not isinstance(kernel, DirectedRandom):
        a, b = np.minimum(a, b), np.maximum(a, b)
    edges = np.stack([a, b], axis=1)[np.lexsort((b, a))]
    segments = np.unique(np.sort(edges, axis=1), axis=0)
    ends = id_rows(ids, segments)
    retained = (np.abs(pos[ends[:, 0], :2] - pos[ends[:, 1], :2]) <= slab_cutoff).all(axis=1)
    return GeometricGraph(
        cfg,
        kernel,
        _pair_tuples(edges),
        slab_cutoff,
        _pair_tuples(segments),
        tuple(retained.tolist()),
    )


def _segment_geometry(graph: GeometricGraph):
    """Projected endpoints (x0, y0, x1, y1) and endpoint ids of the retained
    segments."""
    segments = np.array(graph.segments, dtype=np.int64).reshape(-1, 2)
    ends = segments[np.array(graph.retained, dtype=bool)]
    rows = id_rows(graph.cfg.ids, ends)
    pos = graph.cfg.positions
    return np.hstack([pos[rows[:, 0], :2], pos[rows[:, 1], :2]]), ends


_PAIR_CHUNK = 1 << 16
_ERRBOUND = 3.3306690621773724e-16


def _orient_block(ox, oy, ex, ey, px, py):
    left = (ex - ox) * (py - oy)
    right = (ey - oy) * (px - ox)
    det = left - right
    uncertain = np.abs(det) <= _ERRBOUND * (np.abs(left) + np.abs(right))
    return np.sign(det), uncertain


def _crossing_pairs(coords: np.ndarray, ends: np.ndarray, slab_cutoff: float) -> np.ndarray:
    """(K, 2) rows (i, j), i < j, in lexicographic order: the properly
    crossing, non-adjacent pairs of retained segments.

    A retained segment spans at most ``slab_cutoff`` on each projected axis,
    so two segments that properly cross have midpoints within Chebyshev
    distance ``slab_cutoff``; only those candidate pairs are tested.  The
    query is widened by a relative 1e-9 plus the midpoints' rounding error.
    Each candidate goes through a float orientation filter; borderline
    determinants fall back to the exact scalar predicate."""
    if len(coords) < 2:
        return np.empty((0, 2), dtype=np.intp)
    mid = (coords[:, :2] + coords[:, 2:]) / 2.0
    reach = slab_cutoff * _WIDEN + 4.0 * np.finfo(float).eps * np.abs(mid).max()
    cand = cKDTree(mid).query_pairs(reach, p=np.inf, output_type="ndarray")
    cand = cand[np.lexsort((cand[:, 1], cand[:, 0]))]
    crosses = np.zeros(len(cand), dtype=bool)
    for start in range(0, len(cand), _PAIR_CHUNK):
        ii, jj = cand[start : start + _PAIR_CHUNK].T
        adjacent = (
            (ends[ii, 0] == ends[jj, 0])
            | (ends[ii, 0] == ends[jj, 1])
            | (ends[ii, 1] == ends[jj, 0])
            | (ends[ii, 1] == ends[jj, 1])
        )
        a = coords[ii]
        b = coords[jj]
        s1, u1 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 0], a[:, 1])
        s2, u2 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 2], a[:, 3])
        s3, u3 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 0], b[:, 1])
        s4, u4 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 2], b[:, 3])
        certain = ~(u1 | u2 | u3 | u4)
        crossing = (s1 * s2 < 0) & (s3 * s4 < 0) & ~adjacent
        crosses[start : start + len(ii)] = crossing & certain
        # unresolved determinants: decide exactly one pair at a time
        for k in np.flatnonzero(~certain & ~adjacent):
            i, j = ii[k], jj[k]
            p1, q1 = (coords[i, 0], coords[i, 1]), (coords[i, 2], coords[i, 3])
            p2, q2 = (coords[j, 0], coords[j, 1]), (coords[j, 2], coords[j, 3])
            crosses[start + k] = segments_properly_cross(p1, q1, p2, q2)
    return cand[crosses]


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
    keys = np.concatenate(
        [np.stack([first[:, p], second[:, q]], axis=1) for p in (0, 1) for q in (0, 1)]
    )
    keys, counts = np.unique(np.sort(keys, axis=1), axis=0, return_counts=True)
    return dict(zip(_pair_tuples(keys), counts.tolist()))


def crossing_score(Z, V, graph: GeometricGraph) -> float:
    """Ordered-sum pair score: 1/8 times the number of ordered partner pairs
    whose segments properly cross; 0 on the diagonal."""
    z_id = Z.id if isinstance(Z, MarkedPoint) else int(Z)
    v_id = V.id if isinstance(V, MarkedPoint) else int(V)
    if not np.isin([z_id, v_id], graph.cfg.ids).all():
        raise KeyError(f"unknown point ids ({z_id}, {v_id})")
    if z_id == v_id:
        return 0.0
    coords, ends = _segment_geometry(graph)
    count = 0
    inc_z = np.flatnonzero((ends == z_id).any(axis=1)).tolist()
    inc_v = np.flatnonzero((ends == v_id).any(axis=1)).tolist()
    for i in inc_z:
        for j in inc_v:
            if i == j:
                continue
            shared = set(map(int, ends[i])) & set(map(int, ends[j]))
            if shared:
                continue
            p1, q1 = (coords[i, 0], coords[i, 1]), (coords[i, 2], coords[i, 3])
            p2, q2 = (coords[j, 0], coords[j, 1]), (coords[j, 2], coords[j, 3])
            if segments_properly_cross(p1, q1, p2, q2):
                count += 1
    return count / 8.0


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
    lines += [f"{a} {b}" for a, b in graph.edges]
    return "\n".join(lines) + "\n"
