"""Random connection kernels, geometric graphs and projected crossing numbers.

The crossing number is a purely combinatorial quantity and is kept as an exact
integer unordered-pair count; the 1/8-weighted ordered form only appears in
``crossing_score``.  ``crossing_number`` uses a vectorized pair sweep,
``crossing_number_direct`` a plain double loop over edge pairs; the two must
agree exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import orientation, segments_properly_cross
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
    within ``slab_cutoff`` of each other in the first ``locality_order``
    coordinates.
    """

    cfg: PointConfiguration
    kernel: ConnectivityKernel
    edges: tuple[tuple[int, int], ...]
    slab_cutoff: float = 1.0
    locality_order: int = 2
    segments: tuple[tuple[int, int], ...] = field(default=())
    retained: tuple[bool, ...] = field(default=())

    def retained_segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(s for s, keep in zip(self.segments, self.retained) if keep)


def build_edges(
    cfg: PointConfiguration,
    kernel: ConnectivityKernel,
    slab_cutoff: float = 1.0,
    locality_order: int = 2,
) -> GeometricGraph:
    """Complete edge list for the kernel; deterministic given the configuration."""
    if kernel_needs_marks(kernel) and not cfg.mark_model.has_marks:
        raise ValueError(f"kernel {type(kernel).__name__} requires radius marks")
    n = len(cfg)
    ids = cfg.ids
    pos = cfg.positions
    edges: list[tuple[int, int]] = []
    if n >= 2:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if isinstance(kernel, FixedRadius):
            mat = dist <= kernel.radius
            iu, ju = np.triu_indices(n, 1)
            keep = mat[iu, ju]
            edges = [
                (min(int(ids[i]), int(ids[j])), max(int(ids[i]), int(ids[j])))
                for i, j in zip(iu[keep], ju[keep])
            ]
        elif isinstance(kernel, DirectedRandom):
            radii = cfg.marks
            mat = dist <= radii[:, None]
            np.fill_diagonal(mat, False)
            src, dst = np.nonzero(mat)
            edges = [(int(ids[i]), int(ids[j])) for i, j in zip(src, dst)]
        elif isinstance(kernel, (MaxKernel, Localized)):
            radii = cfg.marks
            if isinstance(kernel, Localized) and kernel.cap is not None:
                counts = (dist <= radii[:, None]).sum(axis=1)  # includes the point itself
                radii = np.where(counts <= kernel.cap, radii, 0.0)
            limit = np.minimum(radii[:, None], radii[None, :])
            mat = dist <= limit
            iu, ju = np.triu_indices(n, 1)
            keep = mat[iu, ju]
            edges = [
                (min(int(ids[i]), int(ids[j])), max(int(ids[i]), int(ids[j])))
                for i, j in zip(iu[keep], ju[keep])
            ]
        else:
            raise TypeError(f"unsupported kernel {kernel!r}")
    edges.sort()
    segments = sorted({(min(a, b), max(a, b)) for a, b in edges})
    ends = id_rows(ids, np.array(segments, dtype=np.int64).reshape(-1, 2))
    k = min(locality_order, cfg.window.dim)
    retained = (np.abs(pos[ends[:, 0], :k] - pos[ends[:, 1], :k]) <= slab_cutoff).all(axis=1)
    return GeometricGraph(
        cfg,
        kernel,
        tuple(edges),
        slab_cutoff,
        locality_order,
        tuple(segments),
        tuple(retained.tolist()),
    )


def _segment_geometry(graph: GeometricGraph):
    """Projected endpoints and endpoint ids of the retained segments."""
    ends = np.array(graph.retained_segments(), dtype=np.int64).reshape(-1, 2)
    rows = id_rows(graph.cfg.ids, ends)
    pos = graph.cfg.positions
    return np.hstack([pos[rows[:, 0], :2], pos[rows[:, 1], :2]]), ends


_PAIR_CHUNK = 1_000_000


def _crossing_pairs(graph: GeometricGraph) -> list[tuple[int, int]]:
    """Indices (into the retained-segment list) of properly crossing,
    non-adjacent segment pairs.  Vectorized with a float filter; borderline
    determinants fall back to the exact scalar predicate."""
    coords, ends = _segment_geometry(graph)
    m = len(coords)
    if m < 2:
        return []
    out: list[tuple[int, int]] = []
    iu, ju = np.triu_indices(m, 1)
    errbound = 3.3306690621773724e-16
    for start in range(0, len(iu), _PAIR_CHUNK):
        ii = iu[start : start + _PAIR_CHUNK]
        jj = ju[start : start + _PAIR_CHUNK]
        adjacent = (
            (ends[ii, 0] == ends[jj, 0])
            | (ends[ii, 0] == ends[jj, 1])
            | (ends[ii, 1] == ends[jj, 0])
            | (ends[ii, 1] == ends[jj, 1])
        )
        a = coords[ii]
        b = coords[jj]

        def _orient_block(ox, oy, ex, ey, px, py):
            left = (ex - ox) * (py - oy)
            right = (ey - oy) * (px - ox)
            det = left - right
            uncertain = np.abs(det) <= errbound * (np.abs(left) + np.abs(right))
            return np.sign(det), uncertain

        s1, u1 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 0], a[:, 1])
        s2, u2 = _orient_block(b[:, 0], b[:, 1], b[:, 2], b[:, 3], a[:, 2], a[:, 3])
        s3, u3 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 0], b[:, 1])
        s4, u4 = _orient_block(a[:, 0], a[:, 1], a[:, 2], a[:, 3], b[:, 2], b[:, 3])
        certain = ~(u1 | u2 | u3 | u4)
        crossing = (s1 * s2 < 0) & (s3 * s4 < 0) & ~adjacent
        sure = crossing & certain
        for i, j in zip(ii[sure], jj[sure]):
            out.append((int(i), int(j)))
        # unresolved determinants: decide exactly one pair at a time
        shaky = np.nonzero(~certain & ~adjacent)[0]
        for k in shaky:
            i, j = int(ii[k]), int(jj[k])
            p1, q1 = (coords[i, 0], coords[i, 1]), (coords[i, 2], coords[i, 3])
            p2, q2 = (coords[j, 0], coords[j, 1]), (coords[j, 2], coords[j, 3])
            if segments_properly_cross(p1, q1, p2, q2):
                out.append((i, j))
    out.sort()
    return out


def crossing_number(graph: GeometricGraph) -> int:
    """Number of unordered pairs of distinct, non-adjacent slab-retained edges
    whose plane projections properly cross."""
    return len(_crossing_pairs(graph))


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
    pairs = _crossing_pairs(graph)
    scores: dict[tuple[int, int], int] = {}
    for i, j in pairs:
        for a in ends[i]:
            for b in ends[j]:
                key = (int(min(a, b)), int(max(a, b)))
                scores[key] = scores.get(key, 0) + 1
    return scores


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
