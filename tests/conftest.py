"""Shared helpers and independent oracles for the test suite.

Oracles here follow the definitions literally (full scans, exhaustive path
enumeration, incremental radii) and stay independent of the optimized code
paths they check.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pairfunc.barcodes import Barcode, inversion_score
from pairfunc.functionals import AdmissibilityRule
from pairfunc.geometry import Cube, Window
from pairfunc.graphs import GeometricGraph
from pairfunc.process import MarkModel, MarkedPoint, PointConfiguration, id_rows, insert_point


def make_configuration(window, positions, marks=None, mark_model=None):
    mark_model = mark_model or (
        MarkModel.none() if marks is None else MarkModel.uniform_radius(0.0, 2.0)
    )
    return PointConfiguration(window, mark_model, positions, marks)


def random_configuration(rng, window, count, mark_model=MarkModel.none()):
    sides = np.array(window.sides)
    positions = rng.uniform(0.0, 1.0, (count, window.dim)) * sides
    marks = mark_model.sample(rng, count)
    return PointConfiguration(window, mark_model, positions, marks)


# ---------------------------------------------------------------- oracles --

def pair_value(a: int, b: int, ctx) -> float:
    """The pair score of ids a and b on a model's context: a crossing graph's
    1/8-weighted share of ``pair_scores``, or a barcode's inversion indicator
    of the two bars."""
    if a == b:
        return 0.0
    if isinstance(ctx, GeometricGraph):
        return ctx.pair_scores.get((min(a, b), max(a, b)), 0) / 8.0
    ka, kb = id_rows(ctx.owners, (a, b)).tolist()
    return float(inversion_score(ctx.bars[ka], ctx.bars[kb]))


def double_sum_oracle(cfg, model) -> float:
    """Ordered double loop over the pair score."""
    ctx = model.build_context(cfg)
    ids = cfg.ids.tolist()
    return sum(pair_value(a, b, ctx) for a in ids for b in ids if a != b)


def compound_scores_oracle(cfg, model) -> list[float]:
    """G(Z) for every point in row order: the pair score summed over all
    partners."""
    ctx = model.build_context(cfg)
    ids = cfg.ids.tolist()
    return [sum(pair_value(a, b, ctx) for b in ids if b != a) for a in ids]


def barcode_from_bars(bars) -> Barcode:
    """The column barcode holding the given scalar bars, in order."""
    bars = list(bars)
    return Barcode(
        [b.owner for b in bars], [b.birth for b in bars], [b.lifetime for b in bars]
    )


def inversion_count_quadratic(barcode: Barcode) -> int:
    """Ordered double loop over the displayed inversion indicator."""
    total = 0
    for x in barcode.bars:
        for y in barcode.bars:
            if x.owner != y.owner:
                total += inversion_score(x, y)
    return total


def inversion_compound_counts_blocked(births, lifetimes) -> np.ndarray:
    """G for every bar by comparing every admissible pair, in row blocks,
    with deaths taken as the rounded sums fl(birth + lifetime); 0 for an
    inadmissible bar."""
    n = len(births)
    G = np.zeros(n, dtype=np.int64)
    ok = (lifetimes > 0.0) & (lifetimes < 1.0)
    idx = np.nonzero(ok)[0]
    if len(idx) < 2:
        return G
    b = births[idx]
    d = b + lifetimes[idx]
    block = max(1, 2_000_000 // max(1, len(idx)))
    for start in range(0, len(idx), block):
        bb = b[start : start + block, None]
        dd = d[start : start + block, None]
        inv = ((bb < b[None, :]) & (dd > d[None, :])) | (
            (bb > b[None, :]) & (dd < d[None, :])
        )
        G[idx[start : start + block]] = inv.sum(axis=1)
    return G


def build_edges_oracle(cfg, kernel, slab_cutoff=1.0):
    """Dense all-pairs edge builder: (edges, segments, retained) as the
    tuples ``GeometricGraph`` holds, from the full N x N distance matrix."""
    from pairfunc.graphs import DirectedRandom, FixedRadius, Localized, MaxKernel
    from pairfunc.process import id_rows

    n = len(cfg)
    ids = cfg.ids
    pos = cfg.positions
    edges = []
    if n >= 2:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if isinstance(kernel, DirectedRandom):
            mat = dist <= cfg.marks[:, None]
            np.fill_diagonal(mat, False)
            src, dst = np.nonzero(mat)
            edges = [(int(ids[i]), int(ids[j])) for i, j in zip(src, dst)]
        else:
            if isinstance(kernel, FixedRadius):
                mat = dist <= kernel.radius
            else:
                assert isinstance(kernel, (MaxKernel, Localized))
                radii = cfg.marks
                if isinstance(kernel, Localized) and kernel.cap is not None:
                    counts = (dist <= radii[:, None]).sum(axis=1)  # includes the point itself
                    radii = np.where(counts <= kernel.cap, radii, 0.0)
                mat = dist <= np.minimum(radii[:, None], radii[None, :])
            iu, ju = np.triu_indices(n, 1)
            keep = mat[iu, ju]
            edges = [
                (min(int(ids[i]), int(ids[j])), max(int(ids[i]), int(ids[j])))
                for i, j in zip(iu[keep], ju[keep])
            ]
    edges.sort()
    segments = sorted({(min(a, b), max(a, b)) for a, b in edges})
    ends = id_rows(ids, np.array(segments, dtype=np.int64).reshape(-1, 2))
    retained = (np.abs(pos[ends[:, 0], :2] - pos[ends[:, 1], :2]) <= slab_cutoff).all(axis=1)
    return tuple(edges), tuple(segments), tuple(retained.tolist())


def ancestor_indices_oracle(positions, cylinder_radius):
    """Dense all-pairs ancestor search: the earliest later row whose
    coordinates 2..d lie within the cylinder radius, or -1."""
    n = len(positions)
    anc = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return anc
    rest = positions[:, 1:]
    d2 = rest[:, None, :] - rest[None, :, :]
    within = np.einsum("ijk,ijk->ij", d2, d2) <= cylinder_radius**2 + 0.0
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    cand = within & later
    has = cand.any(axis=1)
    anc[has] = np.argmax(cand[has], axis=1)
    return anc


def pad_gaps_oracle(rel_pad, cylinder_radius, mode, half, gap=0.5, top_strip=0.5):
    """Point-by-point gap clauses of one shield pad (see ``_pad_gaps_ok``)."""
    if len(rel_pad) == 0:
        return True
    order = np.lexsort(tuple(rel_pad[:, k] for k in range(rel_pad.shape[1] - 1, -1, -1)))
    pad = rel_pad[order]
    anc = ancestor_indices_oracle(pad, cylinder_radius)
    n = len(pad)
    top = pad[:, -1] >= half - top_strip
    if mode == "successor":
        for i in range(n):
            if top[i] or anc[i] < 0:
                continue
            if pad[anc[i], 0] - pad[i, 0] > gap:
                return False
        return True
    earliest_child = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        j = anc[i]
        if j >= 0 and earliest_child[j] < 0:
            earliest_child[j] = i  # children visited in time order
    for j in range(n):
        if top[j] or earliest_child[j] < 0:
            continue
        if pad[j, 0] - pad[earliest_child[j], 0] > gap:
            return False
    return True


def forest_oracle_lifetimes(cfg, cylinder_radius=1.0):
    """Definition-literal merge forest lifetimes via exhaustive path scans."""
    pts = list(cfg.points)
    order = {p.id: i for i, p in enumerate(pts)}

    def in_cylinder(z, v):
        dz = np.array(z.position[1:]) - np.array(v.position[1:])
        return float(dz @ dz) <= cylinder_radius**2

    ancestor = {}
    for z in pts:
        cands = [
            v for v in pts
            if order[v.id] > order[z.id] and in_cylinder(z, v)
        ]
        ancestor[z.id] = min(cands, key=lambda v: order[v.id]).id if cands else z.id

    children = {p.id: [] for p in pts}
    for pid, anc in ancestor.items():
        if anc != pid:
            children[anc].append(pid)
    leaves = [p.id for p in pts if not children[p.id]]
    degree = {p.id: len(children[p.id]) + (ancestor[p.id] != p.id) for p in pts}
    merges = [p.id for p in pts if degree[p.id] >= 3]

    def path(z_id):
        seen = [z_id]
        cur = z_id
        while ancestor[cur] != cur:
            cur = ancestor[cur]
            seen.append(cur)
        return seen

    reach = {leaf: set(path(leaf)) for leaf in leaves}
    survivor = {}
    for m in merges:
        flowing = [leaf for leaf in leaves if m in reach[leaf]]
        survivor[m] = min(flowing, key=lambda l: order[l])

    times = {p.id: p.position[0] for p in pts}
    lifetimes = {}
    for p in pts:
        if p.id not in leaves:
            lifetimes[p.id] = 0.0
            continue
        killers = [m for m in merges if m in reach[p.id] and survivor[m] != p.id]
        if killers:
            first = min(killers, key=lambda m: order[m])
            lifetimes[p.id] = times[first] - times[p.id]
        else:
            lifetimes[p.id] = math.inf
    return lifetimes


def stabilization_radius_oracle(cfg, x, model, rule: AdmissibilityRule | None = None):
    """Try every m = 1, 2, ... directly against the definition."""
    ctx0 = model.build_context(cfg)
    cfg2 = insert_point(cfg, x)
    ctx1 = model.build_context(cfg2)
    x_pos = x.position if isinstance(x, MarkedPoint) else tuple(x)
    ids = [p.id for p in cfg.points]
    pos = {p.id: p.position for p in cfg.points}

    def member_map(c, ctx):
        if rule is None:
            return None
        mask = rule.mask(c.window, c.positions, ctx.lifetimes)
        out = {}
        for row, p in enumerate(c.points):
            g = sum(pair_value(p.id, q.id, ctx) for q in c.points if q.id != p.id)
            out[p.id] = bool(mask[row] and g > 0)
        return out

    before_members = member_map(cfg, ctx0)
    after_members = member_map(cfg2, ctx1)

    m = 1
    while True:
        cube = Cube(x_pos, float(m))
        ok = True
        outside = [i for i in ids if not cube.contains(pos[i])]
        for a in outside:
            for b in outside:
                if a >= b:
                    continue
                if pair_value(a, b, ctx0) != pair_value(a, b, ctx1):
                    ok = False
                    break
            if not ok:
                break
        if ok and rule is not None:
            for a in outside:
                if before_members[a] != after_members[a]:
                    ok = False
                    break
        if ok:
            return m
        m += 1


def segment_crossing_oracle(p1, q1, p2, q2, samples=10_000):
    """Dense-parameter-sampling crossing decision.

    Returns True/False, or None for near-degenerate pairs that should be
    skipped (contact near an endpoint or ambiguous minimum distance).
    """
    p1, q1, p2, q2 = map(np.asarray, (p1, q1, p2, q2))

    def min_dist_to_segment(points, a, b):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0:
            return np.linalg.norm(points - a, axis=1).min(), 0.5
        t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.linalg.norm(points - proj, axis=1)
        k = int(np.argmin(d))
        return float(d[k]), float(k / (len(points) - 1))

    ts = np.linspace(0.0, 1.0, samples)
    lo, hi = 0.0, 1.0
    for _ in range(4):  # refine around the argmin
        grid = p1 + np.linspace(lo, hi, samples)[:, None] * (q1 - p1)
        d, frac = min_dist_to_segment(grid, p2, q2)
        t_best = lo + (hi - lo) * frac
        width = (hi - lo) / samples * 8
        lo, hi = max(0.0, t_best - width), min(1.0, t_best + width)
    if d < 1e-6:
        # contact: proper only if strictly interior on both segments
        s_grid = p2 + ts[:, None] * (q2 - p2)
        d2, u_best = min_dist_to_segment(s_grid, p1, q1)
        if min(t_best, 1 - t_best) < 1e-3 or min(u_best, 1 - u_best) < 1e-3:
            return None
        return True
    if d < 1e-3:
        return None  # too close to call robustly
    return False


def w1_quadrature_oracle(sample, nodes=1_000_000, lo=-8.0, hi=8.0):
    """Trapezoid quadrature of |F_hat - Phi| on [lo, hi].

    The empirical CDF is constant between order statistics, so the grid is
    laid out piecewise between them; within a piece the integrand is smooth
    and the trapezoid rule converges cleanly.
    """
    from scipy.special import ndtr

    x = np.sort(np.asarray(sample, dtype=float))
    m = len(x)
    breaks = np.concatenate(([lo], np.clip(x, lo, hi), [hi]))
    total = 0.0
    per_piece = max(64, nodes // (m + 1))
    for i in range(len(breaks) - 1):
        a, b = breaks[i], breaks[i + 1]
        if b <= a:
            continue
        level = i / m
        t = np.linspace(a, b, per_piece)
        total += float(np.trapezoid(np.abs(level - ndtr(t)), t))
    return total
