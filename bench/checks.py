"""Output checks: independent recomputation and recorded digests.

``independent_check`` recomputes the first replication of each (model,
smallest n) cell of a round, or the first draw of each survey, with code that
shares nothing with the library's fast paths: plain per-point distance scans
for edges, a plain pair loop over the exact segment predicate for crossings,
a time-sweep merge forest, pairwise birth/death inversions and per-point G for
the sum-log-sum.  Integers and the admissible/dropped counts must match
exactly.  ``digest_check`` compares the round's output files with
``digests.json``, recorded at the seed commit for ``DEFAULT_SEED``.
"""
from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from pairfunc import experiment
from pairfunc.geometry import Window, segments_properly_cross
from pairfunc.models import get_model
from pairfunc.process import derive_rng

from workloads import Call, Workload, round_seed

DIGESTS = Path(__file__).with_name("digests.json")
RESULTS = Path(__file__).with_name("results")
CUTOFF = 1.0  # the library default slab cutoff and cylinder radius


# -- inputs, rebuilt from the same seeds the library uses ---------------------

def _points(cfg):
    """(positions, ids, marks) of a configuration, in its stored order."""
    pos = np.array([p.position for p in cfg.points], dtype=float).reshape(len(cfg.points), -1)
    ids = [p.id for p in cfg.points]
    marks = [p.mark for p in cfg.points]
    return pos, ids, marks


def _survey_inputs(call: Call, seed: int):
    """Configuration and insertion of draw 0, as ``stabilization_survey``
    draws them."""
    model = get_model(call.model)
    window = Window(n=call.n_grid[0], dim=call.d)
    cfg = model.sample(window, (seed, 0, 0))
    rng = derive_rng(seed, 1, 0)
    x = tuple(rng.uniform(0.0, 1.0, call.d) * np.array(window.sides))
    mark = model.mark_model.sample(rng, 1)
    return cfg, np.array(x), None if mark is None else float(mark[0])


def _with_insertion(pos, ids, marks, x, mark):
    """Points after inserting x under a fresh id, re-sorted by (position, id)."""
    rows = sorted(
        [(tuple(p), i, m) for p, i, m in zip(pos, ids, marks)] + [(tuple(x), max(ids) + 1, mark)]
    )
    return np.array([r[0] for r in rows]), [r[1] for r in rows], [r[2] for r in rows]


# -- crossings ----------------------------------------------------------------

def _edges(pos, ids, marks, model_id):
    """Edge list of the model's kernel by one distance scan per point."""
    base, _, cap = model_id.partition(":")
    n = len(pos)
    dist = [np.sqrt(((pos - pos[i]) ** 2).sum(axis=1)) for i in range(n)]
    if base == "crossing-fixed":
        radius = np.ones(n)
    else:
        radius = np.array(marks, dtype=float)
        if cap:
            crowd = np.array([(dist[i] <= radius[i]).sum() for i in range(n)])
            radius = np.where(crowd <= int(cap), radius, 0.0)
    edges = []
    for i in range(n):
        for j in np.flatnonzero(dist[i] <= np.minimum(radius[i], radius)):
            if j > i:
                edges.append((min(ids[i], ids[j]), max(ids[i], ids[j])))
    return sorted(edges)


def _retained(edges, pos, ids):
    at = {pid: k for k, pid in enumerate(ids)}
    dims = min(2, pos.shape[1])
    return [
        (a, b) for a, b in edges
        if all(abs(pos[at[a], j] - pos[at[b], j]) <= CUTOFF for j in range(dims))
    ]


def _crossing_pairs(segments, pos, ids):
    """Pairs of non-adjacent retained segments whose plane projections
    properly cross, by a pair loop over the exact predicate (bounding boxes
    that do not meet skip the predicate)."""
    at = {pid: k for k, pid in enumerate(ids)}
    ends = [(pos[at[a], :2], pos[at[b], :2]) for a, b in segments]
    lo = np.array([np.minimum(p, q) for p, q in ends]).reshape(-1, 2)
    hi = np.array([np.maximum(p, q) for p, q in ends]).reshape(-1, 2)
    out = []
    for i, (a, b) in enumerate(segments):
        meets = np.flatnonzero(np.all(lo[i + 1:] <= hi[i], axis=1) & np.all(hi[i + 1:] >= lo[i], axis=1))
        for j in meets + i + 1:
            c, d = segments[j]
            if {a, b} & {c, d}:
                continue
            if segments_properly_cross(tuple(ends[i][0]), tuple(ends[i][1]),
                                       tuple(ends[j][0]), tuple(ends[j][1])):
                out.append((segments[i], segments[j]))
    return out


def _crossing_scores(pos, ids, marks, model_id):
    """Sparse pair scores (id_min, id_max) -> number of crossing segment pairs
    with one of the two points on each segment."""
    segments = _retained(_edges(pos, ids, marks, model_id), pos, ids)
    scores: dict[tuple[int, int], int] = {}
    for s, t in _crossing_pairs(segments, pos, ids):
        for a in s:
            for b in t:
                key = (min(a, b), max(a, b))
                scores[key] = scores.get(key, 0) + 1
    return scores


# -- barcodes -----------------------------------------------------------------

def _tree_lifetimes(pos):
    """Elder-rule lifetimes of a time-sorted configuration: each point links to
    its earliest later point within the unit cylinder; a merge point keeps the
    earliest-born arriving leaf and kills the others."""
    n = len(pos)
    rest = pos[:, 1:]
    parent = [-1] * n
    children = [[] for _ in range(n)]
    for i in range(n - 1):
        near = np.flatnonzero(((rest[i + 1:] - rest[i]) ** 2).sum(axis=1) <= CUTOFF**2)
        if near.size:
            parent[i] = i + 1 + int(near[0])
            children[parent[i]].append(i)
    carried, death = {}, {}
    for i in range(n):
        if not children[i]:
            carried[i] = i
            continue
        arrivals = [carried[c] for c in children[i]]
        carried[i] = min(arrivals)
        if len(children[i]) + (parent[i] >= 0) >= 3:
            for a in arrivals:
                if a != carried[i]:
                    death[a] = i
    life = np.zeros(n)
    for i in range(n):
        if not children[i]:
            life[i] = pos[death[i], 0] - pos[i, 0] if i in death else math.inf
    return life


def _lifetimes(model_id, pos, marks):
    return np.array(marks, dtype=float) if model_id.endswith("uniform") else _tree_lifetimes(pos)


def _inversions(births, lifetimes):
    """Boolean inversion matrix: both lifetimes in (0, 1), births and deaths
    strictly oppositely ordered."""
    ok = (lifetimes > 0.0) & (lifetimes < 1.0)
    b = births
    d = np.where(ok, births + np.where(ok, lifetimes, 0.0), 0.0)
    inv = np.zeros((len(b), len(b)), dtype=bool)
    for i in np.flatnonzero(ok):
        inv[i] = ok & (((b[i] < b) & (d[i] > d)) | ((b[i] > b) & (d[i] < d)))
    return inv


def _admissible(pos, lifetimes, window):
    """Inside the window trimmed by n^margin on every face, lifetime in (0, 1)."""
    m = window.n ** window.boundary_margin
    inside = np.all((pos >= m) & (pos <= np.array(window.sides) - m), axis=1)
    return inside & (lifetimes > 0.0) & (lifetimes < 1.0)


def _members(pos, lifetimes, window):
    """Admissible points with positive G (the sum-log-sum's support)."""
    G = _inversions(pos[:, 0], lifetimes).sum(axis=1)
    return _admissible(pos, lifetimes, window) & (G > 0)


# -- the checks ---------------------------------------------------------------

def _replication(call: Call, seed: int):
    """Independent (value, admissible, dropped) of replication 0 at the
    smallest n of a run_experiment call."""
    model = get_model(call.model)
    window = Window(n=call.n_grid[0], dim=call.d)
    cfg = model.sample(window, (seed, 0, 0))
    pos, ids, marks = _points(cfg)
    if call.model.startswith("crossing"):
        segments = _retained(_edges(pos, ids, marks, call.model), pos, ids)
        return float(len(_crossing_pairs(segments, pos, ids))), None, None
    life = _lifetimes(call.model, pos, marks)
    G = _inversions(pos[:, 0], life).sum(axis=1)
    if call.model.startswith("inversion"):
        return float(G.sum()), None, None
    admissible = _admissible(pos, life, window)
    total = 0.0
    for g in G[admissible & (G > 0)]:
        total += math.log(g)
    return total, int(admissible.sum()), int((admissible & (G == 0)).sum())


def _radius(call: Call, seed: int) -> int:
    """Independent stabilization radius of survey draw 0."""
    cfg, x, mark = _survey_inputs(call, seed)
    pos, ids, marks = _points(cfg)
    pos2, ids2, marks2 = _with_insertion(pos, ids, marks, x, mark)
    cheb = {pid: float(np.abs(p - x).max()) for p, pid in zip(pos, ids)}
    if call.model.startswith("crossing"):
        before = _crossing_scores(pos, ids, marks, call.model)
        after = _crossing_scores(pos2, ids2, marks2, call.model)
        changed = [
            k for k in set(before) | set(after)
            if k[0] in cheb and k[1] in cheb and before.get(k, 0) != after.get(k, 0)
        ]
    else:
        keep = [ids2.index(pid) for pid in ids]  # original points, original order
        life = _lifetimes(call.model, pos, marks)
        life2 = _lifetimes(call.model, pos2, marks2)
        inv = _inversions(pos[:, 0], life)
        inv2 = _inversions(pos2[:, 0], life2)[np.ix_(keep, keep)]
        changed = [(ids[i], ids[j]) for i, j in zip(*np.nonzero(inv != inv2)) if i < j]
    worst = max((min(cheb[a], cheb[b]) for a, b in changed), default=0.0)
    if call.with_admissibility:
        window = Window(n=call.n_grid[0], dim=call.d)
        before = _members(pos, life, window)
        after = _members(pos2, life2, window)[keep]
        worst = max([worst] + [cheb[ids[k]] for k in np.flatnonzero(before != after)])
    return max(1, math.ceil(worst))


def independent_check(workload: Workload, seed: int, results: list) -> list[str]:
    """Mismatches between round 0's results and the independent recomputation."""
    s = round_seed(seed, 0)
    problems = []
    for call, result in zip(workload.calls, results):
        if call.survey:
            expected = _radius(call, s)
            if result.radii[0] != expected:
                problems.append(f"{call.model}: radius {result.radii[0]} != {expected}")
            continue
        row = result.rows[0]
        value, admissible, dropped = _replication(call, s)
        got = (row.value, row.admissible, row.dropped_zero_g)
        exact = got[1:] == (admissible, dropped) and (
            row.value == value if admissible is None
            else math.isclose(row.value, value, rel_tol=1e-12, abs_tol=1e-12)
        )
        if not exact:
            problems.append(f"{call.model}: (value, admissible, dropped) {got} != {(value, admissible, dropped)}")
    return problems


# -- digests ------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(workload: Workload, results: list) -> dict[str, dict[str, str]]:
    """Digests of what each call of a round writes: ``results.csv`` and
    ``summary.csv`` from ``write_outputs``, or a survey's radii."""
    out = {}
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for call, result in zip(workload.calls, results):
            if call.survey:
                out[call.model] = {"radii": _sha(json.dumps(list(result.radii)).encode())}
                continue
            directory = Path(tmp) / call.model.replace(":", "-")
            experiment.write_outputs(result, directory)
            out[call.model] = {
                name: _sha((directory / name).read_bytes()) for name in ("results.csv", "summary.csv")
            }
    return out


def digest_check(workload: Workload, digests: dict) -> list[str]:
    """Mismatches between a round-0 digest set and the recorded one."""
    recorded = json.loads(DIGESTS.read_text())[workload.name]
    return [
        f"{label}/{name}: digest differs from the seed commit"
        for label, files in recorded.items()
        for name, value in files.items()
        if digests.get(label, {}).get(name) != value
    ]
