"""Marked Poisson point processes: sampling, insertion, serialization.

A ``PointConfiguration`` stores its points as columns: a positions array, a
marks array and an ids array, sorted once by (position, id) and validated with
vectorized checks.  Library code reads the columns or row indices
(``id_rows`` maps ids to rows); the ``points`` tuple of ``MarkedPoint`` is a
read-only view built on first access for callers that want one object per
point.

Reproducibility contract: every random quantity is a pure function of a master
seed and a tuple of stream keys.  Streams are derived with numpy's splittable
``SeedSequence([master, *keys])`` construction; replication r of experiment e
uses ``derive_rng(master, e, r)``, and sampling splits one further level into a
position stream (key 0, which also draws the Poisson count first) and a mark
stream (key 1).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import Window

__all__ = [
    "MarkModel",
    "MarkedPoint",
    "PointConfiguration",
    "id_rows",
    "derive_rng",
    "sample_stack",
    "sample_ppp",
    "insert_point",
    "dump_configuration",
    "load_configuration",
]


def derive_rng(master: int, *keys: int) -> np.random.Generator:
    """Independent generator for stream (master, *keys), each a ``_seed``."""
    return np.random.default_rng(np.random.SeedSequence([_seed(v) for v in (master, *keys)]))


def _all_unique(values: np.ndarray) -> bool:
    """True iff no two entries of a 1-D array are equal: one sort and one
    comparison of neighbours (cheaper than ``np.unique``'s hash table)."""
    ordered = np.sort(values)
    return not (ordered[1:] == ordered[:-1]).any()


def _integer(value) -> int:
    """``int(value)``; a ValueError for a bool or a fraction (not truncated)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``float(value)``; a ValueError for a bool or an integer beyond the
    float range."""
    if isinstance(value, bool):  # not 1.0 and 0.0
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def _reals(value) -> tuple[float, ...]:
    """``_real`` of every element of a list; a TypeError for a string or an
    object (not a list of its characters or keys)."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(_real(x) for x in value)


def _seed(value) -> int:
    """The one seed rule, of flags, config records, PAIRFUNC_SEED and point
    files alike: ``_integer(value)`` in [0, 2**64); a ValueError otherwise (a
    stream key is not reduced modulo 2**64, so no two seeds alias)."""
    if type(value) is int and 0 <= value < 2**64:  # every stream key of a draw
        return value
    seed = _integer(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a seed must be an integer in [0, 2**64), got {seed}")
    return seed


def _lex_order(*columns: np.ndarray) -> np.ndarray:
    """``np.lexsort(columns[::-1])``, as one argsort when the primary key
    ``columns[0]`` has no ties (``-0.0`` ties ``0.0``; NaN takes the lexsort)."""
    order = np.argsort(columns[0])
    key = columns[0][order]
    return order if (key[1:] > key[:-1]).all() else np.lexsort(columns[::-1])


@dataclass(frozen=True)
class MarkModel:
    """Distribution of the independent mark attached to each point.

    Variants: ``none``, ``uniform01`` (lifetimes), ``exponential`` (radii with
    exponential tails, rate > 0) and ``uniform_radius`` (radii uniform on
    [lower, upper] with upper >= 1 so that radii >= 1 have positive mass).
    """

    kind: str = "none"
    rate: float = 1.0
    lower: float = 0.0
    upper: float = 1.5

    def __post_init__(self):
        if self.kind not in ("none", "uniform01", "exponential", "uniform_radius"):
            raise ValueError(f"unknown mark model {self.kind!r}")
        if self.kind == "exponential" and not self.rate > 0:
            raise ValueError("exponential mark model needs rate > 0")
        if self.kind == "uniform_radius":
            if not (0.0 <= self.lower < self.upper):
                raise ValueError("uniform_radius needs 0 <= lower < upper")
            if self.upper < 1.0:
                raise ValueError("uniform_radius needs upper >= 1")

    @classmethod
    def none(cls) -> "MarkModel":
        return cls("none")

    @classmethod
    def uniform01(cls) -> "MarkModel":
        return cls("uniform01")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "MarkModel":
        return cls("exponential", rate=rate)

    @classmethod
    def uniform_radius(cls, lower: float = 0.0, upper: float = 1.5) -> "MarkModel":
        return cls("uniform_radius", lower=lower, upper=upper)

    @property
    def has_marks(self) -> bool:
        return self.kind != "none"

    def sample(self, rng: np.random.Generator, size: int):
        if self.kind == "none":
            return None
        if self.kind == "uniform01":
            return rng.uniform(0.0, 1.0, size)
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.rate, size)
        return rng.uniform(self.lower, self.upper, size)

    def validate_marks(self, marks: np.ndarray | None) -> None:
        """Check a column of marks; ``None`` stands for no mark column."""
        if self.kind == "none":
            if marks is not None:
                raise ValueError("mark model 'none' admits no marks")
            return
        if marks is None or not np.isfinite(marks).all():
            raise ValueError("this mark model requires a finite real mark")
        if self.kind == "uniform01" and not ((marks >= 0.0) & (marks <= 1.0)).all():
            bad = marks[(marks < 0.0) | (marks > 1.0)][0]
            raise ValueError(f"uniform01 mark outside [0, 1]: {bad}")
        if (marks < 0).any():
            raise ValueError("radius marks must be nonnegative")

    def to_record(self) -> dict:
        if self.kind == "exponential":
            return {"kind": self.kind, "rate": self.rate}
        if self.kind == "uniform_radius":
            return {"kind": self.kind, "lower": self.lower, "upper": self.upper}
        return {"kind": self.kind}

    @classmethod
    def from_record(cls, rec: dict) -> "MarkModel":
        return cls(
            rec["kind"],
            rate=_real(rec.get("rate", 1.0)),
            lower=_real(rec.get("lower", 0.0)),
            upper=_real(rec.get("upper", 1.5)),
        )


@dataclass(frozen=True)
class MarkedPoint:
    """One marked point: the argument type of ``insert_point`` and the row type
    of the ``PointConfiguration.points`` view."""

    position: tuple[float, ...]
    mark: float | None
    id: int

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Finite multiset of marked points in a window, stored as columns.

    ``positions`` is an (N, d) float64 array, ``marks`` an (N,) float64 array
    (``None`` under the ``none`` mark model) and ``ids`` an (N,) int64 array of
    unique point ids (``arange(N)`` when not given).  Rows are sorted by
    coordinate 1, ties broken by the remaining coordinates and then by id, so
    row order is deterministic.  The columns are read-only; ``insert_point``
    returns a new configuration.  ``points`` is a tuple of
    ``MarkedPoint`` views of the rows, built on first access.
    """

    window: Window
    mark_model: MarkModel
    positions: np.ndarray
    marks: np.ndarray | None = None
    ids: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        dim = self.window.dim
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim == 1 and pos.size == 0:
            pos = np.empty((0, dim))
        if pos.ndim != 2 or pos.shape[1] != dim:
            raise ValueError("point dimension does not match the window")
        count = len(pos)
        ids = np.arange(count) if self.ids is None else np.asarray(self.ids, dtype=np.int64)
        marks = None if self.marks is None else np.asarray(self.marks, dtype=np.float64)
        if marks is None and count == 0 and self.mark_model.has_marks:
            marks = np.empty(0)
        if ids.shape != (count,) or (marks is not None and marks.shape != (count,)):
            raise ValueError("positions, marks and ids must have one row per point")
        if self.ids is not None and not _all_unique(ids):  # arange is unique
            raise ValueError("point ids must be unique")
        outside = ~self.window.mask(pos)
        if outside.any():
            raise ValueError(f"point {ids[outside][0]} lies outside the window")
        self.mark_model.validate_marks(marks)
        order = _lex_order(*pos.T, ids)
        for name, column in (("positions", pos), ("marks", marks), ("ids", ids)):
            if column is not None:
                column = column.take(order, axis=0)  # ~10x a fancy index on (N, d) rows
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointConfiguration):
            return NotImplemented
        return (
            self.window == other.window
            and self.mark_model == other.mark_model
            and self.seed == other.seed
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.ids, other.ids)
            and (self.marks is None) == (other.marks is None)
            and (self.marks is None or np.array_equal(self.marks, other.marks))
        )

    @cached_property
    def points(self) -> tuple[MarkedPoint, ...]:
        marks = [None] * len(self) if self.marks is None else self.marks.tolist()
        return tuple(
            MarkedPoint(tuple(pos), mark, pid)
            for pos, mark, pid in zip(self.positions.tolist(), marks, self.ids.tolist())
        )

    def next_id(self) -> int:
        fresh = int(self.ids.max()) + 1 if len(self) else 0
        if fresh == 2**63:  # no insertion may promote the ids to float64
            raise ValueError("no int64 id is left above the largest id 2**63 - 1")
        return fresh


def id_rows(ids: np.ndarray, query) -> np.ndarray:
    """Row index in the id column ``ids`` of every id in ``query`` (same
    shape); KeyError on an id the column lacks."""
    query = np.asarray(query, dtype=np.int64)
    order = np.argsort(ids)
    sorted_ids = ids[order]
    k = np.minimum(np.searchsorted(sorted_ids, query), max(len(ids) - 1, 0))
    if query.size and (len(ids) == 0 or not np.array_equal(sorted_ids[k], query)):
        raise KeyError(f"unknown point ids in {query.ravel().tolist()[:8]}")
    return order[k]


def _draw(window: Window, intensity: float, marks: MarkModel, seed) -> tuple:
    """Positions and marks of one Poisson sample, in draw order: a
    Poisson(intensity * volume) count of i.i.d. uniform positions from stream
    (*seed, 0), then i.i.d. marks from stream (*seed, 1)."""
    if not intensity > 0:
        raise ValueError("intensity must be positive")
    vol = window.volume
    if not vol > 0:
        raise ValueError("degenerate window with zero volume")
    keys = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    pos_rng = derive_rng(*keys, 0)
    count = int(pos_rng.poisson(intensity * vol))
    positions = pos_rng.uniform(0.0, 1.0, (count, window.dim)) * np.array(window.sides)
    return positions, marks.sample(derive_rng(*keys, 1), count)


def sample_stack(window: Window, intensity: float, marks: MarkModel, seeds) -> tuple:
    """One ``sample_ppp`` draw per seed, stacked into columns: positions (N,
    d), marks (N,) (None under the ``none`` mark model) and row offsets
    ``bounds``, sample k in rows ``bounds[k]:bounds[k + 1]``, in the rows'
    ``PointConfiguration`` order.  The stack is validated once."""
    parts = []
    for seed in seeds:
        positions, mark_values = _draw(window, intensity, marks, seed)
        order = _lex_order(*positions.T, np.arange(len(positions)))
        mark_values = None if mark_values is None else mark_values[order]
        parts.append((positions.take(order, axis=0), mark_values))
    positions = np.concatenate([pos for pos, _ in parts] + [np.empty((0, window.dim))])
    mark_values = np.concatenate([m for _, m in parts] + [np.empty(0)]) if marks.has_marks else None
    if not window.mask(positions).all():
        raise ValueError("a sampled point lies outside the window")
    marks.validate_marks(mark_values)
    for column in (positions, mark_values):
        if column is not None:
            column.flags.writeable = False  # and so every view of a sample's rows
    return positions, mark_values, np.cumsum([0] + [len(pos) for pos, _ in parts])


def _configuration(window: Window, marks: MarkModel, positions, mark_values, ids, seed=None):
    """A configuration on columns that are validated and in row order
    already, so they are neither checked nor sorted again; they are frozen."""
    cfg = object.__new__(PointConfiguration)
    for column in (positions, mark_values, ids):
        if column is not None:
            column.flags.writeable = False
    cfg.__dict__.update(window=window, mark_model=marks, positions=positions, marks=mark_values,
                        ids=ids, seed=seed)
    return cfg


def sample_ppp(
    window: Window,
    intensity: float = 1.0,
    marks: MarkModel = MarkModel.none(),
    seed: int | Sequence[int] = 0,
) -> PointConfiguration:
    """Poisson sample on the window: count ~ Poisson(intensity * volume), then
    i.i.d. uniform positions, then i.i.d. marks.  Bit-identical for identical
    (window, intensity, marks, seed)."""
    base_seed = int(seed) if isinstance(seed, (int, np.integer)) else None
    return PointConfiguration(window, marks, *_draw(window, intensity, marks, seed), seed=base_seed)


def insert_point(cfg: PointConfiguration, x: MarkedPoint | Sequence[float]) -> PointConfiguration:
    """New configuration with one extra point under a fresh id; input unchanged.
    A bare position carries no mark.  x follows the rows at or below it in
    (position, id) order, its id being the largest, so the checked rows keep
    their order and are not checked again."""
    if isinstance(x, MarkedPoint):
        position, mark = x.position, x.mark
    else:
        position, mark = tuple(float(v) for v in x), None
    if not cfg.window.contains(position):
        raise ValueError("inserted position lies outside the window")
    new_mark = None if mark is None else np.array([mark], dtype=np.float64)
    cfg.mark_model.validate_marks(new_mark)
    below = True
    for k in reversed(range(len(position))):  # lexicographic (position, id) <= x
        below = (cfg.positions[:, k] < position[k]) | (cfg.positions[:, k] == position[k]) & below
    at = int(np.count_nonzero(below))  # slices and concatenate: cheaper than np.insert
    positions, marks, ids = (
        None if old is None else np.concatenate([old[:at], new, old[at:]])
        for old, new in ((cfg.positions, [position]), (cfg.marks, new_mark), (cfg.ids, [cfg.next_id()]))
    )
    return _configuration(cfg.window, cfg.mark_model, positions, marks, ids, cfg.seed)


def _g17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def dump_configuration(cfg: PointConfiguration) -> str:
    """Line-oriented text dump with exact decimal round-trip."""
    w = cfg.window
    number = lambda v: json.loads(_g17(v))  # a float as _g17 writes it, 12.0 as 12
    header = {
        "d": w.dim,
        "window": {"dim": w.dim, "n": number(w.n), "a": [number(v) for v in w.coefficients],
                   "alpha": [number(v) for v in w.exponents], "margin": number(w.boundary_margin)},
        "markmodel": cfg.mark_model.to_record(),
        "seed": cfg.seed,
    }
    lines = [json.dumps(header, sort_keys=True)]
    marks = ["-"] * len(cfg) if cfg.marks is None else [_g17(m) for m in cfg.marks.tolist()]
    for pid, pos, mark in zip(cfg.ids.tolist(), cfg.positions.tolist(), marks):
        coords = " ".join(_g17(v) for v in pos)
        lines.append(f"{pid} {coords} {mark}")
    return "\n".join(lines) + "\n"


def load_configuration(text: str) -> PointConfiguration:
    """Parse a ``dump_configuration`` text.  The header must hold a window,
    its dimension ``d``, a mark model record and a seed (null or an integer),
    and every point line an id, d coordinates and a mark (``-`` for none); a
    malformed line raises ValueError naming its line number."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty configuration dump")
    try:
        header = json.loads(lines[0][1])
        rec = header["window"]
        window = Window(_real(rec["n"]), _integer(rec["dim"]), _reals(rec["a"]),
                        _reals(rec["alpha"]), _real(rec["margin"]))
        mark_model, seed = MarkModel.from_record(header["markmodel"]), header.get("seed")
        seed = None if seed is None else _seed(seed)
        if _integer(header["d"]) != window.dim:
            raise ValueError(f"d = {header['d']!r}, but the window has dimension {window.dim}")
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise ValueError(f"line {lines[0][0]}: malformed header ({type(exc).__name__}: {exc})") from None
    d = window.dim
    ids, positions, marks = [], [], []
    for lineno, ln in lines[1:]:
        fields = ln.split()
        if len(fields) != d + 2:
            raise ValueError(
                f"line {lineno}: expected {d + 2} fields (id, {d} coordinates, mark), "
                f"got {len(fields)}"
            )
        try:
            ids.append(int(fields[0]))
            if not -(2**63) <= ids[-1] < 2**63:
                raise ValueError(f"point id {fields[0]} lies outside int64")
            positions.append([float(v) for v in fields[1 : 1 + d]])
            marks.append(None if fields[-1] == "-" else float(fields[-1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    # a '-' among numeric marks becomes NaN and fails the mark check
    mark_column = None if all(m is None for m in marks) else np.array(marks, dtype=np.float64)
    return PointConfiguration(
        window, mark_model, np.array(positions), mark_column, ids, seed
    )
