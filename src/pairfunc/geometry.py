"""Axis-aligned windows, boxes, cubes and exact planar segment predicates.

Everything here is an immutable value; all operations are pure functions, so the
types are safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Window",
    "AxisBox",
    "Cube",
    "segments_properly_cross",
]


# the largest window dimension: a point's row of dim float64 coordinates must
# fit in an array
_MAX_DIM = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def check_window_values(coefficients=(), exponents=(), boundary_margin=0.2) -> None:
    """A ValueError unless coefficients, exponents and margin are in range."""
    if any(v <= 0 for v in (*coefficients, *exponents)):
        raise ValueError("coefficients and exponents must be positive")
    if not (0.0 < boundary_margin < 1.0):
        raise ValueError("boundary_margin must lie in (0, 1)")


class _Region:
    """A closed region of dimension ``dim``.  ``mask(positions)`` maps an
    (N, dim) array to the (N,) boolean membership array: a shape check, then
    the region's one vectorized test ``_mask``.  ``contains(y)`` is its
    one-row form (False for a point of another dimension)."""

    def mask(self, positions) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != self.dim:
            raise ValueError(f"positions must be an (N, {self.dim}) array, got shape {pos.shape}")
        return self._mask(pos)

    def contains(self, y: Sequence[float]) -> bool:
        return len(y) == self.dim and bool(self.mask(np.asarray(y, dtype=np.float64)[None])[0])

    @staticmethod
    def _all_columns(tests) -> np.ndarray:
        """Row-wise AND of per-column (N,) boolean tests: several times faster
        than ``.all(axis=1)`` over an (N, d) comparison, with the same result."""
        return np.logical_and.reduce(list(tests))


@dataclass(frozen=True)
class Window(_Region):
    """Rectangle [0, n] x [0, a_2 n^alpha_2] x ... x [0, a_d n^alpha_d].

    ``boundary_margin`` is the exponent of the margin n^boundary_margin used by
    the shrunk window (boundary-effect trimming for admissibility rules).
    """

    n: float
    dim: int = 2
    coefficients: tuple[float, ...] = ()   # a_2 .. a_d
    exponents: tuple[float, ...] = ()      # alpha_2 .. alpha_d
    boundary_margin: float = 0.2

    def __post_init__(self):
        if not (self.n > 0 and math.isfinite(self.n)):
            raise ValueError(f"window scale n must be positive and finite, got {self.n}")
        # not a float or bool equal to one; bounded before the per-axis tuples are built
        if type(self.dim) is not int or not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dimension must be >= 1, <= {_MAX_DIM} and of type int, got {self.dim!r}")
        coeffs = tuple(float(c) for c in self.coefficients) or (1.0,) * (self.dim - 1)
        expos = tuple(float(e) for e in self.exponents) or (1.0,) * (self.dim - 1)
        if len(coeffs) != self.dim - 1 or len(expos) != self.dim - 1:
            raise ValueError("need one coefficient and one exponent per axis j = 2..d")
        check_window_values(coeffs, expos, self.boundary_margin)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exponents", expos)
        try:
            finite = math.isfinite(self.volume)
        except OverflowError:  # a side a_j n^alpha_j beyond the float range
            finite = False
        if not finite:
            raise ValueError("window volume is not finite")

    @property
    def sides(self) -> tuple[float, ...]:
        return (float(self.n),) + tuple(
            a * self.n ** al for a, al in zip(self.coefficients, self.exponents)
        )

    @property
    def volume(self) -> float:
        return math.prod(self.sides)

    def _mask(self, pos: np.ndarray) -> np.ndarray:
        return self._all_columns((col >= 0.0) & (col <= s) for col, s in zip(pos.T, self.sides))

    def shrunk(self) -> "AxisBox":
        """Window trimmed by n^boundary_margin on every face; raises when empty."""
        m = self.n ** self.boundary_margin
        lower = (m,) * self.dim
        upper = tuple(s - m for s in self.sides)
        if any(lo >= up for lo, up in zip(lower, upper)):
            raise ValueError("shrunk window is empty; margin exceeds half of a side")
        return AxisBox(lower, upper)


@dataclass(frozen=True)
class AxisBox(_Region):
    """Closed axis-aligned box given by lower and upper corners."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimensions differ")
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def _mask(self, pos: np.ndarray) -> np.ndarray:
        return self._all_columns(
            (col >= lo) & (col <= up) for col, lo, up in zip(pos.T, self.lower, self.upper)
        )


@dataclass(frozen=True)
class Cube(_Region):
    """Chebyshev ball: center + [-m, m]^d."""

    center: tuple[float, ...]
    half_side: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if self.half_side <= 0:
            raise ValueError("half_side must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def _mask(self, pos: np.ndarray) -> np.ndarray:
        near = (np.abs(m - col) <= self.half_side for m, col in zip(self.center, pos.T))
        return self._all_columns(near)


# Orientation predicate: float evaluation guarded by a forward error bound, with
# exact rational fallback.  No epsilon thresholds enter the decision.
_CCW_ERRBOUND = 3.3306690621773724e-16


def _orient_exact(a, b, c) -> int:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def orientation(a, b, c) -> int:
    """Sign of the determinant |b-a, c-a|: +1 counter-clockwise, -1 clockwise, 0 collinear."""
    detleft = (b[0] - a[0]) * (c[1] - a[1])
    detright = (b[1] - a[1]) * (c[0] - a[0])
    det = detleft - detright
    errbound = _CCW_ERRBOUND * (abs(detleft) + abs(detright))
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    return _orient_exact(a, b, c)


def segments_properly_cross(p1, q1, p2, q2) -> bool:
    """True iff the open segments (p1,q1) and (p2,q2) meet in exactly one interior point.

    Endpoint contacts, collinear overlaps and shared endpoints do not count.
    Total function: non-finite input yields False.
    """
    coords = (*p1, *q1, *p2, *q2)
    if not all(math.isfinite(v) for v in coords):
        return False
    d1 = orientation(p2, q2, p1)
    d2 = orientation(p2, q2, q1)
    d3 = orientation(p1, q1, p2)
    d4 = orientation(p1, q1, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def _kd_tree(points: np.ndarray):
    """A ``scipy.spatial.cKDTree`` over ``points``.  Every tree of the package
    is built here, so scipy.spatial loads on the first call: the models and
    commands that never query a tree do not pay for its import."""
    from scipy.spatial import cKDTree

    return cKDTree(points)

