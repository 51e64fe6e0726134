"""Deterministic reference configurations used by tests, demos and the CLI.

Three families live here: a merge-tree layout with known branch lifetimes
{2, 7, +inf}, a six-star "snowflake" layout whose projected crossing number is
exactly 3, and shield templates (ladder-structured pads) whose member boxes
provably absorb insertions.
"""
from __future__ import annotations

import math

import numpy as np

from .barcodes import HALF_SIDE, INNER_HALF_SIDE
from .geometry import Cube, Window
from .graphs import DirectedRandom
from .process import MarkModel, PointConfiguration, derive_rng

__all__ = [
    "poisson_tree_figure_configuration",
    "POISSON_TREE_FIGURE_LIFETIMES",
    "snowflake_configuration",
    "SNOWFLAKE_KERNEL",
    "shield_template_points",
    "sample_shielded_configuration",
]


# Merge-tree layout: leaves born at times 0, 2 and 1; merges at times 4 and 8.
# The final point continues the surviving branch past the last merge so that
# the merge has tree degree 3.
_TREE_POINTS = (
    (0.0, 5.0),    # leaf, survives everything
    (1.0, 1.5),    # leaf, dies at time 8  -> lifetime 7
    (2.0, 3.75),   # leaf, dies at time 4  -> lifetime 2
    (4.0, 4.25),   # first merge
    (5.0, 1.2),
    (6.0, 3.75),
    (7.0, 2.1),
    (8.0, 2.95),   # second merge
    (9.0, 3.05),   # continuation of the surviving branch
)

POISSON_TREE_FIGURE_LIFETIMES = {0: math.inf, 1: 7.0, 2: 2.0}


def poisson_tree_figure_configuration() -> PointConfiguration:
    window = Window(n=10.0, dim=2, coefficients=(0.6,), exponents=(1.0,))
    return PointConfiguration(window, MarkModel.none(), _TREE_POINTS)


# Snowflakes: six-armed stars of arm length 0.9.  Centers carry radius marks
# equal to the arm length and tips carry tiny marks, so the directed kernel
# draws exactly the arms (plus two short center-to-foreign-tip segments per
# overlapping pair, which cross nothing).

SNOWFLAKE_KERNEL = DirectedRandom()
_ARM = 0.9
_CENTER_MARK = 0.91
_TIP_MARK = 0.01
# (center, rotation degrees) per star; stars 0/1, 2/3 and 4/5 overlap one arm pair.
_STARS = (
    ((2.0, 2.0), 0.0),
    ((3.2, 1.7), 40.0),
    ((8.0, 2.5), 0.0),
    ((9.2, 2.2), 40.0),
    ((4.0, 8.0), 0.0),
    ((5.2, 7.7), 40.0),
)


def snowflake_configuration() -> PointConfiguration:
    window = Window(n=12.0, dim=2)
    positions: list[tuple[float, float]] = []
    marks: list[float] = []
    for (cx, cy), rot in _STARS:
        positions.append((cx, cy))
        marks.append(_CENTER_MARK)
        for k in range(6):
            ang = math.radians(rot + 60.0 * k)
            positions.append((cx + _ARM * math.cos(ang), cy + _ARM * math.sin(ang)))
            marks.append(_TIP_MARK)
    return PointConfiguration(
        window, MarkModel.uniform_radius(0.0, 1.0), positions, marks
    )


# Shield templates.  Each pad holds three "ladders": chains of rungs a small
# time step apart whose heights move by 0.3 per rung, ending (starting) in the
# exempt top strip.  Ladders cover the pad with radius-1/4 balls and give every
# non-top rung a neighbor within the 1/2 gap, so the box is a shield member;
# the earliest rungs of the right pad carry old births down every height, which
# pins the Elder decisions seen from outside.

_RUNG_STEP = 0.3
_LADDER_DT = 0.002
_N_RUNGS = 27  # heights 3.8 down to -4.0 relative to the box center


def _ladder(t0: float, descending: bool) -> list[tuple[float, float]]:
    pts = []
    for i in range(_N_RUNGS):
        h = 3.8 - _RUNG_STEP * i if descending else -4.0 + _RUNG_STEP * i
        h = min(3.97, max(-3.97, h))  # keep jittered rungs inside the box
        pts.append((t0 + _LADDER_DT * i, h))
    return pts


def shield_template_points(center, rng: np.random.Generator | None = None) -> list[tuple[float, float]]:
    """Pad points of a shield box centered at ``center`` (d = 2), optionally
    jittered within margins that keep every membership clause valid."""
    cx, ct = float(center[0]), float(center[1])
    rel: list[tuple[float, float]] = []
    for t0 in (-3.95, -3.77, -3.59):
        rel += _ladder(t0, descending=False)   # left pad climbs to the top strip
    for t0 in (3.55, 3.73, 3.91):
        rel += _ladder(t0, descending=True)    # right pad descends from it
    out = []
    for t, h in rel:
        if rng is not None:
            t += float(rng.uniform(-4e-4, 4e-4))
            h += float(rng.uniform(-0.01, 0.01))
        out.append((cx + t, ct + h))
    return out


def sample_shielded_configuration(window: Window, center, seed: int) -> PointConfiguration:
    """Shield pads around ``center`` plus unit-intensity Poisson content
    outside the box and inside the inner cube; the void annulus stays empty."""
    if window.dim != 2:
        raise ValueError("shield sampling is implemented for dimension 2")
    rng = derive_rng(seed, 7)
    parts = [np.array(shield_template_points(center, rng))]
    n_outside = rng.poisson(window.volume)
    draws = rng.uniform(0.0, 1.0, (n_outside, 2)) * np.array(window.sides)
    parts.append(draws[~Cube(tuple(center), HALF_SIDE).mask(draws)])
    inner_side = 2 * INNER_HALF_SIDE
    n_inner = rng.poisson(inner_side**2)
    draws = np.array(center) - INNER_HALF_SIDE + rng.uniform(0.0, inner_side, (n_inner, 2))
    parts.append(draws[Cube(tuple(center), INNER_HALF_SIDE).mask(draws)])
    # ids are assigned in draw order: template, outside draws, inner draws
    return PointConfiguration(window, MarkModel.none(), np.vstack(parts))
