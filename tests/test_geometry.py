import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfunc.geometry import (
    AxisBox,
    BoxPartition,
    Cube,
    Slab,
    Window,
    box_at_index,
    segments_properly_cross,
    window_from_text,
    window_to_text,
)

from conftest import box_enumeration_oracle, segment_crossing_oracle


def test_window_sides_and_volume():
    w = Window(n=8.0, dim=3, coefficients=(2.0, 0.5), exponents=(1.0, 0.5))
    assert w.sides == (8.0, 16.0, 0.5 * 8.0**0.5)
    assert w.volume == pytest.approx(8.0 * 16.0 * 0.5 * 8.0**0.5)
    assert w.volume > 0


def test_window_rejects_degenerate_scale():
    with pytest.raises(ValueError):
        Window(n=0.0, dim=2)
    with pytest.raises(ValueError):
        Window(n=-3.0, dim=2)
    # a finite n whose volume, or one side n^alpha, overflows
    for kw in ({"n": 1e300}, {"n": 1e200, "exponents": (2.0,)}):
        with pytest.raises(ValueError, match="window volume is not finite"):
            Window(dim=2, **kw)


def test_shrunk_window_nested_and_nonempty():
    w = Window(n=16.0, dim=2, boundary_margin=0.5)
    inner = w.shrunk()
    m = 16.0**0.5
    assert inner.lower == (m, m) and inner.upper == (16.0 - m, 16.0 - m)
    for corner in [inner.lower, inner.upper]:
        assert w.contains(corner)
    tiny = Window(n=1.5, dim=2, boundary_margin=0.9)
    with pytest.raises(ValueError):
        tiny.shrunk()


def test_slab_membership_and_monotonicity():
    w = Window(n=10.0, dim=3)
    center = (5.0, 5.0, 5.0)
    slab = Slab(center, 1.0, 2, w)
    assert slab.contains((5.5, 4.5, 9.0))
    assert not slab.contains((7.0, 5.0, 5.0))    # first coordinate too far
    assert not slab.contains((5.0, 5.0, 11.0))   # outside the window
    # growing the width or lowering the order only adds points
    wider = Slab(center, 2.0, 2, w)
    looser = Slab(center, 1.0, 1, w)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, (200, 3))
    for p in pts:
        if slab.contains(p):
            assert wider.contains(p)
            assert looser.contains(p)


def test_cube_is_chebyshev_ball():
    c = Cube((0.0, 0.0), 1.5)
    assert c.contains((1.5, -1.5))
    assert not c.contains((1.6, 0.0))


def _corners(lower, upper):
    return list(itertools.product(*zip(lower, upper)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_region_mask_matches_contains_and_literal_comparisons(data):
    # a coarse 1/2 lattice, on which window sides, box corners, cube faces and
    # slab faces all lie, so boundary points come up in almost every example
    d = data.draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 10).map(lambda k: k * 0.5)] * d)
    n = data.draw(st.sampled_from([2.0, 4.0]))
    coeffs = tuple(data.draw(st.sampled_from([0.5, 1.0])) for _ in range(d - 1))
    window = Window(n=n, dim=d, coefficients=coeffs)
    sides = window.sides
    lower, upper = data.draw(point), data.draw(point)  # lower > upper gives an empty box
    center = data.draw(point)
    half = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
    order = data.draw(st.integers(1, d))
    cube_corners = _corners([c - half for c in center], [c + half for c in center])
    pts = (
        data.draw(st.lists(point, max_size=30))
        + _corners([0.0] * d, sides) + _corners(lower, upper) + cube_corners
    )

    def in_window(y):
        return all(0.0 <= v <= s for v, s in zip(y, sides))

    regions = [
        (window, in_window),
        (
            AxisBox(lower, upper),
            lambda y: all(lo <= v <= up for v, lo, up in zip(y, lower, upper)),
        ),
        (Cube(center, half), lambda y: all(abs(c - v) <= half for c, v in zip(center, y))),
        (
            Slab(center, half, order, window),
            lambda y: in_window(y) and all(abs(center[j] - y[j]) <= half for j in range(order)),
        ),
    ]
    positions = np.array(pts, dtype=float).reshape(len(pts), d)
    for region, literal in regions:
        got = region.mask(positions)
        assert got.dtype == bool and got.shape == (len(pts),)
        assert got.tolist() == [region.contains(p) for p in pts] == [literal(p) for p in pts]
        assert region.mask(np.empty((0, d))).shape == (0,)
        assert not region.contains(center + (0.0,))  # a point of another dimension
    assert all(Cube(center, half).mask(np.array(cube_corners)))  # closed faces


def test_region_mask_rejects_wrong_column_count():
    for region in (Window(n=4.0, dim=2), AxisBox((0.0, 0.0), (1.0, 1.0)), Cube((0.0, 0.0), 1.0),
                   Slab((1.0, 1.0), 1.0, 1, Window(n=4.0, dim=2))):
        with pytest.raises(ValueError, match="positions must be an"):
            region.mask(np.zeros((3, 1)))  # would broadcast silently against 2 columns
        with pytest.raises(ValueError, match="positions must be an"):
            region.mask(np.zeros(2))


# -- box partition -----------------------------------------------------------

def test_box_at_index_matches_worked_example():
    # d=2, n=3, one box per unit scale along each axis: index 6 -> [2r, 3r] x [r a2, 2 r a2]
    r, a2 = 1.5, 1.3
    part = BoxPartition(Window(n=3, dim=2, coefficients=(a2,)), r)
    assert part.axis_counts == (3, 3)
    box = box_at_index(part, 6)
    assert box.lower == pytest.approx((2 * r, r * a2))
    assert box.upper == pytest.approx((3 * r, 2 * r * a2))


def test_box_at_index_first_box_anchors_at_origin():
    part = BoxPartition(Window(n=3, dim=2, coefficients=(1.3,)), 0.7)
    box = box_at_index(part, 1)
    assert box.lower == (0.0, 0.0)
    assert box.upper == pytest.approx((0.7, 0.7 * 1.3))


def test_box_at_index_against_enumeration_oracle():
    part = BoxPartition(Window(n=4, dim=3), 1.0)
    lower, upper = box_enumeration_oracle(part, 21)
    box = box_at_index(part, 21)
    assert box.lower == pytest.approx(lower)
    assert box.upper == pytest.approx(upper)
    # and for the whole index range on a smaller instance
    part2 = BoxPartition(Window(n=2, dim=2, coefficients=(2.0,)), 0.5)
    for j in range(1, part2.total_boxes + 1):
        lo, up = box_enumeration_oracle(part2, j)
        b = box_at_index(part2, j)
        assert b.lower == pytest.approx(lo)
        assert b.upper == pytest.approx(up)


def test_box_index_bounds_checked():
    part = BoxPartition(Window(n=3, dim=2), 1.0)
    assert part.total_boxes == 9
    with pytest.raises(IndexError):
        box_at_index(part, 0)
    with pytest.raises(IndexError):
        box_at_index(part, 10)


def test_box_partition_covers_window_and_interior_disjoint():
    part = BoxPartition(Window(n=3, dim=2, coefficients=(1.5,)), 0.8)
    total_volume = part.total_boxes * part.box_volume
    assert total_volume >= part.window.volume - 1e-12
    rng = np.random.default_rng(7)
    sides = np.array(part.window.sides)
    for p in rng.uniform(0, 1, (50, 2)) * sides:
        strict_hits = 0
        for box in part.boxes():
            if all(l < v < u for v, l, u in zip(p, box.lower, box.upper)):
                strict_hits += 1
        assert strict_hits <= 1
        covered = any(b.contains(p) for b in part.boxes())
        assert covered


def test_box_partition_requires_integer_scale():
    with pytest.raises(ValueError):
        BoxPartition(Window(n=2.5, dim=2), 1.0)
    with pytest.raises(ValueError):
        BoxPartition(Window(n=3, dim=2, exponents=(0.5,)), 1.0)


def test_box_partition_rejects_non_covering_scales():
    # small coefficient and box scale: the boxes would not span the window
    with pytest.raises(ValueError):
        BoxPartition(Window(n=2, dim=2, coefficients=(0.5,)), 0.4)


# -- segment predicates -------------------------------------------------------

def test_crossing_x_configuration():
    assert segments_properly_cross((0, 0), (1, 1), (0, 1), (1, 0))


def test_parallel_disjoint_do_not_cross():
    assert not segments_properly_cross((0, 0), (1, 0), (0, 1), (1, 1))


def test_touching_and_shared_endpoints_do_not_cross():
    # T-contact at an endpoint
    assert not segments_properly_cross((0, 0), (1, 0), (0.5, 0), (0.5, 1))
    # shared endpoint
    assert not segments_properly_cross((0, 0), (1, 1), (1, 1), (2, 0))
    # collinear overlap
    assert not segments_properly_cross((0, 0), (2, 0), (1, 0), (3, 0))


def test_crossing_against_parameter_sampling_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    trials = 0
    while checked < 200 and trials < 2000:
        trials += 1
        p1, q1, p2, q2 = rng.uniform(0, 1, (4, 2))
        verdict = segment_crossing_oracle(p1, q1, p2, q2)
        if verdict is None:
            continue
        checked += 1
        assert segments_properly_cross(p1, q1, p2, q2) == verdict
    assert checked == 200


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=8))
def test_crossing_symmetries(coords):
    p1, q1 = (coords[0], coords[1]), (coords[2], coords[3])
    p2, q2 = (coords[4], coords[5]), (coords[6], coords[7])
    base = segments_properly_cross(p1, q1, p2, q2)
    assert segments_properly_cross(p2, q2, p1, q1) == base
    assert segments_properly_cross(q1, p1, p2, q2) == base
    assert segments_properly_cross(p1, q1, q2, p2) == base


# -- serialization ------------------------------------------------------------

def test_window_text_round_trip():
    w = Window(n=0.1 + 0.2, dim=3, coefficients=(1 / 3, 2.0), exponents=(0.7, 1.0),
               boundary_margin=0.123456789012345)
    back = window_from_text(window_to_text(w))
    assert back == w
