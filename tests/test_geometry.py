import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfunc.geometry import (
    AxisBox,
    Cube,
    Window,
    segments_properly_cross,
)
from pairfunc.process import MarkModel, PointConfiguration, dump_configuration, load_configuration

from conftest import segment_crossing_oracle


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


def test_window_dimension_must_be_an_int():
    # a float or bool dimension compares like an int but cannot size a tuple
    for dim in (2.0, True, np.int64(2)):
        with pytest.raises(ValueError, match="of type int"):
            Window(n=5.0, dim=dim)


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


def test_cube_is_chebyshev_ball():
    c = Cube((0.0, 0.0), 1.5)
    assert c.contains((1.5, -1.5))
    assert not c.contains((1.6, 0.0))


def _corners(lower, upper):
    return list(itertools.product(*zip(lower, upper)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_region_mask_matches_contains_and_literal_comparisons(data):
    # a coarse 1/2 lattice, on which window sides, box corners and cube faces
    # all lie, so boundary points come up in almost every example
    d = data.draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 10).map(lambda k: k * 0.5)] * d)
    n = data.draw(st.sampled_from([2.0, 4.0]))
    coeffs = tuple(data.draw(st.sampled_from([0.5, 1.0])) for _ in range(d - 1))
    window = Window(n=n, dim=d, coefficients=coeffs)
    sides = window.sides
    lower, upper = data.draw(point), data.draw(point)  # lower > upper gives an empty box
    center = data.draw(point)
    half = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
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
    for region in (Window(n=4.0, dim=2), AxisBox((0.0, 0.0), (1.0, 1.0)), Cube((0.0, 0.0), 1.0)):
        with pytest.raises(ValueError, match="positions must be an"):
            region.mask(np.zeros((3, 1)))  # would broadcast silently against 2 columns
        with pytest.raises(ValueError, match="positions must be an"):
            region.mask(np.zeros(2))


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
    text = dump_configuration(PointConfiguration(w, MarkModel.none(), np.empty((0, 3))))
    assert load_configuration(text).window == w
