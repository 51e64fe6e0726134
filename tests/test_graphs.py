import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairfunc.fixtures import SNOWFLAKE_KERNEL, snowflake_configuration
from pairfunc.geometry import Window, segments_properly_cross
from pairfunc.graphs import (
    DirectedRandom,
    FixedRadius,
    GeometricGraph,
    Localized,
    MaxKernel,
    _crossing_pairs,
    _segment_geometry,
    build_edges,
    crossing_number,
    crossing_number_direct,
    crossing_pair_scores,
    graph_to_text,
    kernel_from_flag,
)
from pairfunc.models import get_model
from pairfunc.process import MarkModel, MarkedPoint, PointConfiguration, insert_point

from conftest import build_edges_oracle, make_configuration, random_configuration


W2 = Window(n=10.0, dim=2)
W3 = Window(n=10.0, dim=3)


def test_fixed_radius_pair():
    cfg = make_configuration(W2, [(1.0, 1.0), (1.3, 1.4)])
    g = build_edges(cfg, FixedRadius())
    assert g.edges == ((0, 1),)


def test_max_kernel_min_radius_governs():
    cfg = make_configuration(W2, [(1.0, 1.0), (1.5, 1.0)], marks=[0.6, 0.3])
    assert build_edges(cfg, MaxKernel()).edges == ()
    assert build_edges(cfg, DirectedRandom()).edges == ((0, 1),)


def test_kernel_mark_mismatch_raises():
    cfg = make_configuration(W2, [(1.0, 1.0), (1.5, 1.0)])
    with pytest.raises(ValueError):
        build_edges(cfg, DirectedRandom())
    with pytest.raises(ValueError):
        build_edges(cfg, MaxKernel())
    # fixed radius ignores marks entirely
    marked = make_configuration(W2, [(1.0, 1.0), (1.5, 1.0)], marks=[0.1, 0.1])
    assert build_edges(marked, FixedRadius()).edges == ((0, 1),)


@pytest.mark.parametrize("kernel", [FixedRadius(), DirectedRandom(), MaxKernel(), Localized(3)])
def test_edges_match_all_pairs_oracle(kernel):
    rng = np.random.default_rng(17)
    for _ in range(10):
        count = int(rng.integers(2, 50))
        cfg = random_configuration(rng, Window(n=4.0, dim=3), count, MarkModel.uniform_radius(0.0, 1.2))
        g = build_edges(cfg, kernel)
        pos = {p.id: np.array(p.position) for p in cfg.points}
        radius = {p.id: p.mark for p in cfg.points}
        if isinstance(kernel, Localized) and kernel.cap is not None:
            eff = {}
            for i in pos:
                inside = sum(
                    1 for j in pos if np.linalg.norm(pos[i] - pos[j]) <= radius[i]
                )
                eff[i] = radius[i] if inside <= kernel.cap else 0.0
            radius = eff
        expected = set()
        for i in pos:
            for j in pos:
                if i == j:
                    continue
                d = np.linalg.norm(pos[i] - pos[j])
                if isinstance(kernel, FixedRadius):
                    ok = d <= kernel.radius and i < j
                elif isinstance(kernel, DirectedRandom):
                    ok = d <= radius[i]
                else:
                    ok = d <= min(radius[i], radius[j]) and i < j
                if ok:
                    expected.add((i, j))
        assert set(g.edges) == expected


def test_localized_without_cap_equals_max_kernel():
    rng = np.random.default_rng(23)
    cfg = random_configuration(rng, Window(n=4.0, dim=3), 40, MarkModel.uniform_radius(0.0, 1.2))
    assert build_edges(cfg, Localized(None)).edges == build_edges(cfg, MaxKernel()).edges


def _segments(g):
    """The graph's segment id pairs as a tuple of builtin-int pairs."""
    return tuple(map(tuple, g.segment_ids.tolist()))


def test_max_kernel_edges_subset_of_directed_support():
    rng = np.random.default_rng(29)
    cfg = random_configuration(rng, Window(n=4.0, dim=3), 40, MarkModel.uniform_radius(0.0, 1.2))
    mk = set(_segments(build_edges(cfg, MaxKernel())))
    dr = set(_segments(build_edges(cfg, DirectedRandom())))
    assert mk <= dr


def _x_crossing_cfg():
    # two unit-length edges in d=3 whose projections cross; the pairs of
    # endpoints across edges stay farther than 1 apart.
    pts = [
        (0.0, 0.0, 0.0),
        (0.6, 0.6, 0.0),
        (0.0, 0.6, 0.9),
        (0.6, 0.0, 0.9),
    ]
    return make_configuration(W3, pts)


def test_crossing_score_x_configuration():
    score = get_model("crossing-fixed").pair_value
    cfg = _x_crossing_cfg()
    g = build_edges(cfg, FixedRadius())
    assert set(_segments(g)) == {(0, 1), (2, 3)}
    for z, v in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        assert score(z, v, g) == pytest.approx(1 / 8)
        assert score(v, z, g) == pytest.approx(1 / 8)
    total = sum(
        score(z, v, g)
        for z in (0, 1, 2, 3)
        for v in (0, 1, 2, 3)
        if z != v
    )
    assert total == pytest.approx(1.0)
    assert crossing_number(g) == 1
    assert crossing_number_direct(g) == 1


def test_crossing_score_diagonal_and_isolated():
    score = get_model("crossing-fixed").pair_value
    cfg = _x_crossing_cfg()
    g = build_edges(cfg, FixedRadius())
    assert score(0, 0, g) == 0.0
    cfg2 = insert_point(cfg, (5.0, 5.0, 5.0))
    g2 = build_edges(cfg2, FixedRadius())
    iso = max(p.id for p in cfg2.points)
    assert score(iso, 0, g2) == 0.0


def test_crossing_number_empty_and_single_edge():
    empty = PointConfiguration(W3, MarkModel.none(), ())
    g = build_edges(empty, FixedRadius())
    assert crossing_number(g) == 0
    assert crossing_number_direct(g) == 0
    single = make_configuration(W3, [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
    g1 = build_edges(single, FixedRadius())
    assert crossing_number(g1) == 0
    assert crossing_number_direct(g1) == 0


def test_crossing_number_matches_direct_on_random_graphs():
    rng = np.random.default_rng(31)
    kernels = [FixedRadius(), DirectedRandom(), MaxKernel(), Localized(4)]
    for trial in range(40):
        kernel = kernels[trial % 4]
        count = int(rng.integers(2, 60))
        cfg = random_configuration(
            rng, Window(n=4.0, dim=3), count, MarkModel.uniform_radius(0.0, 1.2)
        )
        g = build_edges(cfg, kernel)
        assert crossing_number(g) == crossing_number_direct(g)


def test_slab_retention_drops_long_edges():
    # radii large enough to connect, but the pair is 1.4 apart in coordinate 1
    cfg = make_configuration(W3, [(1.0, 1.0, 1.0), (2.4, 1.0, 1.0)], marks=[2.0, 2.0])
    g = build_edges(cfg, MaxKernel())
    assert _segments(g) == ((0, 1),)
    assert g.retained == (False,)
    assert crossing_number(g) == 0


def test_fixed_radius_monotone_under_insertion():
    rng = np.random.default_rng(37)
    for _ in range(5):
        cfg = random_configuration(rng, Window(n=4.0, dim=3), 40)
        g = build_edges(cfg, FixedRadius())
        before = set(_segments(g))
        x = tuple(rng.uniform(0, 4, 3))
        g2 = build_edges(insert_point(cfg, x), FixedRadius())
        assert before <= set(_segments(g2))
        assert crossing_number(g2) >= crossing_number(g)


def test_pair_scores_collapse_to_crossing_number():
    rng = np.random.default_rng(41)
    cfg = random_configuration(rng, Window(n=4.0, dim=3), 50)
    g = build_edges(cfg, FixedRadius())
    scores = crossing_pair_scores(g)
    # every unordered crossing pair contributes 4 separating point pairs of 1/8
    # each; summed over ordered point pairs this collapses to the pair count
    assert sum(scores.values()) / 4.0 == crossing_number(g)


def test_snowflake_fixture_has_three_crossings():
    cfg = snowflake_configuration()
    g = build_edges(cfg, SNOWFLAKE_KERNEL)
    assert crossing_number_direct(g) == 3
    assert crossing_number(g) == 3


def test_graph_dump_format():
    cfg = _x_crossing_cfg()
    g = build_edges(cfg, FixedRadius())
    text = graph_to_text(g, points_ref="points.txt")
    lines = text.splitlines()
    assert lines[0].startswith("points=points.txt kernel=fixed:")
    assert set(lines[1:]) == {"0 1", "2 3"}


def test_kernel_flag_parsing():
    assert kernel_from_flag("fixed") == FixedRadius()
    assert kernel_from_flag("directed") == DirectedRandom()
    assert kernel_from_flag("max") == MaxKernel()
    assert kernel_from_flag("localized:5") == Localized(5)
    assert kernel_from_flag("localized") == Localized(None)
    for bad in ("bogus", "localizedfoo", "localized:", "localized:0", "localized:-3",
                "localized:x", "localized:+2", "localized: 2", "max:3"):
        with pytest.raises(ValueError):
            kernel_from_flag(bad)


def test_one_dimensional_points_rejected():
    cfg = make_configuration(Window(n=4.0, dim=1), [(1.0,), (1.5,)])
    with pytest.raises(ValueError, match="dimension >= 2"):
        build_edges(cfg, FixedRadius())


# -- sparse paths against the dense oracles ------------------------------------

_QUARTER = st.integers(0, 8).map(lambda k: k / 4.0)  # a 1/4-step lattice on [0, 2]
_RADII = st.sampled_from([0.5, 1.0, 1.5])
_KERNELS = [
    FixedRadius(0.5), FixedRadius(1.0), FixedRadius(1.5), DirectedRandom(), MaxKernel(),
    Localized(None), Localized(1), Localized(4), Localized(16),
]


@st.composite
def lattice_configurations(draw, max_size=30):
    """Lattice points in d = 2 or 3 with radius marks from {0.5, 1, 1.5}, so
    that many distances equal a radius or the cutoff exactly; duplicate
    positions, empty and one-point sets included."""
    d = draw(st.integers(2, 3))
    rows = draw(st.lists(st.tuples(st.tuples(*[_QUARTER] * d), _RADII), max_size=max_size))
    positions = np.array([p for p, _ in rows], dtype=float).reshape(-1, d)
    marks = np.array([m for _, m in rows], dtype=float)
    return make_configuration(Window(n=2.0, dim=d), positions, marks=marks)


@settings(max_examples=400, deadline=None)
@given(lattice_configurations(), st.sampled_from(_KERNELS), _RADII)
def test_edges_match_dense_oracle_on_lattice(cfg, kernel, cutoff):
    g = build_edges(cfg, kernel, slab_cutoff=cutoff)
    assert (g.edges, _segments(g), g.retained) == build_edges_oracle(cfg, kernel, cutoff)


def test_edges_match_dense_oracle_on_random_marks():
    rng = np.random.default_rng(43)
    for trial in range(40):
        window = Window(n=4.0, dim=2 + trial % 2)
        cfg = random_configuration(rng, window, 60, MarkModel.uniform_radius(0.0, 1.5))
        for kernel in _KERNELS:
            g = build_edges(cfg, kernel)
            assert (g.edges, _segments(g), g.retained) == build_edges_oracle(cfg, kernel)


@settings(max_examples=400, deadline=None)
@given(lattice_configurations(), st.sampled_from(_KERNELS), _RADII)
def test_crossing_number_matches_direct_on_lattice(cfg, kernel, cutoff):
    # lattice segments are often collinear, touch, share an endpoint, span
    # exactly the cutoff or have midpoints exactly the cutoff apart
    g = build_edges(cfg, kernel, slab_cutoff=cutoff)
    count = crossing_number(g)
    assert count == crossing_number_direct(g)
    assert sum(crossing_pair_scores(g).values()) == 4 * count


def pair_scores_literal(graph):
    """Double loop over retained segment pairs: every properly crossing,
    non-adjacent pair adds 1 to each of its 4 endpoint pairings."""
    pos = {p.id: p.position[:2] for p in graph.cfg.points}
    segments = [s for s, kept in zip(_segments(graph), graph.retained) if kept]
    scores = {}
    for k, (a, b) in enumerate(segments):
        for c, e in segments[k + 1 :]:
            if {a, b} & {c, e} or not segments_properly_cross(pos[a], pos[b], pos[c], pos[e]):
                continue
            for z in (a, b):
                for v in (c, e):
                    key = (min(z, v), max(z, v))
                    scores[key] = scores.get(key, 0) + 1
    return scores


@settings(max_examples=400, deadline=None)
@given(lattice_configurations(), st.sampled_from(_KERNELS), _RADII)
def test_pair_scores_match_literal_double_loop_on_lattice(cfg, kernel, cutoff):
    g = build_edges(cfg, kernel, slab_cutoff=cutoff)
    assert crossing_pair_scores(g) == pair_scores_literal(g)
    pairs = _crossing_pairs(*_segment_geometry(g), cutoff).tolist()
    assert pairs == sorted(pairs) and all(i < j for i, j in pairs)


@settings(max_examples=150, deadline=None)
@given(
    lattice_configurations(), st.sampled_from(_KERNELS), _RADII,
    st.tuples(_QUARTER, _QUARTER, _QUARTER), _RADII,
)
def test_changed_pairs_match_literal_scores_after_an_insertion(cfg, kernel, cutoff, x, mark):
    g = build_edges(cfg, kernel, slab_cutoff=cutoff)
    x = MarkedPoint(x[: cfg.window.dim], mark, -1)
    g2 = build_edges(insert_point(cfg, x), kernel, slab_cutoff=cutoff)
    before, after = pair_scores_literal(g), pair_scores_literal(g2)
    ids = set(cfg.ids.tolist())
    expected = sorted(
        key for key in before.keys() | after.keys()
        if before.get(key, 0) != after.get(key, 0) and ids.issuperset(key)
    )
    pairs = g.changed_pairs(g2)
    assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
    assert pairs.tolist() == [list(key) for key in expected]


def _explicit_graph(points, segments):
    cfg = make_configuration(W2, np.array(points, dtype=float) + 1.0)  # inside the window
    return GeometricGraph(cfg, FixedRadius(), segments, 1.0, segments, (True,) * len(segments))


@pytest.mark.parametrize(
    "points, segments, expected",
    [
        # T-junction: (2, 3) ends inside (0, 1); (4, 5) properly crosses (0, 1)
        ([(0, 0), (1, 0), (0.5, 0), (0.5, 0.8), (0.25, -0.4), (0.25, 0.4)],
         ((0, 1), (2, 3), (4, 5)), 1),
        # collinear overlap, and collinear segments that only touch
        ([(0, 0), (1, 0), (0.5, 0), (1.5, 0), (1.5, 0.0), (2.5, 0)],
         ((0, 1), (2, 3), (4, 5)), 0),
        # boxes that touch on one coordinate only: x = 1 is an endpoint of
        # one segment each time, and (4, 5) starts on a copy of point 1
        ([(0, 0), (1, 1), (1, 0.5), (1.9, 0), (1, 1), (1.8, 0.3)],
         ((0, 1), (2, 3), (4, 5)), 0),
        # vertical meets horizontal: degenerate boxes, one proper crossing,
        # plus a vertical that only touches the horizontal's end
        ([(0, 0.5), (1, 0.5), (0.5, 0), (0.5, 1), (1, 0), (1, 0.9)],
         ((0, 1), (2, 3), (4, 5)), 1),
        # zero-length segments from duplicate positions: on another
        # segment's interior, at its end, and off it
        ([(0.5, 0.5), (0.5, 0.5), (0, 0), (1, 1), (1, 1), (0.2, 0.7), (0.2, 0.7)],
         ((0, 1), (2, 3), (3, 4), (5, 6)), 0),
    ],
    ids=["t-junction", "collinear-overlap", "boxes-touch", "vertical-horizontal", "zero-length"],
)
def test_degenerate_segment_pairs_match_direct(points, segments, expected):
    g = _explicit_graph(points, segments)
    assert crossing_number(g) == crossing_number_direct(g) == expected
    assert crossing_pair_scores(g) == pair_scores_literal(g)


def test_graph_columns_are_read_only_views_of_the_tuples():
    rng = np.random.default_rng(47)
    cfg = random_configuration(rng, Window(n=4.0, dim=3), 120, MarkModel.uniform_radius(0.0, 1.2))
    for kernel in (DirectedRandom(), MaxKernel()):
        g = build_edges(cfg, kernel, slab_cutoff=0.75)
        assert g.edge_ids.dtype == g.segment_ids.dtype == np.int64
        assert g.retained_mask.dtype == bool
        for column in (g.edge_ids, g.segment_ids, g.retained_mask):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert g.edges == tuple(map(tuple, g.edge_ids.tolist()))
        assert g.retained == tuple(g.retained_mask.tolist())
        assert all(type(v) is int for pair in g.edges for v in pair)
        assert all(type(v) is bool for v in g.retained)
        assert 0 < sum(g.retained) < len(g.segment_ids)
        # the same graph built from tuples
        t = GeometricGraph(cfg, kernel, g.edges, 0.75, _segments(g), g.retained)
        for name in ("edge_ids", "segment_ids", "retained_mask"):
            assert np.array_equal(getattr(t, name), getattr(g, name))
        assert crossing_number(t) == crossing_number(g) > 0
        assert crossing_pair_scores(t) == crossing_pair_scores(g)
        assert graph_to_text(t) == graph_to_text(g)
    edges = np.array([[0, 1]])
    g = GeometricGraph(cfg, FixedRadius(), edges, 1.0, edges, np.array([True]))
    assert edges.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValueError):
        GeometricGraph(cfg, FixedRadius(), edges, 1.0, edges, (True, False))
    with pytest.raises(ValueError):
        GeometricGraph(cfg, FixedRadius(), [(0, 1, 2)], 1.0, (), ())


def test_crossings_at_the_midpoint_bound():
    # every segment spans exactly the cutoff on some axis
    pts = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 0.5), (1.0, 1.5), (0.25, 0.5), (1.25, 1.5)]
    cfg = make_configuration(W2, pts)
    segments = ((0, 1), (1, 2), (3, 4), (5, 6))
    g = GeometricGraph(cfg, FixedRadius(), segments, 1.0, segments, (True,) * 4)
    # (0, 1)-(1, 2): collinear, touching, midpoints exactly 1 apart: no crossing;
    # (3, 4) passes through the endpoint that (0, 1) and (1, 2) share: no crossing;
    # (5, 6) properly crosses (0, 1) and (3, 4)
    assert crossing_number(g) == crossing_number_direct(g) == 2
    assert crossing_pair_scores(g) == {
        (0, 5): 1, (0, 6): 1, (1, 5): 1, (1, 6): 1,
        (3, 5): 1, (3, 6): 1, (4, 5): 1, (4, 6): 1,
    }


def test_borderline_orientation_is_decided_exactly():
    # (2, 3) starts one ulp above the diagonal (0, 1) and crosses it: the float
    # determinant is within its error bound, the exact predicate decides
    cfg = make_configuration(W2, [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5 + 2.0**-53), (0.75, 0.25)])
    segments = ((0, 1), (2, 3))
    g = GeometricGraph(cfg, FixedRadius(), segments, 1.0, segments, (True, True))
    assert crossing_number(g) == crossing_number_direct(g) == 1


def test_crossing_pipeline_memory_stays_sparse_at_scale():
    cfg = get_model("crossing-fixed").sample(Window(n=128.0, dim=2), (128, 0, 0))
    assert len(cfg) > 15_000
    tracemalloc.start()
    try:
        crossing_number(build_edges(cfg, FixedRadius()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_crossing_pipeline_memory_stays_sparse_at_n256():
    cfg = get_model("crossing-fixed").sample(Window(n=256.0, dim=2), (256, 0, 0))
    assert len(cfg) > 60_000
    tracemalloc.start()
    try:
        crossing_number(build_edges(cfg, FixedRadius()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
