import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from pairfunc import barcodes
from pairfunc.barcodes import (
    Bar,
    Barcode,
    build_merge_forest,
    elder_lifetimes,
    inversion_compound_counts,
    inversion_count,
    inversion_score,
    outside_pair_scores,
    shield_membership,
    shield_property_check,
    uniform_lifetimes,
    HALF_SIDE,
    _ancestor_indices,
    _inversion_pairs,
    _pad_gaps_ok,
    _pad_masks,
    _subtree_minima,
)
from pairfunc.fixtures import (
    POISSON_TREE_FIGURE_LIFETIMES,
    poisson_tree_figure_configuration,
    sample_shielded_configuration,
    shield_template_points,
)
from pairfunc.geometry import Window
from pairfunc.process import (
    MarkModel, MarkedPoint, PointConfiguration, id_rows, insert_point, sample_ppp,
)

from conftest import (
    ancestor_indices_oracle,
    barcode_from_bars,
    forest_oracle_lifetimes,
    inversion_compound_counts_blocked,
    inversion_count_quadratic,
    make_configuration,
    pad_gaps_oracle,
    random_configuration,
)


W2 = Window(n=10.0, dim=2)


# -- uniform lifetimes ---------------------------------------------------------

def test_uniform_lifetimes_pass_through():
    empty = PointConfiguration(W2, MarkModel.uniform01(), ())
    assert len(uniform_lifetimes(empty)) == 0
    cfg = make_configuration(
        W2, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], marks=[0.2, 0.7, 0.0],
        mark_model=MarkModel.uniform01(),
    )
    bc = uniform_lifetimes(cfg)
    assert [b.lifetime for b in bc.bars] == [0.2, 0.7, 0.0]
    assert [b.admissible for b in bc.bars] == [True, True, False]


def test_uniform_lifetimes_need_right_mark_model():
    cfg = make_configuration(W2, [(1.0, 1.0)], marks=[0.5])
    with pytest.raises(ValueError):
        uniform_lifetimes(cfg)


def test_uniform_lifetimes_distribution():
    w = Window(n=320.0, dim=2, coefficients=(1.0,))
    cfg = sample_ppp(w, 1.0, MarkModel.uniform01(), seed=2024)
    bc = uniform_lifetimes(cfg)
    assert len(bc) > 100_000 * 0.95
    pvalue = sps.kstest(bc.lifetimes, "uniform").pvalue
    assert pvalue > 0.001


# -- merge forest ---------------------------------------------------------------

def test_single_point_forest():
    cfg = make_configuration(W2, [(5.0, 5.0)])
    forest = build_merge_forest(cfg)
    assert forest.leaves.tolist() == [0]
    assert forest.merge_points.tolist() == []
    bc = elder_lifetimes(forest)
    assert bc.bars[0].lifetime == math.inf


def test_far_apart_branches_never_meet():
    cfg = make_configuration(W2, [(1.0, 1.0), (2.0, 8.0)])
    forest = build_merge_forest(cfg)
    assert forest.ancestor.tolist() == [0, 1]
    bc = elder_lifetimes(forest)
    assert all(b.lifetime == math.inf for b in bc.bars)


def test_reference_figure_lifetimes():
    cfg = poisson_tree_figure_configuration()
    bc = elder_lifetimes(build_merge_forest(cfg))
    got = {b.owner: b.lifetime for b in bc.bars}
    for owner, expected in POISSON_TREE_FIGURE_LIFETIMES.items():
        assert got[owner] == expected
    finite = sorted(v for v in got.values() if 0 < v < math.inf)
    assert finite == [2.0, 7.0]
    non_leaves = [v for k, v in got.items() if k not in POISSON_TREE_FIGURE_LIFETIMES]
    assert all(v == 0.0 for v in non_leaves)


def test_non_leaf_lifetime_is_zero_and_finite_lifetimes_positive():
    rng = np.random.default_rng(3)
    cfg = random_configuration(rng, Window(n=12.0, dim=2), 60)
    forest = build_merge_forest(cfg)
    bc = elder_lifetimes(forest)
    leaves = set(cfg.ids[forest.leaves].tolist())
    for b in bc.bars:
        if b.owner not in leaves:
            assert b.lifetime == 0.0
        elif math.isfinite(b.lifetime):
            assert b.lifetime > 0.0


def test_elder_rule_survivor_is_oldest():
    rng = np.random.default_rng(5)
    cfg = random_configuration(rng, Window(n=12.0, dim=2), 50)
    forest = build_merge_forest(cfg)
    leaves = forest.leaves.tolist()
    for m, s in zip(forest.merge_points.tolist(), forest.survivor.tolist()):
        assert s in leaves
        assert s == min(leaf for leaf in leaves if _reaches(forest, leaf, m))


def _reaches(forest, leaf, target):
    cur = leaf
    while True:
        if cur == target:
            return True
        nxt = forest.ancestor[cur]
        if nxt == cur:
            return False
        cur = nxt


def test_lifetimes_match_exhaustive_path_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        count = int(rng.integers(1, 60))
        cfg = random_configuration(rng, Window(n=12.0, dim=2), count)
        got = {b.owner: b.lifetime for b in elder_lifetimes(build_merge_forest(cfg)).bars}
        assert got == forest_oracle_lifetimes(cfg)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=40
    )
)
def test_forest_on_lattice_matches_oracle_and_is_consistent(cells):
    # a coarse lattice: times tie, positions repeat, cylinder boundaries are hit
    cfg = make_configuration(W2, [(0.5 * t, 0.5 * h) for t, h in cells])
    forest = build_merge_forest(cfg)
    bc = elder_lifetimes(forest)
    assert {b.owner: b.lifetime for b in bc.bars} == forest_oracle_lifetimes(cfg)

    rows = np.arange(len(cfg))
    assert forest.ancestor.shape == forest.death.shape == (len(cfg),)
    assert (forest.ancestor >= rows).all()
    leaves = forest.leaves.tolist()
    assert leaves == sorted(leaves)
    assert forest.merge_points.tolist() == sorted(forest.merge_points.tolist())
    assert len(forest.survivor) == len(forest.merge_points)
    for m, s in zip(forest.merge_points.tolist(), forest.survivor.tolist()):
        assert s == min(leaf for leaf in leaves if _reaches(forest, leaf, m))
    dying = np.flatnonzero(forest.death >= 0)
    assert set(dying.tolist()) <= set(leaves)
    assert set(forest.death[dying].tolist()) <= set(forest.merge_points.tolist())
    bc_rows = id_rows(cfg.ids, bc.owners)
    assert np.array_equal(cfg.ids[bc_rows], bc.owners)
    assert np.array_equal(bc_rows, rows)  # bars follow the configuration's rows


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 3),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
             min_size=0, max_size=40),
)
def test_sparse_ancestor_search_matches_dense_oracle(d, radius, cells):
    # a 0.1-step lattice: offsets such as (0.3, 0.4), (0.6, 0.8) and (1.2, 1.6)
    # land on the cylinder boundary up to rounding; positions repeat
    positions = 0.1 * np.array(cells, dtype=float).reshape(-1, 3)[:, :d]
    got = _ancestor_indices(positions, radius)
    assert got.dtype == np.int64
    assert np.array_equal(got, ancestor_indices_oracle(positions, radius))


@pytest.mark.parametrize(
    "rest0, rest1, radius, linked",
    [
        ((0.0, 0.0), (0.6, 0.8), 1.0, True),        # squared offset exactly 1.0: closed boundary
        ((0.0, 0.0), (1.2, 1.6), 2.0, True),        # exactly 4.0
        ((0.0, 0.1), (0.0, 0.1 * 6), 0.5, False),   # rounds to 0.2500000000000001
        ((0.0, 0.1 * 6), (0.1 * 3, 1.0), 0.5, True),  # rounds to 0.24999999999999994
        ((0.0, 0.1 * 2), (0.0, 0.1 * 12), 1.0, False),  # rounds to 1.0000000000000004
        ((0.0, 0.1 * 12), (0.1 * 6, 2.0), 1.0, True),   # rounds to 0.9999999999999998
    ],
)
def test_sparse_ancestor_search_on_the_boundary(rest0, rest1, radius, linked):
    # offsets on the cylinder boundary in exact arithmetic are decided by the
    # rounded sum of squares, as in the dense all-pairs test
    positions = np.array([(0.0, *rest0), (1.0, *rest1)])
    got = _ancestor_indices(positions, radius)
    assert got.tolist() == ([1, -1] if linked else [-1, -1])
    assert np.array_equal(got, ancestor_indices_oracle(positions, radius))
    assert _ancestor_indices(positions[:0], radius).tolist() == []
    assert _ancestor_indices(positions[:1], radius).tolist() == [-1]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(st.tuples(*[st.integers(0, 12)] * 4), min_size=0, max_size=40),
)
def test_cell_walk_matches_dense_oracle_in_four_dimensions(radius, cells):
    # three cell coordinates: 27 neighbour offsets per row
    positions = 0.25 * np.array(cells, dtype=float).reshape(-1, 4)
    assert np.array_equal(_ancestor_indices(positions, radius),
                          ancestor_indices_oracle(positions, radius))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0.0, 0.5, 1.0, -1.0]),
                               st.integers(-1, 1)), min_size=3, max_size=3),
        ),
        min_size=0, max_size=30,
    ),
)
def test_cell_walk_on_cell_boundaries(d, radius, cells):
    # coordinates on, and one ulp either side of, multiples j s of the cell
    # side s (as the walk computes it), and j s + s / 2 and j s -+ r, so that
    # pairs at distance r and at distance s straddle the cell boundaries; the
    # last row sits at 8r, which fixes the largest coordinate magnitude
    side = radius * (1.0 + 1e-9) + 8.0 * radius * 2.0**-50
    steps = {0.0: 0.0, 0.5: side / 2, 1.0: radius, -1.0: -radius}
    rows = [
        [float(t)] + [
            float(np.nextafter(j * side + steps[shift], math.copysign(math.inf, u)))
            if u else j * side + steps[shift]
            for j, shift, u in coords[: d - 1]
        ]
        for t, coords in cells
    ]
    positions = np.array(rows + [[0.0] + [8.0 * radius] * (d - 1)])
    assert np.abs(positions[:-1, 1:]).max(initial=0.0) < 8.0 * radius
    assert np.array_equal(_ancestor_indices(positions, radius),
                          ancestor_indices_oracle(positions, radius))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cell_walk_in_one_cell_with_tied_times(d):
    # every point in one cell and every row at one time: the answer is
    # decided by row order and the predicate alone
    rng = np.random.default_rng(d)
    for count in (2, 3, 17, 200):
        positions = np.column_stack(
            (np.full(count, 5.0), rng.uniform(0.0, 0.99, (count, d - 1)))
        )
        positions[rng.integers(0, count, count // 4)] = positions[0]  # repeated positions
        for radius in (1.0, 0.3):
            assert np.array_equal(_ancestor_indices(positions, radius),
                                  ancestor_indices_oracle(positions, radius))


@pytest.mark.parametrize("shift", [1e6, -1e6, 2.0**40, 1e15])
def test_cell_walk_on_a_lattice_shifted_far_from_the_origin(shift):
    # quarter steps stay exact at these magnitudes, so the shifted lattice
    # links exactly as the unshifted one
    rng = np.random.default_rng(7)
    lattice = 0.25 * rng.integers(0, 16, (300, 3)).astype(float)
    expected = ancestor_indices_oracle(lattice, 1.0)
    shifted = lattice + np.array([0.0, shift, shift])
    assert np.array_equal(shifted - np.array([0.0, shift, shift]), lattice)
    assert np.array_equal(ancestor_indices_oracle(shifted, 1.0), expected)
    assert np.array_equal(_ancestor_indices(shifted, 1.0), expected)


def test_cell_walk_with_more_cells_than_int64_keys_hold():
    # a radius of 1e-9 over a spread of 10 makes ~1e10 cells per coordinate,
    # 1e20 in d = 3: the cells are coarsened until cell * N + row fits
    rng = np.random.default_rng(11)
    base = 0.25 * rng.integers(0, 40, (400, 3))
    positions = base[rng.integers(0, 40, 400)] + 4e-10 * rng.integers(0, 4, (400, 3))
    positions[:, 0] = rng.integers(0, 3, 400)
    expected = ancestor_indices_oracle(positions, 1e-9)
    assert (expected >= 0).sum() > 100
    assert np.array_equal(_ancestor_indices(positions, 1e-9), expected)


def _stacked(groups):
    """The rows of ``groups`` in one array and their row offsets."""
    bounds = np.cumsum([0] + [len(g) for g in groups])
    return np.concatenate(groups), bounds


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 3),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1e12, -1e12, 1e17]),
            st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
                     min_size=0, max_size=12),
        ),
        min_size=0, max_size=6,
    ),
)
def test_grouped_ancestor_search_is_each_groups_search_shifted(d, radius, groups):
    # 0.1-step lattices (ties, repeated positions, cylinder boundaries), empty
    # and one-row groups; a group moved to 1e12 or 1e17 in coordinates 2..d
    # spreads the stack's cells so far that they are coarsened in d = 3,
    # while each group alone keeps its fine cells
    parts = [
        0.1 * np.array(cells, dtype=float).reshape(-1, 3)[:, :d] + np.r_[0.0, [shift] * (d - 1)]
        for shift, cells in groups
    ]
    positions, bounds = _stacked(parts or [np.empty((0, d))])
    got = _ancestor_indices(positions, radius, bounds)
    assert got.dtype == np.int64 and got.shape == (len(positions),)
    expected = [np.empty(0, dtype=np.int64)]
    for part, lo in zip(parts, bounds):
        alone = _ancestor_indices(part, radius)
        assert np.array_equal(alone, ancestor_indices_oracle(part, radius))
        expected.append(np.where(alone >= 0, alone + lo, -1))
    assert np.array_equal(got, np.concatenate(expected))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(W2, 2), (Window(n=4.0, dim=3), 3)]),
    st.lists(
        st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=0, max_size=25),
        min_size=1, max_size=5,
    ),
)
def test_stacked_elder_lifetimes_are_each_configurations_forest(window_d, groups):
    # one merge-forest pass over a stack of lattice configurations gives each
    # one's Elder lifetimes, as build_merge_forest and the path oracle do
    window, d = window_d
    cfgs = [
        make_configuration(window, 0.5 * np.array(cells, dtype=float).reshape(-1, 3)[:, :d])
        for cells in groups
    ]
    positions, bounds = _stacked([cfg.positions for cfg in cfgs])
    life = barcodes.stacked_elder_lifetimes(positions, bounds)
    for cfg, lo, hi in zip(cfgs, bounds, bounds[1:]):
        bc = elder_lifetimes(build_merge_forest(cfg))
        assert np.array_equal(life[lo:hi], bc.lifetimes)
        assert dict(zip(cfg.ids.tolist(), life[lo:hi].tolist())) == forest_oracle_lifetimes(cfg)


def _rows_on_one_axis(d, xs):
    """Rows 0, 1, ... at times 0, 1, ... with coordinate 2 from ``xs`` and the
    rest 0, and the cells of coordinates 2..d as the cell walk computes them
    at radius 1."""
    positions = np.zeros((len(xs), d))
    positions[:, 0] = np.arange(len(xs))
    positions[:, 1] = xs
    side = 1.0 + 1e-9 + float(np.abs(positions[:, 1:]).max()) * 2.0**-50
    return positions, np.floor(positions[:, 1:] / side)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cell_walk_continues_past_an_own_cell_successor_that_misses(d):
    # row 1 shares row 0's cell at |dx| in (r, side]: the first candidate of
    # row 0's own cell misses, and the walk goes on to row 2
    positions, cells = _rows_on_one_axis(d, [0.0, 1.0 + 1e-10, 0.5])
    assert (cells == cells[0]).all()
    got = _ancestor_indices(positions, 1.0)
    assert got.tolist() == [2, 2, -1]
    assert np.array_equal(got, ancestor_indices_oracle(positions, 1.0))
    if d > 2:  # a diagonal miss inside one cell
        positions[:, 1:3] = [[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]]
        assert np.array_equal(_ancestor_indices(positions, 1.0), [2, 2, -1])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("misses", [1, 5, 21])
def test_cell_walk_crosses_the_step_boundaries_in_a_neighbour_cell(d, misses):
    # the first `misses` later rows of the next cell lie just outside r of
    # row 0, and the row after them within it: the run ends at candidate 2, 6
    # or 22, after the dense pass and 1, 2 or 3 walk steps of k = 4, 16, 64
    positions, cells = _rows_on_one_axis(d, [0.5] + [1.5 + 1e-6] * misses + [1.25])
    assert (cells[1:] == cells[-1]).all() and cells[0, 0] == cells[-1, 0] - 1
    got = _ancestor_indices(positions, 1.0)
    assert got[0] == misses + 1
    assert np.array_equal(got, ancestor_indices_oracle(positions, 1.0))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "xs, last, expected",
    [([1.5, 0.75], 0, [1, -1]), ([5.0, 0.0], 0, [-1, -1]), ([1.5, 1.6, 0.75], 1, [1, 2, -1])],
)
def test_cell_walk_when_a_run_starts_past_the_last_key(d, xs, last, expected):
    # the last row of the highest cell has the largest key, so its own and
    # upper-neighbour runs start at N; only its lower neighbour may link it
    positions, cells = _rows_on_one_axis(d, xs)
    assert np.flatnonzero(cells[:, 0] == cells[:, 0].max())[-1] == last
    got = _ancestor_indices(positions, 1.0)
    assert got.tolist() == expected
    assert np.array_equal(got, ancestor_indices_oracle(positions, 1.0))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_merge_forest_rejects_bad_cylinder_radius(radius):
    cfg = make_configuration(W2, [(1.0, 1.0), (2.0, 1.5)])
    with pytest.raises(ValueError, match="cylinder radius"):
        build_merge_forest(cfg, radius)


def test_lifetimes_match_exhaustive_path_oracle_in_three_dimensions():
    rng = np.random.default_rng(29)
    for _ in range(60):
        count = int(rng.integers(1, 50))
        cfg = random_configuration(rng, Window(n=6.0, dim=3), count)
        got = {b.owner: b.lifetime for b in elder_lifetimes(build_merge_forest(cfg)).bars}
        assert got == forest_oracle_lifetimes(cfg)


def test_merge_forest_memory_stays_sparse_at_scale():
    # n = 128 holds ~16k points: a dense N x N search would need ~6 GB
    import tracemalloc

    cfg = sample_ppp(Window(n=128.0, dim=2), 1.0, MarkModel.none(), seed=128)
    assert len(cfg) > 15_000
    tracemalloc.start()
    try:
        build_merge_forest(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_merge_forest_memory_stays_linear_at_n_256():
    # ~65k points: listing every cylinder pair across the time axis would
    # hold ~16.7M candidate pairs
    import tracemalloc

    cfg = sample_ppp(Window(n=256.0, dim=2), 1.0, MarkModel.none(), seed=256)
    assert len(cfg) > 60_000
    tracemalloc.start()
    try:
        forest = build_merge_forest(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forest.merge_points) > 0
    assert peak < 150 * 2**20


def test_merge_forest_memory_stays_linear_in_three_dimensions():
    # ~64k points in d = 3: the first pass holds nine candidate rows per point
    import tracemalloc

    cfg = sample_ppp(Window(n=40.0, dim=3), 1.0, MarkModel.none(), seed=40)
    assert len(cfg) > 60_000
    tracemalloc.start()
    try:
        build_merge_forest(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _carried_loop(anc: np.ndarray) -> np.ndarray:
    """The fold that ``build_merge_forest`` once ran, as the oracle: one
    forward pass over rows (children precede their ancestor), each row
    handing its subtree minimum to its ancestor."""
    carried = list(range(len(anc)))
    for i, j in enumerate(anc.tolist()):
        if j >= 0 and carried[i] < carried[j]:
            carried[j] = carried[i]
    return np.array(carried, dtype=np.int64)


def _fold(anc: np.ndarray) -> np.ndarray:
    return _subtree_minima(np.where(anc >= 0, anc, np.arange(len(anc))))


def test_subtree_minima_match_the_loop_on_chains_stars_and_tiny_forests():
    import tracemalloc

    n = 20_000
    chain = np.append(np.arange(1, n), -1)  # height n
    tracemalloc.start()
    try:
        got = _fold(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _carried_loop(chain))
    assert peak < 16 * n * 8  # O(N) per pass, never O(N * height)
    star = np.append(np.full(n - 1, n - 1), -1)
    assert np.array_equal(_fold(star), _carried_loop(star))
    two_chains = np.array([2, 3, 4, 5, -1, -1])  # rows 0, 2, 4 and 1, 3, 5
    assert _fold(two_chains).tolist() == [0, 1, 0, 1, 0, 1]
    for anc in ([], [-1], [1, -1], [-1, -1]):
        anc = np.array(anc, dtype=np.int64)
        assert np.array_equal(_fold(anc), _carried_loop(anc))


def test_subtree_minima_match_the_loop_on_random_forests():
    rng = np.random.default_rng(23)
    for n in (2, 3, 17, 200, 3000):
        for _ in range(10):
            # every row hangs from a uniformly chosen later row, or is a root
            up = rng.integers(np.arange(n) + 1, n + 1)
            anc = np.where(up < n, up, -1)
            assert np.array_equal(_fold(anc), _carried_loop(anc))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6), st.integers(0, 6)),
             min_size=0, max_size=80),
)
def test_subtree_minima_match_the_loop_on_lattice_forests(d, cells):
    # lattice points in row order: tied times, repeated positions, links on
    # the cylinder boundary, long chains along the time axis
    cfg = make_configuration(
        Window(n=16.0, dim=d), (0.5 * np.array(cells, dtype=float).reshape(-1, 3))[:, :d]
    )
    anc = _ancestor_indices(cfg.positions, 1.0)
    assert np.array_equal(_fold(anc), _carried_loop(anc))


def test_ancestors_depend_only_on_later_points():
    rng = np.random.default_rng(19)
    cfg = random_configuration(rng, Window(n=12.0, dim=2), 40)
    forest = build_merge_forest(cfg)
    for row, anc in enumerate(forest.ancestor.tolist()):
        if anc != row:
            assert anc > row


# -- inversions -----------------------------------------------------------------

def test_inversion_score_examples():
    assert inversion_score(Bar(0, 0.0, 0.9), Bar(1, 0.1, 0.5)) == 1
    assert inversion_score(Bar(0, 0.0, 0.3), Bar(1, 0.5, 0.3)) == 0
    bar = Bar(0, 0.2, 0.4)
    assert inversion_score(bar, bar) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 10, allow_nan=False), st.floats(0.0, 1.5, allow_nan=False),
    st.floats(0, 10, allow_nan=False), st.floats(0.0, 1.5, allow_nan=False),
)
def test_inversion_score_symmetric(b1, l1, b2, l2):
    x, y = Bar(0, b1, l1), Bar(1, b2, l2)
    assert inversion_score(x, y) == inversion_score(y, x)


def test_inversion_count_small_cases():
    assert inversion_count(Barcode((), (), ())) == 0
    assert inversion_count(Barcode([0], [0.0], [0.5])) == 0
    nested = Barcode([0, 1], [0.0, 0.1], [0.9, 0.5])
    assert inversion_count(nested) == 2


def test_inversion_count_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(100):
        count = int(rng.integers(0, 200))
        bars = tuple(
            Bar(i, float(rng.uniform(0, 20)), float(rng.uniform(0, 1.2)))
            for i in range(count)
        )
        bc = barcode_from_bars(bars)
        assert inversion_count(bc) == inversion_count_quadratic(bc)


def test_inversion_count_with_ties_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(50):
        count = int(rng.integers(2, 60))
        births = rng.integers(0, 6, count) * 0.25     # many exact ties
        lifetimes = rng.integers(0, 5, count) * 0.2
        bc = Barcode(np.arange(count), births, lifetimes)
        assert inversion_count(bc) == inversion_count_quadratic(bc)


_TIED_BIRTH = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0])
_TIED_LIFETIME = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1 - 2**-53])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_TIED_BIRTH, _TIED_LIFETIME), max_size=25)
    | st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)), max_size=25)
)
def test_inversion_partners_with_tied_births_match_quadratic_oracle(bars):
    # tied births and deaths (and -0.0 against 0.0) take the exact lexsort;
    # distinct births take the single argsort
    births = np.array([b for b, _ in bars], dtype=float)
    lifetimes = np.array([life for _, life in bars], dtype=float)
    G = inversion_compound_counts(births, lifetimes)
    assert np.array_equal(G, inversion_compound_counts_blocked(births, lifetimes))
    assert int(G.sum()) == inversion_count_quadratic(Barcode(np.arange(len(bars)), births, lifetimes))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.tuples(_TIED_BIRTH, _TIED_LIFETIME), max_size=10), min_size=1, max_size=6),
    st.booleans(),
    st.booleans(),
)
def test_grouped_partners_match_each_barcode_alone(groups, mirror, presorted):
    # lattice births and lifetimes tie within and across groups; a group may
    # be empty or hold no admissible bar; ``mirror`` starts each group after a
    # non-empty one with a copy of its last bar, so equal births and deaths
    # meet at the boundary; ``presorted`` takes the path that skips the sort
    if mirror:
        groups = [g if k == 0 or not groups[k - 1] else [groups[k - 1][-1]] + g
                  for k, g in enumerate(groups)]
    if presorted:
        groups = [sorted(g, key=lambda bar: (bar[0], bar[0] + bar[1])) for g in groups]
    bounds = np.cumsum([0] + [len(g) for g in groups])
    births = np.array([b for g in groups for b, _ in g], dtype=float)
    lifetimes = np.array([life for g in groups for _, life in g], dtype=float)
    G = inversion_compound_counts(births, lifetimes, bounds)
    assert G.dtype == np.int64 and G.shape == births.shape
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        alone = inversion_compound_counts(births[lo:hi], lifetimes[lo:hi])
        assert np.array_equal(G[lo:hi], alone)
        assert np.array_equal(alone, inversion_compound_counts_blocked(births[lo:hi], lifetimes[lo:hi]))
        bc = Barcode(np.arange(hi - lo), births[lo:hi], lifetimes[lo:hi])
        assert int(G[lo:hi].sum()) == inversion_count_quadratic(bc)


def test_inversion_count_invariances():
    rng = np.random.default_rng(31)
    bars = [Bar(i, float(rng.uniform(0, 5)), float(rng.uniform(0, 1))) for i in range(40)]
    base = inversion_count(barcode_from_bars(bars))
    shifted = barcode_from_bars(Bar(b.owner, b.birth + 11.5, b.lifetime) for b in bars)
    assert inversion_count(shifted) == base
    rng.shuffle(bars)
    assert inversion_count(barcode_from_bars(bars)) == base


def test_figure_1b_layout_counts_six_unordered_inversions():
    # five bars, scaled by 1/5 so every length is below the unit cap; the
    # indicator is invariant under common positive scaling of all coordinates
    spans = [(0.7, 5.2), (1.6, 4.2), (1.0, 3.6), (3.0, 4.5), (1.3, 4.9)]
    bars = tuple(
        Bar(i, lo / 5.0, (hi - lo) / 5.0) for i, (lo, hi) in enumerate(spans)
    )
    assert inversion_count(barcode_from_bars(bars)) == 12  # 6 unordered inversions


def test_compound_counts_match_scores():
    rng = np.random.default_rng(37)
    births = rng.uniform(0, 10, 80)
    lifetimes = rng.uniform(0, 1.2, 80)
    bars = Barcode(np.arange(80), births, lifetimes)
    G = inversion_compound_counts(births, lifetimes)
    for i, bar in enumerate(bars.bars):
        naive = sum(inversion_score(bar, other) for other in bars.bars if other.owner != bar.owner)
        assert G[i] == naive


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 16),
            st.integers(-1, 1),
            st.sampled_from([0.0, 1.0, math.inf, 1 / 8, 1 / 2, 7 / 8, 2**-52,
                             float(np.nextafter(1.0, 0.0))]),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_compound_counts_match_blocked_oracle_on_unit_band_edges(cells):
    # births on a quarter-step lattice tie and lie exactly 1 apart; a nudge
    # of one ulp puts a birth just below, at or just above fl(b + 1) of the
    # lattice birth 1 earlier, where the unit band ends
    births = np.array(
        [np.nextafter(k / 4, math.copysign(math.inf, u)) if u else k / 4 for k, u, _ in cells]
    )
    lifetimes = np.array([life for *_, life in cells])
    G = inversion_compound_counts(births, lifetimes)
    assert G.dtype == np.int64
    assert np.array_equal(G, inversion_compound_counts_blocked(births, lifetimes))
    # the literal score compares the same rounded deaths, so the ordered
    # counts agree at ulp scale, too
    bc = Barcode(np.arange(len(cells)), births, lifetimes)
    assert inversion_count(bc) == G.sum()
    assert inversion_count_quadratic(bc) == inversion_count(bc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 16),
                st.integers(-1, 1),
                st.sampled_from([0.0, 1 / 2, 2**-60, 2**-52, float(np.nextafter(1.0, 0.0))]),
            ),
            max_size=12,
        ),
        min_size=2, max_size=6,
    )
)
# a search that left out the keys tying its needle (side="left") loses a
# partner in each of these stacks
@example([[(8, -1, 0.0), (6, 1, 2**-52)],
          [(14, 0, 2**-60), (14, 0, 0.0), (12, 0, float(np.nextafter(1.0, 0.0))), (16, -1, 2**-60)],
          []])
@example([[(16, -1, float(np.nextafter(1.0, 0.0)))],
          [(5, 1, float(np.nextafter(1.0, 0.0))), (7, 0, 0.5), (9, -1, 2**-60), (8, 1, 0.5)],
          [], [(5, -1, float(np.nextafter(1.0, 0.0)))]])
def test_grouped_band_width_on_unit_band_edges(groups):
    # the band width of a stack comes from one search over births offset by
    # their group; at those offsets the ulp nudges round away, so a birth
    # just below fl(b + 1) ties the search's needle and must still count
    parts = [
        [(np.nextafter(k / 4, math.copysign(math.inf, u)) if u else k / 4, life)
         for k, u, life in g]
        for g in groups
    ]
    bounds = np.cumsum([0] + [len(g) for g in parts])
    births = np.array([b for g in parts for b, _ in g], dtype=float)
    lifetimes = np.array([life for g in parts for _, life in g], dtype=float)
    G = inversion_compound_counts(births, lifetimes, bounds)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.array_equal(G[lo:hi], inversion_compound_counts_blocked(births[lo:hi],
                                                                          lifetimes[lo:hi]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 16),
            st.sampled_from([0.0, 1.0, math.inf] + [k / 8 for k in range(1, 8)]),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_inversion_count_matches_literal_oracle_on_lattice(cells):
    # quarter-step births and eighth-step lifetimes (with the admissibility
    # edges 0, 1 and +inf) add exactly, so ties in birth, in death and in both
    # are decided as the literal score decides
    births = [k / 4 for k, _ in cells]
    lifetimes = [life for _, life in cells]
    bc = Barcode(np.arange(len(cells)), births, lifetimes)
    assert inversion_count(bc) == inversion_count_quadratic(bc)
    G = inversion_compound_counts(bc.births, bc.lifetimes)
    assert np.array_equal(G, inversion_compound_counts_blocked(bc.births, bc.lifetimes))


@pytest.mark.parametrize(
    "births, lifetimes, expected",
    [
        ([], [], []),
        ([0.5], [0.5], [0]),
        # one shared birth: the band is the whole set and no pair inverts
        ([2.0] * 5, [0.1, 0.9, 0.5, 0.5, 0.3], [0] * 5),
        # one shared birth and one later bar that every other bar outlives
        ([2.0] * 4 + [2.5], [0.9, 0.7, 0.6, 0.1, 0.05], [1, 1, 1, 0, 3]),
        # the first bar dies at fl(0.5 + 1) = 1.5; a bar born one ulp earlier
        # still inverts with it, a bar born at 1.5 cannot
        ([0.5, 1.5 - 2**-52], [1 - 2**-53, 2**-60], [1, 1]),
        ([0.5, 1.5], [1 - 2**-53, 2**-60], [0, 0]),
    ],
)
def test_compound_counts_small_and_whole_band_cases(births, lifetimes, expected):
    births, lifetimes = np.array(births, dtype=float), np.array(lifetimes, dtype=float)
    G = inversion_compound_counts(births, lifetimes)
    assert G.tolist() == expected
    assert inversion_count(Barcode(np.arange(len(births)), births, lifetimes)) == sum(expected)


def test_compound_counts_memory_stays_banded_at_scale():
    # n = 256 holds ~65k bars: a full N x N comparison would need ~4 GiB
    import tracemalloc

    cfg = sample_ppp(Window(n=256.0, dim=2), 1.0, MarkModel.uniform01(), seed=256)
    assert len(cfg) > 60_000
    births, lifetimes = cfg.positions[:, 0].copy(), cfg.marks.copy()
    tracemalloc.start()
    try:
        G = inversion_compound_counts(births, lifetimes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.sum() > 0
    assert peak < 64 * 2**20


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 16), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, math.inf])),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_inversion_pairs_match_literal_double_loop_on_lattice(cells, random):
    # quarter-step births tie and lie exactly 1 apart where the unit band
    # ends, and quarter-step lifetimes tie deaths; shuffled owners make the
    # (min, max) order differ from the row order
    owners = list(range(100, 100 + len(cells)))
    random.shuffle(owners)
    bc = Barcode(owners, [k / 4 for k, _ in cells], [life for _, life in cells])
    expected = sorted(
        (min(x.owner, y.owner), max(x.owner, y.owner))
        for x, y in itertools.combinations(bc.bars, 2)
        if inversion_score(x, y)
    )
    pairs = bc.inversion_pairs
    assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
    assert not pairs.flags.writeable
    assert [tuple(row) for row in pairs.tolist()] == expected
    G = np.bincount(id_rows(bc.owners, pairs).ravel(), minlength=len(bc))
    assert np.array_equal(G, inversion_compound_counts(bc.births, bc.lifetimes))


# lifetimes on a 1/16 lattice with the extremes 2^-60 and 1 - 2^-53, births on
# a quarter lattice or one step below it: partners of a bar born at b then lie
# at gaps up to just under 1, just inside or just outside its unit band
_EDGE_BIRTH = st.builds(
    lambda k, below: k / 4 - (2**-50 if below and k else 0.0), st.integers(0, 12), st.booleans()
)
_EDGE_LIFE = st.sampled_from(
    [0.0, 2**-60, 1 / 16, 0.25, 0.5, 0.75, 15 / 16, 1 - 2**-53, 1.0, math.inf]
)


@settings(max_examples=300, deadline=None)
@given(
    # per bar: birth, lifetime, the moved birth and lifetime, and whether it
    # stays (one bar in four moves, so most partners are near one moved bar)
    st.lists(
        st.tuples(_EDGE_BIRTH, _EDGE_LIFE, _EDGE_BIRTH, _EDGE_LIFE, st.integers(0, 3).map(bool)),
        max_size=16,
    )
)
def test_changed_pairs_match_literal_scores_at_the_band_edges(rows):
    owners = list(range(len(rows)))
    before = Barcode(owners, [r[0] for r in rows], [r[1] for r in rows])
    after = Barcode(
        owners, [r[0] if r[4] else r[2] for r in rows], [r[1] if r[4] else r[3] for r in rows]
    )
    expected = [
        [x.owner, y.owner]
        for x, y in itertools.combinations(before.bars, 2)
        if inversion_score(x, y) != inversion_score(after.bars[x.owner], after.bars[y.owner])
    ]
    assert before.changed_pairs(after).tolist() == expected


@pytest.mark.parametrize("moves", [0, 1])
def test_changed_pairs_find_a_partner_at_the_edge_of_the_band(moves):
    # the bar born at 0.5 dies at fl(0.5 + 1) = 1.5 and inverts with the bar
    # born one ulp before 1.5; moving either bar alone undoes the inversion
    before = Barcode([0, 1], [0.5, 1.5 - 2**-52], [1 - 2**-53, 2**-60])
    lifetimes = before.lifetimes.copy()
    lifetimes[moves] = 0.5
    after = Barcode([0, 1], before.births, lifetimes)
    assert before.inversion_pairs.tolist() == [[0, 1]] and after.inversion_pairs.tolist() == []
    assert before.changed_pairs(after).tolist() == after.changed_pairs(before).tolist() == [[0, 1]]


def test_inversion_pairs_memory_per_pair_stays_flat():
    # every bar of a uniform barcode may invert with any bar of its unit band,
    # so the K pairs grow faster than N; the memory around them must not (an
    # N x N comparison at n = 128 alone would take 256 MiB)
    import tracemalloc

    per_pair = []
    for n in (64.0, 128.0):
        cfg = sample_ppp(Window(n=n, dim=2), 1.0, MarkModel.uniform01(), seed=int(n))
        births, lifetimes = cfg.positions[:, 0].copy(), cfg.marks.copy()
        tracemalloc.start()
        try:
            pairs = _inversion_pairs(births, lifetimes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) > len(cfg)
        per_pair.append(peak / pairs.nbytes)
    assert per_pair[1] <= 1.25 * per_pair[0]
    assert per_pair[1] < 8.0


def test_inversion_pairs_memory_stays_chunked_when_few_pairs_invert():
    # near-equal lifetimes: ~2k later rows in every unit band but few
    # inversions, so one unchunked (N, width) comparison would take ~64 MiB
    import tracemalloc

    rng = np.random.default_rng(16)
    n = 2**15
    births, lifetimes = rng.uniform(0.0, 16.0, n), 0.5 + 1e-4 * rng.uniform(size=n)
    tracemalloc.start()
    try:
        pairs = _inversion_pairs(births, lifetimes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(pairs) < n
    assert peak - pairs.nbytes < 2**21 + 64 * n


def test_changed_pairs_band_only_the_bars_near_a_moved_bar(monkeypatch):
    # an insertion moves no uniform-lifetime bar, so its diff builds no pair
    # table; one moved bar bands only the bars born within about 1 of it
    banded, inversion_pairs = [], barcodes._inversion_pairs

    def counted(births, lifetimes):
        banded.append(len(births))
        return inversion_pairs(births, lifetimes)

    monkeypatch.setattr(barcodes, "_inversion_pairs", counted)
    cfg = sample_ppp(Window(n=64.0, dim=2), 1.0, MarkModel.uniform01(), seed=64)
    before = uniform_lifetimes(cfg)
    after = uniform_lifetimes(insert_point(cfg, MarkedPoint((32.1, 32.2), 0.5, -1)))
    assert before.changed_pairs(after).shape == (0, 2)
    assert banded == []
    k = int(np.argmin(np.abs(before.births - 32.0)))
    lifetimes = before.lifetimes.copy()
    lifetimes[k] = 0.97 if lifetimes[k] < 0.5 else 0.03
    moved = Barcode(before.owners, before.births, lifetimes)
    pairs = before.changed_pairs(moved)
    assert len(banded) == 2 and max(banded) < 4 * 64 < len(cfg)
    x, y = before.bars[k], moved.bars[k]
    expected = sorted(
        (min(x.owner, z.owner), max(x.owner, z.owner))
        for j, z in enumerate(before.bars)
        if j != k and inversion_score(x, z) != inversion_score(y, z)
    )
    assert expected
    assert [tuple(row) for row in pairs.tolist()] == expected


def test_barcode_columns_are_read_only_and_validated():
    owners = np.array([4, 1])
    bc = Barcode(owners, [0.5, 0.25], [0.2, math.inf])
    assert owners.flags.writeable  # the caller's array is left alone
    for column in (bc.owners, bc.births, bc.lifetimes):
        assert not column.flags.writeable
    assert [b.owner for b in bc.bars] == [4, 1]
    with pytest.raises(ValueError, match="equal length"):
        Barcode([0, 1], [0.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "owners, births, lifetimes, message",
    [
        ([0], [math.inf], [0.5], "births must be finite"),
        ([0], [0.1], [-0.5], "nonnegative"),
        ([0], [0.1], [math.nan], "NaN is not a lifetime"),
        ([0, 0], [0.0, 0.1], [0.9, 0.5], "owners must be unique"),
    ],
    ids=["non-finite-birth", "negative-lifetime", "nan-lifetime", "duplicate-owner"],
)
def test_barcode_rejects_malformed_columns(owners, births, lifetimes, message):
    with pytest.raises(ValueError, match=message):
        Barcode(owners, births, lifetimes)


# -- shields ---------------------------------------------------------------------

CENTER = (12.0, 12.0)
W24 = Window(n=24.0, dim=2)


def _box_cfg(pts):
    return PointConfiguration(W24, MarkModel.none(), pts)


def _quarter_grid_pads():
    """Plain 1/4-spaced grids filling both pads."""
    pts = []
    for t0 in (-4.0, -3.75, -3.5):
        for h in np.arange(-4.0, 4.0 + 1e-9, 0.25):
            pts.append((CENTER[0] + t0, CENTER[1] + float(h)))
    for t0 in (3.5, 3.75, 4.0):
        for h in np.arange(-4.0, 4.0 + 1e-9, 0.25):
            pts.append((CENTER[0] + t0, CENTER[1] + float(h)))
    return pts


def test_empty_padding_is_not_a_shield():
    assert shield_membership(_box_cfg([]), CENTER) is False


def test_quarter_grid_pads_form_a_shield():
    assert shield_membership(_box_cfg(_quarter_grid_pads()), CENTER) is True


def test_point_in_void_region_breaks_membership():
    pts = _quarter_grid_pads()
    pts.append((CENTER[0] + 3.0, CENTER[1]))  # annulus, outside both pads
    assert shield_membership(_box_cfg(pts), CENTER) is False


def test_gap_violation_breaks_membership():
    pts = _quarter_grid_pads()
    # a lone low point far below the others in time order of the right pad:
    # its earliest child arrives more than 1/2 later in time
    pts = [p for p in pts if not (abs(p[0] - (CENTER[0] + 3.5)) < 1e-9)]
    # removing the earliest right-pad layer leaves uncovered pad area
    assert shield_membership(_box_cfg(pts), CENTER) is False


def test_inner_cube_points_do_not_affect_membership():
    pts = _quarter_grid_pads()
    pts += [(CENTER[0] + dx, CENTER[1] + dy) for dx, dy in ((0.0, 0.0), (1.0, -1.0))]
    assert shield_membership(_box_cfg(pts), CENTER) is True


def test_points_outside_the_box_do_not_change_membership():
    # past the box: far beyond a face, and the corner (16, 8) and a face point
    # each moved off by one ulp
    outside = [(20.0, 12.0), (16.0, np.nextafter(8.0, 0.0)), (np.nextafter(16.0, 17.0), 12.0)]
    assert shield_membership(_box_cfg(_quarter_grid_pads() + outside), CENTER) is True
    assert shield_membership(_box_cfg(outside), CENTER) is False
    # a point on the box's lower face is box content, in the void annulus
    void = _quarter_grid_pads() + [(15.0, 8.0)]
    assert shield_membership(_box_cfg(void), CENTER) is False


def test_shield_membership_rejects_dimension_mismatch():
    cube = PointConfiguration(Window(n=24.0, dim=3), MarkModel.none(), [(12.0, 12.0, 12.0)])
    with pytest.raises(ValueError, match="dimension 2"):
        shield_membership(cube, (12.0, 12.0, 12.0))
    for center in ((12.0,), (12.0, 12.0, 12.0)):
        with pytest.raises(ValueError, match="box center dimension"):
            shield_membership(_box_cfg(_quarter_grid_pads()), center)


def test_pad_gap_clauses_match_pointwise_oracle():
    # time spans wider than a pad, so that both clauses can fail
    rng = np.random.default_rng(37)
    outcomes = set()
    for _ in range(300):
        count = int(rng.integers(0, 30))
        t = rng.uniform(-4.0, -4.0 + float(rng.choice([0.5, 1.5, 3.0])), count)
        h = np.round(rng.uniform(-4.0, 4.0, count) * 4) / 4  # ties on a 1/4 grid
        pad = np.column_stack((t, h))
        for mode in ("successor", "child"):
            got = _pad_gaps_ok(pad, mode)
            assert got == pad_gaps_oracle(pad, 1.0, mode, 4.0)
            outcomes.add((mode, got))
    assert len(outcomes) == 4  # each clause both holds and fails


def test_shield_property_on_template():
    cfg = sample_shielded_configuration(W24, CENTER, seed=101)
    assert shield_membership(cfg, CENTER)
    assert shield_property_check(cfg, CENTER, (12.7, 11.4))


def test_shield_pad_regions_exposed():
    # F- spans times [8, 8.5] of the box [8, 16]^2 and F+ spans [15.5, 16]
    minus, plus = _pad_masks(np.array(_quarter_grid_pads()) - np.array(CENTER))
    assert minus.sum() == plus.sum() == 3 * 33 and (minus ^ plus).all()
    edges = np.array([[-4.0, 0.0], [-3.5, 4.0], [-3.49, 0.0], [3.49, 0.0], [3.5, -4.0], [4.0, 0.0]])
    minus, plus = _pad_masks(edges)
    assert minus.tolist() == [True, True, False, False, False, False]
    assert plus.tolist() == [False, False, False, False, True, True]


def test_shield_property_at_partition_box_center():
    # CENTER is the center of [8, 16]^2, the middle box of a side-8 partition of W24
    cfg = sample_shielded_configuration(W24, CENTER, seed=103)
    assert shield_property_check(cfg, CENTER, (12.3, 12.8))


# an unshielded (empty) box: inserting (12.0, 12.6) bridges a dead-ended old
# branch into the outside-right leaf B, re-leafing it and deleting its nested
# inversion with the far-below bar cluster
_BRIDGED_BRANCH = [
    (6.0, 12.0), (7.0, 12.1),                      # old chain, dead-ends pre-insertion
    (16.1, 13.5),                                  # B: young leaf dying at 16.55
    (16.55, 13.9), (17.4, 13.7),                   # merge killing B, continuation
    (15.3, 17.2), (15.9, 16.4), (16.3, 15.5), (16.45, 14.7),  # older chain into the merge
    (16.2, 5.2), (16.25, 4.0), (16.4, 4.4), (17.3, 4.5),      # far-below cluster: bar (16.25, 0.15)
]


def test_property_checker_detects_changes_without_shield():
    cfg = PointConfiguration(W24, MarkModel.none(), _BRIDGED_BRANCH)
    assert shield_property_check(cfg, CENTER, (12.0, 12.6)) is False


def _literal_outside_pairs(cfg, center):
    """Inverting id pairs, as sorted (min, max) tuples, among the points
    outside the side-8 box at ``center``, by the literal score on the
    tree-lifetime bars."""
    barcode = elder_lifetimes(build_merge_forest(cfg))
    bars = [
        bar for bar, pos in zip(barcode.bars, cfg.positions.tolist())
        if max(abs(c - v) for c, v in zip(center, pos)) > HALF_SIDE and bar.admissible
    ]
    return sorted(
        (min(x.owner, y.owner), max(x.owner, y.owner))
        for x, y in itertools.combinations(bars, 2)
        if inversion_score(x, y)
    )


def test_shield_check_without_membership_matches_literal_outside_scores():
    from pairfunc.process import derive_rng

    # the bridged branch reports a change; Poisson content rarely does
    configs = [PointConfiguration(W24, MarkModel.none(), _BRIDGED_BRANCH)] + [
        sample_ppp(W24, 1.0, MarkModel.none(), seed=seed) for seed in range(5)
    ]
    outcomes = set()
    for seed, cfg in enumerate(configs):
        assert not shield_membership(cfg, CENTER)
        ids, pairs = outside_pair_scores(cfg, CENTER)
        outside = [
            pid for pid, pos in zip(cfg.ids.tolist(), cfg.positions.tolist())
            if max(abs(c - v) for c, v in zip(CENTER, pos)) > HALF_SIDE
        ]
        before = _literal_outside_pairs(cfg, CENTER)
        assert ids == outside
        assert [tuple(row) for row in pairs.tolist()] == before
        rng = derive_rng(seed, 4321)
        for x in [(12.0, 12.6)] + [tuple(rng.uniform(10.0, 14.0, 2)) for _ in range(3)]:
            after = _literal_outside_pairs(insert_point(cfg, x), CENTER)
            changed = not shield_property_check(cfg, CENTER, x)
            assert changed == (after != before)
            outcomes.add(changed)
    assert outcomes == {False, True}


def test_shield_check_memory_stays_linear_at_n_48():
    # about 2,400 points: an N x N float comparison takes tens of MiB here
    import tracemalloc

    center = (24.0, 24.0)
    cfg = sample_shielded_configuration(Window(n=48.0), center, seed=0)
    tracemalloc.start()
    try:
        ids, pairs = outside_pair_scores(cfg, center)
        held = shield_property_check(cfg, center, (23.0, 25.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held and len(ids) > 2000 and len(pairs) > 0
    assert peak < 8 * 2**20


def test_shield_property_monte_carlo_small():
    from pairfunc.process import derive_rng

    for seed in range(5):
        cfg = sample_shielded_configuration(W24, CENTER, seed=seed)
        rng = derive_rng(seed, 1234)
        for _ in range(4):
            x = tuple(rng.uniform(10.0, 14.0, 2))
            assert shield_property_check(cfg, CENTER, x)
