import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairfunc.barcodes import Bar, Barcode, inversion_compound_counts, inversion_score
from pairfunc.functionals import (
    AdmissibilityRule,
    FunctionalValue,
    _sum_log_sums,
    diff_first,
    diff_second,
    double_sum,
    empirical_stabilization_radius,
    stabilization_radii,
    sum_log_sum,
)
from pairfunc.geometry import Window
from pairfunc.graphs import FixedRadius, build_edges, crossing_number, crossing_pair_scores
from pairfunc.models import MODEL_NAMES, get_model
from pairfunc.process import MarkModel, MarkedPoint, PointConfiguration, id_rows, insert_point

from conftest import (
    compound_scores_oracle,
    double_sum_oracle,
    inversion_count_quadratic,
    make_configuration,
    pair_value,
    random_configuration,
    stabilization_radius_oracle,
)


W2 = Window(n=10.0, dim=2)
INV = get_model("inversion-uniform")
TREE = get_model("inversion-tree")
TREELOG = get_model("treelog-uniform")
CROSS = get_model("crossing-fixed")


def _uniform_cfg(rng, window, count):
    from conftest import random_configuration

    return random_configuration(rng, window, count, MarkModel.uniform01())


def test_double_sum_empty():
    empty = PointConfiguration(W2, MarkModel.uniform01(), ())
    assert double_sum(empty, INV) == 0.0


def test_double_sum_is_twice_unordered_inversions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cfg = _uniform_cfg(rng, W2, int(rng.integers(2, 60)))
        ctx = INV.build_context(cfg)
        total = double_sum(cfg, INV)
        assert total == inversion_count_quadratic(ctx)
        assert total % 2 == 0


def test_double_sum_crossing_equals_direct_count():
    rng = np.random.default_rng(5)
    w3 = Window(n=4.0, dim=3)
    for _ in range(5):
        cfg = random_configuration(rng, w3, 40)
        total = double_sum(cfg, CROSS)
        g = build_edges(cfg, FixedRadius())
        assert total == crossing_number(g)


@pytest.mark.parametrize("model_id", MODEL_NAMES)
def test_double_sum_equals_ordered_pair_loop(model_id):
    # crossing scores carry the 1/8 weight, so their ordered sum is a float
    # that collapses to the integer total
    model = get_model(model_id)
    rng = np.random.default_rng(5)
    for window in (Window(n=6.0, dim=2), Window(n=4.0, dim=3)):
        for _ in range(3):
            cfg = random_configuration(rng, window, 80, model.mark_model)
            assert double_sum(cfg, model) == pytest.approx(
                double_sum_oracle(cfg, model)
            )
            ctx = model.build_context(cfg)
            if isinstance(ctx, Barcode):  # only barcodes have compound scores, by row
                G = inversion_compound_counts(ctx.births, ctx.lifetimes).tolist()
                assert G == compound_scores_oracle(cfg, model)


def test_compound_routes_need_compound_scores():
    cfg = random_configuration(np.random.default_rng(6), Window(n=4.0, dim=3), 20)
    with pytest.raises(ValueError, match="no compound scores"):
        empirical_stabilization_radius(cfg, (2.0, 2.0, 2.0), CROSS, AdmissibilityRule.all())
    with pytest.raises(ValueError, match="no compound scores"):
        sum_log_sum(cfg, CROSS)


def test_compound_score_examples():
    cfg = make_configuration(
        W2, [(1.0, 1.0), (1.2, 5.0), (8.0, 8.0)], marks=[0.9, 0.5, 0.4],
        mark_model=MarkModel.uniform01(),
    )
    # bars (1.0, 0.9) and (1.2, 0.5) invert; the third is far away in time
    ctx = INV.build_context(cfg)
    G = inversion_compound_counts(ctx.births, ctx.lifetimes)
    assert G[id_rows(cfg.ids, [0, 2])].tolist() == [1, 0]


def test_sum_of_compound_scores_is_double_sum():
    rng = np.random.default_rng(7)
    cfg = _uniform_cfg(rng, W2, 50)
    ctx = INV.build_context(cfg)
    total = int(inversion_compound_counts(ctx.births, ctx.lifetimes).sum())
    assert total == double_sum(cfg, INV)


def test_sum_log_sum_empty_and_log1():
    empty = PointConfiguration(W2, MarkModel.uniform01(), ())
    fv = sum_log_sum(empty, TREELOG)
    assert fv.value == 0.0 and fv.product_mantissa_exponent() == (1.0, 0)
    assert fv.admissible_count == 0 and fv.dropped_zero_g == 0
    # one admissible point with exactly one partner: log G = log 1 = 0
    w = Window(n=16.0, dim=2, boundary_margin=0.2)
    cfg = make_configuration(
        w, [(8.0, 8.0), (8.2, 9.0)], marks=[0.9, 0.5], mark_model=MarkModel.uniform01()
    )
    fv = sum_log_sum(cfg, TREELOG)
    assert fv.value == 0.0
    assert fv.admissible_count == 2 and fv.dropped_zero_g == 0


def test_sum_log_sum_matches_big_integer_product():
    rng = np.random.default_rng(11)
    w = Window(n=12.0, dim=2, boundary_margin=0.2)
    for _ in range(20):
        cfg = _uniform_cfg(rng, w, int(rng.integers(2, 40)))
        fv = sum_log_sum(cfg, TREELOG)
        ctx = TREELOG.build_context(cfg)
        mask = TREELOG.admissibility.mask(cfg.window, cfg.positions, ctx.lifetimes)
        G = inversion_compound_counts(ctx.births, ctx.lifetimes)
        product = 1
        for row in range(len(cfg)):
            if mask[row] and G[row] > 0:
                product *= int(G[row])
        if product == 1:
            assert fv.value == 0.0
        else:
            log_exact = Fraction(product).numerator  # exact big integer
            assert math.exp(fv.value) == pytest.approx(product, rel=1e-10)
            assert fv.value == pytest.approx(math.log(log_exact), rel=1e-12)


_G_VALUE = st.one_of(st.integers(0, 3), st.integers(0, 60), st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(_G_VALUE, st.booleans()), max_size=40), max_size=6))
@example([])  # no group
@example([[], [(5, True)], []])  # empty groups around one
@example([[(0, True)] * 4, [(0, False), (0, True)]])  # all zero: every admitted row dropped
@example([[(1, True)] * 7])  # all one: log 1 = 0
@example([[(10**6, True), (10**6 - 1, True), (2, False), (3, True)], [(10**6, True)] * 3])
@example([[(g, True) for g in range(2, 42)]])  # long enough that a pairwise sum differs
@example([[(9170, True)], [(19143, True)]])  # G where np.log is not math.log on some hosts
def test_grouped_log_fold_is_the_left_fold_bit_for_bit(groups):
    # each group's value is the Python left fold over its admitted G > 0 in
    # row order, compared by its bits; the counts are the admitted rows and
    # those of them dropped for G = 0
    G = np.array([g for group in groups for g, _ in group], dtype=np.int64)
    admitted = np.array([a for group in groups for _, a in group], dtype=bool)
    bounds = np.cumsum([0] + [len(group) for group in groups])
    expected = []
    for group in groups:
        kept = [g for g, a in group if a and g > 0]
        total = 0.0
        for g in kept:
            total += math.log(g)
        count = sum(a for _, a in group)
        expected.append((total.hex(), count, count - len(kept)))
    got = _sum_log_sums(G, admitted, bounds)
    assert [(fv.value.hex(), fv.admissible_count, fv.dropped_zero_g) for fv in got] == expected
    assert all(type(fv.admissible_count) is int is type(fv.dropped_zero_g) for fv in got)


def test_sum_log_sum_counts_dropped_points():
    w = Window(n=16.0, dim=2, boundary_margin=0.2)
    # two admissible bars that do not invert: both have G = 0 and are dropped
    cfg = make_configuration(
        w, [(8.0, 8.0), (10.0, 9.0)], marks=[0.3, 0.3], mark_model=MarkModel.uniform01()
    )
    fv = sum_log_sum(cfg, TREELOG)
    assert fv.value == 0.0
    assert fv.admissible_count == 2
    assert fv.dropped_zero_g == 2


def test_sum_log_sum_rejects_non_integer_scores():
    cfg = PointConfiguration(W2, MarkModel.none(), ())
    with pytest.raises(ValueError):
        sum_log_sum(cfg, CROSS)


def test_product_reporting_in_log_space():
    fv = FunctionalValue("sum_log_sum", 2500.0, 10, 0)
    # e^2500 overflows a float; the mantissa and exponent come from log10
    log10 = 2500.0 / math.log(10.0)
    mant, expo = fv.product_mantissa_exponent()
    assert 1.0 <= mant < 10.0
    assert expo == math.floor(log10)
    assert mant == pytest.approx(10.0 ** (log10 - expo))


# -- difference operators ------------------------------------------------------

def test_diff_first_far_away_crossing_is_zero():
    rng = np.random.default_rng(13)
    w3 = Window(n=8.0, dim=3)
    cfg = make_configuration(
        w3, [(1.0, 1.0, 1.0), (1.5, 1.2, 1.0), (1.2, 1.7, 1.3), (1.9, 1.9, 1.1)]
    )
    f = CROSS.functional()
    # far outside every slab of existing points in the first two coordinates
    assert diff_first(cfg, (7.0, 7.0, 1.0), f) == 0.0


def test_diff_first_empty_configuration():
    empty = PointConfiguration(W2, MarkModel.uniform01(), ())
    f = INV.functional()
    assert diff_first(empty, MarkedPoint((3.0, 3.0), 0.5, 0), f) == 0.0


def test_diff_first_matches_recompute_oracle():
    rng = np.random.default_rng(17)
    f = INV.functional()
    for _ in range(10):
        cfg = _uniform_cfg(rng, W2, int(rng.integers(2, 40)))
        x = MarkedPoint(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 1)), 0)
        direct = f(insert_point(cfg, x)) - f(cfg)
        assert diff_first(cfg, x, f) == direct


def test_diff_second_disjoint_slabs_vanishes():
    w3 = Window(n=12.0, dim=3)
    cfg = make_configuration(
        w3, [(1.0, 1.0, 1.0), (1.5, 1.2, 1.0), (10.0, 10.0, 1.0), (10.5, 10.2, 1.0)]
    )
    f = CROSS.functional()
    # x and y far apart in the first two (local) coordinates
    assert diff_second(cfg, (1.2, 1.5, 1.2), (10.2, 10.5, 1.2), f) == 0.0


def test_diff_second_duplicate_insert_matches_four_evaluations():
    rng = np.random.default_rng(19)
    f = INV.functional()
    cfg = _uniform_cfg(rng, W2, 20)
    x = MarkedPoint((5.0, 5.0), 0.5, 0)
    cfg_x = insert_point(cfg, x)
    cfg_xx = insert_point(cfg_x, x)
    expected = f(cfg_xx) - 2.0 * f(cfg_x) + f(cfg)
    assert diff_second(cfg, x, x, f) == expected


def test_diff_second_two_nested_bars_from_empty():
    empty = PointConfiguration(W2, MarkModel.uniform01(), ())
    f = INV.functional()
    x = MarkedPoint((3.0, 3.0), 0.9, 0)
    y = MarkedPoint((3.1, 7.0), 0.5, 0)
    assert diff_second(empty, x, y, f) == 2.0


# -- stabilization radii ---------------------------------------------------------

def test_fixed_radius_crossing_stabilizes_at_one():
    rng = np.random.default_rng(23)
    w3 = Window(n=4.0, dim=3)
    for _ in range(10):
        cfg = random_configuration(rng, w3, int(rng.integers(2, 40)))
        x = tuple(rng.uniform(0, 4, 3))
        assert empirical_stabilization_radius(cfg, x, CROSS) == 1


def test_isolated_insertion_in_empty_tree_model():
    w = Window(n=24.0, dim=2)
    empty = PointConfiguration(w, MarkModel.none(), ())
    assert empirical_stabilization_radius(empty, (12.0, 12.0), TREE) == 1


def test_crossing_stabilization_matches_incremental_oracle():
    rng = np.random.default_rng(41)
    w3 = Window(n=4.0, dim=3)
    for _ in range(8):
        cfg = random_configuration(rng, w3, int(rng.integers(2, 20)))
        x = tuple(rng.uniform(0, 4, 3))
        got = empirical_stabilization_radius(cfg, x, CROSS)
        assert got == stabilization_radius_oracle(cfg, x, CROSS)


def test_stabilization_radius_matches_incremental_oracle():
    rng = np.random.default_rng(29)
    w = Window(n=12.0, dim=2)
    for _ in range(25):
        cfg = random_configuration(rng, w, int(rng.integers(2, 40)))
        x = tuple(rng.uniform(0, 12, 2))
        got = empirical_stabilization_radius(cfg, x, TREE)
        assert got == stabilization_radius_oracle(cfg, x, TREE)


def test_stabilization_radius_with_admissibility_matches_oracle():
    rng = np.random.default_rng(31)
    w = Window(n=12.0, dim=2, boundary_margin=0.2)
    treelog_tree = get_model("treelog-tree")
    for _ in range(10):
        cfg = random_configuration(rng, w, int(rng.integers(2, 30)))
        x = tuple(rng.uniform(0, 12, 2))
        got = empirical_stabilization_radius(
            cfg, x, treelog_tree, treelog_tree.admissibility
        )
        oracle = stabilization_radius_oracle(
            cfg, x, treelog_tree, treelog_tree.admissibility
        )
        assert got == oracle


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=14),
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
        ),
        min_size=1, max_size=4,
    ),
)
def test_stacked_radii_on_lattices_with_ties_match_the_oracle(admit, draws):
    # x on the 0.5-step lattice ties rows in time, or lands on a row, so its
    # row in its after-configuration decides the tree: each draw's after-barcode,
    # taken from one stacked pass, is that of x inserted into its configuration
    # alone, and each radius the oracle's
    model = get_model("treelog-tree")
    rule = model.admissibility if admit else None
    window = Window(n=4.0, dim=2, boundary_margin=0.2)
    cfgs = [make_configuration(window, 0.5 * np.array(cells, float).reshape(-1, 2))
            for cells, _ in draws]
    xs = 0.5 * np.array([x for _, x in draws], dtype=float)
    afters = []
    with pytest.MonkeyPatch.context() as mp:
        diff = Barcode.changed_pairs
        mp.setattr(Barcode, "changed_pairs", lambda ctx, other: afters.append(other) or diff(ctx, other))
        radii = stabilization_radii(model, cfgs, xs, rule)
    for cfg, x, after in zip(cfgs, xs, afters, strict=True):
        assert after == model.build_context(insert_point(cfg, tuple(x)))
    assert radii == [stabilization_radius_oracle(cfg, tuple(x), model, rule)
                     for cfg, x in zip(cfgs, xs)]


# a lifetime lattice with ties, zeros, ones and +inf (never admissible)
_LIFE = st.sampled_from([0.5, 0.25, 0.75, 0.0, 1.0, math.inf])


@settings(max_examples=200, deadline=None)
@given(
    # per row: birth, lifetime, new birth (None keeps it), new lifetime, changed in "some"
    st.lists(
        st.tuples(st.integers(0, 4), _LIFE, st.none() | st.integers(0, 4), _LIFE, st.booleans()),
        max_size=14,
    ),
    st.sampled_from(["none", "one", "some", "all"]),
    st.integers(0, 13),
)
def test_local_changed_pairs_match_dense_comparison(rows, how, pick):
    n = len(rows)
    moved = {
        "none": [False] * n,
        "one": [k == pick % max(n, 1) for k in range(n)],
        "some": [row[-1] for row in rows],
        "all": [True] * n,
    }[how]
    ids = np.arange(10, 10 + n, dtype=np.int64)
    births = 0.25 * np.array([row[0] for row in rows], dtype=float)
    lifetimes = np.array([row[1] for row in rows], dtype=float)
    births2 = 0.25 * np.array(
        [b if nb is None or not m else nb for (b, _, nb, _, _), m in zip(rows, moved)], dtype=float
    )
    lifetimes2 = np.array([l2 if m else l for (_, l, _, l2, _), m in zip(rows, moved)], dtype=float)
    # the rebuilt barcode carries one extra owner (the inserted point), first in row order
    after = Barcode(
        np.concatenate(([-1], ids)), np.concatenate(([0.5], births2)),
        np.concatenate(([0.5], lifetimes2)),
    )
    pairs = Barcode(ids, births, lifetimes).changed_pairs(after)
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    got = pairs.tolist()

    def score(b, life, i, j):
        return inversion_score(Bar(0, b[i], life[i]), Bar(1, b[j], life[j]))

    expected = [
        [int(ids[i]), int(ids[j])]
        for i in range(n) for j in range(i + 1, n)
        if score(births, lifetimes, i, j) != score(births2, lifetimes2, i, j)
    ]
    assert got == expected


def test_changed_pairs_leave_out_a_removed_point():
    # each diff counts only pairs of points present in both contexts, in
    # either direction, although the removed point's own scores differ
    model = get_model("crossing-fixed")
    cfg = model.sample(Window(n=8.0, dim=2), (3, 0, 0))
    keep = cfg.ids != 2
    full = model.build_context(cfg)
    cut = model.build_context(
        PointConfiguration(cfg.window, cfg.mark_model, cfg.positions[keep], None, cfg.ids[keep])
    )
    full_scores, cut_scores = crossing_pair_scores(full), crossing_pair_scores(cut)
    assert any(2 in key for key, _ in full_scores.items() ^ cut_scores.items())
    expected = [
        [a, b] for a, b in itertools.combinations(sorted(cfg.ids[keep].tolist()), 2)
        if pair_value(a, b, full) != pair_value(a, b, cut)
    ]
    assert expected
    assert full.changed_pairs(cut).tolist() == cut.changed_pairs(full).tolist() == expected
    # owner 12 inverts with 11 and is removed; owner 10 then outlives 11
    before = Barcode([10, 11, 12, 13], [0.0, 0.25, 0.5, 0.75], [0.5, 0.5, 0.1, 0.5])
    after = Barcode([13, 11, 10], [0.75, 0.25, 0.0], [0.5, 0.5, 0.9])
    assert before.inversion_pairs.tolist() == [[11, 12]]
    assert before.changed_pairs(after).tolist() == after.changed_pairs(before).tolist() == [[10, 11]]
