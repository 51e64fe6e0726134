"""Exact invariances and identities at sizes past the literal oracles' reach.

A functional of a transformed input must give the same bits, with no oracle
to consult.  Relabelling the point ids reaches the id-based path of one
configuration's context (``build_edges``, ``_segment_geometry``'s id lookup,
``crossing_pair_scores``; a barcode's owners, inversion pairs and diff),
which the stacked evaluation of a task no longer shares.  The model
identities tie kernels to each other, and the stacked compound scores of a
task to each configuration's own context.  An insertion's pair diff must be
the difference of the whole pair tables, and swapping two axes that the
model treats alike must keep its value."""
import numpy as np
import pytest

from pairfunc.geometry import Window
from pairfunc.graphs import FixedRadius, MaxKernel, build_edges, crossing_pair_scores
from pairfunc.models import MODEL_NAMES, get_model
from pairfunc.process import (
    MarkModel, MarkedPoint, PointConfiguration, derive_rng, insert_point, sample_stack,
)


def _relabelled(cfg: PointConfiguration, labels: np.ndarray) -> PointConfiguration:
    """``cfg`` with id k renamed ``labels[k]``."""
    return PointConfiguration(cfg.window, cfg.mark_model, cfg.positions, cfg.marks, labels[cfg.ids],
                              cfg.seed)


@pytest.mark.parametrize("model_id", ["crossing-fixed", "crossing-max", "crossing-localized:16"])
def test_crossing_models_ignore_the_id_labels_at_n128(model_id):
    model, window = get_model(model_id), Window(n=128.0, dim=2)
    cfg = model.sample(window, (128, 0, 0))
    n = len(cfg)
    rng = derive_rng(128, 1, 0)
    labels = rng.choice(10 * n, n, replace=False)  # a seeded injection into [0, 10N)
    other = _relabelled(cfg, labels)
    before, relabelled_before = model.build_context(cfg), model.build_context(other)
    assert relabelled_before.total() == before.total() > 0
    # insert a point next to an end of a crossing segment: the changed pairs
    # map through the labels
    end = min(crossing_pair_scores(before))[0]
    position = tuple(cfg.positions[cfg.ids == end][0] + 0.05)
    x = position if cfg.marks is None else MarkedPoint(position, 1.0, -1)
    changed = before.changed_pairs(model.build_context(insert_point(cfg, x)))
    relabelled = relabelled_before.changed_pairs(model.build_context(insert_point(other, x)))
    assert len(changed) > 0
    mapped = np.sort(labels[changed], axis=1)
    assert np.array_equal(relabelled, mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))])


def _sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    """(min, max) id-pair rows in lexicographic order."""
    pairs = np.sort(pairs, axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@pytest.mark.parametrize("model_id, d, n", [
    ("inversion-uniform", 2, 128.0), ("treelog-uniform", 2, 128.0),
    ("inversion-tree", 3, 24.0), ("treelog-tree", 3, 24.0),
])
def test_barcode_models_ignore_the_id_labels(model_id, d, n):
    model, window = get_model(model_id), Window(n=n, dim=d)
    cfg = model.sample(window, (int(n), d, 0))
    labels = derive_rng(int(n), d, 1).choice(10 * len(cfg), len(cfg), replace=False)
    other = _relabelled(cfg, labels)
    value = model.evaluate(cfg)
    assert model.evaluate(other) == value and value.value > 0  # bit for bit, counts too
    before, relabelled_before = model.build_context(cfg), model.build_context(other)
    assert np.array_equal(relabelled_before.inversion_pairs,
                          _sorted_pairs(labels[before.inversion_pairs]))
    # insert just before an admissible bar's point in time: the tree models'
    # lifetimes move, a uniform model's old bars keep theirs, and either way
    # the changed pairs map through the labels
    admissible = np.flatnonzero((before.lifetimes > 0.0) & (before.lifetimes < 1.0))
    position = tuple(cfg.positions[admissible[len(admissible) // 2]] - 0.05 * np.eye(d)[0])
    x = position if cfg.marks is None else MarkedPoint(position, 0.5, -1)
    changed = before.changed_pairs(model.build_context(insert_point(cfg, x)))
    relabelled = relabelled_before.changed_pairs(model.build_context(insert_point(other, x)))
    assert (len(changed) > 0) == model_id.endswith("-tree")
    assert np.array_equal(relabelled, _sorted_pairs(labels[changed]))


def test_uncapped_localized_kernel_is_the_max_kernel_at_n128():
    window = Window(n=128.0, dim=2)
    uncapped, maximal = get_model("crossing-localized"), get_model("crossing-max")
    cfg = maximal.sample(window, (128, 2, 0))
    a, b = uncapped.build_context(cfg), maximal.build_context(cfg)
    assert np.array_equal(a.edge_ids, b.edge_ids) and np.array_equal(a.segment_ids, b.segment_ids)
    assert a.total() == b.total() > 0


def test_max_kernel_on_unit_marks_is_the_fixed_radius_graph_at_n128():
    window = Window(n=128.0, dim=2)
    plain = get_model("crossing-fixed").sample(window, (128, 3, 0))
    unit = PointConfiguration(window, MarkModel.exponential(1.0), plain.positions,
                              np.ones(len(plain)), plain.ids)
    a, b = build_edges(unit, MaxKernel()), build_edges(plain, FixedRadius(1.0))
    assert np.array_equal(a.edge_ids, b.edge_ids) and np.array_equal(a.segment_ids, b.segment_ids)
    assert a.total() == b.total() > 0


@pytest.mark.parametrize("model_id", MODEL_NAMES)
def test_stacked_scores_add_up_to_each_context_total_at_n128(model_id):
    model, window = get_model(model_id), Window(n=128.0, dim=2)
    seeds = [(128, 4, r) for r in range(3)]
    positions, marks, bounds = sample_stack(window, 1.0, model.mark_model, seeds)
    G, _ = model.stack_scores(positions, marks, bounds)
    sums = [G[i:j].sum() for i, j in zip(bounds[:-1], bounds[1:])]
    totals = [model.build_context(model.sample(window, seed)).total() for seed in seeds]
    assert sums == totals and min(totals) > 0


def _pair_keys(pairs: np.ndarray, base: int) -> np.ndarray:
    """One int64 key a * base + b per (a, b) row: ascending when the rows are."""
    return pairs[:, 0] * base + pairs[:, 1]


@pytest.mark.parametrize("model_id, d, n, insertions", [
    ("inversion-tree", 2, 128.0, 20), ("inversion-tree", 3, 20.0, 20),
    ("inversion-uniform", 2, 128.0, 5),  # 350k inversion pairs: each insertion costs 0.15 s
])
def test_insertion_changes_the_pairs_that_its_tables_differ_in(model_id, d, n, insertions):
    # changed_pairs is the symmetric difference of the whole inversion-pair
    # tables before and after an insertion, on the owners they share; the
    # inversion count moves by twice the pairs gained at the new point and
    # twice the net change among the shared owners
    model, window = get_model(model_id), Window(n=n, dim=d)
    cfg = model.sample(window, (7, 0, 0))
    before = model.build_context(cfg)
    fresh = cfg.next_id()
    old = _pair_keys(before.inversion_pairs, fresh + 1)
    rng = derive_rng(7, 1, 0)
    moved = 0
    for _ in range(insertions):
        position = tuple(rng.uniform(0.0, 1.0, d) * np.array(window.sides))
        mark = model.mark_model.sample(rng, 1)
        x = position if mark is None else MarkedPoint(position, float(mark[0]), -1)
        after = model.build_context(insert_point(cfg, x))
        pairs = after.inversion_pairs
        at_new = pairs[:, 1] == fresh  # the largest id closes its (min, max) rows
        common = _pair_keys(pairs[~at_new], fresh + 1)
        changed = before.changed_pairs(after)
        assert np.array_equal(_pair_keys(changed, fresh + 1),
                              np.setxor1d(old, common, assume_unique=True))
        assert after.total() - before.total() == 2 * at_new.sum() + 2 * (len(common) - len(old))
        moved += len(changed)
    assert (moved > 0) == model_id.endswith("-tree")  # uniform lifetimes never move


@pytest.mark.parametrize("d, n", [(2, 128.0), (3, 16.0)])
def test_crossing_insertion_moves_the_count_by_its_pair_scores(d, n):
    # every crossing pair of segments separates its four endpoint pairings, so
    # crossing_pair_scores sums to 4 C: an insertion moves 4 C by the scores
    # at the new point plus the score change over the common pairs, and the
    # common pairs whose score changed are changed_pairs
    model, window = get_model("crossing-fixed"), Window(n=n, dim=d)
    cfg = model.sample(window, (128, 0, 0))
    before = model.build_context(cfg)
    old, total = crossing_pair_scores(before), before.total()
    fresh = cfg.next_id()
    rng = derive_rng(128, 1, 0)
    moved = 0
    for _ in range(5):
        position = tuple(rng.uniform(0.0, 1.0, d) * np.array(window.sides))
        after = model.build_context(insert_point(cfg, position))
        new = crossing_pair_scores(after)
        at_new = sum(count for pair, count in new.items() if fresh in pair)
        common = {pair: count for pair, count in new.items() if fresh not in pair}
        change = sum(common.values()) - sum(old.values())
        step = after.total() - total
        assert 4 * step == at_new + change
        differ = sorted({pair for pair, _ in common.items() ^ old.items()})
        assert before.changed_pairs(after).tolist() == [list(pair) for pair in differ]
        moved += step != 0
    assert moved > 0


def _swapped(cfg: PointConfiguration, i: int, j: int) -> PointConfiguration:
    """``cfg`` with coordinate axes i and j exchanged (a square window maps to itself)."""
    order = np.arange(cfg.window.dim)
    order[[i, j]] = order[[j, i]]
    return PointConfiguration(cfg.window, cfg.mark_model, cfg.positions[:, order], cfg.marks,
                              cfg.ids, cfg.seed)


@pytest.mark.parametrize("model_id", ["crossing-fixed", "crossing-max", "crossing-localized:16"])
def test_crossing_totals_keep_under_swapping_the_two_axes(model_id):
    # the crossing pass cuts slabs along axis 1; swapping the axes reflects
    # the graph, which keeps every edge and every proper crossing
    model = get_model(model_id)
    cfg = model.sample(Window(n=128.0, dim=2), (3, 0, 0))
    total = model.build_context(cfg).total()
    assert model.build_context(_swapped(cfg, 0, 1)).total() == total > 0


@pytest.mark.parametrize("model_id", [m for m in MODEL_NAMES if not m.startswith("crossing")])
def test_barcode_models_keep_under_swapping_the_cylinder_axes(model_id):
    # births read axis 1 and the merge cylinder axes 2..d, which a swap of
    # axes 2 and 3 maps to itself: the same value, bit for bit, counts too
    model = get_model(model_id)
    cfg = model.sample(Window(n=24.0, dim=3), (3, 0, 0))
    value = model.evaluate(cfg)
    assert model.evaluate(_swapped(cfg, 1, 2)) == value and value.value > 0
