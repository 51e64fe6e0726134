"""Exact invariances at sizes past the literal oracles' reach.

A functional of a transformed input must give the same bits, with no oracle
to consult.  Relabelling the point ids reaches the id-based path of one
configuration's graph (``build_edges``, ``_segment_geometry``'s id lookup,
``crossing_pair_scores``), which the stacked evaluation of a task no longer
shares."""
import numpy as np
import pytest

from pairfunc.geometry import Window
from pairfunc.models import get_model
from pairfunc.process import MarkedPoint, PointConfiguration, derive_rng, insert_point


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
    end = min(before.pair_scores)[0]
    position = tuple(cfg.positions[cfg.ids == end][0] + 0.05)
    x = position if cfg.marks is None else MarkedPoint(position, 1.0, -1)
    changed = before.changed_pairs(model.build_context(insert_point(cfg, x)))
    relabelled = relabelled_before.changed_pairs(model.build_context(insert_point(other, x)))
    assert len(changed) > 0
    mapped = np.sort(labels[changed], axis=1)
    assert np.array_equal(relabelled, mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))])
