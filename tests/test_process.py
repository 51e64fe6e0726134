import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from pairfunc.geometry import Cube, Slab, Window
from pairfunc.process import (
    MarkModel,
    MarkedPoint,
    PointConfiguration,
    count_in,
    derive_rng,
    dump_configuration,
    insert_point,
    load_configuration,
    sample_ppp,
)


def test_sample_rejects_bad_inputs():
    w = Window(n=5.0, dim=2)
    with pytest.raises(ValueError):
        sample_ppp(w, intensity=0.0, seed=1)
    with pytest.raises(ValueError):
        sample_ppp(w, intensity=-1.0, seed=1)
    with pytest.raises(ValueError):
        Window(n=0.0, dim=2)  # the n -> 0 limit is guarded at construction


def test_sample_deterministic_given_seed():
    w = Window(n=10.0, dim=2)
    a = sample_ppp(w, 1.0, MarkModel.uniform01(), seed=123)
    b = sample_ppp(w, 1.0, MarkModel.uniform01(), seed=123)
    assert a == b
    c = sample_ppp(w, 1.0, MarkModel.uniform01(), seed=124)
    assert a != c


def test_sample_mean_count_matches_poisson():
    w = Window(n=5.0, dim=2)
    counts = [len(sample_ppp(w, 1.0, seed=(999, r))) for r in range(10_000)]
    assert np.mean(counts) == pytest.approx(25.0, abs=1.0)  # about 2 sigma


def test_empirical_poisson_law_chi_square():
    w = Window(n=2.0, dim=2)  # volume 4
    counts = np.array([len(sample_ppp(w, 1.0, seed=(31337, r))) for r in range(10_000)])
    kmax = 10
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = sps.poisson(4.0).pmf(np.arange(kmax))
    expected = np.append(pmf, 1.0 - pmf.sum()) * len(counts)
    stat, pvalue = sps.chisquare(observed, expected)
    assert pvalue > 0.001


def test_points_sorted_by_time_then_coords_then_id():
    w = Window(n=10.0, dim=2)
    cfg = sample_ppp(w, 1.0, seed=5)
    pos = [p.position for p in cfg.points]
    assert pos == sorted(pos)


def test_insert_point_keeps_every_old_point():
    w = Window(n=5.0, dim=2)
    cfg = sample_ppp(w, 1.0, seed=2)
    x = MarkedPoint((2.5, 2.5), None, 0)
    bigger = insert_point(cfg, x)
    assert len(bigger) == len(cfg) + 1
    assert len(cfg) == len(cfg.points)  # input unchanged
    new_id = next(p.id for p in bigger.points if p.position == (2.5, 2.5))
    assert new_id not in cfg.ids
    assert {p for p in bigger.points if p.id != new_id} == set(cfg.points)


def test_insert_into_empty_and_multiset_semantics():
    w = Window(n=5.0, dim=2)
    empty = PointConfiguration(w, MarkModel.none(), ())
    one = insert_point(empty, (1.0, 1.0))
    assert len(one) == 1
    two = insert_point(one, (1.0, 1.0))
    assert len(two) == 2
    assert len({p.id for p in two.points}) == 2


def test_insert_outside_window_rejected():
    w = Window(n=5.0, dim=2)
    empty = PointConfiguration(w, MarkModel.none(), ())
    with pytest.raises(ValueError):
        insert_point(empty, (6.0, 1.0))


def test_mark_validation():
    w = Window(n=5.0, dim=2)
    cfg = PointConfiguration(w, MarkModel.uniform01(), ())
    with pytest.raises(ValueError):
        insert_point(cfg, MarkedPoint((1.0, 1.0), 1.5, -1))
    with pytest.raises(ValueError):
        insert_point(cfg, MarkedPoint((1.0, 1.0), None, -1))
    with pytest.raises(ValueError):
        MarkModel.exponential(rate=0.0)
    with pytest.raises(ValueError):
        MarkModel.uniform_radius(0.5, 0.9)  # upper below 1


def test_count_in_regions():
    w = Window(n=10.0, dim=2)
    empty = PointConfiguration(w, MarkModel.none(), ())
    cube = Cube((5.0, 5.0), 1.0)
    assert count_in(empty, cube) == 0
    cfg = PointConfiguration(
        w, MarkModel.none(), [(5.0, 5.0), (5.5, 4.5), (4.2, 5.9)]
    )
    assert count_in(cfg, cube) == 3
    # random configuration equals a naive membership scan
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 10, (200, 2))
    cfg2 = PointConfiguration(w, MarkModel.none(), pts)
    naive = sum(1 for p in pts if max(abs(p[0] - 5.0), abs(p[1] - 5.0)) <= 1.0)
    assert count_in(cfg2, cube) == naive


def test_count_additive_over_disjoint_regions():
    w = Window(n=10.0, dim=2)
    cfg = sample_ppp(w, 1.0, seed=3)
    a = Cube((2.0, 2.0), 1.0)
    b = Cube((8.0, 8.0), 1.0)

    class Union:
        def mask(self, positions):
            return a.mask(positions) | b.mask(positions)

    assert count_in(cfg, a) + count_in(cfg, b) == count_in(cfg, Union())


def test_slab_counting():
    w = Window(n=10.0, dim=3)
    cfg = sample_ppp(w, 1.0, seed=8)
    slab = Slab((5.0, 5.0, 0.0), 1.0, 2, w)
    naive = sum(
        1
        for p in cfg.points
        if abs(p.position[0] - 5.0) <= 1.0 and abs(p.position[1] - 5.0) <= 1.0
    )
    assert count_in(cfg, slab) == naive


def test_derived_streams_are_independent_of_order():
    a1 = derive_rng(7, 0, 3).uniform()
    b1 = derive_rng(7, 1, 0).uniform()
    b2 = derive_rng(7, 1, 0).uniform()
    a2 = derive_rng(7, 0, 3).uniform()
    assert a1 == a2 and b1 == b2


def test_dump_load_round_trip_exact():
    w = Window(n=7.0, dim=3, coefficients=(1.5, 0.75), exponents=(1.0, 0.9))
    cfg = sample_ppp(w, 1.3, MarkModel.exponential(2.0), seed=77)
    text = dump_configuration(cfg)
    back = load_configuration(text)
    assert back == cfg
    assert dump_configuration(back) == text


def test_dump_load_no_marks():
    w = Window(n=4.0, dim=2)
    cfg = sample_ppp(w, 1.0, seed=9)
    assert load_configuration(dump_configuration(cfg)) == cfg


# -- column store invariants ---------------------------------------------------

# few distinct coordinate values, so that ties and duplicate positions are common
_COORD = st.sampled_from([0.0, 0.5, 1.25, 1.25 + 2**-40, 3.0, 5.0])


@st.composite
def _columns(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(0, 12))
    positions = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=count, max_size=count))
    ids = draw(st.lists(st.integers(-50, 50), min_size=count, max_size=count, unique=True))
    marks = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=count, max_size=count))
    return dim, positions, ids, marks


@settings(max_examples=200, deadline=None)
@given(_columns(), st.booleans())
def test_columnar_invariants(columns, with_marks):
    dim, positions, ids, marks = columns
    w = Window(n=5.0, dim=dim)
    mm = MarkModel.uniform01() if with_marks else MarkModel.none()
    mark_col = marks if with_marks else None
    cfg = PointConfiguration(w, mm, np.array(positions).reshape(len(ids), dim), mark_col, ids)
    rows = sorted(zip(positions, ids, marks if with_marks else [None] * len(ids)))
    stored = list(zip(map(tuple, cfg.positions.tolist()), cfg.ids.tolist()))
    assert stored == [(pos, pid) for pos, pid, _ in rows]
    assert [(p.position, p.id, p.mark) for p in cfg.points] == rows
    # same points in reversed input order build an equal configuration
    again = PointConfiguration(
        w, mm, [p.position for p in cfg.points][::-1],
        None if not with_marks else [p.mark for p in cfg.points][::-1],
        [p.id for p in cfg.points][::-1],
    )
    assert again == cfg
    assert load_configuration(dump_configuration(cfg)) == cfg
    wide = np.zeros((len(ids), dim + 1))
    with pytest.raises(ValueError):
        PointConfiguration(w, mm, wide, mark_col, ids)


def test_empty_configuration_dump_round_trip():
    for mm in (MarkModel.none(), MarkModel.uniform01()):
        empty = PointConfiguration(Window(n=3.0, dim=2), mm, ())
        assert len(empty) == 0 and empty.points == ()
        assert load_configuration(dump_configuration(empty)) == empty


def test_configuration_columns_reject_bad_input():
    w = Window(n=5.0, dim=2)
    with pytest.raises(ValueError, match="unique"):
        PointConfiguration(w, MarkModel.none(), [(1.0, 1.0), (2.0, 2.0)], ids=[3, 3])
    with pytest.raises(ValueError, match="outside"):
        PointConfiguration(w, MarkModel.none(), [(1.0, 1.0), (2.0, 5.5)])
    with pytest.raises(ValueError, match="one row per point"):
        PointConfiguration(w, MarkModel.uniform01(), [(1.0, 1.0)], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        PointConfiguration(w, MarkModel.uniform01(), [(1.0, 1.0)])
    cfg = PointConfiguration(w, MarkModel.none(), [(1.0, 1.0)])
    with pytest.raises(ValueError):
        cfg.positions[0, 0] = 2.0  # columns are read-only
