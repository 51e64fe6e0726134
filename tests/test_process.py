import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from pairfunc.geometry import Cube, Window
from pairfunc.process import (
    MarkModel,
    MarkedPoint,
    PointConfiguration,
    _lex_order,
    derive_rng,
    dump_configuration,
    id_rows,
    insert_point,
    load_configuration,
    sample_ppp,
    sample_stack,
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


def test_stack_rows_are_each_samples_configuration_rows():
    # sample k of a stack holds the rows of sample_ppp at its seed, in the
    # configuration's order; low intensity gives samples of 0 and 1 points
    w = Window(n=3.0, dim=3, coefficients=(1.5, 0.5), exponents=(1.0, 0.8))
    seeds = [(4, 0, r) for r in range(12)] + [11]
    for marks in (MarkModel.none(), MarkModel.uniform01(), MarkModel.exponential(2.0)):
        positions, values, bounds = sample_stack(w, 0.1, marks, seeds)
        assert (values is None) == (not marks.has_marks) and len(bounds) == len(seeds) + 1
        sizes = np.diff(bounds)
        assert sizes.min() == 0 and 1 in sizes and bounds[-1] == len(positions)
        assert not positions.flags.writeable and (values is None or not values.flags.writeable)
        for k, seed in enumerate(seeds):
            drawn = sample_ppp(w, 0.1, marks, seed)
            rows = slice(bounds[k], bounds[k + 1])
            assert np.array_equal(positions[rows], drawn.positions)
            assert values is None or np.array_equal(values[rows], drawn.marks)
    positions, values, bounds = sample_stack(w, 1.0, MarkModel.uniform01(), [])
    assert positions.shape == (0, 3) and values.shape == (0,) and bounds.tolist() == [0]
    with pytest.raises(ValueError, match="intensity"):
        sample_stack(w, 0.0, MarkModel.none(), [1])


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
    # every point twice, under descending negative ids: each position ties
    # once, and the id breaks the tie
    ids = np.arange(2 * len(cfg))[::-1] * 7 - 40
    twice = PointConfiguration(w, cfg.mark_model, np.vstack([cfg.positions] * 2)[::-1], ids=ids)
    rows = list(zip(map(tuple, twice.positions.tolist()), twice.ids.tolist()))
    assert rows == sorted(rows)
    assert [pos for pos, _ in rows[::2]] == [pos for pos, _ in rows[1::2]] == pos


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


def test_insert_point_rejects_an_id_past_int64():
    # the fresh id is one past the largest, so a configuration that holds
    # 2**63 - 1 has none: no insertion may promote the id column to float64
    w = Window(n=5.0, dim=2)
    cfg = PointConfiguration(w, MarkModel.none(), [(1.0, 1.0), (2.0, 2.0)], ids=[0, 2**63 - 1])
    with pytest.raises(ValueError, match="no int64 id"):
        insert_point(cfg, (3.0, 3.0))
    below = PointConfiguration(w, MarkModel.none(), [(1.0, 1.0)], ids=[2**63 - 2])
    assert insert_point(below, (3.0, 3.0)).ids.tolist() == [2**63 - 2, 2**63 - 1]


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
    # a region's count is the sum of its vectorized mask over the position column
    w = Window(n=10.0, dim=2)
    empty = PointConfiguration(w, MarkModel.none(), ())
    cube = Cube((5.0, 5.0), 1.0)
    assert cube.mask(empty.positions).sum() == 0
    cfg = PointConfiguration(
        w, MarkModel.none(), [(5.0, 5.0), (5.5, 4.5), (4.2, 5.9)]
    )
    assert cube.mask(cfg.positions).sum() == 3
    # random configuration equals a naive membership scan
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 10, (200, 2))
    cfg2 = PointConfiguration(w, MarkModel.none(), pts)
    naive = sum(1 for p in pts if max(abs(p[0] - 5.0), abs(p[1] - 5.0)) <= 1.0)
    assert cube.mask(cfg2.positions).sum() == naive


def test_count_additive_over_disjoint_regions():
    w = Window(n=10.0, dim=2)
    cfg = sample_ppp(w, 1.0, seed=3)
    a = Cube((2.0, 2.0), 1.0).mask(cfg.positions)
    b = Cube((8.0, 8.0), 1.0).mask(cfg.positions)
    assert a.sum() + b.sum() == (a | b).sum()


def test_id_rows_maps_ids_to_rows_and_rejects_unknown_ids():
    ids = np.array([7, 3, 42, 0])
    assert id_rows(ids, [42, 7, 0]).tolist() == [2, 0, 3]
    assert id_rows(ids, np.array([[3, 0]])).tolist() == [[1, 3]]  # the query's shape
    assert id_rows(ids, []).tolist() == []
    for unknown in ([5], [7, 43], [-1]):
        with pytest.raises(KeyError, match="unknown point ids"):
            id_rows(ids, unknown)
    with pytest.raises(KeyError):
        id_rows(np.array([], dtype=np.int64), [0])


def test_stream_keys_follow_the_seed_rule():
    # no key is reduced modulo 2**64: an out-of-range key is an error, not an alias
    assert derive_rng(2**64 - 1, 0).uniform() != derive_rng(0, 0).uniform()
    for bad in (2**64, -1, 1.5, True):
        with pytest.raises(ValueError):
            derive_rng(bad, 0)
        with pytest.raises(ValueError):
            derive_rng(0, bad)


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


# -- row order against the lexsort oracle ----------------------------------------

# a lattice on which first coordinates tie, positions repeat and -0.0 meets 0.0,
# or free floats on which the first coordinates are almost surely distinct
_LATTICE = st.sampled_from([-0.0, 0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.5, 5.0])
_FREE = st.floats(0.0, 5.0)


@st.composite
def _ordering_inputs(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(0, 30))
    coord = draw(st.sampled_from([_LATTICE, _FREE]))
    positions = draw(st.lists(st.tuples(*[coord] * dim), min_size=count, max_size=count))
    ids = draw(
        st.none()
        | st.lists(st.integers(-(2**40), 2**40), min_size=count, max_size=count, unique=True)
    )
    return np.array(positions, dtype=float).reshape(count, dim), ids


def _assert_lexsorted(cfg):
    """The stored rows are in ``np.lexsort((ids, *positions.T[::-1]))``
    order, which is a total order since ids are unique."""
    order = np.lexsort((cfg.ids, *cfg.positions.T[::-1]))
    assert np.array_equal(order, np.arange(len(cfg)))


@settings(max_examples=300, deadline=None)
@given(_ordering_inputs())
def test_row_order_matches_lexsort_oracle(inputs):
    positions, ids = inputs
    count, dim = positions.shape
    w = Window(n=5.0, dim=dim)
    cfg = PointConfiguration(w, MarkModel.none(), positions, ids=ids)
    id_column = np.arange(count) if ids is None else np.array(ids, dtype=np.int64)
    expected = np.lexsort((id_column, *positions.T[::-1]))
    tied = len(set(positions[:, 0].tolist())) < count  # -0.0 == 0.0 in a set
    event("tied first coordinates" if tied else "distinct first coordinates")
    assert np.array_equal(_lex_order(*positions.T, id_column), expected)
    assert np.array_equal(cfg.ids, id_column[expected])
    assert cfg.positions.tobytes() == positions[expected].tobytes()  # -0.0 stays -0.0
    # an inserted point that ties an existing first coordinate, or the origin
    x = tuple(positions[0]) if count else (-0.0,) * dim
    bigger = insert_point(cfg, x)
    _assert_lexsorted(bigger)
    assert sorted(bigger.ids.tolist()) == sorted(cfg.ids.tolist() + [cfg.next_id()])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [0.1, 1.0, 6.0])
def test_sampled_and_inserted_rows_are_lexsorted(dim, n):
    w = Window(n=n, dim=dim)
    for r in range(5):
        cfg = sample_ppp(w, 1.0, MarkModel.uniform01(), seed=(41, dim, r))
        _assert_lexsorted(cfg)
        cfg = insert_point(cfg, MarkedPoint((0.0,) * dim, 0.5, 0))
        _assert_lexsorted(cfg)
        cfg = insert_point(cfg, MarkedPoint(tuple(cfg.positions[-1]), 0.5, 0))  # a duplicate
        _assert_lexsorted(cfg)


@st.composite
def _insertions(draw):
    # lattice rows under non-contiguous ids, marked or not, and x anywhere on
    # the lattice or on an existing row
    dim, marked = draw(st.integers(1, 3)), draw(st.booleans())
    count = draw(st.integers(0, 20))
    positions = draw(st.lists(st.tuples(*[_LATTICE] * dim), min_size=count, max_size=count))
    ids = draw(st.lists(st.integers(-50, 50), min_size=count, max_size=count, unique=True))
    lifetimes = st.sampled_from([0.0, 0.5, 1.0])
    marks = draw(st.lists(lifetimes, min_size=count, max_size=count)) if marked else None
    x = draw(st.tuples(*[_LATTICE] * dim) | (st.sampled_from(positions) if count else st.nothing()))
    return dim, positions, marks, ids, x, draw(lifetimes) if marked else None


@settings(max_examples=300, deadline=None)
@given(_insertions())
@example((2, [(1.0, 1.0), (2.5, 0.0)], None, [3, 9], (1.0, 1.0), None))  # x on a row
@example((2, [(1.0, 1.0), (1.0, 0.5)], [0.5, 1.0], [4, 2], (1.0, 2.5), 0.0))  # x ties a time
@example((1, [(0.0,), (-0.0,)], None, [-7, 5], (-0.0,), None))  # -0.0 ties 0.0
@example((3, [], [], [], (0.5, 0.0, 5.0), 0.5))  # the empty configuration
def test_insert_point_places_x_as_the_re_sorting_constructor_does(inputs):
    dim, positions, marks, ids, x, mark = inputs
    window = Window(n=5.0, dim=dim)
    model = MarkModel.uniform01() if mark is not None else MarkModel.none()
    cfg = PointConfiguration(window, model, np.array(positions).reshape(-1, dim), marks, ids, seed=3)
    got = insert_point(cfg, x if mark is None else MarkedPoint(x, mark, -1))
    expected = PointConfiguration(
        window, model, np.vstack([cfg.positions, [x]]),
        None if mark is None else np.append(cfg.marks, mark),
        np.append(cfg.ids, cfg.next_id()), cfg.seed,
    )
    assert got == expected
    assert got.positions.tobytes() == expected.positions.tobytes()  # -0.0 and 0.0 in place
    assert not any(c.flags.writeable for c in (got.positions, got.ids))
    assert got.marks is None or not got.marks.flags.writeable


def test_lex_order_takes_the_lexsort_only_on_primary_ties(monkeypatch):
    real = np.lexsort
    calls = []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or real(keys))
    second = np.array([3.0, 1.0, 2.0])
    for primary, tied in [
        ([2.0, 0.0, 1.0], False),
        ([], False),
        ([7.0], False),
        ([1.0, 0.0, 1.0], True),
        ([-0.0, 0.0, 1.0], True),   # -0.0 ties 0.0
        ([np.nan, 0.0, 1.0], True),  # NaN takes the exact path too
    ]:
        primary = np.array(primary)
        calls.clear()
        got = _lex_order(primary, second[: len(primary)])
        assert bool(calls) == tied
        assert np.array_equal(got, real((second[: len(primary)], primary)))
