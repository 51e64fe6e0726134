import dataclasses

import numpy as np
import pytest

from pairfunc.functionals import diff_first
from pairfunc.geometry import Window
from pairfunc.models import MODEL_NAMES, Model, get_model
from pairfunc.process import MarkModel, sample_stack

from conftest import pair_value, random_configuration


def test_model_catalog_resolves():
    for name in MODEL_NAMES:
        model = get_model(name)  # crossing-localized alone has no cap
        assert model.functional_kind in ("double_sum", "sum_log_sum")
    assert get_model("crossing-localized:5").name == "crossing-localized:5"
    assert get_model("crossing-localized:16").name == "crossing-localized:16"
    # only crossing-localized takes a suffix, and its cap is an integer >= 1
    for bad in ("no-such-model", "crossing-localized:0", "crossing-localized:-3",
                "crossing-localized:x", "crossing-localized:", "crossing-localized:1.5",
                "crossing-fixed:abc", "crossing-max:7", "treelog-tree:2", "crossing-localizedfoo"):
        with pytest.raises(ValueError):
            get_model(bad)


def test_model_is_a_record_of_names_and_a_builder():
    # the context the builder returns answers every query of the pair score;
    # every model also gives G of a whole column stack, a barcode model with
    # the stack's lifetimes
    assert [f.name for f in dataclasses.fields(Model)] == [
        "name", "functional_kind", "min_dim", "mark_model", "admissibility", "build_context",
        "stack_scores",
    ]
    window, seeds = Window(n=5.0, dim=2), [(8, 0, 0), (8, 0, 1)]
    for name, has_bars in (("crossing-fixed", False), ("inversion-tree", True)):
        model = get_model(name)
        positions, marks, bounds = sample_stack(window, 1.0, model.mark_model, seeds)
        G, lifetimes = model.stack_scores(positions, marks, bounds)
        assert G.shape == (len(positions),) and (lifetimes is not None) == has_bars


def test_minimum_dimensions():
    # crossings need two planar coordinates and merge forests a cylinder;
    # uniform lifetimes need time alone
    assert get_model("crossing-fixed").min_dim == 2
    assert get_model("inversion-tree").min_dim == 2
    assert get_model("treelog-tree").min_dim == 2
    assert get_model("inversion-uniform").min_dim == 1
    assert get_model("treelog-uniform").min_dim == 1


def test_crossing_score_k_locality_spot_checks():
    # pairs separated by more than twice the cut-off (1 here) in a local
    # coordinate cannot score
    model = get_model("crossing-fixed", cutoff=1.0)
    rng = np.random.default_rng(2)
    w = Window(n=8.0, dim=3)
    cfg = random_configuration(rng, w, 60)
    ctx = model.build_context(cfg)
    pos = {p.id: p.position for p in cfg.points}
    for a in pos:
        for b in pos:
            if a == b:
                continue
            for j in range(2):
                if abs(pos[a][j] - pos[b][j]) > 2.0:
                    assert pair_value(a, b, ctx) == 0.0


def test_inversion_score_one_locality_spot_checks():
    # bars born more than one time unit apart cannot invert
    model = get_model("inversion-uniform")
    rng = np.random.default_rng(3)
    cfg = random_configuration(rng, Window(n=10.0, dim=2), 60, MarkModel.uniform01())
    ctx = model.build_context(cfg)
    pos = {p.id: p.position for p in cfg.points}
    for a in pos:
        for b in pos:
            if a != b and abs(pos[a][0] - pos[b][0]) > 1.0:
                assert pair_value(a, b, ctx) == 0.0


def test_fixed_radius_first_difference_nonnegative():
    model = get_model("crossing-fixed")
    f = model.functional()
    rng = np.random.default_rng(5)
    w = Window(n=4.0, dim=3)
    for _ in range(10):
        cfg = random_configuration(rng, w, 40)
        x = tuple(rng.uniform(0, 4, 3))
        assert diff_first(cfg, x, f) >= 0.0


def test_full_pipeline_is_pure_in_seed():
    model = get_model("treelog-uniform")
    w = Window(n=12.0, dim=2)
    a = model.evaluate(model.sample(w, (77, 0, 0)))
    b = model.evaluate(model.sample(w, (77, 0, 0)))
    assert a == b
    c = model.evaluate(model.sample(w, (77, 0, 1)))
    assert a != c
