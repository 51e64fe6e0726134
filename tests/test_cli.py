import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pairfunc.cli import build_parser, main
from pairfunc.experiment import (
    LONG_HEADER,
    RESULTS_HEADER,
    SUMMARY_HEADER,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    stabilization_survey,
    write_outputs,
)
from pairfunc.geometry import Window
from pairfunc.process import (
    MarkModel, PointConfiguration, _integer, dump_configuration, load_configuration,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the subprocesses import the package from the checkout, as the tests do
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_binomial(capsys):
    code, out, _ = run_cli(["bounds", "binomial", "100", "0.5"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(4.66e-4, rel=2e-3)


def test_bounds_poisson(capsys):
    code, out, _ = run_cli(["bounds", "poisson", "10"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(5.52e-3, rel=2e-3)


def test_bounds_bad_params_config_error(capsys):
    code, _, err = run_cli(["bounds", "binomial", "100"], capsys)
    assert code == 2
    assert "PAIRFUNC_ERROR code=2 kind=config" in err


def test_evaluate_inversion_fixture(tmp_path, capsys):
    # a point file with a known inversion count via brute force
    from pairfunc.process import dump_configuration, MarkModel, PointConfiguration
    from pairfunc.geometry import Window
    from conftest import inversion_count_quadratic
    from pairfunc.barcodes import uniform_lifetimes

    w = Window(n=10.0, dim=2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 10, (30, 2))
    marks = rng.uniform(0, 1, 30)
    cfg = PointConfiguration(w, MarkModel.uniform01(), pts, marks)
    path = tmp_path / "points.txt"
    path.write_text(dump_configuration(cfg))
    expected = inversion_count_quadratic(uniform_lifetimes(cfg))
    code, out, _ = run_cli(["evaluate", "--model", "inversion-uniform", "--points", str(path)], capsys)
    assert code == 0
    assert int(out.strip()) == expected


def test_evaluate_snowflake_with_kernel_flag(capsys):
    code, out, _ = run_cli(
        ["evaluate", "--kernel", "directed", "--points", str(FIXTURES / "snowflake.txt")],
        capsys,
    )
    assert code == 0
    assert int(out.strip()) == 3


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:1] + [rows[1].rsplit(" ", 1)[0]] + rows[2:], "line 3: expected 4 fields"),
        (lambda rows: rows[:1] + [rows[1] + " 7"] + rows[2:], "line 3: expected 4 fields"),
        (lambda rows: rows[:1] + ["2 abc 4.0 -"] + rows[2:], "line 3: could not convert"),
        (lambda rows: rows[:1] + ["2 2.0 99.0 -"] + rows[2:], "outside the window"),
        (lambda rows: rows[:1] + ["0 2.0 4.0 -"] + rows[2:], "ids must be unique"),
        (lambda rows: rows[:1] + ["99999999999999999999 2.0 4.0 -"] + rows[2:],
         "line 3: point id 99999999999999999999 lies outside int64"),
        (lambda rows: rows[:1] + [f"{2**63} 2.0 4.0 -"] + rows[2:], "lies outside int64"),
        (lambda rows: rows[:1] + [f"{-2**63 - 1} 2.0 4.0 -"] + rows[2:], "lies outside int64"),
    ],
    ids=["missing-field", "extra-field", "non-numeric", "outside-window", "duplicate-id",
         "id-past-int64", "id-2-63", "id-below-int64"],
)
def test_evaluate_malformed_point_file(tmp_path, capsys, edit, message):
    from pairfunc.geometry import Window
    from pairfunc.process import MarkModel, PointConfiguration, dump_configuration

    cfg = PointConfiguration(
        Window(n=5.0, dim=2), MarkModel.none(), [(1.0, 1.0), (3.0, 1.5), (2.0, 4.0)]
    )
    header, *rows = dump_configuration(cfg).splitlines()
    path = tmp_path / "bad.txt"
    path.write_text("\n".join([header] + edit(rows)) + "\n")
    code, out, err = run_cli(["evaluate", "--points", str(path), "--kernel", "fixed"], capsys)
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("PAIRFUNC_ERROR code=3 kind=runtime")
    assert message in lines[0]


@pytest.mark.parametrize(
    "edit",
    [
        lambda header: dict(header, window=[1]),
        lambda header: dict(header, window=dict(header["window"], n="x")),
        lambda header: [header],
        lambda header: dict(header, markmodel="none"),
        lambda header: dict(header, d=3),  # over a 2-d window
        lambda header: dict(header, seed=1.5),
        lambda header: dict(header, seed="x"),
        lambda header: dict(header, d=2.5),
        lambda header: dict(header, d=True),
        lambda header: dict(header, window=dict(header["window"], dim=2.5)),
        lambda header: dict(header, window=dict(header["window"], dim=True)),
        lambda header: dict(header, window=dict(header["window"], dim=10**30, a=[], alpha=[])),
        lambda header: dict(header, window=dict(header["window"], n=10**400)),
    ],
    ids=["window-list", "window-n-string", "header-list", "markmodel-string", "d-mismatch",
         "seed-fraction", "seed-string", "d-fraction", "d-bool", "dim-fraction", "dim-bool",
         "dim-past-index", "n-past-float"],
)
def test_evaluate_malformed_point_file_header(tmp_path, capsys, edit):
    from pairfunc.geometry import Window
    from pairfunc.process import MarkModel, PointConfiguration, dump_configuration

    cfg = PointConfiguration(Window(n=5.0, dim=2), MarkModel.none(), [(1.0, 1.0), (3.0, 1.5)])
    header, *rows = dump_configuration(cfg).splitlines()
    path = tmp_path / "bad.txt"
    path.write_text("\n".join([json.dumps(edit(json.loads(header)))] + rows) + "\n")
    code, out, err = run_cli(["evaluate", "--points", str(path), "--kernel", "fixed"], capsys)
    assert code == 3 and out == ""
    line = _one_error_line(err, 3)
    assert line.startswith("PAIRFUNC_ERROR code=3 kind=runtime")
    assert "line 1: malformed header" in line


def test_shield_check_malformed_configuration_header(tmp_path, capsys):
    # shield-check reads its configuration with the same loader as evaluate --points
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    rec["configuration"] = rec["configuration"].replace('{"kind": "none"}', '"none"', 1)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(["shield-check", "--fixture", str(path)], capsys)
    assert code == 3 and out == ""
    line = _one_error_line(err, 3)
    assert line.startswith("PAIRFUNC_ERROR code=3 kind=runtime")
    assert "line 1: malformed header" in line


@pytest.mark.parametrize("field, value", [("d", 3), ("seed", 1.5)])
def test_shield_check_checks_the_header_fields(tmp_path, capsys, field, value):
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    header, rest = rec["configuration"].split("\n", 1)
    rec["configuration"] = json.dumps(dict(json.loads(header), **{field: value})) + "\n" + rest
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(["shield-check", "--fixture", str(path)], capsys)
    assert code == 3 and out == ""
    line = _one_error_line(err, 3)
    assert line.startswith("PAIRFUNC_ERROR code=3 kind=runtime")
    assert "line 1: malformed header" in line


def test_point_file_seed_follows_the_config_rule():
    # an integral float seed loads as the integer and is written back as one
    from pairfunc.geometry import Window
    from pairfunc.process import MarkModel, PointConfiguration, dump_configuration, load_configuration

    cfg = PointConfiguration(Window(n=5.0, dim=2), MarkModel.none(), [(1.0, 1.0)], seed=7)
    text = dump_configuration(cfg).replace('"seed": 7', '"seed": 7.0')
    loaded = load_configuration(text)
    assert loaded.seed == 7 and dump_configuration(loaded) == dump_configuration(cfg)


def test_point_file_dimensions_follow_the_config_rule():
    # an integral float d or dim loads as the integer, as a config record's d does
    cfg = PointConfiguration(Window(n=5.0, dim=2), MarkModel.none(), [(1.0, 1.0)])
    text = dump_configuration(cfg).replace('"d": 2', '"d": 2.0').replace('"dim": 2', '"dim": 2.0')
    loaded = load_configuration(text)
    assert type(loaded.window.dim) is int and dump_configuration(loaded) == dump_configuration(cfg)


# adversarial values for a header field or a row field of a point file
_ODD = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**20, 10**400, -1, 0, 1, 2, 3]),
    st.sampled_from([2.0, 0.0, -3.0, 1e300, 2.5, -0.5, 1e-300]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.none(),
)
_HEADER_FIELDS = [
    ("d",), ("seed",), ("window",), ("markmodel",), ("window", "n"), ("window", "dim"),
    ("window", "a"), ("window", "alpha"), ("window", "margin"), ("markmodel", "kind"),
    ("markmodel", "rate"),
]
_ACTIONS = ("set", "delete", "extra")
_MUTATIONS = st.one_of(
    st.tuples(st.just("header"), st.sampled_from(_HEADER_FIELDS), st.sampled_from(_ACTIONS),
              st.one_of(_ODD, st.lists(_ODD, max_size=3))),
    st.tuples(st.just("row"), st.integers(0, 10**6), st.integers(0, 4), st.sampled_from(_ACTIONS),
              _ODD),
)


def _mutated(text: str, mutation) -> str:
    """``text``, a point file, with one header field or one row field set to
    a value, deleted, or joined by an extra field."""
    header, *rows = text.splitlines()
    kind, where, *rest = mutation
    if kind == "header":
        action, value = rest
        rec = json.loads(header)
        owner = rec if len(where) == 1 else rec[where[0]]
        if action == "set":
            owner[where[-1]] = value
        elif action == "delete":
            owner.pop(where[-1], None)
        else:
            owner["extra"] = value
        header = json.dumps(rec)
    else:
        field, action, value = rest
        k = where % len(rows)
        fields = rows[k].split()
        token = "-" if value is None else str(value)
        if action == "set":
            fields[field % len(fields)] = token
        elif action == "delete":
            del fields[field % len(fields)]
        else:
            fields.insert(field % (len(fields) + 1), token)
        rows[k] = " ".join(fields)
    return "\n".join([header, *rows]) + "\n"


def _run_under_contract(args) -> tuple[int, list[str]]:
    """Exit code and PAIRFUNC_ERROR lines of ``main(args)``, asserting the
    CLI's contract: exit 0, 2 or 3, at most one error line and none on
    success, and no exception out of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 2, 3), (args, code)
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("PAIRFUNC_ERROR")]
    assert len(errors) <= 1 and not (code == 0 and errors), (args, errors)
    assert "Traceback" not in err.getvalue()
    return code, errors


def _holds_bool(value) -> bool:
    """True for a bool or a list holding one."""
    return isinstance(value, bool) or isinstance(value, list) and any(
        isinstance(v, bool) for v in value
    )


_SMALL = PointConfiguration(Window(n=6.0, dim=2), MarkModel.none(),
                            [(1.0, 1.0), (3.0, 1.5), (2.0, 4.0), (4.5, 5.0), (5.5, 2.5)])
# the header fields read as real numbers: a bool is never one
_REAL_HEADER_FIELDS = {("window", "n"), ("window", "a"), ("window", "alpha"),
                       ("window", "margin"), ("markmodel", "rate")}


@settings(max_examples=40, deadline=None)
@given(_MUTATIONS)
@example(("row", 1, 0, "set", 10**20))  # an id past int64
@example(("row", 1, 0, "set", 2**63 - 1))  # no fresh id is left for an insertion
@example(("header", ("window", "dim"), "set", 2.0))  # an integral float dim
@example(("header", ("d",), "set", 2.5))
@example(("header", ("window", "n"), "set", True))
@example(("header", ("window", "a"), "set", [True]))
@example(("header", ("markmodel", "rate"), "set", True))
def test_mutated_point_files_exit_with_one_error_line(mutation):
    # evaluate --points (a kernel and a model) and shield-check on a point
    # file with one adversarial field: an exit code of the CLI's contract,
    # at most one PAIRFUNC_ERROR line, and no exception out of main
    kind, where, *rest = mutation
    bool_number = (kind == "header" and where in _REAL_HEADER_FIELDS and rest[0] == "set"
                   and _holds_bool(rest[1]))
    fixture = json.loads((FIXTURES / "shield_ok.txt").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        points, shield = Path(tmp) / "points.txt", Path(tmp) / "shield.json"
        points.write_text(_mutated(dump_configuration(_SMALL), mutation))
        shield.write_text(json.dumps(
            dict(fixture, configuration=_mutated(fixture["configuration"], mutation))
        ))
        for args in (
            ["evaluate", "--points", str(points), "--kernel", "fixed"],
            ["evaluate", "--points", str(points), "--model", "treelog-tree"],
            ["shield-check", "--fixture", str(shield)],
        ):
            code, errors = _run_under_contract(args)
            if bool_number:
                assert code == 3 and "line 1: malformed header" in errors[0], (args, errors)


# adversarial values for one key of a config record or one field of a shield
# fixture; the strings are fixed, so that no drawn number asks for a window
# of millions of points
_WILD = st.recursive(
    st.one_of(
        st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**20, 10**400, -1, 0, 1, 2, 3]),
        st.sampled_from([2.0, 0.0, -3.0, 1e300, 2.5, -0.5, 1e-300, math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.sampled_from(["", "x", "3", "2.5", "nan", "inf", "1e400", "true"]),
        st.none(),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("an"), inner,
                                                                  max_size=2),
    max_leaves=4,
)
# every config key, at values that run in milliseconds; a null a and alpha
# take the unit defaults, which the window builds for d
_RECORD = {"model": "inversion-uniform", "n_grid": [6], "reps": 3, "seed": 1, "d": 2,
           "intensity": 1, "a": None, "alpha": None, "margin": 0.2, "cutoff": 1, "jobs": 1}


def _more_than_ten(value) -> bool:
    """True for a value that an integer key reads as more than 10."""
    try:
        return _integer(value) > 10
    except (TypeError, ValueError):
        return False


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just("config"), st.sampled_from(sorted(_RECORD)), _WILD),
    st.tuples(st.just("shield"), st.sampled_from(["configuration", "box_center", "insertions"]),
              _WILD),
))
@example(("config", "intensity", True))
@example(("config", "cutoff", True))
@example(("config", "margin", True))
@example(("config", "intensity", 10**400))  # beyond the float range
@example(("config", "d", 10**20))  # beyond a tuple's length
@example(("shield", "box_center", ["12", "12"]))
def test_fuzzed_config_records_and_shield_fixtures_exit_with_one_error_line(case):
    # one key of a valid config record, run through clt, sample,
    # stabilization and evaluate --kernel fixed, or one field of a shield
    # fixture, run through shield-check; a bool is a configuration error
    # under every key: it is never a number, a model id or a job count
    target, key, value = case
    assume(not (key == "reps" and _more_than_ten(value)))  # a long run, not an input error
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target == "shield":
            fixture = json.loads((FIXTURES / "shield_ok.txt").read_text())
            (tmp / "shield.json").write_text(json.dumps(dict(fixture, **{key: value})))
            _run_under_contract(["shield-check", "--fixture", str(tmp / "shield.json")])
            return
        (tmp / "config.json").write_text(json.dumps(dict(_RECORD, **{key: value})))
        (tmp / "points.txt").write_text(dump_configuration(_SMALL))
        for args in (
            ["clt", "--out", str(tmp / "out")],
            ["sample", "--n", "6"],
            ["stabilization", "--n", "6", "--draws", "3"],
            ["evaluate", "--points", str(tmp / "points.txt"), "--kernel", "fixed"],
        ):
            code, errors = _run_under_contract([*args, "--config", str(tmp / "config.json")])
            if isinstance(value, bool):
                assert code == 2, (args, errors)
                if key not in ("model", "jobs"):
                    assert f"malformed config value for {key!r}" in errors[0], (args, errors)


def test_shield_check_fixture(capsys):
    code, out, _ = run_cli(["shield-check", "--fixture", str(FIXTURES / "shield_ok.txt")], capsys)
    assert code == 0
    assert "member=true, property=true" in out


def test_shield_fixture_must_hold_an_object(tmp_path, capsys):
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    cases = [
        ([1, 2], "shield fixture must hold a JSON object"),
        ({"configuration": 5, "box_center": [12, 12]}, "'configuration' must be"),
        ({"box_center": [12, 12]}, "'configuration' must be"),
        (dict(rec, configuration=[1, 2]), "'configuration' must be"),
        (dict(rec, box_center=5), "'box_center' must be a list of 2 numbers"),
        (dict(rec, box_center=[12, 12, 12]), "'box_center' must be a list of 2"),
        (dict(rec, box_center=[True, 12]), "'box_center' must be a list of 2"),
        (dict(rec, box_center=[10**400, 12]), "'box_center' must be a list of 2"),
        (dict(rec, insertions=5), "'insertions' must be a list of lists of 2"),
        (dict(rec, insertions=[12, 12]), "'insertions' must be a list of lists"),
        (dict(rec, insertions=[[12, "x"]]), "'insertions' must be a list of lists"),
    ]
    path = tmp_path / "fixture.json"
    for fixture, message in cases:
        path.write_text(json.dumps(fixture))
        code, out, err = run_cli(["shield-check", "--fixture", str(path)], capsys)
        assert code == 2 and out == "", fixture
        assert message in _one_error_line(err, 2), fixture
    path.write_text("{not json")
    for fixture in (path, tmp_path / "missing.json"):
        code, out, err = run_cli(["shield-check", "--fixture", str(fixture)], capsys)
        assert code == 2 and out == "", fixture
        assert "cannot read shield fixture" in _one_error_line(err, 2), fixture


def test_shield_check_accepts_line_lists_and_integer_centers(tmp_path, capsys):
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    rec.update(configuration=rec["configuration"].splitlines(), box_center=[12, 12])
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(rec))
    code, out, _ = run_cli(["shield-check", "--fixture", str(path)], capsys)
    assert code == 0 and out == "member=true, property=true\n"


def test_shield_check_on_marked_points_is_one_runtime_line(tmp_path, capsys):
    # positional insertions carry no mark, which a uniform01 model needs
    rec = json.loads((FIXTURES / "shield_ok.txt").read_text())
    rec["configuration"] = (
        rec["configuration"].replace('{"kind": "none"}', '{"kind": "uniform01"}')
        .replace(" -\n", " 0.5\n")
    )
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(["shield-check", "--fixture", str(path)], capsys)
    assert code == 3 and out == ""
    _one_error_line(err, 3)


def test_sample_round_trip(tmp_path, capsys):
    out_file = tmp_path / "cfg.txt"
    code, _, _ = run_cli(
        ["sample", "--n", "6", "--d", "2", "--seed", "99", "--out", str(out_file)], capsys
    )
    assert code == 0
    from pairfunc.process import load_configuration

    cfg = load_configuration(out_file.read_text())
    assert cfg.window.dim == 2 and len(cfg) > 0


def test_env_seed_override(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    os.environ["PAIRFUNC_SEED"] = "1234"
    try:
        run_cli(["sample", "--n", "6", "--seed", "1", "--out", str(out_a)], capsys)
        run_cli(["sample", "--n", "6", "--seed", "2", "--out", str(out_b)], capsys)
    finally:
        del os.environ["PAIRFUNC_SEED"]
    assert out_a.read_text() == out_b.read_text()


@pytest.mark.parametrize("flag, env", [(["--seed", "7"], None), ([], "7")])
def test_flag_or_env_seed_completes_a_seedless_config(tmp_path, capsys, monkeypatch, flag, env):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 2,
                                "jobs": 1}))
    if env is not None:
        monkeypatch.setenv("PAIRFUNC_SEED", env)
    out = tmp_path / "out"
    code, _, err = run_cli(["clt", "--config", str(path), "--out", str(out)] + flag, capsys)
    assert code == 0, err
    assert json.loads((out / "meta.json").read_text())["config"]["seed"] == 7


def test_flags_override_file_values(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 1,
                                "seed": 3, "jobs": 1}))
    out = tmp_path / "out"
    code, _, err = run_cli(["clt", "--config", str(path), "--reps", "20", "--out", str(out)],
                           capsys)
    assert code == 0, err
    assert json.loads((out / "meta.json").read_text())["config"]["reps"] == 20


def test_null_config_value_means_absent_under_clt_and_sample(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 2,
                                "seed": 3, "d": None, "jobs": None}))
    code, _, err = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")],
                           capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "out" / "meta.json").read_text())["config"]["d"] == 2
    path.write_text(json.dumps({"seed": 3, "d": None}))
    code, _, err = run_cli(["sample", "--n", "4", "--config", str(path)], capsys)
    assert code == 0, err


@pytest.mark.parametrize(
    "command",
    [
        ["clt", "--model", "inversion-uniform", "--n-grid", "4,6", "--reps", "2"],
        ["sample", "--n", "4"],
        ["stabilization", "--n", "4", "--draws", "2"],
    ],
)
def test_malformed_env_seed_is_config_error(capsys, monkeypatch, command):
    monkeypatch.setenv("PAIRFUNC_SEED", "abc")
    code, out, err = run_cli(command + ["--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert "PAIRFUNC_SEED must be an integer" in _one_error_line(err, 2)


def test_missing_seed_is_config_error(capsys):
    code, _, err = run_cli(["clt", "--model", "inversion-uniform", "--n-grid", "4,6"], capsys)
    assert code == 2
    assert "kind=config" in err


# a seed outside [0, 2**64) once drew the points of the seed modulo 2**64
OUT_OF_RANGE_SEEDS = [str(2**64), "-1", str(2**64 + 7)]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_out_of_range_flag_seed_is_config_error(tmp_path, capsys, seed):
    code, out, err = run_cli(["sample", "--n", "3", "--seed", seed], capsys)
    assert code == 2 and out == ""
    assert "[0, 2**64)" in _one_error_line(err, 2)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_out_of_range_config_seed_is_config_error(tmp_path, capsys, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 2,
                                "seed": seed, "jobs": 1}))
    for command in (["clt"], ["sample", "--n", "3"]):
        code, out, err = run_cli(command + ["--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert "malformed config value for 'seed'" in _one_error_line(err, 2)


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_out_of_range_env_seed_is_config_error(capsys, monkeypatch, seed):
    monkeypatch.setenv("PAIRFUNC_SEED", seed)
    code, out, err = run_cli(["sample", "--n", "3", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert "PAIRFUNC_SEED must be an integer in [0, 2**64)" in _one_error_line(err, 2)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_out_of_range_point_file_seed_is_runtime_error(tmp_path, capsys, seed):
    from pairfunc.geometry import Window
    from pairfunc.process import MarkModel, PointConfiguration, dump_configuration

    cfg = PointConfiguration(Window(n=5.0, dim=2), MarkModel.none(), [(1.0, 1.0)], seed=7)
    path = tmp_path / "points.txt"
    path.write_text(dump_configuration(cfg).replace('"seed": 7', f'"seed": {seed}'))
    code, out, err = run_cli(["evaluate", "--points", str(path), "--kernel", "fixed"], capsys)
    assert code == 3 and out == ""
    assert "line 1: malformed header" in _one_error_line(err, 3)


def test_largest_seed_samples_and_seeds_do_not_alias(tmp_path, capsys):
    texts = {}
    for seed in ("0", str(2**64 - 1)):
        path = tmp_path / f"{seed}.txt"
        code, _, err = run_cli(["sample", "--n", "3", "--seed", seed, "--out", str(path)], capsys)
        assert code == 0, err
        texts[seed] = path.read_text()
    points = {seed: text.split("\n", 1)[1] for seed, text in texts.items()}
    assert points["0"] != points[str(2**64 - 1)]
    assert f'"seed": {2**64 - 1}' in texts[str(2**64 - 1)]


def test_unknown_model_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        ["scaling", "--model", "bogus", "--n-grid", "4,6,8", "--reps", "2", "--seed", "1"],
        capsys,
    )
    assert code == 2
    points = tmp_path / "p.txt"
    run_cli(["sample", "--n", "4", "--seed", "1", "--out", str(points)], capsys)
    code, _, err = run_cli(["evaluate", "--model", "bogus", "--points", str(points)], capsys)
    assert code == 2
    assert "kind=config" in err


def test_clt_smoke_and_outputs(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "clt", "--model", "inversion-uniform", "--n-grid", "4,6", "--reps", "2",
            "--seed", "5", "--jobs", "1", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0] == RESULTS_HEADER
    assert len(results) == 1 + 2 * 2  # two scales, two replications each


def test_csv_headers_are_pinned(tmp_path):
    # golden header strings; changing the output schema must be deliberate
    assert RESULTS_HEADER == "model,n,rep,value,admissible,dropped_zero_g"
    assert SUMMARY_HEADER == "model,n,M,mean,var,w1,ks,seed"
    assert LONG_HEADER == "n,metric,value"
    config = ExperimentConfig(model="inversion-uniform", n_grid=(4.0, 6.0), reps=3, seed=10, jobs=1)
    record = run_experiment(config)
    write_outputs(record, tmp_path)
    assert (tmp_path / "summary.csv").read_text().splitlines()[0] == SUMMARY_HEADER
    assert (tmp_path / "long.csv").read_text().splitlines()[0] == LONG_HEADER
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["schema"] == "pairfunc-v1"
    # the json tables carry the csv columns as keys, in the same order
    write_outputs(record, tmp_path, "json")
    for name, header in (("results", RESULTS_HEADER), ("summary", SUMMARY_HEADER)):
        for rec in json.loads((tmp_path / f"{name}.json").read_text()):
            assert ",".join(rec) == header


def test_config_file_round_trip(tmp_path, capsys):
    config = {
        "model": "inversion-uniform",
        "n_grid": [4, 6],
        "reps": 2,
        "seed": 3,
        "jobs": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, _ = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["config"]["model"] == "inversion-uniform"
    assert meta["config"]["seed"] == 3
    assert "jobs" not in meta["config"]  # an execution setting, not a result key


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4], "reps": 2,
                                "seed": 3, "typo_key": 1}))
    code, _, err = run_cli(["clt", "--config", str(path)], capsys)
    assert code == 2


def test_retired_beta3_config_key_rejected(tmp_path, capsys):
    # no experiment reads beta3, so a config that carries it is refused
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 2,
                                "seed": 3, "beta3": "banana"}))
    code, _, err = run_cli(["clt", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown config keys" in err
    assert "beta3" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"cutoff": -1}, "cutoff must be finite and > 0"),
        ({"cutoff": 0}, "cutoff must be finite and > 0"),
        ({"intensity": -1}, "intensity must be finite and > 0"),
        ({"jobs": "x"}, "jobs must be null or an integer >= 1"),
        ({"jobs": 0}, "jobs must be null or an integer >= 1"),
        ({"jobs": 1.5}, "jobs must be null or an integer >= 1"),
        ({"margin": 1.5}, "boundary_margin must lie in (0, 1)"),
        ({"a": [-1.0]}, "coefficients and exponents must be positive"),
        ({"alpha": [1.0, 1.0]}, "need one coefficient and one exponent per axis"),
        ({"reps": "x"}, "malformed config value"),
        ({"model": "treelog-uniform", "margin": 0.9}, "shrunk window is empty"),
        # a bare string is not a list, and a boolean or a fraction is not an integer
        ({"n_grid": "48"}, "malformed config value for 'n_grid'"),
        ({"a": "1"}, "malformed config value for 'a'"),
        ({"alpha": "1"}, "malformed config value for 'alpha'"),
        ({"reps": 2.9}, "malformed config value for 'reps'"),
        ({"reps": True}, "malformed config value for 'reps'"),
        ({"seed": 1.7}, "malformed config value for 'seed'"),
        ({"seed": False}, "malformed config value for 'seed'"),
        ({"d": 2.5}, "malformed config value for 'd'"),
        ({"d": True}, "malformed config value for 'd'"),
        ({"n_grid": [4, True]}, "malformed config value for 'n_grid'"),
        ({"a": [True]}, "malformed config value for 'a'"),
        ({"alpha": [False]}, "malformed config value for 'alpha'"),
    ],
)
def test_invalid_config_value_rejected_up_front(tmp_path, capsys, edit, message):
    rec = {"model": "inversion-tree", "n_grid": [4, 6], "reps": 2, "seed": 3, **edit}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")],
                             capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("PAIRFUNC_ERROR code=2 kind=config")
    assert message in lines[0]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if "malformed config value" in message:
        # a config built in code converts through the same table
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**rec)
        assert lines[0].endswith(f'message="{exc.value}"')


def test_integral_floats_and_string_seeds_still_convert(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": ["4", 6.0],
                                "reps": 2.0, "seed": "7", "d": 2.0, "jobs": 1}))
    code, _, err = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")],
                           capsys)
    assert code == 0, err
    config = json.loads((tmp_path / "out" / "meta.json").read_text())["config"]
    assert (config["n_grid"], config["reps"], config["seed"], config["d"]) == ([4.0, 6.0], 2, 7, 2)


def test_window_elements_convert_to_floats(tmp_path, capsys):
    # one window, written three ways, is one configuration
    hashes = set()
    for i, value in enumerate([[1], [1.0], ["1"]]):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps({"model": "inversion-uniform", "n_grid": [4, 6], "reps": 2,
                                    "seed": 7, "a": value, "alpha": value, "jobs": 1}))
        out = tmp_path / f"out{i}"
        code, _, err = run_cli(["clt", "--config", str(path), "--out", str(out)], capsys)
        assert code == 0, err
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["a"] == meta["config"]["alpha"] == [1.0]
        assert all(type(v) is float for v in meta["config"]["a"] + meta["config"]["alpha"])
        hashes.add(meta["config_hash"])
    assert len(hashes) == 1


def test_direct_config_window_elements_convert_to_floats():
    # a config built in code hashes and records as the same config read from a file
    kw = dict(model="inversion-uniform", n_grid=(4, 6), reps=2, seed=7)
    raw = ExperimentConfig(**kw, a=(1,), alpha=(1,))
    assert raw.hash() == ExperimentConfig(**kw, a=(1.0,), alpha=(1.0,)).hash()
    assert raw.result_record()["a"] == raw.result_record()["alpha"] == [1.0]
    assert all(type(v) is float for v in raw.a + raw.alpha)
    assert ExperimentConfig(**kw).a is None and ExperimentConfig(**kw).alpha is None
    for bad in [(True,), ("x",), "1"]:
        with pytest.raises(ConfigError, match="malformed config value for 'a'"):
            ExperimentConfig(**kw, a=bad)


def test_evaluate_json_names_the_dropped_count_as_the_results_column(tmp_path, capsys):
    points = tmp_path / "p.txt"
    code, _, err = run_cli(["sample", "--model", "treelog-uniform", "--n", "8", "--seed", "5",
                            "--out", str(points)], capsys)
    assert code == 0, err
    code, out, err = run_cli(["evaluate", "--model", "treelog-uniform", "--points", str(points),
                              "--format", "json"], capsys)
    assert code == 0, err
    rec = json.loads(out)
    dropped = RESULTS_HEADER.split(",")[-1]
    assert set(rec) == {"kind", "value", "admissible_count", dropped}
    assert rec["kind"] == "sum_log_sum" and type(rec[dropped]) is int


def test_jobs_flag_validated_up_front(capsys):
    code, _, err = run_cli(
        ["clt", "--model", "inversion-uniform", "--n-grid", "4,6", "--reps", "2",
         "--seed", "1", "--jobs", "0"],
        capsys,
    )
    assert code == 2
    assert err.count("PAIRFUNC_ERROR") == 1 and "jobs must be" in err


def test_stabilization_subcommand(capsys):
    code, out, _ = run_cli(
        ["stabilization", "--model", "crossing-fixed", "--n", "4", "--d", "3",
         "--draws", "10", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert all(s == 0 for s in rec["survival"]) or rec["survival"] == []


def test_stabilization_reads_the_config_cutoff(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": "inversion-tree", "seed": 5, "cutoff": 2.5}))
    code, out, _ = run_cli(
        ["stabilization", "--config", str(path), "--n", "16", "--draws", "30"], capsys
    )
    assert code == 0
    survey = stabilization_survey("inversion-tree", 16.0, 30, 5, cutoff=2.5)
    assert survey.m_values == (1, 2, 3)
    assert json.loads(out) == json.loads(json.dumps(survey.to_record()))


def test_stabilization_survey_rejects_a_bad_model_as_config_error():
    with pytest.raises(ConfigError, match="unknown model id 'bogus'"):
        stabilization_survey("bogus", 8.0, 2, 1)
    with pytest.raises(ConfigError, match="needs dimension >= 2"):
        stabilization_survey("crossing-fixed", 8.0, 2, 1, d=1)


def test_stabilization_zero_draws_is_config_error(capsys):
    code, out, err = run_cli(
        ["stabilization", "--model", "inversion-tree", "--n", "4", "--draws", "0", "--seed", "3"],
        capsys,
    )
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("PAIRFUNC_ERROR code=2 kind=config")
    assert "draws must be >= 1" in lines[0]


@pytest.mark.parametrize(
    "command",
    [
        ["clt"],
        ["scaling"],
        ["sample", "--n", "4"],
        ["stabilization", "--n", "4", "--draws", "2"],
    ],
)
@pytest.mark.parametrize("content", ["[1, 2]", '"text"', "3", "null"])
def test_config_file_must_hold_an_object(tmp_path, capsys, command, content):
    path = tmp_path / "config.json"
    path.write_text(content)
    code, out, err = run_cli(command + ["--config", str(path), "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err == 'PAIRFUNC_ERROR code=2 kind=config message="config file must hold a JSON object"\n'


def _one_error_line(err: str, code: int) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith(f"PAIRFUNC_ERROR code={code} ")
    return lines[0]


@pytest.mark.parametrize(
    "flag", ["localizedfoo", "localized:0", "localized:-3", "localized:x", "localized:", "fixed:2"]
)
def test_bad_kernel_flag_is_config_error(capsys, flag):
    code, out, err = run_cli(
        ["evaluate", "--kernel", flag, "--points", str(FIXTURES / "snowflake.txt")], capsys
    )
    assert code == 2 and out == ""
    assert repr(flag) in _one_error_line(err, 2)


@pytest.mark.parametrize("flag", ["localized", "localized:1", "localized:16"])
def test_localized_kernel_flags_still_evaluate(capsys, flag):
    code, out, _ = run_cli(
        ["evaluate", "--kernel", flag, "--points", str(FIXTURES / "snowflake.txt")], capsys
    )
    assert code == 0
    assert int(out.strip()) >= 0


@pytest.mark.parametrize(
    "model",
    ["crossing-fixed:abc", "crossing-max:7", "crossing-localized:0", "crossing-localized:x",
     "crossing-localized:", "inversion-uniform:3"],
)
def test_bad_model_suffix_is_config_error_up_front(tmp_path, capsys, model):
    code, out, err = run_cli(
        ["clt", "--model", model, "--n-grid", "4,6", "--reps", "2", "--seed", "1",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2 and out == ""
    assert repr(model) in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()


def test_crossing_experiment_below_two_dimensions_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "crossing-fixed", "n_grid": [4, 6], "reps": 2,
                                "seed": 3, "d": 1}))
    code, out, err = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")],
                             capsys)
    assert code == 2 and out == ""
    assert "needs dimension >= 2" in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()


def test_crossing_stabilization_below_two_dimensions_is_config_error(capsys):
    code, out, err = run_cli(
        ["stabilization", "--model", "crossing-fixed", "--n", "4", "--d", "1",
         "--draws", "2", "--seed", "3"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "needs dimension >= 2" in _one_error_line(err, 2)


@pytest.mark.parametrize("model", ["crossing-fixed", "crossing-max", "crossing-localized:4"])
def test_stabilization_admissibility_on_a_crossing_model_is_config_error(capsys, model):
    # a crossing model has no compound scores, so no point is admitted or not
    code, out, err = run_cli(
        ["stabilization", "--model", model, "--admissibility", "--n", "24", "--draws", "20",
         "--seed", "3"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "has no compound scores" in _one_error_line(err, 2)


def test_tree_experiment_below_two_dimensions_is_config_error(tmp_path, capsys):
    # merge forests need a cylinder, although the tree models' locality order is 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "inversion-tree", "n_grid": [4, 6], "reps": 2,
                                "seed": 3, "d": 1}))
    code, out, err = run_cli(["clt", "--config", str(path), "--out", str(tmp_path / "out")],
                             capsys)
    assert code == 2 and out == ""
    assert "needs dimension >= 2" in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()


def test_tree_stabilization_below_two_dimensions_is_config_error(capsys):
    code, out, err = run_cli(
        ["stabilization", "--model", "treelog-tree", "--n", "4", "--d", "1",
         "--draws", "2", "--seed", "3"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "needs dimension >= 2" in _one_error_line(err, 2)


def test_kernel_on_one_dimensional_points_is_config_error(tmp_path, capsys):
    # the point file's dimension is checked as sample checks --d
    points = tmp_path / "p.txt"
    code, _, _ = run_cli(["sample", "--n", "6", "--d", "1", "--seed", "2", "--out", str(points)],
                         capsys)
    assert code == 0
    code, out, err = run_cli(["evaluate", "--points", str(points), "--kernel", "fixed"], capsys)
    assert code == 2 and out == ""
    assert "kernel fixed needs dimension >= 2" in _one_error_line(err, 2)


@pytest.mark.parametrize(
    "key, value",
    [("d", "x"), ("d", [2]), ("d", 2.5), ("d", True), ("seed", "x"), ("seed", 1.7),
     ("seed", True), ("cutoff", "x")],
)
@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--n", "4"],
        ["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--kernel", "fixed"],
        ["stabilization", "--model", "inversion-tree", "--n", "4", "--draws", "2"],
    ],
)
def test_malformed_shared_config_key_is_config_error(tmp_path, capsys, command, key, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, key: value}))
    code, out, err = run_cli(command + ["--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"malformed config value for '{key}'" in _one_error_line(err, 2)


@pytest.mark.parametrize("content", [None, "[1, 2]", "{not json"])
@pytest.mark.parametrize(
    "command",
    [["bounds", "poisson", "10"], ["shield-check", "--fixture", str(FIXTURES / "shield_ok.txt")]],
)
def test_bounds_and_shield_check_read_their_config(tmp_path, capsys, command, content):
    path = tmp_path / "c.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(command + ["--config", str(path)], capsys)
    assert code == 2 and out == ""
    _one_error_line(err, 2)


def test_all_degenerate_grid_cells_keep_the_variance_error(tmp_path, capsys):
    # crossing-max has no crossings at n = 1 and 2, so every cell is constant
    # and no summary or fit can be made from it
    code, out, err = run_cli(
        ["clt", "--model", "crossing-max", "--n-grid", "1,2", "--reps", "3", "--seed", "1",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 3 and out == ""
    assert _one_error_line(err, 3).endswith('message="sample variance must be positive"')
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_degenerate_grid_cell_is_reported_and_left_out(tmp_path, capsys, fmt):
    code, out, err = run_cli(
        ["scaling", "--model", "crossing-max", "--n-grid", "1,8,12,16", "--reps", "3",
         "--seed", "1", "--jobs", "1", "--format", fmt, "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "PAIRFUNC_ERROR" not in err
    assert err.splitlines() == ["1 degenerate grid cell(s) left out of the scaling fit: n = 1"]
    fit = json.loads((tmp_path / "scaling.json").read_text())
    assert fit["excluded_n"] == [1.0]
    assert [p["n"] for p in fit["points"]] == [8.0, 12.0, 16.0]
    if fmt == "csv":
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[1] == "crossing-max,1.0,3,0.0,0.0,nan,nan,1"
        assert all(",nan," not in row for row in summary[2:])
        long = (tmp_path / "long.csv").read_text().splitlines()
        assert [row for row in long if "degenerate" in row] == ["1.0,degenerate,1"]
    else:
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary[0]["var"], summary[0]["w1"], summary[0]["ks"]) == (0.0, None, None)
        assert all(s["w1"] is not None and s["var"] > 0 for s in summary[1:])


def test_scaling_without_degenerate_cells_lists_no_exclusions(tmp_path, capsys):
    code, _, err = run_cli(
        ["scaling", "--model", "crossing-max", "--n-grid", "8,12,16", "--reps", "3",
         "--seed", "1", "--jobs", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and err == ""
    assert "excluded_n" not in json.loads((tmp_path / "scaling.json").read_text())
    assert "degenerate" not in (tmp_path / "long.csv").read_text()


@pytest.mark.parametrize(
    "command, message",
    [
        (["sample", "--n", "4", "--d", "0"], "dimension must be >= 1"),
        (["sample", "--n", "0"], "window scale n must be positive and finite"),
        (["sample", "--n", "nan"], "window scale n must be positive and finite"),
        (["sample", "--n", "4", "--intensity", "-1"], "intensity must be finite and > 0"),
        (["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--kernel", "fixed",
          "--cutoff", "0"], "cutoff must be finite and > 0"),
        (["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--kernel", "fixed",
          "--cutoff", "inf"], "cutoff must be finite and > 0"),
        (["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--model", "inversion-tree",
          "--cutoff", "-1"], "cutoff must be finite and > 0"),
        (["stabilization", "--n", "0", "--draws", "2"], "window scale n must be positive"),
        (["stabilization", "--model", "crossing-fixed", "--n", "-4", "--d", "3", "--draws", "2"],
         "window scale n must be positive"),
        (["bounds", "binomial", "100", "abc"], "could not convert string to float"),
        (["bounds", "binomial", "2.5", "0.5"], "invalid literal for int()"),
        (["bounds", "binomial", "1" + "0" * 400, "0.5"], "int too large to convert to float"),
        (["bounds", "poisson", "-1"], "ell must be positive"),
        (["bounds", "poisson", "nan"], "ell must be positive"),
        (["bounds", "binomial", "100", "1.5"], "p must lie in (0, 1)"),
        (["bounds", "binomial", "0", "0.5"], "m must be a positive integer"),
        # the model is checked before the point file is read
        (["evaluate", "--model", "bogus", "--points", str(FIXTURES / "missing.txt")],
         "unknown model id 'bogus'"),
        (["evaluate", "--model", "inversion-uniform", "--kernel", "fixed", "--cutoff", "-1",
          "--points", str(FIXTURES / "missing.txt")], "cutoff must be finite and > 0"),
        (["sample", "--model", "crossing-fixed", "--n", "4", "--d", "1"],
         "model crossing-fixed needs dimension >= 2"),
        (["sample", "--model", "inversion-tree", "--n", "4", "--d", "1"],
         "model inversion-tree needs dimension >= 2"),
        # the same shrunk-window check as clt, before any draw
        (["stabilization", "--model", "treelog-tree", "--admissibility", "--n", "2",
          "--draws", "3"], "window at n=2: shrunk window is empty"),
        (["bounds", "poisson", "inf"], "ell must be positive and finite"),
    ],
)
def test_bad_flag_value_is_config_error(capsys, command, message):
    code, out, err = run_cli(command + ["--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert message in _one_error_line(err, 2)


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["sample", "--n", "4"], "d", 0),
        (["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--kernel", "fixed"],
         "cutoff", 0.0),
    ],
)
def test_bad_shared_config_value_is_config_error(tmp_path, capsys, command, key, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, key: value}))
    code, out, err = run_cli(command + ["--config", str(path)], capsys)
    assert code == 2 and out == ""
    _one_error_line(err, 2)


def test_memory_error_is_one_runtime_line(monkeypatch, tmp_path, capsys):
    def exhausted(config):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr("pairfunc.cli.run_experiment", exhausted)
    code, out, err = run_cli(
        ["clt", "--model", "inversion-uniform", "--n-grid", "4,6", "--reps", "2", "--seed", "1",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 3 and out == ""
    assert err == (
        'PAIRFUNC_ERROR code=3 kind=runtime '
        'message="out of memory: Unable to allocate 64.0 GiB for an array"\n'
    )
    assert not (tmp_path / "out").exists()


def test_common_flags_on_every_subcommand(tmp_path, capsys):
    # --format json
    code, out, _ = run_cli(["bounds", "poisson", "10", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["family"] == "poisson"
    assert rec["value"] == pytest.approx(5.52e-3, rel=2e-3)
    # --config supplies shared defaults (model, seed) to non-experiment commands
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": "inversion-uniform", "seed": 11}))
    points = tmp_path / "p.txt"
    code, _, _ = run_cli(
        ["sample", "--n", "6", "--config", str(config), "--out", str(points)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["evaluate", "--points", str(points), "--config", str(config), "--format", "json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "double_sum"
    # shield-check accepts --format/--out
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["shield-check", "--fixture", str(FIXTURES / "shield_ok.txt"),
         "--format", "json", "--out", str(report)],
        capsys,
    )
    assert code == 0
    assert json.loads(report.read_text()) == {"member": True, "property": True}
    # stabilization emits csv when asked
    code, out, _ = run_cli(
        ["stabilization", "--model", "crossing-fixed", "--n", "4", "--d", "3",
         "--draws", "5", "--seed", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "m,survival"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pairfunc.cli", "bounds", "poisson", "10"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(5.52e-3, rel=2e-3)


def test_closed_stdout_is_not_a_failure(tmp_path):
    # the reader has gone before the first byte is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "out"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pairfunc.cli", "clt", "--model", "inversion-uniform",
             "--n-grid", "4,6", "--reps", "3", "--seed", "5", "--jobs", "1", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
    # the output files are written before anything is printed
    config = ExperimentConfig(model="inversion-uniform", n_grid=(4, 6), reps=3, seed=5, jobs=1)
    expected = write_outputs(run_experiment(config), tmp_path / "expected")
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes()


def test_window_volume_underflow_is_runtime_error(tmp_path, capsys):
    # the volume rounds to 0.0: the task driver sizes its batches without
    # dividing by it, and the first draw refuses the window
    code, out, err = run_cli(["clt", "--n-grid", "1e-200,1e-190", "--reps", "2", "--seed", "1",
                              "--jobs", "1", "--out", str(tmp_path / "out")], capsys)
    assert code == 3 and out == ""
    assert "degenerate window with zero volume" in _one_error_line(err, 3)


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--n", "1e300", "--seed", "1"],
        ["clt", "--n-grid", "1e200,1e201", "--reps", "2", "--seed", "1"],
    ],
)
def test_window_volume_overflow_is_config_error(tmp_path, command):
    # a subprocess, so that a numpy overflow warning would show on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "pairfunc.cli", *command, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "window volume is not finite" in _one_error_line(proc.stderr, 2)


@pytest.mark.parametrize("model_id", ["inversion-tree", "crossing-fixed"])
def test_model_on_one_dimensional_points_is_config_error(tmp_path, capsys, model_id):
    points = tmp_path / "p.txt"
    code, _, _ = run_cli(["sample", "--n", "6", "--d", "1", "--seed", "1", "--out", str(points)],
                         capsys)
    assert code == 0
    code, out, err = run_cli(["evaluate", "--model", model_id, "--points", str(points)], capsys)
    assert code == 2 and out == ""
    assert f"model {model_id} needs dimension >= 2" in _one_error_line(err, 2)


# one valid invocation of each subcommand, to which a test adds what it checks
_EVERY_SUBCOMMAND = {
    "sample": ["sample", "--n", "4", "--seed", "1"],
    "evaluate": ["evaluate", "--points", str(FIXTURES / "snowflake.txt"), "--kernel", "fixed"],
    "clt": ["clt", "--n-grid", "4,6", "--reps", "2", "--seed", "1", "--jobs", "1"],
    "scaling": ["scaling", "--n-grid", "4,6,8", "--reps", "2", "--seed", "1", "--jobs", "1"],
    "stabilization": ["stabilization", "--n", "4", "--draws", "2", "--seed", "1"],
    "shield-check": ["shield-check", "--fixture", str(FIXTURES / "shield_ok.txt")],
    "bounds": ["bounds", "poisson", "10"],
}


@pytest.mark.parametrize(
    "record, message",
    [({"seeed": 5}, "unknown config keys: ['seeed']"),
     ({"reps": "x"}, "malformed config value for 'reps'"),
     # a value that converts but lies out of its key's range
     ({"jobs": "x"}, "jobs must be null or an integer >= 1, got 'x'"),
     ({"cutoff": -1}, "cutoff must be finite and > 0, got -1.0"),
     ({"intensity": 0}, "intensity must be finite and > 0, got 0.0"),
     # the window's own ranges, also where no window is built from them
     ({"margin": 1.5}, 'message="boundary_margin must lie in (0, 1)"'),
     ({"a": [-1.0], "alpha": [1.0]}, 'message="coefficients and exponents must be positive"'),
     ({"alpha": [0.0]}, 'message="coefficients and exponents must be positive"')],
    ids=["unknown-key", "malformed-value", "jobs-range", "cutoff-range", "intensity-range",
         "margin-range", "a-range", "alpha-range"],
)
@pytest.mark.parametrize("command", list(_EVERY_SUBCOMMAND))
def test_every_subcommand_parses_the_whole_config_record(tmp_path, capsys, command, record,
                                                         message):
    # only clt and scaling use reps, and there --reps replaces the file's value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(
        _EVERY_SUBCOMMAND[command] + ["--config", str(path), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2 and out == ""
    assert message in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "record", [{"a": [1.0, 1.0]}, {"alpha": [1.0, 1.0]}, {"a": [1.0], "alpha": [1.0], "d": 3}],
    ids=["a-length", "alpha-length", "d-3"],
)
def test_sample_checks_the_a_and_alpha_lengths_against_d(tmp_path, capsys, record):
    # sample draws its window without a and alpha, but checks their lengths
    # as clt does (test_invalid_config_value_rejected_up_front), with its message
    path = tmp_path / "c.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(
        _EVERY_SUBCOMMAND["sample"] + ["--config", str(path), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2 and out == ""
    assert "need one coefficient and one exponent per axis j = 2..d" in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "record", [{"a": [1.0, 1.0]}, {"alpha": [1.0, 1.0]}, {"a": [1.0], "alpha": [1.0], "d": 3}],
    ids=["a-length", "alpha-length", "d-3"],
)
def test_stabilization_checks_the_a_and_alpha_lengths_against_d(tmp_path, capsys, record):
    # the survey draws its window without a and alpha, and checks their
    # lengths as sample and clt do
    path = tmp_path / "c.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(
        _EVERY_SUBCOMMAND["stabilization"] + ["--config", str(path), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2 and out == ""
    assert "need one coefficient and one exponent per axis j = 2..d" in _one_error_line(err, 2)
    assert not (tmp_path / "out").exists()
    d = record.get("d", 2)  # lengths that fit d pass
    path.write_text(json.dumps({"d": d, "a": [1.0] * (d - 1), "alpha": [1.0] * (d - 1)}))
    code, _, err = run_cli(_EVERY_SUBCOMMAND["stabilization"] + ["--config", str(path)], capsys)
    assert code == 0, err


def test_file_value_loses_to_a_flag_and_an_omitted_key_takes_the_default(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n_grid": [4, 6], "reps": 9, "seed": 3, "d": 3, "jobs": 1}))
    out = tmp_path / "out"
    code, _, err = run_cli(["clt", "--config", str(path), "--reps", "2", "--out", str(out)],
                           capsys)
    assert code == 0, err
    config = json.loads((out / "meta.json").read_text())["config"]
    assert (config["reps"], config["d"], config["model"]) == (2, 3, "inversion-uniform")
    points = tmp_path / "p.txt"
    code, _, err = run_cli(["sample", "--n", "6", "--config", str(path), "--d", "1",
                            "--out", str(points)], capsys)
    assert code == 0, err
    from pairfunc.process import load_configuration

    assert load_configuration(points.read_text()).window.dim == 1


@pytest.mark.parametrize(
    "command, message",
    [
        (["sample", "--n", "abc"], "argument --n: invalid float value: 'abc'"),
        (["sample", "--n", "4", "--bogus"], "unrecognized arguments: --bogus"),
        (["sample", "--seed", "1"], "the following arguments are required: --n"),
        (["clt", "--reps", "x"], "argument --reps: invalid int value: 'x'"),
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad-float", "unknown-flag", "missing-flag", "bad-int", "unknown-command", "no-command"],
)
def test_argument_error_is_one_config_line(capsys, command, message):
    code, out, err = run_cli(command, capsys)
    assert code == 2 and out == ""
    assert message in _one_error_line(err, 2)


@pytest.mark.parametrize("command", [["--help"], ["sample", "--help"], ["bounds", "-h"]])
def test_help_exits_zero(capsys, command):
    code, out, err = run_cli(command, capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: pairfunc")


def test_evaluate_text_names_the_dropped_count_as_the_results_column(tmp_path, capsys):
    points = tmp_path / "p.txt"
    code, _, err = run_cli(["sample", "--model", "treelog-uniform", "--n", "8", "--seed", "5",
                            "--out", str(points)], capsys)
    assert code == 0, err
    code, out, err = run_cli(["evaluate", "--model", "treelog-uniform", "--points", str(points)],
                             capsys)
    assert code == 0, err
    labels = [field.split("=")[0] for field in out.split()]
    assert labels == ["sum_log_sum", "admissible", RESULTS_HEADER.split(",")[-1], "product"]


def test_cli_surface_is_pinned():
    # every subcommand's options and positionals, the defaults of its inputs and
    # whether it draws; adding a knob or changing a default must be deliberate
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: ([s for action in p._actions for s in (action.option_strings or [action.dest])],
               p.get_default("defaults"), p.get_default("seeded"))
        for name, p in sub.choices.items()
    }
    common = ["--config", "--seed", "--out", "--format"]
    experiment = ["-h", "--help", "--model", "--n-grid", "--reps", "--jobs"] + common
    assert surface == {
        "sample": (["-h", "--help", "--model", "--n", "--d", "--intensity"] + common,
                   {"d": 2, "intensity": 1.0}, True),
        "evaluate": (["-h", "--help", "--model", "--points", "--kernel", "--cutoff"] + common,
                     {"model": "inversion-uniform", "cutoff": 1.0}, False),
        "clt": (experiment, {"model": "inversion-uniform", "n_grid": [8, 16, 32], "reps": 200},
                True),
        "scaling": (experiment,
                    {"model": "inversion-uniform", "n_grid": [8, 12, 16, 24, 32], "reps": 200},
                    True),
        "stabilization": (["-h", "--help", "--model", "--n", "--d", "--draws",
                           "--admissibility"] + common,
                          {"model": "inversion-tree", "d": 2, "cutoff": 1.0}, True),
        "shield-check": (["-h", "--help", "--fixture"] + common, {}, False),
        "bounds": (["-h", "--help", "family", "params"] + common, {}, False),
    }
