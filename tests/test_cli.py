import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairfunc.cli import main
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

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    ],
    ids=["missing-field", "extra-field", "non-numeric", "outside-window", "duplicate-id"],
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
        capture_output=True, text=True,
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
            stdout=write_end, stderr=subprocess.PIPE, text=True,
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
        capture_output=True, text=True,
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
