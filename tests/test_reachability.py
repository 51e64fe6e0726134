"""Every function of ``src/pairfunc`` that no subcommand reaches has a verdict.

The matrix below runs in-process, at small n, under a call hook
(``sys.settrace``): ``sample``, ``evaluate --points``, ``clt``, ``scaling``
and ``stabilization`` (with and without ``--admissibility``) for all seven
models, in d = 2 and 3 and in both formats; ``evaluate --kernel`` for the five
kernel flags; ``shield-check``; both ``bounds`` families; the error exits; and
one round of each benchmark workload.  The named functions it never enters
must be exactly ``KEEP``, each kept for the reason given.  New API that
nothing reaches fails here until it is deleted or earns a reason.
"""
import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import pairfunc
from pairfunc.cli import main
from pairfunc.models import MODEL_NAMES

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = Path(pairfunc.__file__).resolve().parent
# cap 16 keeps the crowding cut and, unlike cap 4, gives these small grids a
# cell with positive variance (cap 4 exits 3 with "sample variance must be positive")
MODELS = [m if m != "crossing-localized" else "crossing-localized:16" for m in MODEL_NAMES]

_BENCH = "read by bench/ (tracer or checks), which does not change with the library"
_ORACLE = "a literal oracle of the tests, E-tests and bench checks"
_FIXTURE = "builds a reference layout for the E-tests, demos and fixture files"
_ROUND_TRIP = "round-trip equality, asserted by many tests"
_EXACT = "the exact fallback for a borderline orientation determinant"

KEEP = {
    "barcodes.Bar.__post_init__": _BENCH + " (Barcode.bars)",
    "barcodes.Bar.admissible": _ORACLE + " (inversion_score)",
    "barcodes.Barcode.__len__": _BENCH,
    "barcodes.Barcode.__eq__": _ROUND_TRIP,
    "barcodes.Barcode.bars": _BENCH,
    "barcodes.inversion_score": _ORACLE,
    "fixtures.poisson_tree_figure_configuration": _FIXTURE,
    "fixtures.snowflake_configuration": _FIXTURE,
    "fixtures._ladder": _FIXTURE,
    "fixtures.shield_template_points": _FIXTURE,
    "fixtures.sample_shielded_configuration": _FIXTURE,
    "functionals.diff_first": _ORACLE + " (the first difference operator)",
    "functionals.diff_second": _ORACLE + " (the second difference operator)",
    "functionals.empirical_stabilization_radius": _BENCH,
    "geometry._orient_exact": _EXACT,
    "geometry.orientation": _EXACT,
    "geometry.segments_properly_cross": _EXACT + "; also " + _BENCH,
    "graphs.GeometricGraph.edges": _BENCH,
    "graphs.GeometricGraph.retained": _BENCH,
    "graphs.crossing_number_direct": _ORACLE,
    "models.Model.functional": "the functional that the difference operators take, in many tests",
    "process.MarkModel.uniform_radius": "the mark model that snowflake.txt's header names",
    "process.PointConfiguration.__eq__": _ROUND_TRIP,
    "process.PointConfiguration.points": _BENCH,
}


def _defined() -> dict:
    """(file, qualified name, first line) -> ``module.qualname`` of every named
    function in ``src/pairfunc``: no class bodies, lambdas or comprehensions."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[(path, code.co_qualname, code.co_firstlineno)] = f"{path.stem}.{code.co_qualname}"
    return out


def _cli(argv, expected_code=0) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == expected_code, (argv, err.getvalue())


def _matrix(tmp: Path) -> None:
    # every model has a grid cell with positive variance on these grids (the
    # tree realization number is 0 in every d = 2 window below n = 16)
    for d, grid in ((2, "4,6,16"), (3, "3,4,5")):
        config = tmp / f"d{d}.json"
        config.write_text(json.dumps({"d": d, "jobs": 1}))
        for fmt in ("csv", "json"):
            for model in MODELS:
                points = tmp / f"{model}-{d}.txt"
                common = ["--model", model, "--d", str(d), "--seed", "1", "--format", fmt]
                _cli(["sample", "--n", "5"] + common)
                _cli(["sample", "--n", "5", "--out", str(points)] + common[:-2])  # a point file
                _cli(["evaluate", "--model", model, "--points", str(points), "--format", fmt])
                for command in ("clt", "scaling"):
                    _cli([command, "--model", model, "--n-grid", grid, "--reps", "3",
                          "--seed", "1", "--config", str(config), "--format", fmt,
                          "--out", str(tmp / command)])
                _cli(["stabilization", "--n", "5", "--draws", "3"] + common)
                if not model.startswith("crossing"):
                    _cli(["stabilization", "--n", "8", "--draws", "3", "--admissibility"] + common)
    for kernel in ("fixed", "directed", "max", "localized", "localized:4"):
        _cli(["evaluate", "--kernel", kernel, "--points", str(FIXTURES / "snowflake.txt"),
              "--out", str(tmp / "graph.txt")])
    _cli(["shield-check", "--fixture", str(FIXTURES / "shield_ok.txt")])
    _cli(["bounds", "binomial", "100", "0.5"])
    _cli(["bounds", "poisson", "10"])
    _cli(["sample", "--n", "abc", "--seed", "1"], 2)
    _cli(["bounds", "binomial", "100"], 2)
    _cli(["evaluate", "--model", "bogus", "--points", str(FIXTURES / "snowflake.txt")], 2)
    _cli(["evaluate", "--points", str(tmp / "missing.txt")], 3)


def _bench_rounds() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for workload in workloads.WORKLOADS.values():
        workloads.warm_up(workload, workloads.DEFAULT_SEED)
        _, failed = workloads.run_round(workload, workloads.DEFAULT_SEED, 0)
        assert failed == 0, workload.name


def test_every_unreached_function_has_a_verdict(tmp_path):
    entered = set()

    def hook(frame, event, arg):  # a call event only: no line tracing
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        _matrix(tmp_path)
        _bench_rounds()
    finally:
        sys.settrace(previous)
    reached = {
        (Path(code.co_filename).resolve(), code.co_qualname, code.co_firstlineno)
        for code in entered
    }
    unreached = {name for key, name in _defined().items() if key not in reached}
    assert sorted(unreached - KEEP.keys()) == [], "unreached: delete it, or keep it with a reason"
    assert sorted(KEEP.keys() - unreached) == [], "reached now: drop it from KEEP"
