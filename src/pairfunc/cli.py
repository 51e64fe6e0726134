"""Command-line experiment runner.

Subcommands: sample, evaluate, clt, scaling, stabilization, shield-check,
bounds.  Exit codes: 0 success, 2 configuration error, 3 runtime failure;
errors are reported on stderr as a machine-parsable line
``PAIRFUNC_ERROR code=<n> kind=<config|runtime> message="..."``.
The environment variable PAIRFUNC_SEED overrides any configured seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .barcodes import shield_membership, shield_property_check
from .experiment import (
    ConfigError,
    ExperimentConfig,
    checked_window,
    parse_config,
    read_config_file,
    require_dimension,
    resolve_model,
    run_experiment,
    stabilization_survey,
    write_outputs,
)
from .graphs import build_edges, crossing_number, graph_to_text, kernel_from_flag
from .process import MarkModel, _reals, _seed, dump_configuration, load_configuration, sample_ppp
from .stats import binomial_lower_tail_bound, poisson_upper_tail_bound

__all__ = ["main"]


def _error(kind: str, message: str) -> int:
    code = 2 if kind == "config" else 3
    print(
        f'PAIRFUNC_ERROR code={code} kind={kind} message="{message}"',
        file=sys.stderr,
    )
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors, reported as
    one PAIRFUNC_ERROR line in place of a usage text."""

    def error(self, message):
        raise ConfigError(message)


def _inputs(args) -> dict:
    """The config keys of a run, each layer overriding the one before: the
    subcommand's defaults, the whole --config record and the flags that are
    set, each as ``parse_config`` parses and range-checks it, and
    PAIRFUNC_SEED when the subcommand draws.  ConfigError for a bad record,
    flag or variable, or a draw with no seed."""
    inputs = dict(args.defaults)
    if args.config:
        inputs.update(parse_config(read_config_file(args.config)))
    keys = {f.name for f in fields(ExperimentConfig)}
    inputs.update(parse_config({k: v for k, v in vars(args).items() if k in keys}))
    if "n" in vars(args):  # sample and stabilization draw a window that ignores a and
        # alpha, but their lengths must fit d, as under clt
        checked_window(n=args.n, dim=inputs["d"], coefficients=inputs.get("a") or (),
                       exponents=inputs.get("alpha") or ())
    if args.seeded:
        env = os.environ.get("PAIRFUNC_SEED")
        if env is not None:
            try:
                inputs["seed"] = _seed(env)
            except ValueError as exc:
                raise ConfigError(
                    f"PAIRFUNC_SEED must be an integer in [0, 2**64), got {env!r}"
                ) from exc
        if "seed" not in inputs:
            raise ConfigError(f"{args.command} needs --seed, a config seed, or PAIRFUNC_SEED")
    return inputs


def _write_line(args, record: dict, text: str) -> None:
    """Print a one-line result, ``record`` as JSON under ``--format json`` and
    ``text`` otherwise, and write the same line to ``--out`` when it is set."""
    line = json.dumps(record) if args.format == "json" else text
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")


def _cmd_sample(args, inputs) -> int:
    dim = inputs["d"]
    model = resolve_model(inputs["model"], d=dim) if "model" in inputs else None
    window = checked_window(n=args.n, dim=dim)
    marks = model.mark_model if model else MarkModel.none()
    cfg = sample_ppp(window, inputs["intensity"], marks, inputs["seed"])
    text = dump_configuration(cfg)
    if args.format == "json":
        text = json.dumps({"points": len(cfg), "configuration": text}) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args, inputs) -> int:
    try:
        kernel = kernel_from_flag(args.kernel) if args.kernel else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cutoff = inputs["cutoff"]
    model = resolve_model(inputs["model"], cutoff)
    cfg = load_configuration(Path(args.points).read_text())
    if kernel is not None:  # a crossing graph, so the crossing models' min_dim of 2
        require_dimension(f"kernel {args.kernel}", 2, cfg.window.dim)
        graph = build_edges(cfg, kernel, slab_cutoff=cutoff)
        value = crossing_number(graph)
        if args.format == "json":
            print(json.dumps({"kernel": args.kernel, "crossing_number": value}))
        else:
            print(value)
        if args.out:
            Path(args.out).write_text(graph_to_text(graph, points_ref=args.points))
        return 0
    require_dimension(f"model {model.name}", model.min_dim, cfg.window.dim)
    fv = model.evaluate(cfg)
    if fv.kind == "double_sum":
        value = fv.value
        text = str(int(value) if float(value).is_integer() else value)
    else:
        mant, expo = fv.product_mantissa_exponent()
        text = (
            f"sum_log_sum={fv.value!r} admissible={fv.admissible_count} "
            f"dropped_zero_g={fv.dropped_zero_g} product={mant:.6f}e{expo:+d}"
        )
    _write_line(args, fv.to_record(), text)
    return 0


def _cmd_experiment(args, inputs) -> int:
    """``clt`` and ``scaling``: one experiment run, differing only in the
    default grid, the output directory and the printed report."""
    record = run_experiment(ExperimentConfig(**inputs))
    paths = write_outputs(record, args.out or f"{args.command}-out", args.format)
    degenerate = [f"{s.n:g}" for s in record.summaries if s.degenerate]
    if degenerate:
        print(f"{len(degenerate)} degenerate grid cell(s) left out of the scaling fit: "
              f"n = {', '.join(degenerate)}", file=sys.stderr)
    if args.command == "clt":
        for s in record.summaries:
            print(f"n={s.n:g} M={s.count} w1={s.w1:.6f} ks={s.ks:.6f}")
    elif record.scaling:
        print(f"slope={record.scaling.slope:.6f} stderr={record.scaling.stderr:.6f}")
    print(f"written: {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_stabilization(args, inputs) -> int:
    survey = stabilization_survey(
        inputs["model"], args.n, args.draws, inputs["seed"], d=inputs["d"],
        cutoff=inputs["cutoff"], with_admissibility=args.admissibility,
    )
    rec = survey.to_record()
    if args.format == "csv":
        lines = ["m,survival"] + [f"{m},{s!r}" for m, s in zip(rec["m"], rec["survival"])]
        payload = "\n".join(lines) + "\n"
        print(payload, end="")
        print(f"slope={rec['slope']} r_squared={rec['r_squared']}")
    else:
        payload = json.dumps(rec, indent=1) + "\n"
        print(json.dumps(rec))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        suffix = "csv" if args.format == "csv" else "json"
        (out / f"stabilization.{suffix}").write_text(payload)
    return 0


def _point(value, d: int) -> tuple[float, ...] | None:
    """A JSON value as a point, a ``_reals`` list of d finite numbers; None
    when it is not one."""
    try:
        point = _reals(value)
    except (TypeError, ValueError):
        return None
    return point if len(point) == d and all(map(math.isfinite, point)) else None


def _cmd_shield_check(args, inputs) -> int:
    rec = read_config_file(args.fixture, "shield fixture")
    text = rec.get("configuration")
    if isinstance(text, list) and all(isinstance(line, str) for line in text):
        text = "\n".join(text)
    if not isinstance(text, str):
        raise ConfigError("shield fixture 'configuration' must be a string or a list of strings")
    cfg = load_configuration(text)
    d = cfg.window.dim
    center = _point(rec.get("box_center"), d)
    if center is None:
        raise ConfigError(f"shield fixture 'box_center' must be a list of {d} numbers")
    insertions = rec.get("insertions")
    if insertions is not None:
        insertions = [_point(x, d) for x in insertions] if isinstance(insertions, list) else [None]
        if None in insertions:
            raise ConfigError(f"shield fixture 'insertions' must be a list of lists of {d} numbers")
    member = shield_membership(cfg, center)
    if not insertions:
        lo = np.asarray(center) - 1.5
        insertions = [list(lo + 0.75 * k) for k in range(1, 4)]
    prop = member and all(
        shield_property_check(cfg, center, tuple(x), require_membership=False)
        for x in insertions
    )
    _write_line(args, {"member": member, "property": prop},
                f"member={str(member).lower()}, property={str(prop).lower()}")
    return 0 if member and prop else 3


def _cmd_bounds(args, inputs) -> int:
    bound, types, usage = {
        "binomial": (binomial_lower_tail_bound, (int, float), "m p"),
        "poisson": (poisson_upper_tail_bound, (float,), "ell"),
    }[args.family]
    if len(args.params) != len(types):
        raise ConfigError(f"bounds {args.family} needs: {usage}")
    try:  # a value that does not convert, or that the bound's range rejects
        value = bound(*(convert(v) for convert, v in zip(types, args.params)))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bounds {args.family}: {exc}") from exc
    _write_line(args, {"family": args.family, "params": args.params, "value": value},
                f"{value:.6e}")
    return 0


def _add_common(p, func, defaults: dict, seeded: bool, default_format: str = "csv") -> None:
    """Flags every subcommand accepts (--config, --seed, --out, --format); the
    subcommand's function, the defaults of its inputs and whether it draws."""
    p.add_argument("--config", default=None, help="JSON config supplying defaults")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=default_format)
    p.set_defaults(func=func, defaults=defaults, seeded=seeded)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairfunc",
        description="Pair functionals of marked Poisson processes: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Poisson configuration and dump it")
    p.add_argument("--model", default=None, help="model id fixing the mark model")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--intensity", type=float, default=None)
    _add_common(p, _cmd_sample, {"d": 2, "intensity": 1.0}, seeded=True)

    p = sub.add_parser("evaluate", help="evaluate a functional on a point file")
    p.add_argument("--model", default=None)
    p.add_argument("--points", required=True)
    p.add_argument("--kernel", default=None, help="fixed|directed|max|localized[:<cap>]")
    p.add_argument("--cutoff", type=float, default=None)
    _add_common(p, _cmd_evaluate, {"model": "inversion-uniform", "cutoff": 1.0}, seeded=False)

    for name, grid in (("clt", [8, 16, 32]), ("scaling", [8, 12, 16, 24, 32])):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--model", default=None)
        p.add_argument("--n-grid", type=lambda s: s.split(","), help="comma-separated scales")
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)
        defaults = {"model": "inversion-uniform", "n_grid": grid, "reps": 200}
        _add_common(p, _cmd_experiment, defaults, seeded=True)

    p = sub.add_parser("stabilization", help="survey empirical stabilization radii")
    p.add_argument("--model", default=None)
    p.add_argument("--n", type=float, default=24.0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--admissibility", action="store_true")
    defaults = {"model": "inversion-tree", "d": 2, "cutoff": 1.0}
    _add_common(p, _cmd_stabilization, defaults, seeded=True, default_format="json")

    p = sub.add_parser("shield-check", help="verify a shield fixture")
    p.add_argument("--fixture", required=True)
    _add_common(p, _cmd_shield_check, {}, seeded=False)

    p = sub.add_parser("bounds", help="closed-form concentration bounds")
    p.add_argument("family", choices=("binomial", "poisson"))
    p.add_argument("params", nargs="*")
    _add_common(p, _cmd_bounds, {}, seeded=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, _inputs(args))
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not a failure; later flushes,
        # the one at exit included, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConfigError as exc:
        return _error("config", str(exc))
    except (ValueError, KeyError, OSError) as exc:
        return _error("runtime", str(exc))
    except MemoryError as exc:
        return _error("runtime", "out of memory" + (f": {exc}" if str(exc) else ""))


if __name__ == "__main__":
    sys.exit(main())
