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
from pathlib import Path

import numpy as np

from .barcodes import shield_membership, shield_property_check
from .experiment import (
    ConfigError,
    ExperimentConfig,
    checked_window,
    parse_config,
    read_config_file,
    require_positive,
    resolve_model,
    run_experiment,
    stabilization_survey,
    write_outputs,
)
from .graphs import build_edges, crossing_number, graph_to_text, kernel_from_flag
from .process import MarkModel, dump_configuration, load_configuration, sample_ppp
from .stats import binomial_lower_tail_bound, poisson_upper_tail_bound

__all__ = ["main"]


def _error(kind: str, message: str) -> int:
    code = 2 if kind == "config" else 3
    print(
        f'PAIRFUNC_ERROR code={code} kind={kind} message="{message}"',
        file=sys.stderr,
    )
    return code


def _run_seed(args, configured):
    """PAIRFUNC_SEED when it is set, else --seed, else the configured seed;
    ConfigError when none is set or the variable does not hold an integer."""
    env = os.environ.get("PAIRFUNC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"PAIRFUNC_SEED must be an integer, got {env!r}") from exc
    seed = args.seed if args.seed is not None else configured
    if seed is None:
        raise ConfigError(f"{args.command} needs --seed, a config seed, or PAIRFUNC_SEED")
    return seed


_DEFAULT_GRIDS = {"clt": [8, 16, 32], "scaling": [8, 12, 16, 24, 32]}


def _load_experiment_config(args) -> ExperimentConfig:
    """The --config record (or the defaults of ``args.command``), then the
    flags that are set, then PAIRFUNC_SEED, validated once."""
    if args.config:
        rec = read_config_file(args.config)
    else:
        rec = {"model": "inversion-uniform", "n_grid": _DEFAULT_GRIDS[args.command], "reps": 200}
    flags = {
        "model": args.model or None,
        "n_grid": args.n_grid.split(",") if args.n_grid else None,
        "reps": args.reps,
        "jobs": args.jobs,
    }
    rec.update((key, value) for key, value in flags.items() if value is not None)
    rec["seed"] = _run_seed(args, rec.get("seed"))
    return ExperimentConfig.from_record(rec)


def _config_defaults(args) -> dict:
    """The keys model, seed, d and cutoff of --config, when given, parsed as
    in an experiment config.  Other keys are not read."""
    rec = read_config_file(args.config) if args.config else {}
    return parse_config({key: rec[key] for key in ("model", "seed", "d", "cutoff") if key in rec})


def _cmd_sample(args) -> int:
    defaults = _config_defaults(args)
    seed = _run_seed(args, defaults.get("seed"))
    model_id = args.model or defaults.get("model")
    dim = args.d if args.d is not None else defaults.get("d", 2)
    model = resolve_model(model_id, d=dim) if model_id else None
    window = checked_window(n=args.n, dim=dim)
    marks = model.mark_model if model else MarkModel.none()
    cfg = sample_ppp(window, require_positive("intensity", args.intensity), marks, seed)
    text = dump_configuration(cfg)
    if args.format == "json":
        text = json.dumps({"points": len(cfg), "configuration": text}) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args) -> int:
    defaults = _config_defaults(args)
    try:
        kernel = kernel_from_flag(args.kernel) if args.kernel else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cutoff = args.cutoff if args.cutoff is not None else defaults.get("cutoff", 1.0)
    model = resolve_model(args.model or defaults.get("model") or "inversion-uniform", cutoff)
    cfg = load_configuration(Path(args.points).read_text())
    if kernel is not None:
        graph = build_edges(cfg, kernel, slab_cutoff=cutoff)
        value = crossing_number(graph)
        if args.format == "json":
            print(json.dumps({"kernel": args.kernel, "crossing_number": value}))
        else:
            print(value)
        if args.out:
            Path(args.out).write_text(graph_to_text(graph, points_ref=args.points))
        return 0
    fv = model.evaluate(cfg)
    if args.format == "json":
        line = json.dumps(fv.to_record())
    elif fv.kind == "double_sum":
        value = fv.value
        line = str(int(value) if float(value).is_integer() else value)
    else:
        mant, expo = fv.product_mantissa_exponent()
        line = (
            f"sum_log_sum={fv.value!r} admissible={fv.admissible_count} "
            f"dropped_zero_G={fv.dropped_zero_g} product={mant:.6f}e{expo:+d}"
        )
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


def _cmd_experiment(args) -> int:
    """``clt`` and ``scaling``: one experiment run, differing only in the
    default grid, the output directory and the printed report."""
    record = run_experiment(_load_experiment_config(args))
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


def _cmd_stabilization(args) -> int:
    defaults = _config_defaults(args)
    seed = _run_seed(args, defaults.get("seed"))
    survey = stabilization_survey(
        args.model or defaults.get("model") or "inversion-tree", args.n, args.draws, seed,
        d=args.d if args.d is not None else defaults.get("d", 2),
        cutoff=defaults.get("cutoff", 1.0), with_admissibility=args.admissibility,
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


def _is_point(value, d: int) -> bool:
    """True iff a JSON value is a list of d finite numbers."""
    try:
        return isinstance(value, list) and len(value) == d and all(
            type(v) in (int, float) and math.isfinite(v) for v in value
        )
    except OverflowError:  # an integer too large for a float
        return False


def _cmd_shield_check(args) -> int:
    _config_defaults(args)  # no key applies, but a bad --config is still an error
    rec = read_config_file(args.fixture, "shield fixture")
    text = rec.get("configuration")
    if isinstance(text, list) and all(isinstance(line, str) for line in text):
        text = "\n".join(text)
    if not isinstance(text, str):
        raise ConfigError("shield fixture 'configuration' must be a string or a list of strings")
    cfg = load_configuration(text)
    d = cfg.window.dim
    if not _is_point(rec.get("box_center"), d):
        raise ConfigError(f"shield fixture 'box_center' must be a list of {d} numbers")
    center = tuple(rec["box_center"])
    insertions = rec.get("insertions")
    if insertions is not None and not (
        isinstance(insertions, list) and all(_is_point(x, d) for x in insertions)
    ):
        raise ConfigError(f"shield fixture 'insertions' must be a list of lists of {d} numbers")
    member = shield_membership(cfg, center)
    if not insertions:
        lo = np.asarray(center) - 1.5
        insertions = [list(lo + 0.75 * k) for k in range(1, 4)]
    prop = member and all(
        shield_property_check(cfg, center, tuple(x), require_membership=False)
        for x in insertions
    )
    if args.format == "json":
        line = json.dumps({"member": member, "property": prop})
    else:
        line = f"member={str(member).lower()}, property={str(prop).lower()}"
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0 if member and prop else 3


def _cmd_bounds(args) -> int:
    _config_defaults(args)  # no key applies, but a bad --config is still an error
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
    if args.format == "json":
        line = json.dumps({"family": args.family, "params": args.params, "value": value})
    else:
        line = f"{value:.6e}"
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


def _add_common(p: argparse.ArgumentParser, default_format: str = "csv") -> None:
    """Flags every subcommand accepts: --config, --seed, --out, --format."""
    p.add_argument("--config", default=None, help="JSON config supplying defaults")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairfunc",
        description="Pair functionals of marked Poisson processes: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Poisson configuration and dump it")
    p.add_argument("--model", default=None, help="model id fixing the mark model")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--intensity", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", help="evaluate a functional on a point file")
    p.add_argument("--model", default=None)
    p.add_argument("--points", required=True)
    p.add_argument("--kernel", default=None, help="fixed|directed|max|localized[:<cap>]")
    p.add_argument("--cutoff", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    for name in _DEFAULT_GRIDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--model", default=None)
        p.add_argument("--n-grid", default=None, help="comma-separated scales")
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)
        _add_common(p)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("stabilization", help="survey empirical stabilization radii")
    p.add_argument("--model", default=None)
    p.add_argument("--n", type=float, default=24.0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--admissibility", action="store_true")
    _add_common(p, default_format="json")
    p.set_defaults(func=_cmd_stabilization)

    p = sub.add_parser("shield-check", help="verify a shield fixture")
    p.add_argument("--fixture", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_shield_check)

    p = sub.add_parser("bounds", help="closed-form concentration bounds")
    p.add_argument("family", choices=("binomial", "poisson"))
    p.add_argument("params", nargs="*")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
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
