"""Reproducible Monte Carlo experiments over a grid of window scales.

Replication r of grid entry e draws its configuration from the derived stream
(master, e, r), so results are independent of execution order and parallelism
degree; aggregation is a deterministic fold in replication-index order.  A
task samples its replications into one column stack and evaluates them
together (``functionals.evaluate_all``).  Output files contain only
deterministic fields and reproduce byte-for-byte under any rerun of the same
configuration.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, stats
from .functionals import AdmissibilityRule, evaluate_all, stabilization_radii
from .geometry import Window, check_window_values
from .models import Model, get_model
from .process import MarkedPoint, _integer, _real, _reals, _seed, derive_rng, sample_stack
from .stats import (
    ScalingFit,
    is_degenerate,
    kolmogorov_to_standard_normal,
    summarize_sample,
    variance_scaling_fit,
    wasserstein1_to_standard_normal,
)

__all__ = ["ExperimentConfig", "RunRecord", "run_experiment", "write_outputs", "ConfigError",
           "read_config_file"]

SCHEMA_VERSION = "pairfunc-v1"
RESULTS_HEADER = "model,n,rep,value,admissible,dropped_zero_g"
SUMMARY_HEADER = "model,n,M,mean,var,w1,ks,seed"
LONG_HEADER = "n,metric,value"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def read_config_file(path: str | Path, label: str = "config file") -> dict:
    """The JSON object held by a file; ConfigError, naming the file by
    ``label``, when it cannot be read or parsed or holds anything but an
    object."""
    try:
        rec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {label} {path}: {exc}") from exc
    if not isinstance(rec, dict):
        raise ConfigError(f"{label} must hold a JSON object")
    return rec


def _jobs(value) -> int:
    if type(value) is not int or value < 1:
        raise ConfigError(f"jobs must be null or an integer >= 1, got {value!r}")
    return value


def _window_range(key: str, value):
    """``value`` if the window's range check of ``key`` passes; else a ConfigError."""
    try:
        check_window_values(**{key: value})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return value


# The converter of every config key from its JSON value, with the key's range check.
_CONVERTERS = {
    "model": str,
    "n_grid": _reals,
    "reps": _integer,
    "seed": _seed,
    "d": _integer,
    "intensity": lambda value: require_positive("intensity", _real(value)),
    "a": lambda value: _window_range("coefficients", _reals(value)) or None,
    "alpha": lambda value: _window_range("exponents", _reals(value)) or None,
    "margin": lambda value: _window_range("boundary_margin", _real(value)),
    "cutoff": lambda value: require_positive("cutoff", _real(value)),
    "jobs": _jobs,
}


def parse_config(rec: dict) -> dict:
    """The keys of a config record converted to their types, with a null value
    taken as an absent key; ConfigError for an unknown key or a value that does
    not convert or lies out of its key's range."""
    unknown = set(rec) - set(_CONVERTERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, value in rec.items():
        if value is None:
            continue
        try:
            out[key] = _CONVERTERS[key](value)
        except ConfigError:  # a range check, which names the key itself
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value for {key!r}: {exc}") from exc
    return out


def require_positive(key: str, value: float) -> float:
    """``value`` when it is finite and > 0; a ConfigError naming ``key``
    otherwise."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{key} must be finite and > 0, got {value}")
    return value


def checked_window(rule: AdmissibilityRule | None = None, **kw) -> Window:
    """``Window(**kw)``; a ConfigError when the window rejects a value, or
    when ``rule`` admits by tree realization and the shrunk window is empty."""
    try:
        window = Window(**kw)
        if rule is not None and rule.kind == "tree_realization":
            window.shrunk()
    except ValueError as exc:
        raise ConfigError(f"window at n={kw['n']:g}: {exc}") from exc
    return window


def resolve_model(model_id: str, cutoff: float = 1.0, d: int | None = None) -> Model:
    """The model ``model_id`` at ``cutoff``; a ConfigError for an unknown id or
    cap, a cutoff that is not finite and > 0, or a dimension ``d`` below the
    model's ``min_dim``."""
    require_positive("cutoff", cutoff)
    try:
        model = get_model(model_id, cutoff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if d is not None:
        require_dimension(f"model {model_id}", model.min_dim, d)
    return model


def require_dimension(what: str, min_dim: int, d: int) -> None:
    """A ConfigError when ``what`` (a model or kernel) needs more than ``d`` axes."""
    if d < min_dim:
        raise ConfigError(f"{what} needs dimension >= {min_dim}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n_grid: tuple[float, ...]
    reps: int
    seed: int
    d: int = 2
    intensity: float = 1.0
    a: tuple[float, ...] | None = None
    alpha: tuple[float, ...] | None = None
    margin: float = 0.2
    cutoff: float = 1.0
    jobs: int | None = None  # execution only: outside hash() and meta.json

    def __post_init__(self):
        """Convert every key as ``parse_config`` converts a file's value, a None
        taken as an absent key, then validate it: a config built in code
        accepts what a config file accepts, and a bad value exits as a
        configuration error before any replication runs."""
        values = parse_config({f.name: getattr(self, f.name) for f in fields(self)})
        for f in fields(self):
            if f.name not in values and f.default is MISSING:
                raise ConfigError(f"missing config key: {f.name!r}")
            object.__setattr__(self, f.name, values.get(f.name, f.default))
        model = resolve_model(self.model, self.cutoff, self.d)
        grid = self.n_grid
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be non-empty and strictly increasing")
        if self.reps < 2:
            raise ConfigError("need at least 2 replications")
        for n in grid:
            self.window(n, model.admissibility)

    def window(self, n: float, rule: AdmissibilityRule | None = None) -> Window:
        return checked_window(
            rule,
            n=n,
            dim=self.d,
            coefficients=self.a or (),
            exponents=self.alpha or (),
            boundary_margin=self.margin,
        )

    def result_record(self) -> dict:
        """The keys that determine the results: every field but the execution
        setting ``jobs``."""
        rec = asdict(self)
        del rec["jobs"]
        rec["n_grid"] = list(self.n_grid)
        rec["a"] = list(self.a) if self.a else None
        rec["alpha"] = list(self.alpha) if self.alpha else None
        return rec

    def hash(self) -> str:
        payload = json.dumps(self.result_record(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReplicationRow:
    n: float
    rep: int
    value: float
    admissible: int | None
    dropped_zero_g: int | None


@dataclass(frozen=True)
class GridSummary:
    """One grid cell's summary.  A degenerate cell (``stats.is_degenerate``)
    carries variance 0.0, NaN distances and an empty standardized sample."""

    n: float
    count: int
    mean: float
    variance: float
    w1: float
    ks: float
    standardized: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class RunRecord:
    config: ExperimentConfig
    config_hash: str
    rows: tuple[ReplicationRow, ...]
    summaries: tuple[GridSummary, ...]
    scaling: ScalingFit | None
    version: str = __version__


_BATCH_POINTS = 2**16  # per task: a 7 MiB traced peak, and 2**20 runs no faster


def _tasks(points: float, count: int, jobs: int) -> list[range]:
    """``range(count)`` in runs of one task each: one of ``jobs`` chunks, or
    about ``_BATCH_POINTS`` expected points at ``points`` a replication."""
    step = max(1, min(int(_BATCH_POINTS / max(points, 1.0)), -(-count // jobs)))
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _run_batch(task) -> list[ReplicationRow]:
    """Replications ``reps`` (a range) of grid entry ``e``, each drawn from its
    own streams (seed, e, rep, 0) and (seed, e, rep, 1) into one column stack,
    evaluated together by ``evaluate_all``."""
    config, e, reps = task
    n = config.n_grid[e]
    model, window = get_model(config.model, config.cutoff), config.window(n)
    seeds = [(config.seed, e, rep) for rep in reps]
    stack = sample_stack(window, config.intensity, model.mark_model, seeds)
    return [
        ReplicationRow(n, rep, fv.value, fv.admissible_count, fv.dropped_zero_g)
        for rep, fv in zip(reps, evaluate_all(model, window, *stack))
    ]


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Sample, build and evaluate every (n, replication) cell; aggregate
    summaries, distances to normal, and the variance scaling fit.  A task is a
    run of a grid cell's replications (``_tasks``)."""
    jobs = config.jobs if config.jobs is not None else (os.cpu_count() or 1)
    tasks = [
        (config, e, reps)
        for e, n in enumerate(config.n_grid)
        for reps in _tasks(config.intensity * config.window(n).volume, config.reps, jobs)
    ]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = [row for batch in pool.map(_run_batch, tasks) for row in batch]
    else:
        rows = [row for task in tasks for row in _run_batch(task)]
    # rows come back in task order, so each grid cell's replications are one row
    cells = np.array([r.value for r in rows]).reshape(len(config.n_grid), config.reps)
    degenerate = [is_degenerate(values) for values in cells]
    summaries = []
    for n, values, skip in zip(config.n_grid, cells, degenerate):
        if skip and not all(degenerate):
            summaries.append(
                GridSummary(n, len(values), float(values.mean()), 0.0, math.nan, math.nan,
                            np.empty(0), degenerate=True)
            )
            continue
        # when every cell is degenerate this raises "sample variance must be
        # positive": no cell is left to summarize or fit
        summary = summarize_sample(values)
        summaries.append(
            GridSummary(
                n,
                summary.count,
                summary.mean,
                summary.variance,
                wasserstein1_to_standard_normal(summary.standardized),
                kolmogorov_to_standard_normal(summary.standardized),
                summary.standardized,
            )
        )
    kept = [s for s in summaries if not s.degenerate]
    scaling = None
    if len(kept) >= 3:
        scaling = variance_scaling_fit([s.n for s in kept], [s.variance for s in kept])
    return RunRecord(config, config.hash(), tuple(rows), tuple(summaries), scaling)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _records(header: str, rows) -> list[dict]:
    return [dict(zip(header.split(","), row)) for row in rows]


def _csv(header: str, table: list[dict]) -> str:
    return "\n".join([header] + [",".join(map(_fmt, rec.values())) for rec in table]) + "\n"


def _json(table: list[dict]) -> str:
    """The records as JSON, with NaN (a degenerate cell's distances) as null."""
    table = [
        {key: None if isinstance(v, float) and math.isnan(v) else v for key, v in rec.items()}
        for rec in table
    ]
    return json.dumps(table, indent=1) + "\n"


def write_outputs(record: RunRecord, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write results, summaries, long-format metrics, scaling fit and metadata.

    Every file is a deterministic function of (config, seed); wall time is
    deliberately omitted.  The results and summary tables are built once, as
    records keyed by the pinned header names, and written in either format.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = record.config
    results = _records(RESULTS_HEADER, (
        (cfg.model, r.n, r.rep, r.value, r.admissible, r.dropped_zero_g) for r in record.rows
    ))
    summary = _records(SUMMARY_HEADER, (
        (cfg.model, s.n, s.count, s.mean, s.variance, s.w1, s.ks, cfg.seed)
        for s in record.summaries
    ))
    written = []
    for name, header, table in (
        ("results", RESULTS_HEADER, results), ("summary", SUMMARY_HEADER, summary)
    ):
        text = _csv(header, table) if fmt == "csv" else _json(table)
        written.append(_write(out / f"{name}.{fmt}", text))
    if fmt == "csv":
        lines = [LONG_HEADER]
        for rec, s in zip(summary, record.summaries):
            for metric in ("mean", "var", "w1", "ks"):
                lines.append(f"{_fmt(s.n)},{metric},{_fmt(rec[metric])}")
            if s.degenerate:
                lines.append(f"{_fmt(s.n)},degenerate,1")
        written.append(_write(out / "long.csv", "\n".join(lines) + "\n"))

    if record.scaling is not None:
        fit = record.scaling.to_record()
        excluded = [s.n for s in record.summaries if s.degenerate]
        if excluded:
            fit["excluded_n"] = excluded
        written.append(_write(out / "scaling.json", json.dumps(fit, indent=1) + "\n"))
    meta = {
        "schema": SCHEMA_VERSION,
        "config": record.config.result_record(),
        "config_hash": record.config_hash,
        "version": record.version,
        "standardization": "sample mean/variance (self-standardized)",
    }
    written.append(_write(out / "meta.json", json.dumps(meta, indent=1, sort_keys=True) + "\n"))
    return written


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@dataclass(frozen=True)
class StabilizationSurvey:
    """Empirical stabilization radii over (configuration, insertion) draws and
    the log-linear fit of the survival curve."""

    radii: tuple[int, ...]
    m_values: tuple[int, ...]
    survival: tuple[float, ...]
    slope: float | None
    r_squared: float | None

    def to_record(self) -> dict:
        return {
            "m": list(self.m_values),
            "survival": list(self.survival),
            "slope": self.slope,
            "r_squared": self.r_squared,
        }


def stabilization_survey(
    model_id: str,
    n: float,
    draws: int,
    seed: int,
    d: int = 2,
    cutoff: float = 1.0,
    with_admissibility: bool = False,
) -> StabilizationSurvey:
    """Draw (configuration, insertion point) pairs and measure the empirical
    stabilization radius of the model's pair score at each insertion.  Draw r
    takes its configuration from stream (seed, 0, r) and its insertion from
    (seed, 1, r); the draws go to ``stabilization_radii`` in the runs of
    ``_tasks`` at one job."""
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    model = resolve_model(model_id, cutoff, d)
    if with_admissibility and model.name.startswith("crossing"):  # graphs have no G
        raise ConfigError(f"model {model_id} has no compound scores to admit points by")
    rule = model.admissibility if with_admissibility else None
    window = checked_window(rule, n=n, dim=d)
    radii = []
    for task in _tasks(window.volume, draws, 1):
        cfgs, xs = [], []
        for r in task:
            cfgs.append(model.sample(window, (seed, 0, r)))
            rng = derive_rng(seed, 1, r)
            x = rng.uniform(0.0, 1.0, d) * np.array(window.sides)
            mark = model.mark_model.sample(rng, 1)
            xs.append(x if mark is None else MarkedPoint(x, mark[0], -1))
        radii += stabilization_radii(model, cfgs, xs, rule)
    ms = np.arange(1, max(radii))  # a radius exceeds each m below the largest
    survival = (len(radii) - np.cumsum(np.bincount(radii))[1:-1]) / len(radii)
    slope = r2 = None
    if len(ms) >= 2:
        # looked up on the module at call time, so that a tracer's wrapper is seen
        slope, _, _, r2 = stats.loglinear_fit(ms.astype(float), np.log(survival))
    return StabilizationSurvey(
        tuple(radii), tuple(ms.tolist()), tuple(survival.tolist()), slope, r2
    )
