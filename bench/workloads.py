"""The four benchmark workloads and the calls one round of each makes.

A workload is a fixed list of calls into the public API.  One round runs every
call once, in order, from one process with ``jobs=1``: a closed loop in which
the next call starts when the previous one returns.  Round ``r`` of a run with
workload seed ``s`` passes the experiment seed ``round_seed(s, r)``, so the same
``(s, r)`` always gives the same inputs and different rounds give fresh ones.
Why each workload exists is written down in ``bench/README.md``.
"""
from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, replace

from pairfunc import experiment
from pairfunc.geometry import Window
from pairfunc.models import get_model

E2_GRID = (8.0, 12.0, 16.0, 24.0, 32.0)
TREE_GRID = (48.0, 64.0)
CROSSING_GRID = (16.0, 24.0, 32.0)


@dataclass(frozen=True)
class Call:
    """One ``run_experiment`` (``reps`` replications per grid point) or, when
    ``survey`` is set, one ``stabilization_survey`` of ``reps`` draws at
    ``n_grid[0]``."""

    model: str
    n_grid: tuple[float, ...]
    reps: int
    d: int = 2
    survey: bool = False
    with_admissibility: bool = False

    @property
    def ops(self) -> int:
        """Replications (or survey draws) the call attempts."""
        return self.reps if self.survey else self.reps * len(self.n_grid)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    trace_rounds: int  # fixed work of a traced run, so its counts repeat exactly

    @property
    def ops_per_round(self) -> int:
        return sum(c.ops for c in self.calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-uniform",
            (
                Call("inversion-uniform", E2_GRID, 20),
                Call("treelog-uniform", E2_GRID, 20),
            ),
            trace_rounds=3,
        ),
        Workload(
            "mc-tree",
            (
                Call("inversion-tree", TREE_GRID, 5),
                Call("treelog-tree", TREE_GRID, 2),
            ),
            trace_rounds=2,
        ),
        # crossing-localized:4 is almost always 0 at these n, so its grid cells
        # have zero sample variance and run_experiment aborts (the ROADMAP's
        # "degenerate grid cell" defect).  Cap 16 keeps the localized kernel's
        # crowding cut and about half of crossing-max's edges while giving
        # non-degenerate cells at 12 replications.
        Workload(
            "mc-crossing",
            (
                Call("crossing-fixed", CROSSING_GRID, 4),
                Call("crossing-max", CROSSING_GRID, 6),
                Call("crossing-localized:16", CROSSING_GRID, 12),
            ),
            trace_rounds=1,
        ),
        # The E8 shapes of the acceptance suite, with fewer draws.
        Workload(
            "stabilization",
            (
                Call("inversion-tree", (24.0,), 8, survey=True),
                Call("treelog-tree", (24.0,), 8, survey=True, with_admissibility=True),
                Call("crossing-fixed", (4.0,), 8, d=3, survey=True),
            ),
            trace_rounds=3,
        ),
    )
}

DEFAULT_SEED = 20260810


def round_seed(seed: int, r: int) -> int:
    """Experiment seed of round ``r`` (``r = -1`` is the set-up warm-up)."""
    digest = hashlib.sha256(f"pairfunc-bench:{seed}:{r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_call(call: Call, seed: int):
    """Run one call through the public API.  The entry points are looked up on
    the module at call time, so a traced run sees its wrappers."""
    if call.survey:
        return experiment.stabilization_survey(
            call.model, call.n_grid[0], call.reps, seed, d=call.d,
            with_admissibility=call.with_admissibility,
        )
    config = experiment.ExperimentConfig(
        model=call.model, n_grid=call.n_grid, reps=call.reps, seed=seed, d=call.d, jobs=1
    )
    return experiment.run_experiment(config)


def run_round(workload: Workload, seed: int, r: int) -> tuple[list, int]:
    """Round ``r``: the results of its calls and the ops that failed.  A call
    that raises yields ``None`` and counts all its ops as failed."""
    s = round_seed(seed, r)
    results, failed = [], 0
    for call in workload.calls:
        try:
            results.append(run_call(call, s))
        except Exception:
            traceback.print_exc()
            results.append(None)
            failed += call.ops
    return results, failed


def warm_up(workload: Workload, seed: int) -> None:
    """Resolve every model and run one replication (one survey draw) of each
    call at its smallest ``n``, outside any timed phase (part of set-up)."""
    s = round_seed(seed, -1)
    for call in workload.calls:
        if call.survey:
            run_call(replace(call, reps=1), s)
            continue
        model = get_model(call.model)
        window = Window(n=call.n_grid[0], dim=call.d)
        model.evaluate(model.sample(window, (s, 0, 0)))
