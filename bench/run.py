"""pairfunc benchmark entry point.

    python3 bench/run.py --workload mc-uniform --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Every process is a fresh interpreter
(``bench/worker.py``): ``SETUP_SAMPLES - 1`` processes only set up, then one
sets up and runs the workload, so set-up time and peak memory belong to this
workload alone.  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics (``reps_per_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer metrics of a traced run.  The full record, stamped
with the commit, machine and library versions, goes to ``bench/results/``.
This file imports only the standard library.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "pairfunc"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every process is killed by then


def stamp() -> dict:
    """Where and on what the run happened."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,  # None outside a git checkout; src_sha256 identifies the code
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "time_start": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def worker(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker process; returns (seconds until READY scaled to the
    reference speed, READY record, RESULT record or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                ready = json.loads(payload)
                setup_s = (time.perf_counter() - t0) * ready.pop("setup_scale")
            elif tag == "RESULT":
                result = json.loads(payload)
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup_s, ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pairfunc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp()}
    common = ["--workload", args.workload] + ([] if args.seed is None else ["--seed", str(args.seed)])
    try:
        setups = [worker(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, ready, result = worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("bench: the workload process gave no result", file=sys.stderr)
        return 1
    setups.append(setup_s)
    record["stamp"].update(ready)
    record["setup_samples_s"] = setups
    if args.trace:
        metrics = result["metrics"]
        print(result.pop("layer_table_md"))
    else:
        metrics = {
            "reps_per_s": {"value": result["reps_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record.update(result)
    line = {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }
    record["line"] = line
    RESULTS.mkdir(exist_ok=True)
    seed = "default" if args.seed is None else args.seed
    name = f"{args.workload}-seed{seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record["stamp"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
