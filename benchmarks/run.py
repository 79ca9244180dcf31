"""Benchmark of upea's sweeps, end to end or module by module.

    python3 benchmarks/run.py --workload single-run --seed 1 --seconds 30 --trace 0

Runs one workload (see workload.py and README.md) and prints, as its last
line of standard output, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
named in BENCHMARK.json; with --trace 1 they are the per-module ones.

This script imports neither upea nor NumPy.  It starts every process of the
run, one at a time, and waits for each: with --trace 0, SETUP_SAMPLES - 1
processes that only set up, then the measured run, whose own set-up is the
last sample of set-up time.  Set-up time runs from just before a process is
started to the end of its set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
TIME_LIMIT = 170.0  # seconds for the whole run, all processes included

# one thread per process beyond the program's own sweep workers, so a
# 2-worker sweep keeps to 2 threads
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], deadline: float) -> dict:
    """Run workload.py to its end; returns its JSON result with setup_s added."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **CHILD_ENV},
        cwd=ROOT,
        timeout=max(deadline - started, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT
    child = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            spawn(child + ["--setup-only"], deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        run = spawn(child + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"run: {args.workload} did not finish: {exc}", file=sys.stderr)
        return 2
    setups.append(run["setup_s"])

    if args.trace:
        values = run["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": run["wall_s"],
            "wall_2w_s": run["wall_2w_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }

    print(
        f"env: python {run['python']}, numpy {run['numpy']}, "
        f"cpus {os.cpu_count()}, commit {git_commit()}"
    )
    print(f"workload {args.workload}: attempted {run['attempted']}, failed {run['failed']}")
    print(f"setup samples: {json.dumps(setups)}; call times: {json.dumps(run['calls'])}")
    record = HERE / "results" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "calls": run["calls"], "setups": setups}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
