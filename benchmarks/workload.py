"""One run of one benchmark workload, in a process of its own.

run.py starts this script and reads the JSON object it prints as its last
line of standard output.  Set-up ends, and `ready_at` (monotonic clock) is
taken, just before the first timed call: after interpreter start,
`import upea`, input generation and the workload's one-time preparation.

    python3 benchmarks/workload.py --workload single-run --seed 1 --setup-only
    python3 benchmarks/workload.py --workload single-run --seed 1 --seconds 30 --trace 0

A full run makes one untimed warm-up pass at 2 workers, then repeats pairs
of passes until the next pair would end after --seconds: an untraced pass at
1 worker and one at 2 workers, or with --trace 1 an untraced and a traced
pass, both at 1 worker.  A pass makes the workload's timed calls and then
checks every output; each call and each check is one operation.  Wall time
is the sum over the calls of each call's median time (see Runner.wall).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def import_upea():
    """Import upea from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "upea" / "__init__.py").is_file():
        sys.exit(f"workload: no upea sources under {src}")
    sys.path.insert(0, str(src))
    import upea

    if Path(upea.__file__).resolve().parent != src / "upea":
        sys.exit(f"workload: imported upea from {upea.__file__}, not {src}")
    return upea


class SingleRun:
    """Single-run UPEA at T=256, its exact MAE, and the circuit checks."""

    T = 256
    sweeps = ("sweep",)

    def __init__(self, upea, seed: int) -> None:
        import numpy as np

        self.upea = upea
        self.config = upea.SweepConfig(
            "upea-bias-mae", T=self.T, grid_points=8, n_samples=1 << 13, base_seed=seed
        )
        self.params = upea.PeaParams.from_T(self.T)
        self.verify = dict(n_phi=8, n_theta=4, seed=seed)
        draws = np.random.default_rng(seed).random((3, 2))
        self.pmf_points = [(t, float(p), float(q)) for t, (p, q) in zip((2, 5, 8), draws)]
        self.mae_ref = checks.closed_form_mae_upea(self.T)
        self.setup_checks = {}

    def calls(self, workers: int) -> dict:
        u = self.upea
        return {
            "sweep": lambda: u.run_sweep(self.config, workers=workers),
            "exact_mae": lambda: u.exact_mae_upea(self.params),
            "verify": lambda: u.run_verify_circuit(**self.verify),
            "verify_corrupt": lambda: u.run_verify_circuit(corrupt_theta=True, **self.verify),
        }

    def output_checks(self, out: dict, csv: dict) -> dict:
        rows = lambda: checks.parse_csv(csv["sweep"])  # noqa: E731
        found = {
            "sweep.unbiased": lambda: checks.unbiased(rows()),
            "sweep.mae_closed_form": lambda: checks.mae_matches(rows(), self.mae_ref),
            "exact_mae.closed_form": lambda: checks.close_relative(
                out["exact_mae"], self.mae_ref, 1e-8
            ),
            "verify.passes": lambda: out["verify"]["passed"] is True,
            "verify_corrupt.fails": lambda: out["verify_corrupt"]["passed"] is False,
        }
        for t, phi, theta in self.pmf_points:
            found[f"pmf_fft.t{t}"] = lambda t=t, phi=phi, theta=theta: checks.pmf_matches(
                self.upea.pea_circuit_pmf(t, phi, theta).probs, t, phi, theta
            )
        return found


class MlePooled:
    """Pooled MLE error against R at T=16 over off-grid offsets (fig6 shape)."""

    T = 16
    sweeps = ("mae_vs_r",)

    def __init__(self, upea, seed: int) -> None:
        self.upea = upea
        self.config = upea.SweepConfig(
            "mae-vs-r", T=self.T, R=(1, 16), grid_points=2, n_samples=1 << 9, base_seed=seed
        )
        self.mae_ref = checks.closed_form_mae_upea(self.T)
        self.setup_checks = {}

    def calls(self, workers: int) -> dict:
        return {"mae_vs_r": lambda: self.upea.run_sweep(self.config, workers=workers)}

    def output_checks(self, out: dict, csv: dict) -> dict:
        rows = lambda: checks.parse_csv(csv["mae_vs_r"])  # noqa: E731
        return {
            "mae_vs_r.unbiased": lambda: checks.unbiased(rows()),
            "mae_vs_r.r1_closed_form": lambda: checks.mae_matches(rows()[:1], self.mae_ref),
            "mae_vs_r.mae_drops": lambda: checks.mae_drops(rows()[0], rows()[-1]),
        }


class CountingCorrected:
    """Calibrated, bias-corrected counting at T=16, R=3, and raw R=1 counting."""

    T = 16
    R = 3
    sweeps = ("corrected", "raw")

    def __init__(self, upea, seed: int) -> None:
        self.upea = upea
        # the seed run_sweep would derive if it calibrated by itself
        cal_seed = upea.derive_seed(seed, "calibrate", self.T, self.R)
        self.record = upea.calibrate_b(self.T, self.R, 1 << 15, cal_seed)
        grid = dict(T=self.T, grid_points=9, n_samples=1 << 12, base_seed=seed)
        self.corrected = upea.SweepConfig("uqca-corrected", R=self.R, **grid)
        self.raw = upea.SweepConfig("qca-bias-mae", R=1, **grid)
        self.setup_checks = {"calibration.b_window": lambda: checks.b_in_window(self.record.b)}

    def calls(self, workers: int) -> dict:
        u = self.upea
        return {
            "corrected": lambda: u.run_sweep(self.corrected, self.record, workers=workers),
            "raw": lambda: u.run_sweep(self.raw, workers=workers),
        }

    def output_checks(self, out: dict, csv: dict) -> dict:
        rec = self.record
        return {
            "corrected.unbiased": lambda: checks.corrected_unbiased(
                checks.parse_csv(csv["corrected"]), rec.b, rec.stderr_b
            ),
            "raw.bias_law": lambda: checks.follows_counting_bias_law(
                checks.parse_csv(csv["raw"]), self.T
            ),
        }


WORKLOADS = {
    "single-run": SingleRun,
    "mle-pooled": MlePooled,
    "counting-corrected": CountingCorrected,
}


class Runner:
    """Runs passes of one workload and tallies its operations."""

    def __init__(self, upea, workload, prefix: str) -> None:
        self.upea = upea
        self.workload = workload
        self.prefix = prefix
        self.attempted = 0
        self.failed = 0
        self.first_csv: dict[str, bytes] = {}

    def _tally(self, name: str, ok: bool, count: bool) -> None:
        if not ok:
            print(f"workload: {name} failed", file=sys.stderr)
        if count:
            self.attempted += 1
            self.failed += not ok

    def _check(self, found: dict, count: bool) -> None:
        for name, check in found.items():
            try:
                ok = bool(check())
            except Exception:
                traceback.print_exc()
                ok = False
            self._tally(name, ok, count)

    def setup_checks(self) -> None:
        self._check(self.workload.setup_checks, True)

    def run_pass(self, workers: int, times: dict | None) -> None:
        """Make the timed calls, then check their outputs.  Appends each
        call's wall time to times[label, workers]; times=None is the
        untimed warm-up, whose operations are not counted."""
        count = times is not None
        out = {}
        for label, call in self.workload.calls(workers).items():
            start = time.perf_counter()
            try:
                out[label] = call()
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            if count:
                times.setdefault((label, workers), []).append(time.perf_counter() - start)
            self._tally(label, ok, count)
        csv = {}
        found = {}
        for label in self.workload.sweeps:
            if label in out:
                path = RESULTS / f"{self.prefix}-{label}-w{workers}.csv"
                self.upea.write_csv(out[label], str(path))
                csv[label] = path.read_bytes()
                first = self.first_csv.setdefault(label, csv[label])
                found[f"{label}.csv_identical"] = lambda a=csv[label], b=first: checks.identical(a, b)
            else:
                found[f"{label}.csv_identical"] = lambda: False
        found.update(self.workload.output_checks(out, csv))
        self._check(found, count)

    def wall(self, times: dict, workers: int) -> float:
        """Summed median call times of a pass at `workers`.  A call other
        than a sweep does not depend on the worker count, so its median
        pools its timings from passes at either count."""
        total = 0.0
        for label in self.workload.calls(workers):
            samples = [
                t
                for (name, w), ts in times.items()
                if name == label and (w == workers or label not in self.workload.sweeps)
                for t in ts
            ]
            total += statistics.median(samples)
        return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    upea = import_upea()
    import numpy as np

    setup_tracer = spans.Tracer() if args.trace else None
    with setup_tracer.installed() if setup_tracer else nullcontext():
        workload = WORKLOADS[args.workload](upea, args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    RESULTS.mkdir(exist_ok=True)
    prefix = f"{args.workload}-seed{args.seed}"
    runner = Runner(upea, workload, prefix)
    runner.setup_checks()
    runner.run_pass(2, None)  # warm-up

    # untraced passes at 1 and 2 workers, or with --trace an untraced and a
    # traced pass at 1 worker, until the next pair would end past the deadline
    untraced: dict = {}
    traced: dict = {}
    layers: list[dict] = []
    pass_spans: list[list[dict]] = []
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    while not untraced or time.monotonic() + longest <= deadline:
        start = time.monotonic()
        runner.run_pass(1, untraced)
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                runner.run_pass(1, traced)
            layers.append(spans.module_metrics(tracer))
            pass_spans.append(tracer.records())
        else:
            runner.run_pass(2, untraced)
        longest = max(longest, time.monotonic() - start)

    result = {
        "ready_at": ready_at,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": runner.wall(untraced, 1),
        "calls": {f"{label}@{w}": ts for (label, w), ts in untraced.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    if not args.trace:
        result["wall_2w_s"] = runner.wall(untraced, 2)
    else:
        medians = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        setup = spans.module_metrics(setup_tracer)
        for key in ("counting.calibrate_s", "counting.calibrate_trials"):
            medians[key] = setup[key]
        medians["trace.overhead_s"] = runner.wall(traced, 1) - result["wall_s"]
        result["layers"] = medians
        span_file = RESULTS / f"spans-{prefix}.json"
        span_file.write_text(
            json.dumps({"setup": setup_tracer.records(), "passes": pass_spans}) + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
