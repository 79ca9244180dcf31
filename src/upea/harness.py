"""Experiment harness: named sweeps over phase or count grids with
reproducible seeding, deterministic parallel execution, and CSV/JSON output.

Every sweep runs through one function.  Its grid of G points is:

- pea-bias-mae, upea-bias-mae, mle-bias-mae: phases i/G;
- mae-vs-r: phase offsets (i + 1/2)/(G T), spanning one kernel period
  [0, 1/T), where both estimators' error laws live;
- qca-bias-mae, uqca-corrected: marked fractions m on linspace(0, 1, G).

A cell is one (R, grid point) pair, split into fixed-size chunks of trials.
A chunk owns an independent generator seeded by sha256(base_seed |
experiment | seed path | chunk index), where the seed path is (i,) for the
three single-R phase sweeps and (R, i) for mae-vs-r and the counting sweeps;
it draws the R runs of all its trials as one sampler block.
mae-vs-r and every R-range sweep pool the grid into one row per R (ground
truth R, n_samples G times the config's); the others write one row per grid
point.  Chunk results are reduced with exact compensated summation, so the
report is a pure function of the config: identical for one worker, many
workers, or repeated runs.

CSV rows have the fixed schema
ground_truth,bias,stderr_bias,mae,stderr_mae,n_samples.  Bias and MAE are
circular in the phase domain and plain differences in the count domain.
The JSON sidecar's calibration_records lists every calibration record applied.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .counting import (
    CalibrationRecord,
    CountingInstance,
    calibrate_b,
    correct_mle,
    sample_uqca_block,
)
from .mle import mle_batch
from .phase_math import BiasMaeEntry, PeaParams, ThetaMode, _circ_dist_array, _int_in, pea_kernel
from .sampler import _MAX_SEED, RNG_ALGORITHM, _chunks, derive_seed, make_rng, sample_upea_block
from .statevector import analytic_counting_pmf, grover_pea_pmf, pea_circuit_pmf

__all__ = [
    "EXPERIMENTS",
    "PRESETS",
    "SweepConfig",
    "SweepReport",
    "run_sweep",
    "run_verify_circuit",
    "write_csv",
    "write_metadata",
    "csv_text",
]

EXPERIMENTS = (
    "pea-bias-mae",
    "upea-bias-mae",
    "mle-bias-mae",
    "mae-vs-r",
    "qca-bias-mae",
    "uqca-corrected",
)

_AUTO_CAL_SAMPLES = 1 << 16
# largest max |circuit pmf - analytic law| that run_verify_circuit accepts
_VERIFY_TOLERANCE = 1e-10
# pairs per estimation-circuit call in run_verify_circuit: about 9 KB each at t = 6
_VERIFY_PAIRS = 1 << 10

CSV_HEADER = "ground_truth,bias,stderr_bias,mae,stderr_mae,n_samples"


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one experiment run.

    R is a single repetition count or an inclusive (lo, hi) range; ranges are
    accepted by mae-vs-r, qca-bias-mae, and uqca-corrected, which then emit
    one grid-pooled row per R.
    """

    experiment: str
    T: int = 16
    R: int | tuple[int, int] = 1
    grid_points: int = 64
    n_samples: int = 1 << 16
    theta_mode: ThetaMode = field(default_factory=ThetaMode.full)
    base_seed: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if isinstance(self.R, (tuple, list)) and len(self.R) != 2:
            raise ValueError(f"R must be an integer or an inclusive (lo, hi) range, got {self.R!r}")
        # an R range's low end is the params' R, and its high end is >= it
        lo = self.R[0] if isinstance(self.R, tuple) else self.R
        # from_T reads None as the full mode, which to_json cannot write
        if not isinstance(self.theta_mode, ThetaMode):
            raise ValueError(f"theta_mode must be a ThetaMode, got {self.theta_mode!r}")
        PeaParams.from_T(self.T, lo, self.theta_mode)
        _int_in("grid_points", self.grid_points, 2)
        _int_in("n_samples", self.n_samples, 1)
        _int_in("base_seed", self.base_seed, 0, _MAX_SEED)
        if isinstance(self.R, tuple):
            _int_in("R", self.R[1], lo)
            if self.experiment not in ("mae-vs-r", "qca-bias-mae", "uqca-corrected"):
                raise ValueError(f"{self.experiment} takes a single R, not a range")
        if self.experiment in ("pea-bias-mae", "upea-bias-mae") and self.R != 1:
            raise ValueError(f"{self.experiment} is single-run; R must be 1")
        if self.experiment == "pea-bias-mae" and self.theta_mode.kind != "fixed":
            raise ValueError("pea-bias-mae requires a fixed theta mode (no random shift)")
        if self.experiment == "uqca-corrected" and self.theta_mode.kind == "fixed":
            raise ValueError("uqca-corrected needs a random shift: its slope assumes one")

    def r_values(self) -> list[int]:
        if isinstance(self.R, tuple):
            return list(range(self.R[0], self.R[1] + 1))
        return [self.R]

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "theta_mode": str(self.theta_mode)}, indent=2)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    entries: tuple[BiasMaeEntry, ...]
    metadata: dict


PRESETS: dict[str, SweepConfig] = {
    # single-run bias across the phase grid; the mae column of the same run
    # is the constancy series, so the two presets share one config
    "fig3": SweepConfig("upea-bias-mae", T=16, R=1, grid_points=64, n_samples=1 << 16),
    "fig4": SweepConfig("upea-bias-mae", T=16, R=1, grid_points=64, n_samples=1 << 16),
    "fig5": SweepConfig("mle-bias-mae", T=16, R=16, grid_points=64, n_samples=1 << 16),
    "fig6": SweepConfig("mae-vs-r", T=16, R=(1, 16), grid_points=8, n_samples=1 << 13),
    "fig7": SweepConfig("uqca-corrected", T=16, R=3, grid_points=64, n_samples=1 << 16),
    "fig8": SweepConfig("uqca-corrected", T=16, R=(1, 4), grid_points=17, n_samples=1 << 14),
}


def _entry(parts, truth: float) -> BiasMaeEntry:
    """Reduce one row's chunk partials (sum d, sum d^2, sum |d|, n) to an
    entry at its ground truth.  The sums are exact compensated ones, so the
    order of the chunks cannot matter; sum |d|^2 is sum d^2 to the last bit."""
    sd, sd2, sa = (math.fsum(p[k] for p in parts) for k in range(3))
    n = sum(p[3] for p in parts)
    bias = sd / n
    mae = sa / n
    if n > 1:
        var_d = max(sd2 - n * bias * bias, 0.0) / (n - 1)
        var_a = max(sd2 - n * mae * mae, 0.0) / (n - 1)
        se_b = math.sqrt(var_d / n)
        se_m = math.sqrt(var_a / n)
    else:
        se_b = se_m = 0.0
    if abs(bias) > mae:
        bias = math.copysign(mae, bias)
    return BiasMaeEntry(truth, bias, mae, se_b, se_m, n)


def _phase_errors(params: PeaParams, phi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Circular errors of size single-run (R = 1) or pooled-MLE estimates,
    from one block of size * R runs: row i of its (size, R) view holds trial
    i's runs."""
    _, _, est = sample_upea_block(params, phi, rng, size * params.R)
    if params.R > 1:
        est = mle_batch(params, est.reshape(size, params.R))
    return _circ_dist_array(est, phi)


def _count_errors(
    params: PeaParams, b: float | None, m: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Plain errors of size counting estimates, raw (b is None) or corrected
    through the bias law b(1 - 2m)."""
    _, m_tilde = sample_uqca_block(params, m, rng, size)
    if b is not None:
        m_tilde = correct_mle(m_tilde, b)
    return m_tilde - m


def _slopes(
    config: SweepConfig, workers: int, calibration: CalibrationRecord | None
) -> tuple[dict[int, float | None], list[CalibrationRecord]]:
    """The bias-law slope b of each R (None: raw errors) and the calibration
    records behind them.  Only uqca-corrected sets a slope: the supplied
    record's (which must match (T, R)), else calibrate_b's for R > 1, else
    the exact single-run slope 1/(2T)."""
    records: list[CalibrationRecord] = []
    b_for: dict[int, float | None] = dict.fromkeys(config.r_values())
    if config.experiment == "uqca-corrected":
        for R in b_for:
            rec = calibration
            if rec is not None and (rec.T, rec.R) != (config.T, R):
                raise ValueError(
                    f"calibration record is for (T={rec.T}, R={rec.R}); "
                    f"sweep needs (T={config.T}, R={R})"
                )
            if rec is None and R > 1:
                seed = derive_seed(config.base_seed, "calibrate", config.T, R)
                rec = calibrate_b(config.T, R, _AUTO_CAL_SAMPLES, seed, workers)
            if rec is not None:
                records.append(rec)
            b_for[R] = 0.5 / config.T if rec is None else rec.b
            correct_mle(0.0, b_for[R])  # b = 1/2 raises here, before any chunk runs
    return b_for, records


def _sweep(config: SweepConfig, workers: int, b_for: dict[int, float | None]) -> list[BiasMaeEntry]:
    """Build, run and reduce every cell of a sweep (see the module docstring
    for its grid, seed path and rows).

    Each (cell, chunk) runs on one pool of workers threads and writes its
    partials into its own preallocated slot, (cell * n_chunks + chunk index)
    with the cells in (R, grid index) order, so a row is one contiguous run
    of slots and scheduling order cannot matter.
    """
    exp, G = config.experiment, config.grid_points
    counting = exp in ("qca-bias-mae", "uqca-corrected")
    if exp == "mae-vs-r":
        grid = (np.arange(G) + 0.5) / (G * config.T)
    elif counting:
        grid = np.linspace(0.0, 1.0, G)
    else:
        grid = np.arange(G) / G
    grid = [float(x) for x in grid]
    pooled = exp == "mae-vs-r" or isinstance(config.R, tuple)
    truths = [float(R) for R in b_for] if pooled else grid

    cells = []  # (seed path, draw(rng, size) -> errors)
    for R, b in b_for.items():
        params = PeaParams.from_T(config.T, R, config.theta_mode)
        errors = partial(_count_errors, params, b) if counting else partial(_phase_errors, params)
        for gi, x in enumerate(grid):
            cells.append(((R, gi) if counting or exp == "mae-vs-r" else (gi,), partial(errors, x)))
    chunks = _chunks(config.n_samples)
    parts: list = [None] * (len(cells) * len(chunks))

    def work(job: tuple[int, int, int]) -> None:
        cell, ci, size = job
        path, draw = cells[cell]
        d = draw(make_rng(derive_seed(config.base_seed, exp, *path, ci)), size)
        sums = (float(np.sum(d)), float(np.sum(d * d)), float(np.sum(np.abs(d))), int(d.size))
        parts[cell * len(chunks) + ci] = sums

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, [(cell, *chunk) for cell in range(len(cells)) for chunk in chunks]))
    w = len(parts) // len(truths)
    return [_entry(parts[k * w : (k + 1) * w], t) for k, t in enumerate(truths)]


def run_sweep(
    config: SweepConfig,
    calibration: CalibrationRecord | None = None,
    workers: int = 1,
) -> SweepReport:
    """Execute one experiment; the report depends only on the config (and the
    supplied calibration record), never on the worker count.  A calibration
    record is accepted only by a single-R uqca-corrected sweep."""
    _int_in("workers", workers, 1)
    if calibration is not None and (
        config.experiment != "uqca-corrected" or isinstance(config.R, tuple)
    ):
        raise ValueError("a calibration record applies to exactly one corrected (T, R) sweep")
    start = time.perf_counter()
    b_for, records = _slopes(config, workers, calibration)
    entries = _sweep(config, workers, b_for)
    metadata = {
        "rng_algorithm": RNG_ALGORITHM,
        "wall_time": time.perf_counter() - start,
        "calibration_records": [asdict(r) for r in records],
    }
    return SweepReport(config, tuple(entries), metadata)


def csv_text(entries) -> str:
    """Render entries in the fixed schema; repr floats, LF endings."""
    lines = [CSV_HEADER]
    for e in entries:
        lines.append(
            f"{e.ground_truth!r},{e.bias!r},{e.stderr_bias!r},"
            f"{e.mae!r},{e.stderr_mae!r},{e.n_samples}"
        )
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    """The one writer of every output file: UTF-8 text with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(report: SweepReport, path: str) -> None:
    _write_text(path, csv_text(report.entries))


def write_metadata(report: SweepReport, path: str) -> None:
    payload = {"config": json.loads(report.config.to_json()), **report.metadata}
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def run_verify_circuit(
    n_phi: int = 32,
    n_theta: int = 8,
    seed: int = 1,
    corrupt_theta: bool = False,
) -> dict:
    """Run the two oracle-equivalence suites and report max deviations,
    each of which must stay below 1e-10.

    The estimation circuit runs on all n_phi x n_theta pairs at each t in
    1..6, at most 2^10 pairs per call to bound memory; the counting circuit
    on every marked count M in one call at each t in 1..5 and n in 1..4.
    corrupt_theta runs the estimation circuit at -theta (the Rz ladder's
    sign flipped), a negative control that must make the check fail.  Both
    counts must be integers >= 1: a check over no cases would pass without
    checking.  The seed must be an integer in [0, 2^64).  A NaN deviation
    fails its check.
    """
    _int_in("n_phi", n_phi, 1)
    _int_in("n_theta", n_theta, 1)
    rng = make_rng(derive_seed(_int_in("seed", seed, 0, _MAX_SEED), "verify-circuit"))

    def check(name: str, worst: float) -> dict:
        tol = _VERIFY_TOLERANCE
        return {"name": name, "max_deviation": worst, "tolerance": tol, "passed": worst < tol}

    # max over np.max, not the builtin: a NaN deviation must propagate
    worst = []
    for t in range(1, 7):
        T = 1 << t
        phis, thetas = rng.random(n_phi), rng.random(n_theta)
        for lo in range(0, n_phi * n_theta, _VERIFY_PAIRS):
            i, j = divmod(np.arange(lo, min(lo + _VERIFY_PAIRS, n_phi * n_theta)), n_theta)
            phi, theta = phis[i], thetas[j]
            pmf = pea_circuit_pmf(t, phi, -theta if corrupt_theta else theta).probs
            ref = pea_kernel(T, np.arange(T) / T - (phi + theta)[:, None])
            worst.append(np.max(np.abs(pmf - ref)))
    checks = [check("pea-circuit-vs-analytic", float(np.max(worst)))]

    batches = {n: [CountingInstance(n=n, M=M) for M in range((1 << n) + 1)] for n in range(1, 5)}
    worst = []
    for t in range(1, 6):
        for n, batch in batches.items():
            N = 1 << n
            theta = float(rng.random())
            pmf = grover_pea_pmf(t, batch, theta).probs
            ref = analytic_counting_pmf(t, np.arange(N + 1) / N, theta)
            worst.append(np.max(np.abs(pmf - ref)))
    checks.append(check("counting-circuit-vs-mixture", float(np.max(worst))))

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}
