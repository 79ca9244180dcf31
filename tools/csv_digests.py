"""Print one sha256 line per upea output, for byte-identity checks.

Run it on two checkouts and diff the output:

    python3 tools/csv_digests.py > before.txt        # in the old checkout
    python3 tools/csv_digests.py > after.txt         # in the new checkout
    diff before.txt after.txt

Arguments are base seeds (default: 1 2 3 11 12).  For each seed it digests
the CSV and config JSON of every sweep experiment at reduced preset sizes
(and the calibration records of the multi-R corrected sweep, where R = 1
takes the exact single-run slope and R > 1 a calibrated one), plus the
layouts those presets miss: single-R qca-bias-mae at R = 3 (one row per m
through the mixture MLE), mae-vs-r at a single R, and a single-run and a
pooled sweep at 5000 samples, whose cells split into uneven chunks of
4096 + 904 trials,
the CSVs of the benchmark's three workload configs (written out here, not
imported), a calibrate_b record, the run_verify_circuit reports with and
without corrupt_theta, sample_upea_block draws (the generator's next draw
included) at each T in {1, 2, 16, 256, 1024} and theta mode, at
T = 2^14 (64 trials, full mode, one row per CDF slice) and T = 2^16
(8 trials, a 512 KiB row), at T in {16, 256} on phases spread over
[-1.3, 2.7) (full and fixed:0.3 modes) and on phases within tiny offsets
of outcome lattice points k/T (fixed:0.0 mode), the outputs
of mle_batch and mle_counting_batch on 2000 sampled rows at each T in
{2, 4, 16, 64, 256} and R in {2, 3, 5, 16}, the MleResult fields of
mle_estimate and mle_estimate_counting on the first 50 of those rows, and
both batch maximizers on 2000 rows of shifted runs at phase 0 (count
fraction m = 0) for each (T, R) in {(2, 3), (4, 2)}, where the likelihood
peaks are flattest and many counting maxima sit on an interval end.

It imports upea from the src/ directory next to this file and nothing else
outside the standard library but NumPy, which upea itself needs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import upea  # noqa: E402
from upea.harness import csv_text  # noqa: E402
from upea.mle import (  # noqa: E402
    mle_batch,
    mle_counting_batch,
    mle_estimate,
    mle_estimate_counting,
)
from upea.sampler import sample_upea_block  # noqa: E402

SEEDS = (1, 2, 3, 11, 12)
MLE_T = (2, 4, 16, 64, 256)
MLE_R = (2, 3, 5, 16)
MLE_ROWS = 2000
MLE_SLICE = 250  # rows per maximizer call, to bound the n x G scan matrices
MLE_SINGLE_ROWS = 50  # rows also run one at a time through the single-trial entry points
# flat-peak (T, R) shapes whose rows are drawn at phase 0
MLE_FLAT = ((2, 3), (4, 2))
SAMPLER_T = (1, 2, 16, 256, 1024)
SAMPLER_N = 4096
# a T above the sampler's slice size, so each slice holds one row
SAMPLER_LARGE_T = 1 << 14
SAMPLER_LARGE_N = 64
# the largest T a sweep accepts, where one CDF row is 512 KiB
SAMPLER_HUGE_T = 1 << 16
SAMPLER_HUGE_N = 8
# T of the vector-phase draws: phases outside [0, 1) and near the lattice
SAMPLER_VECTOR_T = (16, 256)
# offsets from a lattice point k/T: exact, dyadic, decimal, subnormal and
# below-ulp ones (k/T + offset rounds back to k/T for most k)
LATTICE_OFFSETS = (0.0, 2.0**-40, -(2.0**-40), 1e-12, -1e-12, 1e-300, 5e-324, -1e-20)


def _reduced_sweeps(seed: int) -> dict:
    """Every sweep experiment, at preset shapes with fewer samples."""
    cfg = lambda exp, **kw: upea.SweepConfig(exp, base_seed=seed, **kw)  # noqa: E731
    fixed = upea.ThetaMode.fixed(0.0)
    return {
        "pea-bias-mae": cfg("pea-bias-mae", T=16, grid_points=16, n_samples=1 << 12, theta_mode=fixed),
        "upea-bias-mae": cfg("upea-bias-mae", T=16, grid_points=64, n_samples=1 << 12),
        "upea-bias-mae.period": cfg(
            "upea-bias-mae", T=16, grid_points=16, n_samples=1 << 12, theta_mode=upea.ThetaMode.period()
        ),
        # two uneven chunks (4096 + 904) per cell of a single-run sweep
        "upea-bias-mae.chunks": cfg("upea-bias-mae", T=16, grid_points=4, n_samples=5000),
        "mle-bias-mae": cfg("mle-bias-mae", T=16, R=16, grid_points=8, n_samples=1 << 11),
        "mae-vs-r": cfg("mae-vs-r", T=16, R=(1, 8), grid_points=8, n_samples=1 << 9),
        "mae-vs-r.r4": cfg("mae-vs-r", T=16, R=4, grid_points=4, n_samples=1 << 10),
        # pooled rows with two uneven chunks per cell
        "mae-vs-r.chunks": cfg("mae-vs-r", T=16, R=(1, 3), grid_points=3, n_samples=5000),
        "qca-bias-mae": cfg("qca-bias-mae", T=16, R=(1, 4), grid_points=9, n_samples=1 << 11),
        "qca-bias-mae.r3": cfg("qca-bias-mae", T=16, R=3, grid_points=9, n_samples=1 << 11),
        "uqca-corrected": cfg("uqca-corrected", T=16, R=3, grid_points=9, n_samples=1 << 11),
        "uqca-corrected.r1": cfg("uqca-corrected", T=16, R=1, grid_points=9, n_samples=1 << 11),
        "uqca-corrected.range": cfg("uqca-corrected", T=16, R=(1, 3), grid_points=9, n_samples=1 << 11),
    }


def _benchmark_csvs(seed: int) -> dict:
    """The sweeps of the benchmark's single-run, mle-pooled and
    counting-corrected workloads, with the calibration made in their set-up."""
    record = upea.calibrate_b(16, 3, 1 << 15, upea.derive_seed(seed, "calibrate", 16, 3))
    grid = dict(T=16, grid_points=9, n_samples=1 << 12, base_seed=seed)
    runs = {
        "bench.single-run": (
            upea.SweepConfig("upea-bias-mae", T=256, grid_points=8, n_samples=1 << 13, base_seed=seed),
            None,
        ),
        "bench.mle-pooled": (
            upea.SweepConfig("mae-vs-r", T=16, R=(1, 16), grid_points=2, n_samples=1 << 9, base_seed=seed),
            None,
        ),
        "bench.counting-corrected": (upea.SweepConfig("uqca-corrected", R=3, **grid), record),
        "bench.counting-raw": (upea.SweepConfig("qca-bias-mae", R=1, **grid), None),
    }
    out = {name: csv_text(upea.run_sweep(cfg, rec).entries) for name, (cfg, rec) in runs.items()}
    out["calibrate_b"] = record.to_json()
    return out


def _sampler_outputs(seed: int):
    """(name, bytes) of one sample_upea_block call per T, theta mode and
    phase layout, followed by the generator's next draw."""
    full, fixed0 = upea.ThetaMode.full(), upea.ThetaMode.fixed(0.0)
    modes = (full, upea.ThetaMode.period(), upea.ThetaMode.fixed(0.3))
    # (T, mode, phase layout label, phases, trials)
    shapes = [(T, mode, "", 0.2, SAMPLER_N) for T in SAMPLER_T for mode in modes]
    shapes.append((SAMPLER_LARGE_T, full, "", 0.2, SAMPLER_LARGE_N))
    shapes.append((SAMPLER_HUGE_T, full, "", 0.2, SAMPLER_HUGE_N))
    for T in SAMPLER_VECTOR_T:
        outside = np.linspace(-1.3, 2.7, SAMPLER_N)
        shapes += [(T, mode, ".outside", outside, SAMPLER_N) for mode in (full, modes[2])]
        offsets = np.resize(LATTICE_OFFSETS, SAMPLER_N)
        near = (np.arange(SAMPLER_N) % T) / T + offsets
        shapes.append((T, fixed0, ".near-lattice", near, SAMPLER_N))
    for T, mode, layout, phi, n in shapes:
        path = ("csv-digests", "sampler", T, str(mode)) + ((layout,) if layout else ())
        rng = upea.make_rng(upea.derive_seed(seed, *path))
        draws = sample_upea_block(upea.PeaParams.from_T(T, 1, mode), phi, rng, n)
        data = b"".join(a.tobytes() for a in draws) + np.float64(rng.random()).tobytes()
        yield f"sample_upea_block.T{T}.{mode}{layout}", data


def _mle_outputs(seed: int):
    """(name, bytes) of both maximizers on sampled rows: half the rows are R
    shifted runs at one random phase, half are R uniform estimates.  The
    batch entry points take every row, the single-trial ones the first
    MLE_SINGLE_ROWS rows (all four MleResult fields)."""
    rng = upea.make_rng(upea.derive_seed(seed, "csv-digests", "mle"))
    for T in MLE_T:
        for R in MLE_R:
            params = upea.PeaParams.from_T(T, R)
            half = MLE_ROWS // 2
            phi = rng.random(half)
            near = np.empty((half, R))
            for j in range(R):
                _, _, near[:, j] = sample_upea_block(params, phi, rng, half)
            rows = np.concatenate([near, rng.random((MLE_ROWS - half, R))])
            for name, fn in (("mle_batch", mle_batch), ("mle_counting_batch", mle_counting_batch)):
                parts = [fn(params, rows[i : i + MLE_SLICE]) for i in range(0, MLE_ROWS, MLE_SLICE)]
                yield f"{name}.T{T}.R{R}", b"".join(p.tobytes() for p in parts)
            for name, fn in (("mle_estimate", mle_estimate), ("mle_estimate_counting", mle_estimate_counting)):
                results = [fn(params, row) for row in rows[:MLE_SINGLE_ROWS]]
                fields = [(r.phi_hat, r.log_likelihood, r.grid_points, r.refine_iterations) for r in results]
                yield f"{name}.T{T}.R{R}", np.array(fields, dtype=float).tobytes()


def flat_rows(seed: int, T: int, R: int) -> np.ndarray:
    """MLE_ROWS rows of R shifted runs at phase 0 (count fraction m = 0)."""
    params = upea.PeaParams.from_T(T, R)
    rng = upea.make_rng(upea.derive_seed(seed, "csv-digests", "mle-flat", T, R))
    rows = np.empty((MLE_ROWS, R))
    for j in range(R):
        _, _, rows[:, j] = sample_upea_block(params, 0.0, rng, MLE_ROWS)
    return rows


def _mle_flat_outputs(seed: int):
    """(name, bytes) of both batch maximizers on flat_rows at each MLE_FLAT
    shape."""
    for T, R in MLE_FLAT:
        params = upea.PeaParams.from_T(T, R)
        rows = flat_rows(seed, T, R)
        for name, fn in (("mle_batch", mle_batch), ("mle_counting_batch", mle_counting_batch)):
            parts = [fn(params, rows[i : i + MLE_SLICE]) for i in range(0, MLE_ROWS, MLE_SLICE)]
            yield f"{name}.flat.T{T}.R{R}", b"".join(p.tobytes() for p in parts)


def digests(seed: int):
    """(name, sha256 hex) for every output at one base seed."""
    sweeps = _reduced_sweeps(seed)
    reports = {name: upea.run_sweep(cfg) for name, cfg in sweeps.items()}
    texts = {name: csv_text(report.entries) for name, report in reports.items()}
    texts.update({f"{name}.config": cfg.to_json() for name, cfg in sweeps.items()})
    records = reports["uqca-corrected.range"].metadata["calibration_records"]
    texts["uqca-corrected.range.records"] = json.dumps(records, sort_keys=True)
    texts.update(_benchmark_csvs(seed))
    verify = dict(n_phi=8, n_theta=4, seed=seed)
    texts["verify"] = json.dumps(upea.run_verify_circuit(**verify), sort_keys=True)
    texts["verify.corrupt"] = json.dumps(
        upea.run_verify_circuit(corrupt_theta=True, **verify), sort_keys=True
    )
    for name, text in texts.items():
        yield name, hashlib.sha256(text.encode("utf-8")).hexdigest()
    for outputs in (_sampler_outputs, _mle_outputs, _mle_flat_outputs):
        for name, data in outputs(seed):
            yield name, hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(SEEDS)
    for seed in seeds:
        for name, digest in digests(seed):
            print(f"{seed} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
