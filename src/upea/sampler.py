"""Seed-reproducible Monte Carlo sampling of phase-register outcomes.

`sample_upea_block` is the one sampler: it draws a theta vector, then a
uniform vector, for a block of n trials and inverts each trial's exact
outcome CDF, whose row `phase_math._kernel_rows` fills from rotated sine
tables with no trigonometry per outcome.  The per-trial entry points
(`sample_pea`, `sample_upea`, `run_batch`) draw blocks of one trial, so a
stream of per-trial calls draws theta and the uniform alternately, while
one block of n draws all n thetas first; the two give different (equally
valid) samples from the same seed, and each is deterministic.  Seeds are
64-bit integers fed to numpy's PCG64 generator; the algorithm name is
exported as RNG_ALGORITHM for run metadata."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .phase_math import (
    BiasMaeEntry,
    PeaParams,
    Phase,
    ThetaMode,
    _circ_dist_array,
    _kernel_rows,
    _wrap_array,
    wrap_phase,
)

__all__ = [
    "RNG_ALGORITHM",
    "RngSeed",
    "PhaseSample",
    "SampleBatch",
    "make_rng",
    "derive_seed",
    "sample_pea",
    "sample_upea",
    "sample_upea_block",
    "run_batch",
    "empirical_bias_mae",
]

RNG_ALGORITHM = "numpy-pcg64"

# 64-bit unsigned seed
RngSeed = int

# pmf/cdf cells per row slice of sample_upea_block: 64 KiB per float64
# array, small enough for malloc to reuse heap memory across slices (MiB-sized
# temporaries are handed back to the OS and page-faulted in again each slice)
_SLICE_CELLS = 1 << 13

# trials per chunk of a sweep cell or a calibration; each chunk draws from
# its own generator, so this partition fixes every output for any worker count
_CHUNK = 4096


@dataclass(frozen=True)
class PhaseSample:
    """One randomized run: the raw outcome s, the shift theta that was
    injected, and the estimate phi_tilde = wrap(s/T - theta)."""

    s: int
    theta: float
    phi_tilde: Phase


@dataclass(frozen=True)
class SampleBatch:
    """R repeated runs at one true phase."""

    params: PeaParams
    samples: tuple[PhaseSample, ...]

    def __post_init__(self) -> None:
        if len(self.samples) != self.params.R:
            raise ValueError("batch length must equal params.R")

    @property
    def estimates(self) -> np.ndarray:
        return np.array([x.phi_tilde for x in self.samples])


def make_rng(seed: RngSeed) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def derive_seed(base_seed: RngSeed, *path) -> RngSeed:
    """Strong child seed from a base seed and a path of labels/indices.

    sha256 over the rendered path; collision-free for practical purposes and
    stable across platforms and processes.
    """
    text = "|".join([str(int(base_seed))] + [str(p) for p in path])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _chunks(n: int) -> list[tuple[int, int]]:
    """(chunk_index, size) partition of n trials into _CHUNK-sized chunks."""
    return [(i, min(_CHUNK, n - start)) for i, start in enumerate(range(0, n, _CHUNK))]


def _draw_theta(mode: ThetaMode, T: int, rng: np.random.Generator, n: int) -> np.ndarray:
    if mode.kind == "full":
        return rng.random(n)
    if mode.kind == "period":
        return rng.random(n) * (1.0 / T)
    return np.full(n, mode.value)


def sample_pea(params: PeaParams, phi: float, rng: np.random.Generator) -> int:
    """Draw one outcome s from the exact outcome table by inverse CDF."""
    unshifted = PeaParams(params.t, params.R, ThetaMode.fixed(0.0))
    s, _, _ = sample_upea_block(unshifted, phi, rng, 1)
    return int(s[0])


def sample_upea(params: PeaParams, phi: float, rng: np.random.Generator) -> PhaseSample:
    """Draw theta per params.theta_mode, run the estimator at phi + theta,
    and return (s, theta, wrap(s/T - theta))."""
    s, theta, phi_tilde = sample_upea_block(params, phi, rng, 1)
    return PhaseSample(int(s[0]), float(theta[0]), float(phi_tilde[0]))


def sample_upea_block(
    params: PeaParams, phi, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized block of n independent runs; returns (s, theta, phi_tilde)
    arrays.  Draws the whole theta vector, then the whole uniform vector.
    phi may be a scalar or a length-n vector of per-trial true phases; a
    non-finite phi + theta raises ValueError.
    Outcome CDFs are built and inverted a slice of rows at a time, about
    _SLICE_CELLS cells per slice, so memory stays bounded for large T."""
    T = params.T
    theta = _draw_theta(params.theta_mode, T, rng, n)
    shifted = np.asarray(phi, dtype=float) + theta
    if not np.isfinite(shifted).all():
        raise ValueError("phi + theta must be finite")
    u = rng.random(n)
    s = np.empty(n, dtype=int)
    rows = max(1, _SLICE_CELLS // T)
    # every slice reuses these buffers (see _SLICE_CELLS)
    pmf, cdf = np.empty((2, max(1, min(rows, n)), T))
    below = np.empty(pmf.shape, dtype=bool)
    for i, kernel in _kernel_rows(T, shifted, pmf):
        m = len(kernel)
        np.cumsum(kernel, axis=1, out=cdf[:m])
        # count of cdf entries <= u: the inverse CDF with searchsorted side="right"
        s[i : i + m] = np.less_equal(cdf[:m], u[i : i + m, None], out=below[:m]).sum(axis=1)
    np.minimum(s, T - 1, out=s)
    return s, theta, _wrap_array(s / T - theta)


def run_batch(params: PeaParams, phi: float, rng: np.random.Generator) -> SampleBatch:
    """R independent runs at one true phase (theta mode taken from params)."""
    return SampleBatch(params, tuple(sample_upea(params, phi, rng) for _ in range(params.R)))


def empirical_bias_mae(
    estimates, ground_truth: float, circular: bool = True
) -> BiasMaeEntry:
    """Sample bias and MAE of a list of estimates against the truth.

    circular=True measures signed circular distance (phase-valued
    estimands); circular=False measures plain differences (estimands on a
    line segment, e.g. normalized counts).  Standard errors are sample
    standard deviations over sqrt(n); zero-variance samples report 0.
    """
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("estimates must be nonempty")
    if circular:
        d = _circ_dist_array(est, wrap_phase(ground_truth))
    else:
        d = est - float(ground_truth)
    n = est.size
    bias = float(d.mean())
    mae = float(np.abs(d).mean())
    if n > 1:
        se_b = float(d.std(ddof=1) / np.sqrt(n))
        se_m = float(np.abs(d).std(ddof=1) / np.sqrt(n))
    else:
        se_b = se_m = 0.0
    if abs(bias) > mae:  # rounding guard; mathematically |mean| <= mean(|.|)
        bias = float(np.copysign(mae, bias))
    return BiasMaeEntry(float(ground_truth), bias, mae, se_b, se_m, n)
