"""Counting via phase estimation: phase/count maps, sampling, calibration,
and the bias correction.

A marked fraction m = M/N maps to the rotation phase phi = arcsin(sqrt(m))/pi
in [0, 1/2]; the search operator has eigenphases +-phi, and the uniform start
state weights them equally, so each trial estimates the phase of a coin-flip
sign.  The estimate m_tilde has one affine bias law b(1 - 2m) with two
sources of the slope b: a single randomized run has exactly b = 1/(2T), and
the maximum-likelihood combination of R runs has b measured by simulation at
m = 0.  The law inverts exactly as

    m' = (m_tilde - b) / (1 - 2b),

except at b = 1/2 (T = 1 for a single run).  Corrected values are reported
raw (never clamped to [0, 1]: clamping would reintroduce bias).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .phase_math import PeaParams, Phase, ThetaMode, _finite, _finite_array, _integer
from .mle import mle_counting_batch
from .sampler import (
    _CHUNK, RNG_ALGORITHM, RngSeed, _chunks, _trials, derive_seed, make_rng, sample_upea_block
)

__all__ = [
    "CountingInstance",
    "CalibrationRecord",
    "phi_from_m",
    "m_from_phi",
    "sample_uqca_block",
    "exact_bias_uqca_single",
    "correct_single",
    "calibrate_b",
    "correct_mle",
]


@dataclass(frozen=True)
class CountingInstance:
    """A counting problem: n work qubits, N = 2^n items, and either an
    explicit marked set or just the marked count M (both route to one phi).
    n and M must be integers."""

    n: int
    marked: frozenset[int] | None = None
    M: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        N = self.N
        if self.marked is not None:
            marked = frozenset(_integer("marked item", x) for x in self.marked)
            object.__setattr__(self, "marked", marked)
            if any(not (0 <= x < N) for x in marked):
                raise ValueError("marked items must lie in [0, N)")
            if self.M is None:
                object.__setattr__(self, "M", len(marked))
            elif self.M != len(marked):
                raise ValueError("M disagrees with |marked|")
        elif self.M is None:
            raise ValueError("provide a marked set or a marked count")
        object.__setattr__(self, "M", _integer("M", self.M))
        if not (0 <= self.M <= N):
            raise ValueError("M must lie in [0, N]")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def m(self) -> float:
        return self.M / self.N

    @property
    def phi(self) -> Phase:
        return phi_from_m(self.m)


@dataclass(frozen=True)
class CalibrationRecord:
    """Monte Carlo measurement of b = mean(m_tilde) at m = 0 for one (T, R)."""

    T: int
    R: int
    b: float
    stderr_b: float
    n_samples: int
    seed: RngSeed
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self) -> None:
        for name in ("T", "R", "n_samples", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("b", "stderr_b"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        PeaParams.from_T(self.T)
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not (self.stderr_b > 0.0):
            raise ValueError("stderr_b must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationRecord":
        raw = json.loads(text)
        return cls(
            T=raw["T"],
            R=raw["R"],
            b=raw["b"],
            stderr_b=raw["stderr_b"],
            n_samples=raw["n_samples"],
            seed=raw["seed"],
            rng_algorithm=str(raw["rng_algorithm"]),
        )


def phi_from_m(m: float) -> Phase:
    """Phase in [0, 1/2] whose squared sine of a half-turn equals m; m must
    be a number in [0, 1]."""
    m = _finite("m", m)
    if not (0.0 <= m <= 1.0):
        raise ValueError("m must lie in [0, 1]")
    return math.asin(math.sqrt(m)) / math.pi


def m_from_phi(phi: float) -> float:
    """sin^2(pi phi); inverse of phi_from_m on [0, 1/2].  phi must be
    finite."""
    return math.sin(math.pi * _finite("phi", phi)) ** 2


def sample_uqca_block(
    params: PeaParams, m: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized block of n counting trials; returns (phi_hat, m_tilde)
    arrays.  Stream order: the sign vector, then one sampler block of n * R
    runs (see the sampler module), whose (n, R) view holds trial i's runs in
    row i, all at its signed phase.  An n that is not an integer >= 0
    raises ValueError."""
    n = _trials(n)
    R = params.R
    phi = phi_from_m(m)
    signed = np.where(rng.random(n) < 0.5, phi, -phi)
    _, _, est = sample_upea_block(params, np.repeat(signed, R), rng, n * R)
    phi_hat = mle_counting_batch(params, est.reshape(n, R))
    m_tilde = np.sin(np.pi * phi_hat) ** 2
    return phi_hat, m_tilde


def exact_bias_uqca_single(m: float, T: int) -> float:
    """Exact single-run bias of m_tilde: (1-2m)/(2T), valid for every m and
    every power-of-two T; m must be a number in [0, 1]."""
    m = _finite("m", m)
    if not (0.0 <= m <= 1.0):
        raise ValueError("m must lie in [0, 1]")
    return (1.0 - 2.0 * m) / (2.0 * PeaParams.from_T(T).T)


def correct_single(m_tilde, T: int):
    """Invert the exact single-run bias law, slope b = 1/(2T); output
    deliberately unclamped.  m_tilde must be finite and numeric and T a
    power of two; T = 1 gives b = 1/2, which raises."""
    return correct_mle(m_tilde, 0.5 / PeaParams.from_T(T).T)


def correct_mle(m_tilde, b: float):
    """Invert the MLE bias law m -> m(1-2b) + b; m_tilde and b must be
    finite and numeric, and b = 1/2 is degenerate."""
    b = _finite("b", b)
    if b == 0.5:
        raise ValueError("b = 1/2 makes the bias law non-invertible")
    return (_finite_array("m_tilde", m_tilde) - b) / (1.0 - 2.0 * b)


def calibrate_b(
    T: int, R: int, n_samples: int, seed: RngSeed, workers: int = 1
) -> CalibrationRecord:
    """Measure b = B(0): mean folded count fraction over n_samples trials at
    m = 0.  Trials run in fixed-size chunks with child seeds derived from the
    given seed under the 'calibrate' tag, so results are reproducible and
    disjoint from any evaluation stream built on the same base seed.  Chunks
    run on a pool of workers threads and fill their own slots of one array,
    so the record is the same for any worker count."""
    if _integer("n_samples", n_samples) < 2:
        raise ValueError("n_samples must be >= 2")
    if _integer("workers", workers) < 1:
        raise ValueError("workers must be >= 1")
    seed = _integer("seed", seed)
    params = PeaParams.from_T(T, R, ThetaMode.full())
    vals = np.empty(n_samples)

    def work(chunk: tuple[int, int]) -> None:
        chunk_index, size = chunk
        rng = make_rng(derive_seed(seed, "calibrate", T, R, chunk_index))
        start = chunk_index * _CHUNK
        _, vals[start : start + size] = sample_uqca_block(params, 0.0, rng, size)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, _chunks(n_samples)))
    b = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return CalibrationRecord(T, R, b, stderr, n_samples, seed)
