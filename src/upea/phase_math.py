"""Exact distributions and error functionals for QFT-based phase estimation.

A t-qubit phase register measures an outcome s in {0, ..., T-1}, T = 2^t,
distributed as

    P(s | phi) = ( sin(T pi d) / (T sin(pi d)) )^2,     d = s/T - phi,

with the removable singularity at integer d evaluating to 1.  The randomized
(unbiased) variant shifts the phase by a classical offset theta before the
run and subtracts it afterwards, turning the discrete outcome into the
continuous estimate phi_tilde = s/T - theta with density

    rho(d) = sin^2(T pi d) / (T sin^2(pi d)),           d = phi_tilde - phi,

whose limit at integer d is T.  This module evaluates both laws exactly,
provides circular-distance arithmetic, and computes closed-form bias and
mean-absolute-error functionals of the two estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Phase",
    "ThetaMode",
    "PeaParams",
    "DistTable",
    "BiasMaeEntry",
    "wrap_phase",
    "circ_dist",
    "pea_kernel",
    "pea_pmf_at",
    "pea_pmf",
    "upea_pdf",
    "exact_bias_mae_pea",
    "exact_mae_upea",
]

# A phase is a plain float, canonically stored in [0, 1) (fraction of a turn).
Phase = float

# smallest normal float64; kernel arguments reduced below this would push
# pi*e into the subnormal range where sin loses relative precision
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ThetaMode:
    """How the random shift theta is drawn: the full unit interval, one
    register period [0, 1/T), or a fixed deterministic value."""

    kind: str  # "full" | "period" | "fixed"
    value: float = 0.0  # used only by kind="fixed"

    def __post_init__(self) -> None:
        if self.kind not in ("full", "period", "fixed"):
            raise ValueError(f"unknown theta mode kind: {self.kind!r}")
        if self.kind == "fixed" and not (0.0 <= self.value < 1.0):
            raise ValueError("fixed theta must lie in [0, 1)")

    @classmethod
    def full(cls) -> "ThetaMode":
        return cls("full")

    @classmethod
    def period(cls) -> "ThetaMode":
        return cls("period")

    @classmethod
    def fixed(cls, value: float) -> "ThetaMode":
        return cls("fixed", float(value))

    def __str__(self) -> str:
        return f"fixed:{self.value!r}" if self.kind == "fixed" else self.kind

    @classmethod
    def parse(cls, text: str) -> "ThetaMode":
        """Parse 'full' | 'period' | 'fixed:<x>'."""
        if text == "full":
            return cls.full()
        if text == "period":
            return cls.period()
        if text.startswith("fixed:"):
            return cls.fixed(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse theta mode {text!r}")


@dataclass(frozen=True)
class PeaParams:
    """Register size and repetition count for one estimation experiment.

    t is the number of register qubits, T = 2^t the number of outcomes,
    R the number of repetitions combined by the likelihood estimator.
    t = 0 (single-outcome register) is allowed as the degenerate case.
    """

    t: int
    R: int = 1
    theta_mode: ThetaMode = field(default_factory=ThetaMode.full)

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.R < 1:
            raise ValueError("R must be >= 1")

    @property
    def T(self) -> int:
        return 1 << self.t

    @classmethod
    def from_T(cls, T: int, R: int = 1, theta_mode: ThetaMode | None = None) -> "PeaParams":
        """Build from the outcome count T, which must be a power of two."""
        if T < 1 or (T & (T - 1)) != 0:
            raise ValueError("T must be a positive power of two")
        return cls(T.bit_length() - 1, R, theta_mode or ThetaMode.full())


@dataclass(frozen=True)
class DistTable:
    """Exact outcome pmf over s = 0..T-1 at a fixed true phase."""

    params: PeaParams
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (self.params.T,):
            raise ValueError("probs must have length T")
        if not np.all((p >= -1e-15) & (p <= 1 + 1e-12)):
            raise ValueError("probabilities out of [0, 1] or not finite")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")


@dataclass(frozen=True)
class BiasMaeEntry:
    """One (ground truth, bias, MAE) record; stderr fields are None for
    exact computations and sample standard errors for Monte Carlo ones."""

    ground_truth: float
    bias: float
    mae: float
    stderr_bias: float | None = None
    stderr_mae: float | None = None
    n_samples: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bias) and math.isfinite(self.mae)):
            raise ValueError("bias and mae must be finite")
        if not (self.mae >= 0.0):
            raise ValueError("mae must be nonnegative")
        if abs(self.bias) > self.mae + 1e-12:
            raise ValueError("|bias| cannot exceed mae")


def _finite(name: str, x) -> float:
    """x as a float, or a ValueError naming the input when it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def wrap_phase(x: float) -> Phase:
    """Reduce a real phase to its canonical representative in [0, 1)."""
    return float(_wrap_array(_finite("phase", x)))


def circ_dist(a: float, b: float) -> float:
    """Signed circular distance d(a, b) in (-1/2, +1/2]; the antipodal tie
    resolves to +1/2.  d is the unique representative of a - b (mod 1)."""
    return float(_circ_dist_array(_finite("phase", float(a) - float(b)), 0.0))


def _wrap_array(x) -> np.ndarray:
    """Representatives in [0, 1) of x (a new array; 0-d for a scalar).
    Zero of either sign maps to +0.0."""
    r = x - np.floor(x)
    # floor rounding can land exactly on 1.0 for tiny negative inputs
    return np.where(r >= 1.0, 0.0, r)


def _circ_dist_array(a, b) -> np.ndarray:
    """Signed circular distances a - b in (-1/2, +1/2]; the antipodal tie
    resolves to +1/2."""
    d = _wrap_array(np.asarray(a, dtype=float) - b)
    return np.where(d > 0.5, d - 1.0, d)


def _reduce(T: int, delta) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's argument reduction: e = delta - round(delta) and
    f = T*e - round(T*e).  Because T is a power of two both are exact in
    binary floating point, so f is exactly 0 at the kernel zeros k/T (k not
    divisible by T).  Both are fresh arrays (0-d for a scalar delta) that the
    caller may overwrite; delta itself is never written."""
    delta = np.asarray(delta, dtype=float)
    e = np.asarray(np.round(delta))
    np.subtract(delta, e, out=e)
    u = np.asarray(T * e)
    return e, np.subtract(u, np.round(u), out=u)


def _kernel_parts(T: int, delta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator sin(pi f), denominator T sin(pi e) and lattice mask of the
    outcome kernel at delta, on the reduction (e, f) of _reduce; the
    numerator is exactly 0 at the kernel zeros.

    The lattice mask marks |e| below _TINY, where the products pi*e and pi*f
    round in the subnormal range and their ratio loses relative precision
    (it can exceed 1); the kernel's true value there is 1.0 to the last bit,
    so callers substitute the limit.  e == 0 is included; a subnormal f near
    a kernel zero is harmless (ratio ~ 0).  Each step runs in place on the
    reduction's fresh arrays, so the results are fresh arrays too.
    """
    e, f = _reduce(T, delta)
    lattice = np.abs(e) < _TINY
    num = np.sin(np.multiply(f, np.pi, out=f), out=f)
    den = np.sin(np.multiply(e, np.pi, out=e), out=e)
    den *= T
    return num, den, lattice


def pea_kernel(T: int, delta) -> np.ndarray | float:
    """The squared Dirichlet-type ratio (sin(T pi delta) / (T sin(pi delta)))^2.

    Evaluated exactly for any real delta through the argument reduction of
    _kernel_parts: the value is exactly 1 at integer delta and exactly 0 at
    the kernel zeros k/T (k not divisible by T).  Sums to 1 over the outcome
    lattice.
    """
    num, den, lattice = _kernel_parts(T, delta)
    r = np.divide(num, den, out=num, where=~lattice)
    np.copyto(r, 1.0, where=lattice)
    r *= r
    return float(r) if r.ndim == 0 else r


@lru_cache(maxsize=8)
def _rotation_windows(T: int) -> np.ndarray:
    """Windows (2, T + 1, T) of S[j] = sin(pi j/T) and C[j] = cos(pi j/T),
    j < T, laid twice end to end (window r holds them rotated left by r);
    each entry is a sine of at most pi/2, precise near the tables' zeros."""
    j = np.arange(T)
    table = np.sin(np.pi / T * np.stack([np.minimum(j, T - j), T / 2 - j]))
    return np.lib.stride_tricks.sliding_window_view(np.tile(table, 2), T, axis=1)


def _kernel_rows(T: int, x: np.ndarray, out: np.ndarray):
    """Yield (i, out[:m]) per slice of len(out) finite shifted phases x[i:],
    row l of out[:m] set to pea_kernel(T, k/T - x[i + l]).  With y = T (x -
    floor(x)), a = rint(y) and e = y - a (exact; the wrap rounds only for
    -1 < x < 0), a row is sin^2(pi e) / (T^2 d_j^2) for j = (k - a) mod T,
    d_j = sin(pi (j - e)/T) = S[j] cos(pi e/T) - C[j] sin(pi e/T): per cell a
    gather, two multiplies, a subtract, a square and a divide.  Where
    (pi e)^2 is below the normal range (e = 0 included) the row is exactly 1
    at k = a mod T and 0 elsewhere, the limit on _kernel_parts' mask."""
    y = T * (x - np.floor(x))
    a = np.rint(y)
    e = y - a
    start = (-a).astype(np.intp) % T
    lattice = (np.pi * e) ** 2 < _TINY
    e[lattice] = 0.5  # a stand-in whose denominators have no zero
    num = np.where(lattice, 0.0, (np.sin(np.pi * e) / T) ** 2)[:, None]
    cos, sin = np.cos(np.pi * e / T)[:, None], np.sin(np.pi * e / T)[:, None]
    sin_table, cos_table = _rotation_windows(T)
    for i in range(0, len(x), len(out)):
        part = slice(i, i + len(out))
        rows = out[: len(x) - i]
        np.multiply(sin_table[start[part]], cos[part], out=rows)
        rotated = cos_table[start[part]]
        rotated *= sin[part]
        rows -= rotated
        rows *= rows
        np.divide(num[part], rows, out=rows)
        for k in np.flatnonzero(lattice[part]):
            rows[k, (T - start[i + k]) % T] = 1.0
        yield i, rows


def pea_pmf_at(params: PeaParams, s: int, phi: float) -> float:
    """Probability of measuring outcome s at true phase phi."""
    T = params.T
    if not (0 <= s < T):
        raise ValueError(f"outcome s must lie in [0, {T})")
    return float(pea_kernel(T, s / T - _finite("phi", phi)))


def pea_pmf(params: PeaParams, phi: float) -> DistTable:
    """Exact outcome table over all T outcomes at true phase phi."""
    T = params.T
    _, probs = next(_kernel_rows(T, np.array([_finite("phi", phi)]), np.empty((1, T))))
    return DistTable(params, probs[0])


def upea_pdf(params: PeaParams, phi_tilde: float, phi: float) -> float:
    """Density of the randomized estimate at phi_tilde given true phase phi;
    equals T * pea_kernel(phi_tilde - phi) and integrates to 1 per period."""
    T = params.T
    return T * float(pea_kernel(T, _finite("phi_tilde", phi_tilde) - _finite("phi", phi)))


def exact_bias_mae_pea(params: PeaParams, phi: float) -> BiasMaeEntry:
    """Exact bias and MAE of the raw estimator s/T at true phase phi: finite
    sums of the signed / absolute circular distance against the outcome pmf."""
    p = pea_pmf(params, phi).probs
    d = _circ_dist_array(np.arange(params.T) / params.T, wrap_phase(phi))
    bias = float(np.dot(d, p))
    mae = float(np.dot(np.abs(d), p))
    if abs(bias) > mae:  # guard against rounding inverting the triangle bound
        bias = math.copysign(mae, bias)
    return BiasMaeEntry(wrap_phase(phi), bias, mae)


def exact_mae_upea(params: PeaParams) -> float:
    """MAE of the randomized estimator, which is independent of the true
    phase.  The error d = phi_tilde - phi has the Fejer-kernel density
    sum_{|m|<T} (1 - |m|/T) e^{2 pi i m d} on (-1/2, 1/2]; integrating |d|
    term by term gives the closed form

        1/4 - (2/pi^2) sum_{m odd, m < T} (1 - m/T) / m^2.
    """
    T = params.T
    m = np.arange(1, T, 2, dtype=float)
    return float(0.25 - 2.0 / np.pi**2 * np.sum((1.0 - m / T) / m**2))
