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
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Phase",
    "ThetaMode",
    "PeaParams",
    "MeasurementPmf",
    "BiasMaeEntry",
    "wrap_phase",
    "circ_dist",
    "pea_kernel",
    "pea_pmf",
    "exact_bias_mae_pea",
    "exact_mae_upea",
    "exact_msd_upea",
]

# A phase is a plain float, canonically stored in [0, 1) (fraction of a turn).
Phase = float

# smallest normal float64; kernel arguments reduced below this would push
# pi*e into the subnormal range where sin loses relative precision
_TINY = float(np.finfo(float).tiny)

# largest register size t.  The shifted outcome T wrap(phi + theta) and the
# error T d carry 53 - t bits below the point, so a larger t resolves
# float64's rounding rather than the estimator's law: a KS test of T d over
# 2^22 sampled trials passes up to t = 41 and fails from t = 44 on
_MAX_T = 40


@dataclass(frozen=True)
class ThetaMode:
    """How the random shift theta is drawn: the full unit interval, one
    register period [0, 1/T), or a fixed deterministic value."""

    kind: str  # "full" | "period" | "fixed"
    value: float = 0.0  # the fixed shift; 0.0 for the other kinds, whose text omits it

    def __post_init__(self) -> None:
        if self.kind not in ("full", "period", "fixed"):
            raise ValueError(f"unknown theta mode kind: {self.kind!r}")
        object.__setattr__(self, "value", _finite("theta value", self.value))
        if self.kind == "fixed" and not (0.0 <= self.value < 1.0):
            raise ValueError(f"theta value must lie in [0, 1) for a fixed mode, got {self.value!r}")
        if self.kind != "fixed" and self.value != 0.0:
            raise ValueError(f"theta value must be 0.0 for kind {self.kind!r}, got {self.value!r}")

    @classmethod
    def full(cls) -> "ThetaMode":
        return cls("full")

    @classmethod
    def period(cls) -> "ThetaMode":
        return cls("period")

    @classmethod
    def fixed(cls, value: float) -> "ThetaMode":
        return cls("fixed", value)

    def __str__(self) -> str:
        return f"fixed:{self.value!r}" if self.kind == "fixed" else self.kind

    @classmethod
    def parse(cls, text: str) -> "ThetaMode":
        """Parse 'full' | 'period' | 'fixed:<x>'; any other text, or a value
        that is not a str, raises a ValueError quoting it."""
        kind, colon, value = text.partition(":") if isinstance(text, str) else ("", "", "")
        try:
            if kind == "fixed":
                return cls.fixed(float(value))
            if kind in ("full", "period") and not colon:
                return cls(kind)
        except ValueError as exc:
            raise ValueError(f"cannot parse theta mode {text!r}: {exc}") from None
        raise ValueError(f"cannot parse theta mode {text!r}")


@dataclass(frozen=True)
class PeaParams:
    """Register size and repetition count for one estimation experiment.

    t is the number of register qubits, T = 2^t the number of outcomes,
    R the number of repetitions combined by the likelihood estimator.
    t lies in [0, _MAX_T]; t = 0 (single-outcome register) is allowed as
    the degenerate case.
    """

    t: int
    R: int = 1
    theta_mode: ThetaMode = field(default_factory=ThetaMode.full)

    def __post_init__(self) -> None:
        _int_in("t", self.t, 0, _MAX_T)
        _int_in("R", self.R, 1)
        if not isinstance(self.theta_mode, ThetaMode):
            raise ValueError(f"theta_mode must be a ThetaMode, got {self.theta_mode!r}")

    @property
    def T(self) -> int:
        return 1 << self.t

    @classmethod
    def from_T(cls, T: int, R: int = 1, theta_mode: ThetaMode | None = None) -> "PeaParams":
        """Build from the outcome count T, a power of two in [1, 2^_MAX_T]."""
        T = _power_of_two(T, 1 << _MAX_T)
        return cls(T.bit_length() - 1, R, ThetaMode.full() if theta_mode is None else theta_mode)


@dataclass(frozen=True)
class MeasurementPmf:
    """Outcome distributions over a register: index s of the last axis of
    probs is the integer the register reads, and leading axes are a batch.
    Each distribution must sum to within 1e-12 of 1 and every entry must
    lie in [-1e-15, 1 + 1e-12]; a NaN fails both."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if not (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all():  # NaN fails
            raise ValueError("probs must sum to 1 along the last axis")
        if not np.all((p >= -1e-15) & (p <= 1 + 1e-12)):
            raise ValueError("probs must lie in [0, 1]")


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
        for name in ("ground_truth", "bias", "mae", "stderr_bias", "stderr_mae"):
            x = getattr(self, name)
            if x is not None or not name.startswith("stderr"):
                object.__setattr__(self, name, _finite(name, x))
        if self.n_samples is not None:
            object.__setattr__(self, "n_samples", _int_in("n_samples", self.n_samples, 1))
        if not (self.mae >= 0.0):
            raise ValueError("mae must be nonnegative")
        if abs(self.bias) > self.mae + 1e-12:
            raise ValueError("|bias| cannot exceed mae")


def _finite(name: str, x) -> float:
    """x as a float, or a ValueError naming the input as _finite_array
    does, or when it is not a scalar (a list or array of one item
    included)."""
    x = _finite_array(name, x)
    if x.ndim:
        raise ValueError(f"{name} must be a scalar, got shape {x.shape}")
    return float(x)


def _finite_array(name: str, x) -> np.ndarray:
    """x as a float array (0-d for a scalar), or a ValueError naming the
    input when it is a str, bytes or bool, an array of them or of objects,
    or a list or tuple holding a bool, or when any entry is not finite."""
    a = np.asarray(x)
    if not _is_numeric(x, a):
        raise ValueError(f"{name} must be finite and numeric, got {x!r}")
    x = np.asarray(a, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _is_numeric(x, a: np.ndarray) -> bool:
    """False when x, read as the array a, is a str, bytes or bool, an array
    of them or of objects, or a list or tuple holding a bool.  O(1) when x
    is an array: a dtype-kind test."""
    # NumPy reads [True, 0.3] as [1.0, 0.3], so a list is read item by item
    return a.dtype.kind not in "bUSO" and not (
        isinstance(x, (list, tuple))
        and any(isinstance(v, (bool, np.bool_)) for v in np.array(x, dtype=object).flat)
    )


def _int_in(name: str, x, lo: int, hi: int | None = None) -> int:
    """x as an int, or a ValueError naming the input when it is not an
    integer type (a whole float and a bool included) or lies outside
    [lo, hi] (no upper end when hi is None)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if x < lo or (hi is not None and x > hi):
        bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{name} must {bound}, got {x}")
    return x


def _power_of_two(T, hi: int | None = None) -> int:
    """T as an int, or a ValueError naming T unless it is an integer in
    [1, hi] and a power of two."""
    T = _int_in("T", T, 1, hi)
    if T & (T - 1):
        raise ValueError(f"T must be a positive power of two, got {T}")
    return T


def wrap_phase(x: float) -> Phase:
    """Reduce a real phase to its canonical representative in [0, 1)."""
    return float(_wrap_array(_finite("phase", x)))


def circ_dist(a: float, b: float) -> float:
    """Signed circular distance d(a, b) in (-1/2, +1/2]; the antipodal tie
    resolves to +1/2.  d is the unique representative of a - b (mod 1)."""
    d = _finite("phase", a) - _finite("phase", b)
    return float(_circ_dist_array(_finite("phase", d), 0.0))


def _wrap_array(x, out: np.ndarray | None = None) -> np.ndarray:
    """Representatives in [0, 1) of x, in out (which may be x) or in a new
    array (0-d for a scalar).  Zero of either sign maps to +0.0."""
    r = np.asarray(np.subtract(x, np.floor(x), out=out))
    # floor rounding can land exactly on 1.0 for tiny negative inputs
    r[r >= 1.0] = 0.0
    return r


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
    reduction's fresh arrays, so the results are fresh arrays too.  A T that
    is not a power of two >= 1 and a delta that _is_numeric rejects raise
    ValueError, in O(1) for an array delta; a NaN or infinite delta is not
    checked, and gives NaN.
    """
    _power_of_two(T)
    if not _is_numeric(delta, np.asarray(delta)):
        raise ValueError(f"delta must be numeric, got {delta!r}")
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
    lattice.  T must be a power of two >= 1 and delta numeric (ValueError).
    A NaN or infinite delta is let through, to a NaN value (with NumPy's
    RuntimeWarning for an infinite one): the check would cost a pass over
    every array the likelihood scores.
    """
    num, den, lattice = _kernel_parts(T, delta)
    with np.errstate(divide="ignore", invalid="ignore"):  # lattice cells, set below
        r = np.divide(num, den, out=num)
    r[lattice] = 1.0
    r *= r
    return float(r) if r.ndim == 0 else r


def pea_pmf(params: PeaParams, phi: float) -> MeasurementPmf:
    """Exact outcome distribution over all T outcomes at true phase phi."""
    T = params.T
    # wrapped first: far outside [0, 1), k/T - phi would keep no fraction
    return MeasurementPmf(pea_kernel(T, np.arange(T) / T - _wrap_array(_finite("phi", phi))))


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


def exact_msd_upea(params: PeaParams) -> float:
    """Mean squared error E d^2 of the randomized estimator, which is
    independent of the true phase.  Against the Fejer series of
    exact_mae_upea, d^2 integrates term by term, since the integral of
    d^2 cos(2 pi m d) over (-1/2, 1/2] is (-1)^m / (2 pi^2 m^2):

        1/12 + (1/pi^2) sum_{m=1}^{T-1} (1 - m/T) (-1)^m / m^2.

    With exact_mae_upea it gives the exact standard errors of a sample's
    bias, sqrt(E d^2 / n), and MAE, sqrt((E d^2 - MAE^2) / n)."""
    T = params.T
    m = np.arange(1, T, dtype=float)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    return float(1.0 / 12.0 + np.sum(sign * (1.0 - m / T) / m**2) / np.pi**2)
