"""Reference values and output checks for the benchmark, written apart from
the library: nothing here imports upea, so a fault in the library cannot
make its own check pass.

Sweep tables are checked from their CSV bytes (the schema
ground_truth,bias,stderr_bias,mae,stderr_mae,n_samples), never from the
library's entry objects.  Statistical checks use a band of Z standard errors
per row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

Z = 4.0

# the paper's published calibration slope for T=16, R=3 and its window
B_PAPER = 0.004775
B_WINDOW = 0.001


class Row(NamedTuple):
    truth: float
    bias: float
    se_bias: float
    mae: float
    se_mae: float
    n: int


def closed_form_mae_upea(T: int) -> float:
    """Single-run UPEA MAE, 1/4 - (2/pi^2) sum_{m odd < T} (1 - m/T)/m^2.

    The shifted estimator's error has the Fejer-kernel density
    (1/T) sum_{|m|<T} (1 - |m|/T) e^{2 pi i m d}; integrating |d| over one
    period term by term leaves 1/4 from m = 0 and -1/(pi^2 m^2) from each
    odd m of either sign.
    """
    m = np.arange(1, T, 2, dtype=float)
    return 0.25 - (2.0 / math.pi**2) * math.fsum((1.0 - m / T) / (m * m))


def counting_bias_single(m: float, T: int) -> float:
    """Bias of a single randomized counting run at marked fraction m."""
    return (1.0 - 2.0 * m) / (2.0 * T)


def register_pmf_fft(t: int, phi: float, theta: float) -> np.ndarray:
    """Outcome distribution of the t-qubit register after phase kickback of
    phi + theta and the inverse QFT: the register holds
    T^{-1/2} sum_x e^{2 pi i x (phi + theta)} |x>, and the inverse QFT maps
    it to amplitudes fft(...)[s] / T."""
    T = 1 << t
    x = np.arange(T)
    amps = np.fft.fft(np.exp(2j * math.pi * x * (phi + theta))) / T
    return np.abs(amps) ** 2


def parse_csv(data: bytes) -> list[Row]:
    lines = data.decode("ascii").splitlines()
    if lines[0] != "ground_truth,bias,stderr_bias,mae,stderr_mae,n_samples":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append(Row(float(f[0]), float(f[1]), float(f[2]), float(f[3]), float(f[4]), int(f[5])))
    return rows


def identical(a: bytes, b: bytes) -> bool:
    """CSV bytes of one sweep must not depend on the worker count."""
    return a == b


def unbiased(rows: list[Row]) -> bool:
    """Every row's bias is within Z standard errors of 0."""
    return all(abs(r.bias) <= Z * r.se_bias for r in rows)


def mae_matches(rows: list[Row], ref: float) -> bool:
    """Every row's MAE is within Z standard errors of ref."""
    return all(abs(r.mae - ref) <= Z * r.se_mae for r in rows)


def follows_counting_bias_law(rows: list[Row], T: int) -> bool:
    """Raw single-run counting rows (truth = m) follow (1 - 2m)/(2T)."""
    return all(abs(r.bias - counting_bias_single(r.truth, T)) <= Z * r.se_bias for r in rows)


def corrected_unbiased(rows: list[Row], b: float, se_b: float) -> bool:
    """Rows corrected with m' = (m_tilde - b)/(1 - 2b) are unbiased.

    The mean corrected error moves with the calibrated b by
    -(1 - 2m)/(1 - 2b), so the calibration's standard error enters each
    row's band alongside the sweep's own."""
    for r in rows:
        slope = (1.0 - 2.0 * r.truth) / (1.0 - 2.0 * b)
        se = math.hypot(r.se_bias, slope * se_b)
        if abs(r.bias) > Z * se:
            return False
    return True


def mae_drops(hi: Row, lo: Row) -> bool:
    """lo's MAE is below hi's by more than Z combined standard errors."""
    return hi.mae - lo.mae > Z * math.hypot(hi.se_mae, lo.se_mae)


def b_in_window(b: float) -> bool:
    return abs(b - B_PAPER) <= B_WINDOW


def close_relative(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def pmf_matches(probs, t: int, phi: float, theta: float, tol: float = 1e-10) -> bool:
    ref = register_pmf_fft(t, phi, theta)
    probs = np.asarray(probs, dtype=float)
    return probs.shape == ref.shape and float(np.max(np.abs(probs - ref))) <= tol
