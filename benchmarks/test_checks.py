"""Self-tests of the benchmark's reference values and output checks.

    python3 -m pytest benchmarks

The reference values are pinned to known numbers, and each check is shown
to accept a real table from upea and to reject the same table made wrong on
purpose.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import upea  # noqa: E402

T = 16
SEED = 11


def _csv(config, tmp_path, calibration=None) -> bytes:
    path = tmp_path / f"{config.experiment}.csv"
    upea.write_csv(upea.run_sweep(config, calibration), str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def upea_csv(tmp_path_factory) -> bytes:
    config = upea.SweepConfig("upea-bias-mae", T=T, grid_points=4, n_samples=1 << 16, base_seed=SEED)
    return _csv(config, tmp_path_factory.mktemp("upea"))


@pytest.fixture(scope="module")
def qca_rows(tmp_path_factory) -> list[checks.Row]:
    config = upea.SweepConfig("qca-bias-mae", T=T, R=1, grid_points=5, n_samples=1 << 15, base_seed=SEED)
    return checks.parse_csv(_csv(config, tmp_path_factory.mktemp("qca")))


def _shift_bias(rows, delta):
    return [r._replace(bias=r.bias + delta) for r in rows]


def test_closed_form_mae_is_pinned():
    assert checks.closed_form_mae_upea(1) == 0.25
    assert checks.closed_form_mae_upea(2) == pytest.approx(0.25 - 1 / math.pi**2, rel=1e-15)
    assert checks.closed_form_mae_upea(16) == pytest.approx(0.031930774464448815, rel=1e-15)


def test_counting_bias_law_is_affine_and_odd_about_one_half():
    assert checks.counting_bias_single(0.0, T) == 1 / (2 * T)
    assert checks.counting_bias_single(0.5, T) == 0.0
    assert checks.counting_bias_single(1.0, T) == -1 / (2 * T)


@pytest.mark.parametrize("t, phi, theta", [(1, 0.3, 0.1), (4, 0.1234, 0.77), (7, 0.9, 0.05)])
def test_fft_pmf_equals_squared_dirichlet_kernel(t, phi, theta):
    n = 1 << t
    d = np.arange(n) / n - (phi + theta)
    kernel = (np.sin(n * np.pi * d) / (n * np.sin(np.pi * d))) ** 2
    assert np.max(np.abs(checks.register_pmf_fft(t, phi, theta) - kernel)) < 1e-12


def test_fft_pmf_is_a_point_mass_on_the_grid():
    pmf = checks.register_pmf_fft(5, 3 / 32, 0.0)
    assert pmf[3] == pytest.approx(1.0, abs=1e-14)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)


def test_pmf_check_rejects_a_wrong_shift():
    t, phi, theta = 5, 0.21, 0.43
    assert checks.pmf_matches(upea.pea_circuit_pmf(t, phi, theta).probs, t, phi, theta)
    assert not checks.pmf_matches(upea.pea_circuit_pmf(t, phi, -theta).probs, t, phi, theta)


def test_unbiased_rejects_a_table_biased_by_half_a_grid_step(upea_csv):
    rows = checks.parse_csv(upea_csv)
    assert checks.unbiased(rows)
    assert not checks.unbiased(_shift_bias(rows, 1 / (2 * T)))


def test_mae_check_rejects_an_mae_off_by_five_percent(upea_csv):
    rows = checks.parse_csv(upea_csv)
    ref = checks.closed_form_mae_upea(T)
    assert checks.mae_matches(rows, ref)
    assert not checks.mae_matches([r._replace(mae=r.mae * 1.05) for r in rows], ref)


def test_identical_rejects_a_csv_with_one_byte_changed(upea_csv):
    assert checks.identical(upea_csv, bytes(upea_csv))
    changed = bytearray(upea_csv)
    changed[len(changed) // 2] ^= 1
    assert not checks.identical(upea_csv, bytes(changed))


def test_bias_law_rejects_a_table_biased_by_half_a_grid_step(qca_rows):
    assert checks.follows_counting_bias_law(qca_rows, T)
    assert not checks.follows_counting_bias_law(_shift_bias(qca_rows, 1 / (2 * T)), T)


def test_corrected_check_rejects_an_uncorrected_table(qca_rows):
    corrected = [r._replace(bias=r.bias - checks.counting_bias_single(r.truth, T)) for r in qca_rows]
    assert checks.corrected_unbiased(corrected, 0.0, 1e-5)
    assert not checks.corrected_unbiased(qca_rows, 0.0, 1e-5)


def test_mae_drop_needs_a_gap_beyond_the_combined_error():
    hi = checks.Row(1.0, 0.0, 1e-3, 0.03, 1e-3, 1000)
    assert checks.mae_drops(hi, hi._replace(mae=0.01))
    assert not checks.mae_drops(hi, hi._replace(mae=0.026))


def test_b_window_is_the_papers():
    assert checks.b_in_window(0.004775)
    assert not checks.b_in_window(0.004775 + 0.0011)
    assert not checks.b_in_window(0.004775 - 0.0011)


def test_close_relative_rejects_beyond_the_tolerance():
    assert checks.close_relative(1.0 + 5e-9, 1.0, 1e-8)
    assert not checks.close_relative(1.0 + 2e-8, 1.0, 1e-8)
