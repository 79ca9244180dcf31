"""Tests for count-fraction estimation: the phase/count maps, the exact
single-run bias law, the two corrections, and calibration."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from upea.counting import (
    CalibrationRecord,
    CountingInstance,
    calibrate_b,
    correct_mle,
    correct_single,
    exact_bias_uqca_single,
    phi_from_m,
    sample_uqca_block,
)
from upea.phase_math import _MAX_T, PeaParams, pea_kernel
from upea.sampler import RNG_ALGORITHM, make_rng

T_MAX = 1 << _MAX_T

unit_fractions = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# count <-> phase maps


@given(unit_fractions)
def test_phi_m_round_trip(m: float) -> None:
    phi = phi_from_m(m)
    assert 0.0 <= phi <= 0.5
    assert math.sin(math.pi * phi) ** 2 == pytest.approx(m, abs=1e-12)


def test_phi_from_m_edge_values() -> None:
    assert phi_from_m(0.0) == 0.0
    assert phi_from_m(1.0) == pytest.approx(0.5)
    assert phi_from_m(0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        phi_from_m(1.5)
    with pytest.raises(ValueError):
        phi_from_m(-0.1)


def test_phi_from_m_on_an_array_is_the_scalar_map_entry_by_entry() -> None:
    rng = np.random.default_rng(3)
    m = np.concatenate([[0.0, 2.0**-1022, 0.5, 1.0], np.arange(17) / 16, rng.random(39)])
    for shape in (m.shape, (3, 5, 4), (1, 60)):
        got = phi_from_m(m.reshape(shape))
        assert got.shape == shape
        want = np.array([math.asin(math.sqrt(x)) / math.pi for x in m]).reshape(shape)
        assert got.tobytes() == want.tobytes()
    assert phi_from_m([]).shape == (0,)
    assert type(phi_from_m(0.3)) is float and type(exact_bias_uqca_single(0.3, 16)) is float


@pytest.mark.parametrize("bad", ["0.25", True, np.array(["0.25"]), math.nan])
def test_count_fraction_inputs_must_be_numbers(bad) -> None:
    # phi_from_m("0.25") returned 1/6, phi_from_m(True) 0.5 and
    # exact_bias_uqca_single("0.2", 16) 0.01875
    with pytest.raises(ValueError, match="m must be"):
        phi_from_m(bad)
    with pytest.raises(ValueError, match="m must be"):
        exact_bias_uqca_single(bad, 16)


# ---------------------------------------------------------------------------
# exact single-run bias law


def test_bias_law_values() -> None:
    T = 16
    assert exact_bias_uqca_single(0.0, T) == pytest.approx(1 / 32)
    assert exact_bias_uqca_single(0.5, T) == 0.0
    assert exact_bias_uqca_single(1.0, T) == pytest.approx(-1 / 32)


@pytest.mark.parametrize("m", [0.0, 0.07, 0.25, 0.5, 0.81, 1.0])
@pytest.mark.parametrize("T", [4, 16])
def test_bias_law_matches_quadrature(m: float, T: int) -> None:
    """Independent oracle: E[sin^2(pi(v + phi))] under the randomized error
    density T*K(v), averaged over the +-phi eigenphase signs, equals
    m + (1 - 2m)/(2T)."""
    phi = phi_from_m(m)
    total = 0.0
    for sign in (+1.0, -1.0):
        val, err = integrate.quad(
            lambda v: T * float(pea_kernel(T, v)) * math.sin(math.pi * (v + sign * phi)) ** 2,
            0.0,
            1.0,
            limit=400,
        )
        assert err < 1e-9
        total += 0.5 * val
    assert total - m == pytest.approx(exact_bias_uqca_single(m, T), abs=1e-8)


# ---------------------------------------------------------------------------
# corrections


@given(unit_fractions)
def test_correct_single_inverts_the_law(m: float) -> None:
    # applying the correction to the exact mean recovers m exactly
    T = 16
    mean_tilde = m + exact_bias_uqca_single(m, T)
    assert correct_single(mean_tilde, T) == pytest.approx(m, abs=1e-12)


def test_correct_single_does_not_clamp() -> None:
    # values below the offset legitimately map negative; callers see the
    # unclipped estimate so that averages stay unbiased
    assert correct_single(0.0, 16) < 0.0
    assert correct_single(1.0, 16) > 1.0


@given(unit_fractions, st.floats(min_value=-0.4, max_value=0.4))
def test_correct_mle_inverts_affine_bias(m: float, b: float) -> None:
    biased = m + b * (1.0 - 2.0 * m)
    assert correct_mle(biased, b) == pytest.approx(m, abs=1e-9)


def test_correct_mle_rejects_degenerate_slope() -> None:
    with pytest.raises(ValueError):
        correct_mle(0.3, 0.5)


def test_correct_single_is_correct_mle_at_the_single_run_constant() -> None:
    T = 16
    vals = np.linspace(0.0, 1.0, 11)
    a = correct_single(vals, T)
    b = correct_mle(vals, 1.0 / (2 * T))
    assert np.allclose(a, b, atol=1e-14)


# ---------------------------------------------------------------------------
# sampling and calibration


def test_sample_uqca_estimate_is_consistent() -> None:
    params = PeaParams.from_T(16, R=3)
    rng = make_rng(12)
    for m in (0.0, 0.3, 1.0):
        phi_hat, m_tilde = sample_uqca_block(params, m, rng, 50)
        assert np.all((0.0 <= phi_hat) & (phi_hat <= 0.5))
        assert np.allclose(m_tilde, np.sin(np.pi * phi_hat) ** 2, rtol=0.0, atol=1e-12)


def test_single_run_block_mean_matches_law() -> None:
    params = PeaParams.from_T(16, R=1)
    n = 1 << 15
    for m in (0.0, 0.25, 0.9):
        _, mt = sample_uqca_block(params, m, make_rng(hash(m) % (1 << 32)), n)
        err = mt.mean() - m
        se = mt.std(ddof=1) / math.sqrt(n)
        assert abs(err - exact_bias_uqca_single(m, 16)) < 4 * se


def test_calibrate_b_is_deterministic_and_plausible() -> None:
    a = calibrate_b(16, 3, 4096, 77)
    b = calibrate_b(16, 3, 4096, 77)
    assert a == b
    assert a.T == 16 and a.R == 3 and a.n_samples == 4096 and a.seed == 77
    assert 0.0 < a.b < 0.02
    assert a.stderr_b > 0.0
    c = calibrate_b(16, 3, 4096, 78)
    assert c.b != a.b  # new seed, new draw


def test_calibration_record_json_round_trip() -> None:
    rec = calibrate_b(16, 2, 2048, 5)
    raw = json.loads(rec.to_json())
    assert set(raw) == {"T", "R", "b", "stderr_b", "n_samples", "seed", "rng_algorithm"}
    assert raw["rng_algorithm"] == RNG_ALGORITHM
    assert CalibrationRecord.from_json(rec.to_json()) == rec


# ---------------------------------------------------------------------------
# instance validation


def test_counting_instance_from_a_marked_count() -> None:
    inst = CountingInstance(n=3, M=2)
    assert inst.N == 8 and inst.M == 2
    assert phi_from_m(inst.M / inst.N) == phi_from_m(0.25)


def test_counting_instance_from_count_only() -> None:
    inst = CountingInstance(n=2, M=4)
    assert inst.M / inst.N == 1.0


def test_counting_instance_validation() -> None:
    with pytest.raises(ValueError, match=r"M must lie in \[0, 4\], got -1"):
        CountingInstance(n=2, M=-1)  # out of range
    with pytest.raises(ValueError, match=r"M must lie in \[0, 4\], got 5"):
        CountingInstance(n=2, M=5)  # more marked than states
    with pytest.raises(ValueError, match=r"n must lie in \[1, 1022\], got 0"):
        CountingInstance(n=0, M=0)


def test_counting_instance_takes_n_while_one_marked_item_is_a_normal_fraction() -> None:
    # m = 1/N = 2^-1022 is the smallest normal float; at n = 10^5 m read 0.0
    inst = CountingInstance(n=1022, M=1)
    assert inst.M / inst.N == 2.0**-1022 and phi_from_m(inst.M / inst.N) > 0.0
    with pytest.raises(ValueError, match=r"n must lie in \[1, 1022\], got 1023"):
        CountingInstance(n=1023, M=1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(n=2.5, M=1),
        dict(n=2.0, M=1),
        dict(n=2, M=1.0),
        dict(n=2, M=0.5),
        dict(n=3, M=True),
        dict(n=True, M=1),
    ],
)
def test_counting_instance_rejects_non_integer_sizes(kw: dict) -> None:
    name = "n" if type(kw["n"]) is not int else "M"
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        CountingInstance(**kw)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("T", dict(T=16.0)),
        ("R", dict(R=2.5)),
        ("n_samples", dict(n_samples=10.5)),
        ("seed", dict(seed=1.5)),
        ("workers", dict(workers=1.5)),
        ("workers", dict(workers=True)),
    ],
)
def test_calibrate_b_rejects_a_non_integer_argument(name: str, kw: dict) -> None:
    # seed = 1.5 once ran and recorded seed 1; n_samples = 10.5 raised a
    # bare TypeError
    args = dict(T=16, R=3, n_samples=100, seed=1, workers=1)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        calibrate_b(**{**args, **kw})


@pytest.mark.parametrize("law", [exact_bias_uqca_single, correct_single])
def test_single_run_laws_reject_a_non_integer_t(law) -> None:
    with pytest.raises(ValueError, match="T must be an integer"):
        law(0.1, 16.0)


@pytest.mark.parametrize(
    "n, message", [(2.5, "n must be an integer"), (True, "n must be an integer"), (-1, "n must be >= 0")]
)
def test_counting_block_rejects_a_bad_trial_count(n, message: str) -> None:
    with pytest.raises(ValueError, match=message):
        sample_uqca_block(PeaParams.from_T(4, 2), 0.3, make_rng(1), n)


def test_counting_block_takes_zero_trials() -> None:
    phi_hat, m_tilde = sample_uqca_block(PeaParams.from_T(4, 2), 0.3, make_rng(1), 0)
    assert phi_hat.shape == m_tilde.shape == (0,)


def test_calibration_record_stores_b_and_its_error_as_floats() -> None:
    rec = CalibrationRecord(16, 3, np.float64(0.01), 1, 4096, 1)
    assert type(rec.b) is float and type(rec.stderr_b) is float and rec.stderr_b == 1.0


def test_calibration_is_bit_identical_for_any_worker_count() -> None:
    # three chunks, the last one short
    n = 2 * 4096 + 100
    one = calibrate_b(16, 3, n, 21)
    assert calibrate_b(16, 3, n, 21, workers=2) == one
    assert calibrate_b(16, 3, n, 21, workers=3) == one
    with pytest.raises(ValueError, match="workers"):
        calibrate_b(16, 3, n, 21, workers=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.1", True])
def test_correct_mle_rejects_a_non_finite_slope(bad: float) -> None:
    with pytest.raises(ValueError, match="b must be finite"):
        correct_mle(0.3, bad)


@pytest.mark.parametrize("bad", ["0.3", [True], math.nan, [0.2, math.inf]])
def test_corrections_reject_a_bad_count_fraction(bad) -> None:
    # correct_mle("0.3", 0.01) once returned 0.2959, [True] 1.0102, and a NaN
    # m_tilde NaN
    with pytest.raises(ValueError, match="m_tilde must be finite"):
        correct_mle(bad, 0.01)
    with pytest.raises(ValueError, match="m_tilde must be finite"):
        correct_single(bad, 16)


@pytest.mark.parametrize("T", [0, 3, 12, -4])
def test_single_run_bias_law_and_correction_need_a_power_of_two_t(T: int) -> None:
    message = "T must be a positive power of two" if T > 0 else re.escape(f"T must lie in [1, {T_MAX}]")
    with pytest.raises(ValueError, match=message):
        exact_bias_uqca_single(0.2, T)
    with pytest.raises(ValueError, match=message):
        correct_single(np.array([0.2, 0.7]), T)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("T", 3, "T must be a positive power of two"),
        ("T", 0, "T must lie in"),
        ("R", 0, "R must be >= 1"),
        ("n_samples", 1, "n_samples must be >= 2"),
        ("n_samples", -5, "n_samples must be >= 2"),
        ("T", 16.0, "T must be an integer"),
        ("T", 16.5, "T must be an integer"),
        ("R", 2.5, "R must be an integer"),
        ("n_samples", True, "n_samples must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("b", True, "b must be finite"),
        ("stderr_b", "0.5", "stderr_b must be finite"),
        ("stderr_b", True, "stderr_b must be finite"),
    ],
)
def test_calibration_record_rejects_a_bad_shape(field: str, bad: int, message: str) -> None:
    good = dict(T=16, R=3, b=0.01, stderr_b=0.001, n_samples=4096, seed=1)
    CalibrationRecord(**good)
    with pytest.raises(ValueError, match=message):
        CalibrationRecord(**{**good, field: bad})
    # a record file with the bad field fails when it is read
    raw = json.loads(CalibrationRecord(**good).to_json())
    with pytest.raises(ValueError, match=message):
        CalibrationRecord.from_json(json.dumps({**raw, field: bad}))
