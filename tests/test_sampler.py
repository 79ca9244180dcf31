"""Tests for outcome sampling, seed derivation, and empirical aggregation."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from upea.harness import _entry
from upea.phase_math import PeaParams, ThetaMode, _circ_dist_array, pea_kernel, pea_pmf
from upea.sampler import (
    RNG_ALGORITHM,
    derive_seed,
    make_rng,
    _draw_theta,
    _tail,
    sample_upea_block,
)

P16 = PeaParams.from_T(16)


def test_rng_algorithm_tag() -> None:
    assert RNG_ALGORITHM == "numpy-pcg64"
    assert isinstance(make_rng(0).bit_generator, np.random.PCG64)


def test_derive_seed_is_stable_and_distinct() -> None:
    a = derive_seed(1, "exp", 0, 0)
    assert a == derive_seed(1, "exp", 0, 0)  # pure function of the path
    others = {
        derive_seed(1, "exp", 0, 1),
        derive_seed(1, "exp", 1, 0),
        derive_seed(1, "other", 0, 0),
        derive_seed(2, "exp", 0, 0),
    }
    assert a not in others and len(others) == 4
    assert 0 <= a < (1 << 64)


@pytest.mark.parametrize("seed", [1.5, 1.7, 2.0, True])
def test_seeds_must_be_integers(seed) -> None:
    # a float seed was once truncated, so 1.5 and 1.7 ran as seed 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        make_rng(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        derive_seed(seed, "exp", 0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_take_both_ends_of_the_64_bit_range(seed: int) -> None:
    assert make_rng(seed).random() == make_rng(seed).random()
    assert 0 <= derive_seed(seed, "exp", 0) < 2**64


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_the_64_bit_range_raise_naming_the_seed(seed: int) -> None:
    # make_rng(-1) raised NumPy's "expected non-negative integer", while
    # derive_seed(-1, ...) returned a seed
    in_range = re.escape(f"must lie in [0, {2**64 - 1}], got {seed}")
    with pytest.raises(ValueError, match="seed " + in_range):
        make_rng(seed)
    with pytest.raises(ValueError, match="base_seed " + in_range):
        derive_seed(seed, "exp", 0)


def test_derive_seed_pinned() -> None:
    # frozen: first 8 bytes (little-endian) of sha256("1|exp|0|0")
    import hashlib

    digest = hashlib.sha256(b"1|exp|0|0").digest()
    assert derive_seed(1, "exp", 0, 0) == int.from_bytes(digest[:8], "little")


def test_theta_modes_drawn_from_declared_support() -> None:
    rng = make_rng(9)
    full = PeaParams.from_T(16, theta_mode=ThetaMode.full())
    period = PeaParams.from_T(16, theta_mode=ThetaMode.period())
    fixed = PeaParams.from_T(16, theta_mode=ThetaMode.fixed(0.3))
    _, theta, _ = sample_upea_block(full, 0.1, rng, 20)
    assert np.all((0 <= theta) & (theta < 1))
    _, theta, _ = sample_upea_block(period, 0.1, rng, 20)
    assert np.all((0 <= theta) & (theta < 1 / 16))
    _, theta, _ = sample_upea_block(fixed, 0.1, rng, 5)
    assert np.all(theta == 0.3)


def test_block_matches_convention_on_cdf_atoms() -> None:
    """A comparison count over the CDF equals searchsorted side='right',
    which the inverse-CDF oracle below uses, even when the uniform draw hits
    a CDF value exactly."""
    probs = np.array([0.25, 0.25, 0.5])
    cdf = np.cumsum(probs)
    for u in (0.0, 0.25, 0.5, 0.4999999, 0.75, 1.0 - 1e-16):
        counted = int((cdf <= u).sum())
        assert counted == int(np.searchsorted(cdf, u, side="right"))


def test_block_sampler_vector_phi() -> None:
    phis = np.array([0.1, 0.5, 0.9])
    s, theta, est = sample_upea_block(P16, phis, make_rng(3), 3)
    assert s.shape == theta.shape == est.shape == (3,)
    assert np.all((0 <= s) & (s < 16))


def test_block_sampler_memory_is_bounded_at_large_t() -> None:
    # an n x T outcome table would take 32 GiB at T = 2^20, n = 4096; the
    # rejection sampler keeps a few arrays of n entries
    tracemalloc.start()
    try:
        s, _, _ = sample_upea_block(PeaParams.from_T(1 << 20), 0.3, make_rng(5), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == (4096,) and np.all((0 <= s) & (s < 1 << 20))
    assert peak <= 1 << 20


def _sample_entry(d, truth: float):
    """The sweep's bias/MAE entry of one chunk of errors d, reduced through
    the partial sums that harness._sweep takes of each chunk."""
    d = np.asarray(d, dtype=float)
    sums = (float(np.sum(d)), float(np.sum(d * d)), float(np.sum(np.abs(d))), d.size)
    return _entry([sums], truth)


def test_empirical_bias_mae_circular() -> None:
    # errors of +-0.1 across the wrap point
    entry = _sample_entry(_circ_dist_array(np.array([0.05, 0.85]), 0.95), 0.95)
    assert entry.bias == pytest.approx(0.0, abs=1e-15)
    assert entry.mae == pytest.approx(0.1, abs=1e-15)
    assert entry.n_samples == 2


def test_empirical_bias_mae_plain() -> None:
    entry = _sample_entry(np.array([0.2, 0.4]) - 0.25, 0.25)
    assert entry.bias == pytest.approx(0.05, abs=1e-15)
    assert entry.mae == pytest.approx(0.1, abs=1e-15)
    # ddof=1 standard errors
    d = np.array([-0.05, 0.15])
    assert entry.stderr_bias == pytest.approx(d.std(ddof=1) / math.sqrt(2))


def test_empirical_bias_mae_single_sample_has_zero_stderr() -> None:
    entry = _sample_entry([0.3 - 0.2], 0.2)
    assert entry.stderr_bias == 0.0 and entry.stderr_mae == 0.0


@pytest.mark.parametrize(
    "n, message", [(2.5, "n must be an integer"), (True, "n must be an integer"), (-1, "n must be >= 0")]
)
def test_block_sampler_rejects_a_bad_trial_count(n, message: str) -> None:
    # these raised NumPy's TypeError or "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=message):
        sample_upea_block(P16, 0.3, make_rng(1), n)


def test_block_sampler_takes_zero_trials() -> None:
    s, theta, phi_tilde = sample_upea_block(P16, 0.3, make_rng(1), 0)
    assert s.shape == theta.shape == phi_tilde.shape == (0,)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_block_sampler_rejects_a_non_finite_phase(phi: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        sample_upea_block(P16, np.array([0.1, phi]), make_rng(1), 2)


@pytest.mark.parametrize("phi", ["0.3", True, [True, 0.3], np.array(["0.1", "0.2"])])
def test_block_sampler_rejects_a_non_numeric_phase(phi) -> None:
    # "0.3" once sampled at 0.3, and True at 1.0
    with pytest.raises(ValueError, match="phi must be finite and numeric"):
        sample_upea_block(P16, phi, make_rng(1), 2)


@pytest.mark.parametrize("phi", [[0.1, 0.2, 0.3], np.zeros(5), np.zeros((2, 2)), np.zeros((1, 1))])
def test_block_sampler_rejects_a_phase_vector_of_the_wrong_shape(phi) -> None:
    # three phases at n = 2 once raised NumPy's broadcast error after theta
    # was drawn; the check comes before any draw
    rng = make_rng(1)
    with pytest.raises(ValueError, match=r"phi must be a scalar or hold 1 or n = 4 phases"):
        sample_upea_block(P16, phi, rng, 4)
    assert rng.random() == make_rng(1).random()


def _inverse_cdf(params: PeaParams, phi, rng, n: int) -> np.ndarray:
    """The oracle: outcomes by inverse CDF, theta drawn as the block sampler
    draws it and then one uniform per trial inverted against the cumulated
    pea_pmf row (searchsorted side='right', clamped to T - 1)."""
    T = params.T
    theta = _draw_theta(params.theta_mode, T, rng, n)
    x = np.broadcast_to(np.asarray(phi, dtype=float), (n,)) + theta
    u = rng.random(n)
    s = [np.searchsorted(np.cumsum(pea_pmf(params, v).probs), w, side="right") for v, w in zip(x, u)]
    return np.minimum(s, T - 1), theta


# offsets from a lattice point k/T: exact, dyadic, decimal, subnormal and
# below-ulp ones (the digest tool's), then the half-way points e = +-1/2
LATTICE_OFFSETS = (0.0, 2.0**-40, -(2.0**-40), 1e-12, -1e-12, 1e-300, 5e-324, -1e-20)
MODES = [ThetaMode.full(), ThetaMode.period(), ThetaMode.fixed(0.0)]


def _phases(T: int, n: int) -> np.ndarray:
    """n phases: lattice points k/T plus each offset, half-way points
    (k +- 1/2)/T, and scattered phases in [-1.3, 2.7)."""
    k = np.random.default_rng(T).integers(0, T, n) / T
    half = np.resize([0.5 / T, -0.5 / T], n)
    spread = np.linspace(-1.3, 2.7, n)
    layouts = [k + np.resize(LATTICE_OFFSETS, n), k + half, spread]
    return np.choose(np.arange(n) % 3, layouts)


def _chi2_pvalue(T: int, x: np.ndarray, s: np.ndarray) -> float:
    """Chi-squared p-value of outcomes s against their exact laws at the
    shifted phases x.  Outcomes are binned by their offset j from a =
    rint(T wrap(x)), for |j| <= 32 plus one bin for the rest; a trial's
    expected share of bin j is its pea_pmf cell at k = a + j (mod T),
    pea_kernel(T, k/T - wrap(x)).  Bins expecting fewer than 5 outcomes are
    pooled.  An outcome of probability 0 gives p = 0."""
    wrapped = x % 1.0
    a = np.rint(T * wrapped)
    j = (s - a) % T
    j = np.where(j > T / 2, j - T, j)
    J = min(32, T // 2)
    js = np.arange(-J, J + 1)
    js = js[(js > -T / 2) & (js <= T / 2)]
    cells = pea_kernel(T, ((a[:, None] + js) % T) / T - wrapped[:, None])
    prob = cells[np.arange(len(s))[:, None], (j[:, None] == js).argmax(axis=1)[:, None]][:, 0]
    inside = np.abs(j) <= J
    if not np.all(prob[inside] > 0.0):
        return 0.0
    expected = np.append(cells.sum(axis=0), max(len(s) - cells.sum(), 0.0))
    observed = np.append([np.sum(j == v) for v in js], np.sum(~inside))
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    if expected[-1] < 5:  # too little left to pool into a bin of its own
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    if len(expected) < 2:
        return 1.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi2, df=len(expected) - 1))


@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("T", [2, 16, 256, 1 << 16])
def test_block_sampler_fits_the_outcome_law(T: int, mode: ThetaMode) -> None:
    n = 20000
    phi = _phases(T, n)
    params = PeaParams.from_T(T, 1, mode)
    s, theta, phi_tilde = sample_upea_block(params, phi, make_rng(T), n)
    assert s.dtype.kind == "i" and np.all((0 <= s) & (s < T))
    assert np.array_equal(phi_tilde, (s / T - theta) % 1.0)
    assert _chi2_pvalue(T, phi + theta, s) > 1e-3


@pytest.mark.parametrize("f", [0.02, 0.25, 0.5])
@pytest.mark.parametrize("T", [4, 16, 256, 1 << 16])
def test_rejection_draws_follow_the_law_past_both_atoms(T: int, f: float) -> None:
    # _tail alone, at one offset f = |e| and many draws: the offsets j of
    # the window -T/2 < j <= T/2 other than 0 and 1, weighted by
    # P(j) = sin^2(pi f) / (T^2 sin^2(pi (j - f)/T)), renormalized
    n = 200_000
    j = _tail(T, np.full(n, f), make_rng(T))
    window = np.arange(1 - T // 2, T // 2 + 1)
    window = window[(window != 0) & (window != 1)]
    assert np.all(np.isin(j, window))
    law = 1.0 / np.sin(np.pi * (window - f) / T) ** 2
    law /= law.sum()
    near = np.abs(window) <= 32  # bins; the rest pooled into one
    expected = np.append(law[near], law[~near].sum()) * n
    observed = np.append([np.sum(j == v) for v in window[near]], np.sum(np.abs(j) > 32))
    keep = expected >= 5
    expected = np.append(expected[keep], expected[~keep].sum())
    observed = np.append(observed[keep], observed[~keep].sum())
    if expected[-1] == 0.0:
        expected, observed = expected[:-1], observed[:-1]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, df=len(expected) - 1) > 1e-3


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_chi2_check_takes_the_inverse_cdf_oracle_and_rejects_a_shifted_law(mode: ThetaMode) -> None:
    n, T = 20000, 16
    phi = _phases(T, n)
    params = PeaParams.from_T(T, 1, mode)
    s, theta = _inverse_cdf(params, phi, make_rng(3), n)
    assert _chi2_pvalue(T, phi + theta, s) > 1e-3
    # draws made a quarter of an outcome away from the law checked
    s, theta = _inverse_cdf(params, phi + 0.25 / T, make_rng(3), n)
    assert _chi2_pvalue(T, phi + theta, s) < 1e-6


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_block_sampler_at_t_1_returns_outcome_0(mode: ThetaMode) -> None:
    params = PeaParams.from_T(1, 1, mode)
    s, theta, phi_tilde = sample_upea_block(params, _phases(1, 300), make_rng(4), 300)
    assert not s.any()
    assert np.array_equal(phi_tilde, (-theta) % 1.0)


@pytest.mark.parametrize("T", [1, 2, 16, 256, 1 << 16, 1 << 20])
def test_block_sampler_is_a_pure_function_of_the_generator_state(T: int) -> None:
    n = 5000
    phi = _phases(T, n)
    for mode in MODES:
        params = PeaParams.from_T(T, 1, mode)
        runs = []
        for _ in range(2):
            rng = make_rng(17)
            draws = sample_upea_block(params, phi, rng, n)
            runs.append(b"".join(a.tobytes() for a in draws) + np.float64(rng.random()).tobytes())
        assert runs[0] == runs[1]
        other = b"".join(a.tobytes() for a in sample_upea_block(params, phi, make_rng(18), n))
        assert other != runs[0][: len(other)] or T == 1 and mode.kind == "fixed"
