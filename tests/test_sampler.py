"""Tests for outcome sampling, seed derivation, and empirical aggregation."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from upea.phase_math import PeaParams, ThetaMode, pea_kernel, pea_pmf, wrap_phase
from upea.sampler import (
    RNG_ALGORITHM,
    derive_seed,
    empirical_bias_mae,
    make_rng,
    run_batch,
    sample_pea,
    sample_upea,
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


def test_derive_seed_pinned() -> None:
    # frozen: first 8 bytes (little-endian) of sha256("1|exp|0|0")
    import hashlib

    digest = hashlib.sha256(b"1|exp|0|0").digest()
    assert derive_seed(1, "exp", 0, 0) == int.from_bytes(digest[:8], "little")


def test_sample_pea_reproducible() -> None:
    a = [sample_pea(P16, 0.3, make_rng(5)) for _ in range(3)]
    b = [sample_pea(P16, 0.3, make_rng(5)) for _ in range(3)]
    assert a == b


def test_sample_pea_goodness_of_fit() -> None:
    """Sampled outcome counts match the exact table (chi-squared, alpha 1e-3)."""
    phi = 0.2371
    n = 20000
    rng = make_rng(101)
    probs = pea_pmf(P16, phi).probs
    counts = np.bincount(
        [sample_pea(P16, phi, rng) for _ in range(n)], minlength=16
    ).astype(float)
    # pool cells with tiny expectation to keep the chi-squared approximation valid
    keep = probs * n >= 5
    pooled_obs, pooled_exp = counts[keep], probs[keep] * n
    if not keep.all():
        pooled_obs = np.append(pooled_obs, counts[~keep].sum())
        pooled_exp = np.append(pooled_exp, probs[~keep].sum() * n)
    chi2 = float(((pooled_obs - pooled_exp) ** 2 / pooled_exp).sum())
    pval = stats.chi2.sf(chi2, df=len(pooled_obs) - 1)
    assert pval > 1e-3


def test_sample_upea_estimate_is_wrapped_and_consistent() -> None:
    rng = make_rng(7)
    for _ in range(50):
        smp = sample_upea(P16, 0.81, rng)
        assert 0 <= smp.s < 16
        assert 0.0 <= smp.phi_tilde < 1.0
        assert smp.phi_tilde == pytest.approx(
            wrap_phase(smp.s / 16 - smp.theta), abs=1e-15
        )


def test_theta_modes_drawn_from_declared_support() -> None:
    rng = make_rng(9)
    full = PeaParams.from_T(16, theta_mode=ThetaMode.full())
    period = PeaParams.from_T(16, theta_mode=ThetaMode.period())
    fixed = PeaParams.from_T(16, theta_mode=ThetaMode.fixed(0.3))
    assert all(0 <= sample_upea(full, 0.1, rng).theta < 1 for _ in range(20))
    assert all(0 <= sample_upea(period, 0.1, rng).theta < 1 / 16 for _ in range(20))
    assert all(sample_upea(fixed, 0.1, rng).theta == 0.3 for _ in range(5))


def test_block_matches_convention_on_cdf_atoms() -> None:
    """The block sampler's comparison count equals searchsorted side='right'
    even when the uniform draw hits a CDF value exactly."""
    probs = np.array([0.25, 0.25, 0.5])
    cdf = np.cumsum(probs)
    for u in (0.0, 0.25, 0.5, 0.4999999, 0.75, 1.0 - 1e-16):
        counted = int((cdf <= u).sum())
        assert counted == int(np.searchsorted(cdf, u, side="right"))


def test_block_sampler_agrees_with_scalar_distribution() -> None:
    # same seed gives different draw order, so compare distributions instead
    n = 40000
    phi = 0.37
    _, _, block = sample_upea_block(P16, phi, make_rng(21), n)
    rng = make_rng(22)
    scalar = np.array([sample_upea(P16, phi, rng).phi_tilde for _ in range(4000)])
    ks = stats.ks_2samp(block, scalar)
    assert ks.pvalue > 1e-3


def test_block_sampler_vector_phi() -> None:
    phis = np.array([0.1, 0.5, 0.9])
    s, theta, est = sample_upea_block(P16, phis, make_rng(3), 3)
    assert s.shape == theta.shape == est.shape == (3,)
    assert np.all((0 <= s) & (s < 16))


def test_block_sampler_memory_is_bounded_at_large_t() -> None:
    # n x T pmf and cdf arrays would take 128 MiB each at T = n = 4096
    tracemalloc.start()
    try:
        s, _, _ = sample_upea_block(PeaParams.from_T(4096), 0.3, make_rng(5), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == (4096,) and np.all((0 <= s) & (s < 4096))
    assert peak <= 64 << 20


def test_run_batch_shape_and_determinism() -> None:
    params = PeaParams.from_T(16, R=4)
    b1 = run_batch(params, 0.6, make_rng(77))
    b2 = run_batch(params, 0.6, make_rng(77))
    assert len(b1.samples) == 4
    assert np.array_equal(b1.estimates, b2.estimates)


def test_empirical_bias_mae_circular() -> None:
    # errors of +-0.1 across the wrap point
    entry = empirical_bias_mae([0.05, 0.85], 0.95, circular=True)
    assert entry.bias == pytest.approx(0.0, abs=1e-15)
    assert entry.mae == pytest.approx(0.1, abs=1e-15)
    assert entry.n_samples == 2


def test_empirical_bias_mae_plain() -> None:
    entry = empirical_bias_mae([0.2, 0.4], 0.25, circular=False)
    assert entry.bias == pytest.approx(0.05, abs=1e-15)
    assert entry.mae == pytest.approx(0.1, abs=1e-15)
    # ddof=1 standard errors
    d = np.array([-0.05, 0.15])
    assert entry.stderr_bias == pytest.approx(d.std(ddof=1) / math.sqrt(2))


def test_empirical_bias_mae_single_sample_has_zero_stderr() -> None:
    entry = empirical_bias_mae([0.3], 0.2, circular=False)
    assert entry.stderr_bias == 0.0 and entry.stderr_mae == 0.0


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_block_sampler_rejects_a_non_finite_phase(phi: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        sample_upea(PeaParams.from_T(16, 3), phi, make_rng(1))
    with pytest.raises(ValueError, match="finite"):
        sample_upea_block(P16, np.array([0.1, phi]), make_rng(1), 2)


def _block_reference(params: PeaParams, phi, rng, n: int):
    """sample_upea_block drawn row by row with out-of-place arrays."""
    T = params.T
    theta = rng.random(n) if params.theta_mode.kind == "full" else np.full(n, params.theta_mode.value)
    shifted = np.asarray(phi, dtype=float) + theta
    u = rng.random(n)
    grid = np.arange(T) / T
    s = np.array([(np.cumsum(pea_kernel(T, grid - x)) <= v).sum() for x, v in zip(shifted, u)])
    s = np.minimum(s, T - 1)
    return s, theta, (s / T - theta) % 1.0


@pytest.mark.parametrize("T, n", [(2, 9), (16, 600), (4096, 5), (1 << 14, 3)])
def test_block_sampler_with_reused_slice_buffers_matches_row_by_row_draws(T: int, n: int) -> None:
    # (4096, 5): two rows per slice and a shorter last slice; 2^14: one row per slice
    for mode in (ThetaMode.full(), ThetaMode.fixed(0.3)):
        params = PeaParams.from_T(T, 1, mode)
        phi = np.linspace(-1.3, 2.7, n)
        got = sample_upea_block(params, phi, make_rng(8), n)
        want = _block_reference(params, phi, make_rng(8), n)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("T", [1, 2, 16, 256, 1 << 14])
def test_block_sampler_inverts_the_outcome_table_bit_for_bit(T: int) -> None:
    # a fixed theta draws nothing, so the block's uniforms are the generator's
    # first n draws; phases spread outside [0, 1) and near lattice points
    n = 64 if T < 1 << 14 else 6
    near = np.arange(n) / T + np.resize([0.0, 2.0**-40, -1e-12, 5e-324, -1e-20], n)
    for theta, phi in ((0.3, np.linspace(-1.3, 2.7, n)), (0.0, near)):
        params = PeaParams.from_T(T, 1, ThetaMode.fixed(theta))
        s, _, _ = sample_upea_block(params, phi, make_rng(13), n)
        u = make_rng(13).random(n)
        want = [
            np.searchsorted(np.cumsum(pea_pmf(params, x + theta).probs), v, side="right")
            for x, v in zip(phi, u)
        ]
        assert s.tobytes() == np.minimum(want, T - 1).tobytes()

