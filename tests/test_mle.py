"""Tests for the grid-plus-refinement likelihood maximizers.

The brute-force oracle is an independent maximizer: a dense likelihood scan
followed by scipy bounded scalar optimization inside the best cell.  The
dense single-level bound scan is the oracle for the two-level scan's starts.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize

from upea.mle import (
    LOG_ZERO,
    MleResult,
    log_kernel,
    mle_batch,
    mle_counting_batch,
    mle_estimate,
    mle_estimate_counting,
)
import upea.mle as mle_mod
from upea.mle import _dlog_kernel, _maximize, _mixture_ll, _plain_ll
from upea.phase_math import PeaParams, _wrap_array, circ_dist, pea_kernel, wrap_phase
from upea.sampler import derive_seed, make_rng, sample_upea_block

P3 = PeaParams.from_T(16, R=3)


def _ll(params: PeaParams, est, c) -> float:
    """The plain objective of one row of estimates at one candidate."""
    return float(_plain_ll(params.T, np.asarray(est, dtype=float), c))


def _mix_ll(params: PeaParams, est, c) -> float:
    """The mixture objective of one row of estimates at one candidate."""
    return float(_mixture_ll(params.T, np.asarray(est, dtype=float), c))


def _brute_force_phase(params: PeaParams, est: np.ndarray) -> float:
    """Independent maximizer of the pooled log likelihood over [0, 1)."""
    grid = np.arange(1 << 15) / (1 << 15)
    with np.errstate(divide="ignore"):
        vals = np.log(pea_kernel(params.T, est[None, :] - grid[:, None])).sum(axis=1)
    k = int(np.argmax(vals))
    lo, hi = (k - 1) / grid.size, (k + 1) / grid.size
    res = optimize.minimize_scalar(
        lambda c: -_ll(params, est, float(c % 1.0)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return wrap_phase(float(res.x))


def _brute_force_counting(params: PeaParams, est: np.ndarray) -> float:
    """Independent maximizer of the mixture log likelihood over [0, 1/2]."""
    grid = np.linspace(0.0, 0.5, 1 << 14)
    c = grid[:, None]
    mix = 0.5 * (pea_kernel(params.T, est - c) + pea_kernel(params.T, est + c))
    with np.errstate(divide="ignore"):
        vals = np.log(mix).sum(axis=1)
    k = int(np.argmax(vals))
    lo = max(grid[max(k - 1, 0)], 0.0)
    hi = min(grid[min(k + 1, grid.size - 1)], 0.5)
    res = optimize.minimize_scalar(
        lambda c: -_mix_ll(params, est, float(c)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return float(res.x)


def test_log_likelihood_sentinel_at_kernel_zero() -> None:
    # estimate exactly one kernel zero away from the candidate
    ll = _ll(P3, np.array([0.25 + 1 / 16, 0.25, 0.25]), 0.25)
    assert ll <= LOG_ZERO
    assert _ll(P3, np.array([0.25, 0.25, 0.25]), 0.25) == 0.0
    # subnormal offsets sit on the lattice side, not the sentinel side
    sub = np.array([0.25 + 2.2250738585e-313, 0.25, 0.25])
    assert _ll(P3, sub, 0.25) == 0.0


@given(
    st.integers(min_value=0, max_value=16),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False),
)
@example(t=4, delta=0.0)  # lattice points
@example(t=4, delta=-3.0)
@example(t=0, delta=0.5)
@example(t=4, delta=2.2250738585e-313)  # subnormal offsets sit on the lattice
@example(t=10, delta=-5e-324)
@example(t=4, delta=1 / 16)  # kernel zeros k/T
@example(t=4, delta=-2.6875)
@example(t=16, delta=3.0 + 7 / 65536)
@example(t=4, delta=1 / 16 + 2**-56)  # one ulp from a kernel zero
def test_log_kernel_is_log_of_pea_kernel(t: int, delta: float) -> None:
    T = 1 << t
    k = pea_kernel(T, delta)
    lk = log_kernel(T, delta)
    if k == 0.0:
        assert lk == LOG_ZERO
    else:
        assert abs(lk - math.log(k)) <= 1e-12


def test_mle_result_validation() -> None:
    MleResult(0.3, -1.0, 1024, 10)
    with pytest.raises(ValueError):
        MleResult(1.2, -1.0, 1024, 10)
    with pytest.raises(ValueError):
        MleResult(0.3, float("nan"), 1024, 10)


def test_single_run_fast_path_returns_the_sample() -> None:
    params = PeaParams.from_T(16, R=1)
    res = mle_estimate(params, [0.8125])
    assert res.phi_hat == 0.8125
    assert res.grid_points == 0 and res.refine_iterations == 0


def test_mle_matches_brute_force_oracle() -> None:
    rng = make_rng(2024)
    for _ in range(25):
        phi = float(rng.random())
        _, _, est = sample_upea_block(P3, phi, rng, 3)
        got = mle_estimate(P3, est).phi_hat
        want = _brute_force_phase(P3, est)
        assert abs(circ_dist(got, want)) < 2e-6


def test_mle_refinement_is_monotone() -> None:
    # the refined point can never score below the best coarse grid point
    rng = make_rng(55)
    for _ in range(10):
        _, _, est = sample_upea_block(P3, float(rng.random()), rng, 3)
        res = mle_estimate(P3, est)
        grid = np.arange(res.grid_points) / res.grid_points
        coarse = max(_ll(P3, est, float(c)) for c in grid)
        assert res.log_likelihood >= coarse - 1e-12


def test_mle_shift_equivariance() -> None:
    rng = make_rng(8)
    est = np.asarray(rng.random(3))
    base = mle_estimate(P3, est).phi_hat
    for shift in rng.random(20):
        got = mle_estimate(P3, (est + shift) % 1.0).phi_hat
        assert abs(circ_dist(got, wrap_phase(base + shift))) < 1e-9


def test_mle_batch_matches_brute_force_oracle() -> None:
    rng = make_rng(99)
    n = 300
    mat = np.empty((n, 3))
    for j in range(3):
        _, _, mat[:, j] = sample_upea_block(P3, 0.44, rng, n)
    batch = mle_batch(P3, mat)
    for i in range(n):
        want = _brute_force_phase(P3, mat[i])
        got_ll = _ll(P3, mat[i], batch[i])
        assert got_ll >= _ll(P3, mat[i], want) - 1e-12
        assert abs(circ_dist(batch[i], want)) < 2e-6


def test_mle_batch_single_column_is_fold() -> None:
    params = PeaParams.from_T(16, R=1)
    mat = np.array([[0.3], [0.96]])
    assert np.allclose(mle_batch(params, mat), [0.3, 0.96])


def test_mixture_log_likelihood_is_even_in_candidate_sign() -> None:
    est = np.array([0.1, 0.45, 0.3])
    a = _mix_ll(P3, est, 0.2)
    # the +-c mixture is symmetric under c -> 1 - c (same pair of peaks)
    b = _mix_ll(P3, est, 0.8)
    assert a == pytest.approx(b, abs=1e-12)


def test_counting_single_run_folds_into_half_interval() -> None:
    params = PeaParams.from_T(16, R=1)
    res = mle_estimate_counting(params, [0.8])
    assert res.phi_hat == pytest.approx(0.2, abs=1e-15)
    res2 = mle_estimate_counting(params, [0.3])
    assert res2.phi_hat == pytest.approx(0.3, abs=1e-15)


def test_counting_estimate_stays_in_half_interval() -> None:
    rng = make_rng(31)
    for _ in range(20):
        est = rng.random(3)
        res = mle_estimate_counting(P3, est)
        assert 0.0 <= res.phi_hat <= 0.5


def test_counting_mle_matches_brute_force() -> None:
    rng = make_rng(42)
    for _ in range(15):
        est = rng.random(3)
        got = mle_estimate_counting(P3, est).phi_hat
        assert abs(got - _brute_force_counting(P3, est)) < 2e-6


def _assert_counting_batch_matches_oracle(params: PeaParams, mat: np.ndarray) -> None:
    batch = mle_counting_batch(params, mat)
    for i in range(mat.shape[0]):
        want = _brute_force_counting(params, mat[i])
        got_ll = _mix_ll(params, mat[i], batch[i])
        assert got_ll >= _mix_ll(params, mat[i], want) - 1e-12
        assert abs(batch[i] - want) < 2e-6


def test_counting_batch_matches_brute_force() -> None:
    _assert_counting_batch_matches_oracle(P3, make_rng(17).random((200, 3)))


@pytest.mark.parametrize(
    "T, row",
    [
        # maximum at the interval end c = 1/2, which the snapped scan ranked
        # out of the re-scored short list
        (16, [0.512135814728801, 0.5204405561383632, 0.6370042323010977]),
        (16, [0.4826071082123309, 0.9224133444730946]),
        # exact winner on the short list's edge with a better cell just
        # outside it
        (4, [0.3901982274452006, 0.6076454827522434]),
        (2, [0.7661378132245931, 0.7713783307348947, 0.7055694192898343]),
        # L' vanishes at the end c = 1/2, a local minimum here: a refinement
        # that narrowed its bracket at an end would collapse onto it
        (16, [0.5333291330789937, 0.49586064452782597]),
    ],
)
def test_counting_batch_brackets_the_maximizer(T: int, row: list) -> None:
    _assert_counting_batch_matches_oracle(PeaParams.from_T(T, R=len(row)), np.array([row]))


def test_more_runs_concentrate_the_estimate() -> None:
    """Monte Carlo sanity: pooled-likelihood error shrinks as R grows."""
    rng = make_rng(3000)
    phi = 0.37
    errs = []
    for R in (2, 8):
        params = PeaParams.from_T(16, R=R)
        mat = np.empty((400, R))
        for j in range(R):
            _, _, mat[:, j] = sample_upea_block(params, phi, rng, 400)
        est = mle_batch(params, mat)
        errs.append(np.abs(np.vectorize(circ_dist)(est, phi)).mean())
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# log-kernel derivatives, the Newton polish and batch independence


@pytest.mark.parametrize("T", [2, 16, 256])
def test_dlog_kernel_matches_central_differences(T: int) -> None:
    # offsets e*T below 1.5e-3 take the series branch, the rest the cotangent
    # form; every point keeps away from the kernel zeros k/T
    scaled = np.array([0.0, 1e-4, -1e-3, 1.4e-3, 1.6e-3, -0.0199, 0.3, 0.7, 1.5])
    delta = np.concatenate([scaled / T, [0.3, -0.4], 3.0 + scaled / T])
    h, hp, _ = _dlog_kernel(T, delta)
    # five-point central differences, accurate to O(s^4)
    s = 1e-3 / T
    lk = [log_kernel(T, delta + k * s) for k in (-2, -1, 0, 1, 2)]
    fd1 = (lk[0] - 8.0 * lk[1] + 8.0 * lk[3] - lk[4]) / (12.0 * s)
    fd2 = (-lk[0] + 16.0 * lk[1] - 30.0 * lk[2] + 16.0 * lk[3] - lk[4]) / (12.0 * s * s)
    assert np.allclose(h, fd1, rtol=1e-9, atol=1e-9 * T)
    assert np.allclose(hp, fd2, rtol=1e-7, atol=1e-7 * T * T)
    # log K peaks at the lattice: h' < 0 there, the sign the polish relies on
    assert h[0] == 0.0 and hp[0] == pytest.approx(-2.0 * np.pi**2 * (T * T - 1) / 3.0)


@pytest.mark.parametrize("T", [1, 2, 16, 256, 1 << 16])
def test_dlog_kernel_returns_pea_kernel_bit_for_bit(T: int) -> None:
    # lattice points, kernel zeros, offsets of 2^-40 from both, and 1e300
    # (a whole number of turns)
    grid = np.arange(-2 * T, 2 * T + 1) / T
    tiny = 2.0**-40
    delta = np.concatenate([grid, grid + tiny, grid - tiny, [tiny, -tiny, 1e300, -1e300]])
    assert np.array_equal(_dlog_kernel(T, delta)[2], pea_kernel(T, delta))


@pytest.mark.parametrize("T", [2, 4, 16, 256, 1 << 16])
def test_log_kernel_is_concave_wherever_the_kernel_is_positive(T: int) -> None:
    # the bound table's premise: (log K)'' <= 0 off the zeros k/T, here on
    # 32 points per lobe over [0, 1/2] (K is even) and on offsets near 0
    y = np.concatenate([np.arange(16 * T + 1) / (32 * T), np.geomspace(1e-9, 1.0, 64) / T])
    _, hp, k = _dlog_kernel(T, y)
    assert np.all(hp[k > 0.0] <= 0.0)


def test_counting_single_row_matches_batch_bit_for_bit() -> None:
    rng = make_rng(606)
    mat = np.empty((300, 3))
    for j in range(3):
        _, _, mat[:, j] = sample_upea_block(P3, 0.0, rng, 300)
    x, fx, cells, iters = _maximize(P3.T, mat, counting=True)
    # m = 0: many rows land on the interval end, where clipped brackets once
    # made the refinement step count depend on the batch
    assert np.count_nonzero((x == 0.0) | (x == 0.5)) >= 50
    assert np.array_equal(mle_counting_batch(P3, mat), x)
    for i in range(300):
        res = mle_estimate_counting(P3, mat[i])
        assert res.phi_hat == x[i] and res.log_likelihood == fx[i]
        assert res.grid_points == cells and res.refine_iterations == iters[i]


def test_counting_flat_peak_at_half_resolves_to_the_end() -> None:
    row = [0.512135814728801, 0.5204405561383632, 0.6370042323010977]
    assert mle_estimate_counting(P3, row).phi_hat == 0.5
    assert mle_counting_batch(P3, np.array([row]))[0] == 0.5


def test_mle_batch_shift_equivariance() -> None:
    rng = make_rng(1)
    mat = np.empty((300, 3))
    phi = rng.random(300)
    for j in range(3):
        _, _, mat[:, j] = sample_upea_block(P3, phi, rng, 300)
    base = mle_batch(P3, mat)
    for shift in rng.random(4):
        got = mle_batch(P3, (mat + shift) % 1.0)
        err = np.abs(np.vectorize(circ_dist)(got, (base + shift) % 1.0))
        assert err.max() < 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_estimates_raise(bad: float) -> None:
    row = [0.1, bad, 0.2]
    for fn in (mle_batch, mle_counting_batch):
        with pytest.raises(ValueError, match="finite"):
            fn(P3, np.array([row]))
    for fn in (mle_estimate, mle_estimate_counting):
        with pytest.raises(ValueError, match="finite"):
            fn(P3, row)


def test_whole_turn_offsets_agree_with_the_plain_rows() -> None:
    rng = make_rng(2)
    mat = np.empty((100, 3))
    phi = rng.random(100)
    for j in range(3):
        _, _, mat[:, j] = sample_upea_block(P3, phi, rng, 100)
    for fn in (mle_batch, mle_counting_batch):
        base = fn(P3, mat)
        for turns in (3, -5):
            got = fn(P3, mat + turns)
            assert np.abs(np.vectorize(circ_dist)(got, base)).max() < 1e-9
        # 1e300 is a whole number of turns, so it stands for the phase 0
        assert fn(P3, np.array([[0.1, 1e300, 0.2]]))[0] == fn(P3, np.array([[0.1, 0.0, 0.2]]))[0]


def test_t1_with_several_runs_raises_a_flat_likelihood_error() -> None:
    # one register outcome: the kernel is constant, so every candidate ties
    p = PeaParams.from_T(1, 2)
    rows = np.array([[0.1, 0.7], [0.3, 0.3]])
    for fn in (mle_batch, mle_counting_batch):
        with pytest.raises(ValueError, match="T = 1 gives a flat likelihood"):
            fn(p, rows)
    for fn in (mle_estimate, mle_estimate_counting):
        with pytest.raises(ValueError, match="T = 1 gives a flat likelihood"):
            fn(p, rows[0])
    # a single run still takes its fast path
    one = PeaParams.from_T(1, 1)
    assert mle_counting_batch(one, np.array([[0.3], [0.8]])).tolist() == [0.3, 1.0 - 0.8]
    assert mle_batch(one, np.array([[0.3]])).tolist() == [0.3]


@pytest.mark.parametrize("batch", [mle_batch, mle_counting_batch])
def test_batch_entry_points_take_zero_rows(batch) -> None:
    got = batch(P3, np.empty((0, 3)))
    assert got.shape == (0,) and got.dtype == float


@pytest.mark.parametrize("batch", [mle_batch, mle_counting_batch])
def test_batch_entry_points_reject_a_one_dimensional_array(batch) -> None:
    with pytest.raises(ValueError, match=r"estimates must be an \(n, R\) array"):
        batch(P3, np.array([0.1, 0.2, 0.3]))


# ---------------------------------------------------------------------------
# the safeguarded refinement loop, its bisection branch and the end check


def _phase_zero_rows(T: int, R: int, n: int, seed: int) -> np.ndarray:
    """n rows of R shifted runs at phase 0 (count fraction m = 0), where
    the likelihood peaks are flattest and counting maxima sit on the ends."""
    params = PeaParams.from_T(T, R)
    rng = make_rng(seed)
    mat = np.empty((n, R))
    for j in range(R):
        _, _, mat[:, j] = sample_upea_block(params, 0.0, rng, n)
    return mat


# rows where a guarded counting Newton step from the cell centre is rejected
# (it leaves the bracket or the peak is too flat), so the loop bisects
_FALLBACK_ROWS = [
    (4, [0.06167986910525969, 0.5632948541256013]),
    (4, [0.10655141971838522, 0.003506428942539941, 0.13815076059566833]),
    (2, [0.19861524566994748, 0.03873610950753803, 0.3555062181673563,
         0.15144697353676406, 0.009472437942056211]),
]


def _spy_newton_steps(monkeypatch) -> list:
    """Spy on the loop's step: each call, one per loop step, appends its
    accepted mask; a rejected row takes the bisection branch.  One-column
    rows are not counted (refinement never runs at R = 1)."""
    calls: list = []
    orig = mle_mod._newton_step

    def spy(T, est, *args):
        nxt, ok, a, b = orig(T, est, *args)
        if est.shape[1] > 1:
            calls.append(ok)
        return nxt, ok, a, b

    monkeypatch.setattr(mle_mod, "_newton_step", spy)
    return calls


@pytest.mark.parametrize("counting", [False, True])
def test_single_row_matches_batch_on_every_refinement_path(monkeypatch, counting: bool) -> None:
    steps = _spy_newton_steps(monkeypatch)
    cases = [(T, np.array([row])) for T, row in _FALLBACK_ROWS]
    # the flat-peak row: Newton converges to a point just short of 1/2 and
    # the end check takes 1/2 itself
    cases.append((16, np.array([[0.512135814728801, 0.5204405561383632, 0.6370042323010977]])))
    cases += [(2, _phase_zero_rows(2, 3, 200, 71)), (4, _phase_zero_rows(4, 2, 200, 72))]
    paths = {"newton": 0, "end": 0}
    bisected: list = []
    for T, mat in cases:
        params = PeaParams.from_T(T, mat.shape[1])
        x, fx, cells, iters = _maximize(T, mat, counting)
        batch = (mle_counting_batch if counting else mle_batch)(params, mat)
        assert np.array_equal(batch, x)
        for i in range(mat.shape[0]):
            del steps[:]
            res = (mle_estimate_counting if counting else mle_estimate)(params, mat[i])
            assert res.phi_hat == x[i] and res.log_likelihood == fx[i]
            assert res.grid_points == cells and res.refine_iterations == iters[i]
            bisected.append(not all(ok.all() for ok in steps))
            paths["newton"] += not bisected[-1]
            paths["end"] += counting and x[i] in (0.0, 0.5)
    assert paths["newton"] >= 300
    if counting:
        # every fallback row bisects, and the flat rows reach the end check
        assert all(bisected[: len(_FALLBACK_ROWS)]) and paths["end"] >= 100


@pytest.mark.parametrize("mle", [mle_estimate, mle_estimate_counting])
@pytest.mark.parametrize("T, row", [(16, [0.1, 0.12, 0.11])] + _FALLBACK_ROWS)
def test_refine_iterations_counts_the_loop_steps_the_row_ran(
    monkeypatch, mle, T: int, row: list
) -> None:
    steps = _spy_newton_steps(monkeypatch)
    res = mle(PeaParams.from_T(T, len(row)), row)
    assert res.refine_iterations == len(steps) > 0


@pytest.mark.parametrize("mle", [mle_estimate, mle_estimate_counting])
@pytest.mark.parametrize("T, row", [(16, [0.1, 0.12, 0.11])] + _FALLBACK_ROWS)
def test_each_refinement_step_evaluates_the_derivatives_once(
    monkeypatch, mle, T: int, row: list
) -> None:
    # a rejected Newton step reads the sign of L' from the same evaluation
    calls: list = []
    orig = mle_mod._dll

    def spy(T, est, *args):
        calls.append(est.shape[1] > 1)
        return orig(T, est, *args)

    monkeypatch.setattr(mle_mod, "_dll", spy)
    res = mle(PeaParams.from_T(T, len(row)), row)
    assert sum(calls) == res.refine_iterations > 0


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_batch(
    f, lo: np.ndarray, hi: np.ndarray, seed_x: np.ndarray, seed_f: np.ndarray, steps: int
):
    """Vectorized golden-section max over steps iterations; f maps a
    candidate vector to a value vector.  Returns (x, f(x)) with best-seen
    tracking."""
    a = lo.copy()
    b = hi.copy()
    best_x = seed_x.copy()
    best_f = seed_f.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(steps):
        left = fc >= fd
        # shrink from the right where the left probe wins, else from the left
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = b - _INVPHI * (b - a)
        d_new = a + _INVPHI * (b - a)
        # where left: new probe is c_new (d_new == old c); where right: d_new
        carry_f = np.where(left, fc, fd)
        probe = np.where(left, c_new, d_new)
        f_probe = f(probe)
        fc = np.where(left, f_probe, carry_f)
        fd = np.where(left, carry_f, f_probe)
        c, d = c_new, d_new
    for x_, f_ in ((c, fc), (d, fd)):
        better = (f_ > best_f) | ((f_ == best_f) & (x_ < best_x))
        best_x = np.where(better, x_, best_x)
        best_f = np.where(better, f_, best_f)
    return best_x, best_f


def _golden_reference(T: int, G: int, mat: np.ndarray, counting: bool, best, best_f) -> tuple:
    """An independent refinement of each start (row of mat, cell of the
    G-cell grid and its exact score): golden section over the start's
    two-cell bracket for the step count that shrinks it below 1e-12, then
    three guarded Newton steps whose point replaces the golden one wherever
    it scores within rounding of it."""
    R = mat.shape[1]
    ll = _mix_ll if counting else _ll
    params = PeaParams.from_T(T, R)

    def f(c: np.ndarray) -> np.ndarray:
        return np.array([ll(params, row, float(ci)) for row, ci in zip(mat, c)])

    lo, hi = (best - 1.0) / G, (best + 1.0) / G
    if counting:
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 0.5)
    steps = math.ceil(math.log(1e-12 * G / 2.0) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    xg, fg = _golden_batch(f, lo, hi, best / G, best_f, steps)
    cur = xg
    for _ in range(3):
        d1, d2 = mle_mod._dll(T, mat, cur, counting)
        ok = np.isfinite(d1) & np.isfinite(d2) & (d2 < 0.0)
        nxt = cur - np.divide(d1, d2, out=np.zeros_like(d1), where=ok)
        ok &= (nxt >= lo - 1e-9) & (nxt <= hi + 1e-9)
        cur = np.where(ok, nxt, cur)
    cur = np.clip(cur, 0.0, 0.5) if counting else cur
    f_cur = f(cur)
    accept = f_cur >= fg - mle_mod._ROUNDING * (T * R + np.abs(fg))
    return np.where(accept, cur, xg), np.where(accept, f_cur, fg)


@pytest.mark.parametrize("counting", [False, True])
@pytest.mark.parametrize("T, R", [(2, 3), (4, 2), (16, 3), (16, 16), (256, 4)])
def test_newton_first_refinement_matches_a_golden_section_reference(
    T: int, R: int, counting: bool
) -> None:
    rng = make_rng(derive_seed(404, T, R))
    params = PeaParams.from_T(T, R)
    n = 60
    mat = np.empty((n, R))
    # a third at phase 0, a third at random phases, a third uniform
    phi = np.concatenate([np.zeros(n // 3), rng.random(n // 3)])
    for j in range(R):
        _, _, mat[: len(phi), j] = sample_upea_block(params, phi, rng, len(phi))
    mat[len(phi):] = rng.random((n - len(phi), R))
    x, fx, cells, _ = _maximize(T, mat, counting)
    row, best, best_f = mle_mod._scan(T, _wrap_array(mat), counting)
    G = 2 * (cells - 1) if counting else cells
    x_ref, f_ref = _golden_reference(T, G, mat[row], counting, best, best_f)
    ll = _mix_ll if counting else _ll
    scores = np.array([ll(params, r, float(c)) for r, c in zip(mat, x)])
    for i in range(n):
        # the row scores at least its best reference, and sits on a
        # reference point that scores within rounding of it (an R = 2 row's
        # mirror maxima tie up to rounding)
        mine = row == i
        best_ref = f_ref[mine].max()
        slack = mle_mod._ROUNDING * (T * R + abs(best_ref))
        assert scores[i] >= best_ref - slack
        near = x_ref[mine][f_ref[mine] >= best_ref - slack]
        gap = np.abs(x[i] - near) if counting else np.abs(np.vectorize(circ_dist)(x[i], near % 1.0))
        assert gap.min() <= 1e-11


@pytest.mark.parametrize("T, R, seed", [(2, 3, 81), (4, 2, 82)])
def test_counting_rows_never_stop_just_short_of_half(T: int, R: int, seed: int) -> None:
    params = PeaParams.from_T(T, R)
    mat = _phase_zero_rows(T, R, 2000, seed)
    x = mle_counting_batch(params, mat)
    assert np.count_nonzero(x == 0.5) >= 20
    for i in np.flatnonzero((x > 0.5 - 1e-7) & (x < 0.5)):
        fx = _mix_ll(params, mat[i], x[i])
        f_end = _mix_ll(params, mat[i], 0.5)
        assert f_end < fx - mle_mod._ROUNDING * (T * R + abs(fx))


@pytest.mark.parametrize("batch", [mle_batch, mle_counting_batch])
def test_large_t_rows_stay_within_a_stated_traced_peak(batch) -> None:
    # T = 4096, R = 16: G = 262,144 candidates, and the refinement loop's cap
    # is worked out from that G.  The blocked scan keeps the traced peak near
    # 20 MiB plain and 18 MiB mixture, under a 32 MiB bound
    params = PeaParams.from_T(4096, 16)
    rng = make_rng(91)
    phi = rng.random(4)
    mat = np.empty((4, 16))
    for j in range(16):
        _, _, mat[:, j] = sample_upea_block(params, phi, rng, 4)
    tracemalloc.start()
    try:
        x = batch(params, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (4,) and np.all((0.0 <= x) & (x < 1.0))
    assert peak <= 32 << 20


@pytest.mark.parametrize("batch", [mle_batch, mle_counting_batch])
def test_scan_at_t_2_16_stays_under_a_192_mib_traced_peak(batch) -> None:
    # T = 2^16, R = 16: G = 2^22 cells of 8 bytes, 32 MiB per table-sized
    # array.  The window view over the tiled table reads every scan term, so
    # no index array of 2G entries and no second copy of the table is built
    params = PeaParams.from_T(1 << 16, 16)
    rng = make_rng(92)
    mat = rng.random((4, 16))
    tracemalloc.start()
    try:
        x = batch(params, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (4,) and np.all((0.0 <= x) & (x < 1.0))
    assert peak <= 192 << 20


@pytest.mark.parametrize("counting", [False, True])
def test_a_4096_row_call_stays_under_a_10_mib_traced_peak(counting: bool) -> None:
    # uniform rows keep the most cells and starts; the scan's level-1
    # gathers and the refinement run in bounded slices, so the peak (6 to
    # 7.5 MiB) does not grow with the call's starts (14 MiB when one pass
    # refined them all)
    est = make_rng(93).random((4096, 16))
    _maximize(16, est, counting)
    tracemalloc.start()
    try:
        _maximize(16, est, counting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20


def test_entry_points_reject_a_run_count_other_than_params_r() -> None:
    row = [0.1, 0.12, 0.09, 0.11, 0.1]
    for fn in (mle_batch, mle_counting_batch):
        with pytest.raises(ValueError, match=r"R = 5 runs per row but params.R = 3"):
            fn(P3, np.array([row]))
    for fn in (mle_estimate, mle_estimate_counting):
        with pytest.raises(ValueError, match=r"R = 2 runs per row but params.R = 3"):
            fn(P3, row[:2])


@pytest.mark.parametrize(
    "bad", [np.array([["0.1", "0.2", "0.3"]]), np.array([[True, False, True]]), np.array([[0.1, 0.2, None]])]
)
def test_entry_points_reject_string_bool_and_object_estimates(bad) -> None:
    # the strings ran as their values and the bools as 0 and 1
    for fn in (mle_batch, mle_counting_batch):
        with pytest.raises(ValueError, match="estimates must be finite and numeric"):
            fn(P3, bad)
    for fn in (mle_estimate, mle_estimate_counting):
        with pytest.raises(ValueError, match="estimates must be finite and numeric"):
            fn(P3, bad[0])


def test_counting_maximum_at_half_stops_well_under_the_step_cap() -> None:
    # the maximum is the end 1/2, where L' is rounding noise: Newton steps
    # of about 1e-11 once wandered outside the narrowed bracket until the cap
    res = mle_estimate_counting(
        PeaParams.from_T(4, 3), [0.3624805481090335, 0.6073439031292919, 0.5133695949343736]
    )
    G = 2 * (res.grid_points - 1)
    cap = mle_mod._NEWTON_STEPS + math.ceil(math.log2(2.0 / (G * mle_mod._REFINE_TOL)))
    assert res.phi_hat == 0.5
    assert res.refine_iterations <= 12 < cap


# ---------------------------------------------------------------------------
# the bound table and the global maximum


@pytest.mark.parametrize(
    "T, G", [(2, 1024), (4, 32), (16, 128), (16, 192), (16, 1024), (64, 768), (256, 4096)]
)
def test_bound_table_bounds_the_kernel_on_each_two_cell_interval(T: int, G: int) -> None:
    ub = mle_mod._bound_table(T, G)
    # 64 points per cell over [(d - 1)/G, (d + 1)/G], grid points included
    dense = pea_kernel(T, (np.arange(G)[:, None] - 1.0 + np.linspace(0.0, 2.0, 129)) / G)
    assert np.all(dense <= ub[:, None])
    # and it is tight: no looser than the sampling's own gap below a peak,
    # except beside each lobe's grid maximum, where the end tangents meet
    # above the peak by at most their second-order slack
    k = pea_kernel(T, np.arange(G) / G)
    p = np.flatnonzero((k > 0.0) & (k >= np.roll(k, 1)) & (k >= np.roll(k, -1)))
    near = np.zeros(G, dtype=bool)
    near[(p[:, None] + np.arange(-1, 2)) % G] = True
    top = dense.max(axis=1)
    assert np.all(ub[~near] <= top[~near] * 1.001)
    assert np.all(ub[near] <= top[near] * math.exp(math.pi**2 * (T / G) ** 2 / 2))


@pytest.mark.parametrize("T, G", [(2, 1024), (16, 128), (16, 192), (64, 768)])
def test_bound_table_is_exactly_even(T: int, G: int) -> None:
    # K is even, and the scan reads tab[(i - k) % G] as row -i % G of one
    # window view, which holds only if UB[G - d] == UB[d] to the last bit
    ub = mle_mod._bound_table(T, G)
    assert ub.shape == (G,)
    assert np.array_equal(ub, ub[-np.arange(G) % G])


def _bisected_peaks(T: int) -> np.ndarray:
    """Oracle for the sidelobe peaks: 64 bisections of each (m/T, (m+1)/T)
    on the sign of d log K / dx, positive left of the peak."""
    m = np.arange(1.0, T - 1.0)
    a, b = m / T, (m + 1.0) / T
    for _ in range(64):
        mid = 0.5 * (a + b)
        up = _dlog_kernel(T, mid)[0] > 0.0
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    return a


@pytest.mark.parametrize("T", [1 << t for t in range(2, 17)])
def test_sidelobe_peaks_match_a_bisection_oracle(T: int) -> None:
    # at the scan's coarsest grid, G = 8T (R = 2), the two table entries
    # whose intervals hold a sidelobe peak bound K there, and stand above it
    # by at most the end tangents' second-order slack
    G = 8 * T
    ub = mle_mod._bound_table(T, G)
    peaks = _bisected_peaks(T)
    k = pea_kernel(T, peaks)
    d = np.floor(peaks * G).astype(np.int64)
    for at in (d, d + 1):
        assert np.all(ub[at] >= k)
        assert np.all(ub[at] <= k * math.exp(math.pi**2 * (T / G) ** 2 / 2))


def _dense_oracle_score(params: PeaParams, est: np.ndarray, counting: bool) -> float:
    """Independent global maximum: a dense grid of max(32 T R, 4096) cells,
    then bounded scipy refinement around each of its 4 best local maxima."""
    ll = _mix_ll if counting else _ll
    T, R = params.T, params.R
    M = max(32 * T * R, 4096)
    grid = np.linspace(0.0, 0.5, M // 2 + 1) if counting else np.arange(M) / M
    c = grid[:, None]
    with np.errstate(divide="ignore"):
        if counting:
            vals = np.log(0.5 * (pea_kernel(T, est - c) + pea_kernel(T, est + c))).sum(axis=1)
        else:
            vals = np.log(pea_kernel(T, est - c)).sum(axis=1)
    if counting:
        left, right = np.r_[vals[0], vals[:-1]], np.r_[vals[1:], vals[-1]]
    else:
        left, right = np.roll(vals, 1), np.roll(vals, -1)
    peaks = np.flatnonzero((vals >= left) & (vals >= right))
    best = float(vals.max())
    for k in peaks[np.argsort(-vals[peaks])[:4]]:
        lo, hi = (k - 1) / M, (k + 1) / M
        if counting:
            lo, hi = max(lo, 0.0), min(hi, 0.5)
        res = optimize.minimize_scalar(
            lambda x: -ll(params, est, float(x % 1.0)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-14},
        )
        best = max(best, -float(res.fun))
    return best


# rows whose global maximum a shortlist of the 16 best snapped cells missed:
# (T, row, a point that scores above that shortlist's answer)
_MISSED_ROWS = [
    (16, [0.8090823000371207, 0.4945465967405849], 0.78382),
    (
        256,
        [0.9947133620337772, 0.9880855449410233, 0.9888908588844939, 0.9939474305047314],
        0.98866,
    ),
]


@pytest.mark.parametrize("T, row, point", _MISSED_ROWS)
def test_mle_finds_the_global_maximum_a_snapped_shortlist_missed(
    T: int, row: list, point: float
) -> None:
    # on score, not phase: the R = 2 likelihood has a mirror twin of its maximum
    params = PeaParams.from_T(T, len(row))
    res = mle_estimate(params, row)
    assert res.log_likelihood >= _ll(params, row, point)
    want = _dense_oracle_score(params, np.array(row), counting=False)
    assert res.log_likelihood >= want - mle_mod._ROUNDING * (T * len(row) + abs(want))


@pytest.mark.parametrize("counting", [False, True])
@pytest.mark.parametrize("T, R", [(4, 2), (16, 2), (16, 3), (16, 8), (16, 16), (64, 3), (256, 4)])
def test_mle_rows_reach_a_dense_grid_oracle(T: int, R: int, counting: bool) -> None:
    params = PeaParams.from_T(T, R)
    rng = make_rng(derive_seed(505, T, R))
    n = 16
    mat = np.empty((n, R))
    # half R shifted runs at random phases, half uniform estimates
    for j in range(R):
        _, _, mat[: n // 2, j] = sample_upea_block(params, rng.random(n // 2), rng, n // 2)
    mat[n // 2 :] = rng.random((n - n // 2, R))
    ll = _mix_ll if counting else _ll
    got = (mle_counting_batch if counting else mle_batch)(params, mat)
    for row, x in zip(mat, got):
        want = _dense_oracle_score(params, row, counting)
        assert ll(params, row, float(x)) >= want - mle_mod._ROUNDING * (T * R + abs(want))


# ---------------------------------------------------------------------------
# the two-level scan against the dense single-level scan


def _dense_bound(T: int, est: np.ndarray, counting: bool) -> np.ndarray:
    """Oracle: every row's bound on all of its fine candidate cells (G = 4TR
    of them, or G/2 + 1 on [0, 1/2]), each run's term read from one window
    view of the bound table laid end to end and summed in run order."""
    n, R = est.shape
    G = 4 * T * R
    m = G // 2 + 1 if counting else G
    tab = mle_mod._bound_table(T, G)
    tab = tab if counting else np.log(tab)
    # row j of the view is tab[(j + k) % G] over the cells k
    win = sliding_window_view(np.concatenate([tab, tab[: m - 1]]), m)
    bound = np.zeros((n, m))
    for j in range(R):
        i = np.rint(est[:, j] * G).astype(np.int64) % G
        bound += mle_mod._log_mix(win[-i % G] + win[i]) if counting else win[-i % G]
    return bound


def _dense_starts(T: int, est: np.ndarray, counting: bool) -> tuple:
    """Oracle: the single-level scan's refinement starts (row, cell, exact
    score).  f0 is the exact score at each row's first best-bounded cell;
    the shortlist is every cell whose bound reaches f0 minus rounding; the
    shortlist and its neighbours are scored, and a start is one of them
    that no neighbour beats."""
    n, R = est.shape
    G = 4 * T * R
    bound = _dense_bound(T, est, counting)
    m = bound.shape[1]
    ll = _mixture_ll if counting else _plain_ll

    def score(key: np.ndarray) -> np.ndarray:
        return ll(T, est[key // m], (key % m)[:, None] / G)

    def neighbours(key: np.ndarray) -> np.ndarray:
        r, k = np.divmod(key, m)
        k = k[:, None] + np.array([-1, 1])
        return r[:, None] * m + (np.clip(k, 0, m - 1) if counting else k % m)

    f0 = score(np.arange(n) * m + np.argmax(bound, axis=1))
    short = bound >= (f0 - mle_mod._ROUNDING * (T * R + np.abs(f0)))[:, None]
    near = short.copy()
    near[:, 1:] |= short[:, :-1]
    near[:, :-1] |= short[:, 1:]
    if not counting:
        near[:, 0] |= short[:, -1]
        near[:, -1] |= short[:, 0]
    key = np.flatnonzero(near)
    fk, nb = score(key), neighbours(key)
    keep = fk >= score(nb.ravel()).reshape(nb.shape).max(axis=1)
    return key[keep] // m, key[keep] % m, fk[keep]


def _scan_rows(T: int, R: int, n: int, seed: int) -> np.ndarray:
    """n rows of R runs, wrapped into [0, 1): the first half R shifted runs
    at one random phase each (the rows a sweep makes), the rest uniform."""
    params = PeaParams.from_T(T, R)
    rng = make_rng(seed)
    mat = rng.random((n, R))
    for j in range(R):
        _, _, mat[: n // 2, j] = sample_upea_block(params, rng.random(n // 2), rng, n // 2)
    return _wrap_array(mat)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("counting", [False, True])
@pytest.mark.parametrize("T", [2, 4, 16, 256])
def test_two_level_starts_match_the_dense_scan_bit_for_bit(
    monkeypatch, T: int, counting: bool, forced: bool
) -> None:
    # forced: two levels (w = R) at every (T, R), not only where they pay
    if forced:
        monkeypatch.setattr(mle_mod, "_width", lambda T, R: R)
    for R in (2, 3, 7, 8, 16):
        est = _scan_rows(T, R, 16 if T == 256 else 40, derive_seed(606, T, R))
        got = mle_mod._scan(T, est, counting)
        want = _dense_starts(T, est, counting)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("counting", [False, True])
@pytest.mark.parametrize("T, R", [(8, 16), (16, 7), (16, 16), (256, 3), (4, 6)])
def test_every_coarse_bound_is_at_least_each_fine_bound_it_covers(
    monkeypatch, T: int, R: int, counting: bool
) -> None:
    # every coarse cell of every row: its fine cells are each candidate cell
    # once, with the dense scan's bound to the bit, and none above its bound
    monkeypatch.setattr(mle_mod, "_width", lambda T, R: R)
    est = _scan_rows(T, R, 24, derive_seed(607, T, R))
    dense = _dense_bound(T, est, counting).ravel()
    seen: list = []
    orig = mle_mod._shortlist

    def spy(bound, fine, *args):
        n, m0 = bound.shape
        rows, k = np.repeat(np.arange(n), m0), np.tile(np.arange(m0), n)
        key, v = fine(rows, k)
        on = v > -np.inf
        assert np.array_equal(np.sort(key[on]), np.arange(dense.size))
        assert np.array_equal(v[on], dense[key[on]])
        assert np.all(v <= bound[rows, k][:, None])
        seen.append(n)
        return orig(bound, fine, *args)

    monkeypatch.setattr(mle_mod, "_shortlist", spy)
    mle_mod._scan(T, est, counting)
    assert seen == [len(est)]


@pytest.mark.parametrize("counting", [False, True])
def test_no_row_depends_on_its_scan_block_or_refinement_slice(monkeypatch, counting: bool) -> None:
    # blocks of one row and slices of a few starts give the same bits
    est = _scan_rows(16, 8, 200, 608)
    want = _maximize(16, est, counting)
    monkeypatch.setattr(mle_mod, "_SCAN_BLOCK", 1)
    monkeypatch.setattr(mle_mod, "_SCORE_BLOCK", 24)
    got = _maximize(16, est, counting)
    assert got[2] == want[2]
    for i in (0, 1, 3):
        assert np.array_equal(got[i], want[i])
