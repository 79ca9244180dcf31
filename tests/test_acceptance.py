"""Acceptance gate: one test per numbered criterion, each printing a single
PASS/FAIL line with the measured quantities behind the verdict.

Statistical criteria run pinned-seed protocols at the stated sizes; the
4-standard-error bands are per grid point unless a criterion says otherwise.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from upea.counting import (
    calibrate_b,
    correct_mle,
    correct_single,
    exact_bias_uqca_single,
    sample_uqca_block,
    CountingInstance,
)
from upea.harness import SweepConfig, csv_text, run_sweep
from upea.mle import log_kernel, mle_batch, mle_estimate
from upea.phase_math import (
    PeaParams,
    ThetaMode,
    circ_dist,
    exact_bias_mae_pea,
    exact_mae_upea,
    pea_kernel,
    pea_pmf,
    wrap_phase,
)
from upea.sampler import derive_seed, make_rng, sample_upea_block
from upea.statevector import analytic_counting_pmf, grover_pea_pmf, pea_circuit_pmf

SEED = 20260819
T16 = 16


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_circuit_equivalence() -> None:
    """Gate-level estimation circuit pmf matches the analytic kernel."""
    start = time.perf_counter()
    rng = make_rng(derive_seed(SEED, "c1"))
    worst = 0.0
    for t in range(1, 7):
        T = 1 << t
        for phi in rng.random(32):
            for theta in rng.random(8):
                pmf = pea_circuit_pmf(t, float(phi), float(theta)).probs
                ref = pea_kernel(T, np.arange(T) / T - (float(phi) + float(theta)))
                worst = max(worst, float(np.max(np.abs(pmf - ref))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 30.0,
        f"max deviation {worst:.3e} (< 1e-10) over t=1..6 x 32 phi x 8 theta, "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_counting_mixture_equivalence() -> None:
    """Search-operator estimation circuit matches the half/half sign mixture."""
    start = time.perf_counter()
    rng = make_rng(derive_seed(SEED, "c2"))
    worst = 0.0
    for t in range(1, 6):
        for n in range(1, 5):
            N = 1 << n
            theta = float(rng.random())
            for M in range(N + 1):
                inst = CountingInstance(n=n, M=M)
                pmf = grover_pea_pmf(t, inst, theta).probs
                ref = analytic_counting_pmf(t, M / N, theta)
                worst = max(worst, float(np.max(np.abs(pmf - ref))))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 1e-10 and elapsed < 120.0,
        f"max deviation {worst:.3e} (< 1e-10) over t<=5, n<=4, all M, "
        f"runtime {elapsed:.1f}s (< 2min)",
    )


# ---------------------------------------------------------------------------
# shared fig3/fig4-size sweep (computed once, reused by criteria 3 and 4)


@pytest.fixture(scope="module")
def upea_sweep():
    cfg = SweepConfig(
        "upea-bias-mae", T=T16, R=1, grid_points=64, n_samples=1 << 16, base_seed=SEED
    )
    return run_sweep(cfg, workers=1)


def test_criterion_3_upea_unbiasedness(upea_sweep) -> None:
    """Randomized estimator unbiased everywhere; raw estimator shows the
    periodic sign pattern."""
    z = np.array([abs(e.bias) / e.stderr_bias for e in upea_sweep.entries])
    upea_ok = bool(np.all(z <= 4.0))

    cfg = SweepConfig(
        "pea-bias-mae",
        T=T16,
        R=1,
        grid_points=64,
        n_samples=1 << 16,
        theta_mode=ThetaMode.fixed(0.0),
        base_seed=SEED,
    )
    pea = run_sweep(cfg).entries
    params = PeaParams.from_T(T16)
    zero_ok, sign_ok = True, True
    exact_signs = []
    for j, e in enumerate(pea):
        exact = exact_bias_mae_pea(params, j / 64).bias
        if j % 2 == 0:  # phi = k/(2T): exact bias vanishes
            zero_ok &= abs(e.bias) <= 4.0 * e.stderr_bias
        else:
            sign_ok &= math.copysign(1, e.bias) == math.copysign(1, exact)
            exact_signs.append(math.copysign(1, exact))
    alternating = all(a == -b for a, b in zip(exact_signs, exact_signs[1:]))
    _report(
        3,
        upea_ok and zero_ok and sign_ok and alternating,
        f"randomized |bias|/se max {z.max():.2f} (<= 4) at 64 x 2^16; raw estimator: "
        f"zeros at k/(2T) within 4se ({zero_ok}), midpoint signs match exact law "
        f"({sign_ok}), signs alternate ({alternating})",
    )


def test_criterion_4_upea_mae_constancy(upea_sweep) -> None:
    """MAE flat across the phase grid and equal to the exact value."""
    entries = upea_sweep.entries
    maes = np.array([e.mae for e in entries])
    ses = np.array([e.stderr_mae for e in entries])
    hi, lo = int(np.argmax(maes)), int(np.argmin(maes))
    spread = maes[hi] - maes[lo]
    band = 4.0 * (ses[hi] + ses[lo])
    exact = exact_mae_upea(PeaParams.from_T(T16))
    z_exact = np.abs(maes - exact) / ses
    _report(
        4,
        spread <= band and bool(np.all(z_exact <= 4.0)),
        f"spread {spread:.2e} <= joint 4se band {band:.2e}; max |mae - exact|/se "
        f"{z_exact.max():.2f} (<= 4) against exact {exact:.6f}",
    )


def test_criterion_5_single_run_counting_bias_law() -> None:
    """Raw count estimate follows (1-2m)/(2T) per grid point; the exact
    correction centers it at no MAE benefit."""
    params = PeaParams.from_T(T16, R=1)
    ms = np.linspace(0.0, 1.0, 33)
    law_ok = corr_ok = cost_ok = True
    worst_law = worst_corr = 0.0
    n = 1 << 16
    for mi, m in enumerate(ms):
        rng = make_rng(derive_seed(SEED, "c5", mi))
        _, mt = sample_uqca_block(params, float(m), rng, n)
        err = mt - m
        se = err.std(ddof=1) / math.sqrt(n)
        z_law = abs(err.mean() - exact_bias_uqca_single(float(m), T16)) / se
        law_ok &= z_law <= 4.0
        worst_law = max(worst_law, z_law)

        corr_err = correct_single(mt, T16) - m
        se_c = corr_err.std(ddof=1) / math.sqrt(n)
        z_corr = abs(corr_err.mean()) / se_c
        corr_ok &= z_corr <= 4.0
        worst_corr = max(worst_corr, z_corr)

        # paired per-trial MAE cost of the correction must not be negative
        diff = np.abs(corr_err) - np.abs(err)
        cost_ok &= diff.mean() >= -4.0 * diff.std(ddof=1) / math.sqrt(n)
    _report(
        5,
        law_ok and corr_ok and cost_ok,
        f"bias law max z {worst_law:.2f} (<= 4) on 33 x 2^16 grid; corrected bias "
        f"max z {worst_corr:.2f} (<= 4); corrected MAE never below uncorrected "
        f"({cost_ok})",
    )


def test_criterion_6_calibration_reproduction() -> None:
    """Calibration constant lands in the published window; applying a fresh
    calibration centers the multi-run estimate; bias is affine in (1-2m)."""
    rec = calibrate_b(T16, 3, 1 << 16, derive_seed(SEED, "c6-pinned"))
    b_ok = abs(rec.b - 0.004775) <= 0.001

    applied = calibrate_b(T16, 3, 1 << 17, derive_seed(SEED, "c6-applied"))
    params = PeaParams.from_T(T16, R=3)
    ms = np.linspace(0.0, 1.0, 17)
    n = 1 << 14
    corr_ok = True
    worst_corr = 0.0
    raw_bias = np.empty(ms.size)
    for mi, m in enumerate(ms):
        rng = make_rng(derive_seed(SEED, "c6-eval", mi))
        _, mt = sample_uqca_block(params, float(m), rng, n)
        raw_bias[mi] = mt.mean() - m
        corr_err = correct_mle(mt, applied.b) - m
        z = abs(corr_err.mean()) / (corr_err.std(ddof=1) / math.sqrt(n))
        corr_ok &= z <= 4.0
        worst_corr = max(worst_corr, z)

    x = 1.0 - 2.0 * ms
    slope, intercept = np.polyfit(x, raw_bias, 1)
    resid = raw_bias - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((raw_bias - raw_bias.mean()) ** 2).sum())
    _report(
        6,
        b_ok and corr_ok and r2 > 0.95,
        f"b = {rec.b:.6f} in 0.004775 +- 0.001 ({b_ok}); corrected bias max z "
        f"{worst_corr:.2f} (<= 4) on 17 x 2^14 grid with fresh b = {applied.b:.6f}; "
        f"uncorrected-bias fit R^2 = {r2:.4f} (> 0.95, slope {slope:.6f})",
    )


def test_criterion_7_pooled_likelihood_behavior() -> None:
    """Error drops sharply at R = 3; the randomized variant keeps both its
    MAE advantage for R >= 3 and its unbiasedness under pooling."""
    modes = {"upea": ThetaMode.full(), "pea": ThetaMode.fixed(0.0)}
    mae: dict[str, dict[int, tuple[float, float]]] = {k: {} for k in modes}
    for name, mode in modes.items():
        cfg = SweepConfig(
            "mae-vs-r",
            T=T16,
            R=(2, 16),
            grid_points=8,
            n_samples=1 << 13,
            theta_mode=mode,
            base_seed=SEED,
        )
        for e in run_sweep(cfg).entries:
            mae[name][int(e.ground_truth)] = (e.mae, e.stderr_mae)

    def z_gap(a: tuple[float, float], b: tuple[float, float]) -> float:
        return (a[0] - b[0]) / math.sqrt(a[1] ** 2 + b[1] ** 2)

    drop_ok = all(z_gap(mae[k][2], mae[k][3]) > 2.0 for k in modes)
    adv = {r: z_gap(mae["pea"][r], mae["upea"][r]) for r in range(3, 17)}
    adv_ok = all(z > 2.0 for z in adv.values())

    cfg = SweepConfig(
        "mle-bias-mae",
        T=T16,
        R=16,
        grid_points=16,
        n_samples=1 << 12,
        base_seed=SEED,
    )
    zs = [abs(e.bias) / e.stderr_bias for e in run_sweep(cfg).entries]
    bias_ok = max(zs) <= 4.0
    _report(
        7,
        drop_ok and adv_ok and bias_ok,
        f"R=2 -> R=3 MAE drop z > 2 for both variants ({drop_ok}); randomized "
        f"advantage z in [{min(adv.values()):.1f}, {max(adv.values()):.1f}] (> 2) "
        f"for R=3..16; pooled bias max z {max(zs):.2f} (<= 4) at R=16",
    )


def test_criterion_8_correction_cost_decay() -> None:
    """Paired MAE cost of bias correction is positive and falls with R."""
    ms = np.linspace(0.0, 1.0, 17)
    n = 1 << 13
    gaps: dict[int, tuple[float, float]] = {}
    for R in (1, 2, 3, 4):
        b = (
            None
            if R == 1
            else calibrate_b(T16, R, 1 << 15, derive_seed(SEED, "c8-cal", R)).b
        )
        params = PeaParams.from_T(T16, R=R)
        diffs = []
        for mi, m in enumerate(ms):
            rng = make_rng(derive_seed(SEED, "c8", R, mi))
            _, mt = sample_uqca_block(params, float(m), rng, n)
            corr = correct_single(mt, T16) if b is None else correct_mle(mt, b)
            diffs.append(np.abs(corr - m) - np.abs(mt - m))
        d = np.concatenate(diffs)
        gaps[R] = (float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size)))

    positive = all(g - 4.0 * s > 0.0 for g, s in gaps.values())
    decreasing = all(
        gaps[r][0] - gaps[r + 1][0]
        > -2.0 * math.hypot(gaps[r][1], gaps[r + 1][1])
        for r in (1, 2, 3)
    ) and all(gaps[r][0] > gaps[r + 1][0] for r in (1, 2, 3))
    text = ", ".join(f"R={r}: {g:+.2e} (se {s:.1e})" for r, (g, s) in gaps.items())
    _report(
        8,
        positive and decreasing,
        f"paired (corrected - uncorrected) MAE gaps {text}; all positive beyond "
        f"4se ({positive}) and strictly decreasing ({decreasing})",
    )


def test_criterion_9_property_suites() -> None:
    """Representative runs of each contracted property (full versions live in
    the unit test files)."""
    params = PeaParams.from_T(T16, R=3)
    rng = make_rng(derive_seed(SEED, "c9"))

    norm_ok = all(
        abs(float(pea_pmf(PeaParams(t=t), float(p)).probs.sum()) - 1.0) < 1e-12
        for t in (1, 4, 6)
        for p in rng.random(5)
    )

    odd_ok = all(
        abs(
            exact_bias_mae_pea(PeaParams.from_T(T16), 0.5 + d).bias
            + exact_bias_mae_pea(PeaParams.from_T(T16), 0.5 - d).bias
        )
        < 1e-14
        for d in (0.003, 0.011, 0.029)
    )

    wrap_ok = (
        circ_dist(0.98, 0.02) == pytest.approx(-0.04)
        and circ_dist(0.02, 0.98) == pytest.approx(0.04)
        and abs(circ_dist(wrap_phase(1.75), 0.25)) == 0.5
    )

    est = np.asarray(rng.random(3))
    base = mle_estimate(params, est).phi_hat
    shift_ok = all(
        abs(circ_dist(mle_estimate(params, (est + c) % 1.0).phi_hat, wrap_phase(base + c)))
        < 1e-9
        for c in rng.random(5)
    )

    grid = np.arange(1 << 14) / (1 << 14)
    brute_ok = True
    for _ in range(3):
        _, _, smp = sample_upea_block(params, float(rng.random()), rng, 3)
        got = mle_estimate(params, smp).phi_hat
        vals = log_kernel(params.T, smp[None, :] - grid[:, None]).sum(axis=1)
        k = int(np.argmax(vals))
        fine = (k - 1) / grid.size + np.arange(2049) / 1024.0 / grid.size
        vals_f = log_kernel(params.T, smp[None, :] - (fine % 1.0)[:, None]).sum(axis=1)
        want = fine[int(np.argmax(vals_f))] % 1.0
        brute_ok &= abs(circ_dist(got, want)) < 2e-6

    cfg = SweepConfig("upea-bias-mae", T=T16, grid_points=3, n_samples=800, base_seed=SEED)
    det_ok = csv_text(run_sweep(cfg, workers=1).entries) == csv_text(
        run_sweep(cfg, workers=4).entries
    )

    _report(
        9,
        norm_ok and odd_ok and wrap_ok and shift_ok and brute_ok and det_ok,
        f"pmf normalization ({norm_ok}), exact-bias oddness ({odd_ok}), circular "
        f"wraparound ({wrap_ok}), shift equivariance at 1e-9 ({shift_ok}), "
        f"brute-force agreement at 2e-6 ({brute_ok}), byte-identical parallel "
        f"sweeps ({det_ok})",
    )
