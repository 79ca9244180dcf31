"""Maximum-likelihood combination of repeated phase estimates.

Given R estimates phi_tilde_j from randomized runs at one unknown phase, the
combined estimate maximizes

    L(c) = sum_j log K(phi_tilde_j - c),

where K is the squared outcome kernel (limit 1 at integer offsets, exact
zeros at k/T).  The counting variant maximizes the even mixture

    L(c) = sum_j log [ K(phi_tilde_j - c)/2 + K(phi_tilde_j + c)/2 ]

over c in [0, 1/2], because the generating process draws the sign of the
phase uniformly and K is even.

Each objective is written once, as a broadcasting function that the public
log-likelihoods and the maximizer call.  One maximizer, vectorized over rows
of estimates, serves both; the single-trial entry points run it on one row.
Coarse scan over max(4*T*R, 1024) equispaced candidates (4x
oversampling of the likelihood's O(T*R) oscillations) with estimates snapped
to the candidate grid, so each run's factors over all candidates are one
contiguous window of a doubled table of kernel values, read as a row of a
sliding-window view (the table's exact zeros are clamped to the value half a
cell away; the plain scan takes its log, the mixture sums the rows of a
backward and a forward view before the log); exact
re-scoring of the best 16 cells (plus both interval ends for the mixture,
which are stationary points of an even objective); a climb to the better
neighbouring cell until neither neighbour scores higher, so the bracket of
the winning cell's two neighbours surrounds a local maximum.  Refinement is
one safeguarded loop per row (rtsafe, Numerical Recipes 9.4): from the cell
centre, a guarded Newton step on dL/dc (built from one log-kernel
derivative helper, skipped where L is not concave or the step would leave
the bracket), else a bisection of the bracket, which narrows on the sign of
dL/dc at points strictly inside it.  A row stops once its accepted step or
its bracket is below 1e-12, or at a step cap fixed by G alone (8 steps plus
the bisections that shrink a two-cell bracket below 1e-12), and reports the
steps it ran; a row whose point scores below the climbed cell's exact score
by more than rounding takes the cell centre.  Last, a mixture row whose
bracket touches an end of [0, 1/2] takes that end exactly wherever it
scores within rounding of the refined point, so a maximum at an end never
stops a few ulps short of it.  Every step acts on each row alone, so a
row's result never depends on the rows batched with it.  Ties break toward
the smaller phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_math import PeaParams, Phase, _kernel_parts, _reduce, _wrap_array, pea_kernel

__all__ = [
    "LOG_ZERO",
    "MleResult",
    "log_kernel",
    "log_likelihood",
    "mle_estimate",
    "mle_estimate_counting",
    "mle_batch",
    "mle_counting_batch",
    "mixture_log_likelihood",
]

# sentinel for log of an exact kernel zero: the maximizer only compares, so
# a large negative finite value stands in for -infinity
LOG_ZERO = -1e18

# refinement stops a row once its accepted step or its bracket is below
# _REFINE_TOL, or after _NEWTON_STEPS steps plus the bisections that shrink
# a two-cell bracket below _REFINE_TOL
_NEWTON_STEPS = 8
_REFINE_TOL = 1e-12
# score rounding per unit of T*R + |L|: each of the R terms is off by about
# eps * |h| <~ eps * 2 pi T from rounding its argument
_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MleResult:
    """One row's estimate and log likelihood, the number of candidate cells
    scanned and the refinement steps the row ran; both counts are 0 on the
    R = 1 path."""

    phi_hat: Phase
    log_likelihood: float
    grid_points: int
    refine_iterations: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.log_likelihood):
            raise ValueError("log_likelihood must be finite")
        if not (0.0 <= self.phi_hat < 1.0):
            raise ValueError("phi_hat must lie in [0, 1)")


def log_kernel(T: int, delta) -> np.ndarray | float:
    """log of pea_kernel with exact zeros mapped to the LOG_ZERO sentinel,
    computed in place on the fresh arrays of _kernel_parts."""
    num, den, lattice = _kernel_parts(T, delta)
    np.abs(num, out=num)
    np.abs(den, out=den)
    zero = num == 0.0
    special = zero | lattice
    fix = special.any()
    if fix:
        num[special] = 1.0
        den[special] = 1.0
    out = np.subtract(np.log(num, out=num), np.log(den, out=den), out=num)
    out *= 2.0
    if fix:
        out[zero] = LOG_ZERO
        # on the lattice the log of the limit value is exactly 0
        out[lattice] = 0.0
    return float(out) if out.ndim == 0 else out


def _log_mix(k_sum: np.ndarray) -> np.ndarray:
    """log of the even mixture k_sum/2, where k_sum = K(e - c) + K(e + c) is
    a sum of two kernel values, with exact zeros mapped to the LOG_ZERO
    sentinel.  Works in place on k_sum, a fresh sum or a scan buffer, and
    returns it."""
    mix = np.multiply(k_sum, 0.5, out=k_sum)
    zero = ~(mix > 0.0)
    mix[zero] = 1.0
    np.log(mix, out=mix)
    mix[zero] = LOG_ZERO
    return mix


def _nonempty(estimates) -> np.ndarray:
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("estimates must be nonempty")
    return est


def _plain_ll(T: int, est: np.ndarray, c) -> np.ndarray:
    """Plain log likelihood sum_j log K(est_j - c), summed over the last
    axis of the broadcast of est and c."""
    return log_kernel(T, est - c).sum(axis=-1)


def _mixture_ll(T: int, est: np.ndarray, c) -> np.ndarray:
    """Even mixture log likelihood sum_j log [K(est_j - c) + K(est_j + c)]/2,
    summed over the last axis of the broadcast of est and c."""
    return _log_mix(pea_kernel(T, est - c) + pea_kernel(T, est + c)).sum(axis=-1)


def log_likelihood(params: PeaParams, estimates, phi_cand: float) -> float:
    """Sum of log kernel factors at the candidate phase."""
    return float(_plain_ll(params.T, _nonempty(estimates).ravel(), float(phi_cand)))


def mixture_log_likelihood(params: PeaParams, estimates, phi_cand: float) -> float:
    """Counting-variant objective at one candidate."""
    return float(_mixture_ll(params.T, _nonempty(estimates).ravel(), float(phi_cand)))


def _runs(params: PeaParams, estimates) -> np.ndarray:
    """estimates as a float array, once its rows (if it has two axes) are
    checked to hold params.R runs each."""
    est = np.asarray(estimates, dtype=float)
    if est.ndim == 2 and est.shape[1] != params.R:
        raise ValueError(
            f"estimates hold R = {est.shape[1]} runs per row but params.R = {params.R}"
        )
    return est


def _one_row(params: PeaParams, estimates, counting: bool) -> MleResult:
    """Run the batch maximizer on a single row of estimates."""
    est = _runs(params, _nonempty(estimates).reshape(1, -1))
    x, fx, grid_points, iters = _maximize(params.T, est, counting)
    return MleResult(float(x[0]), float(fx[0]), grid_points, int(iters[0]))


def mle_estimate(params: PeaParams, estimates) -> MleResult:
    """Global maximizer of the plain log likelihood over [0, 1)."""
    return _one_row(params, estimates, counting=False)


def mle_estimate_counting(params: PeaParams, estimates) -> MleResult:
    """Maximizer of the even mixture log likelihood over [0, 1/2].

    R = 1 takes the fold min(w, 1-w) of the single estimate as an explicit
    fast path: the fold preserves sin^2(pi .) exactly, which is what the
    single-run bias law and its correction assume.  (The literal mixture
    argmax drifts off the fold when the +-phi peaks overlap, i.e. within
    ~1/T of the interval ends; the fold is the contractual estimator.)
    """
    return _one_row(params, estimates, counting=True)


def mle_batch(params: PeaParams, estimates: np.ndarray) -> np.ndarray:
    """Plain MLE for many trials at once; estimates has shape (n, R).
    Returns phi_hat of shape (n,), row i equal to mle_estimate on row i."""
    return _maximize(params.T, _runs(params, estimates), counting=False)[0]


def mle_counting_batch(params: PeaParams, estimates: np.ndarray) -> np.ndarray:
    """Counting-variant MLE for many trials; estimates (n, R) -> phi_hat (n,)
    in [0, 1/2], row i equal to mle_estimate_counting on row i."""
    return _maximize(params.T, _runs(params, estimates), counting=True)[0]


# ---------------------------------------------------------------------------
# maximizers


def _scan_table(T: int, G: int) -> np.ndarray:
    """Kernel values on the candidate grid i/G for the snapped coarse scans,
    with each exact kernel zero clamped to the kernel value half a cell away
    from it, so a snapped scan never spuriously discards a candidate whose
    true factor is merely small.  G is a multiple of T, so the zeros k/T are
    grid points and their reduced numerator is exactly 0."""
    num, den, lattice = _kernel_parts(T, np.arange(G) / G)
    num = np.where((num == 0.0) & ~lattice, np.sin(np.pi * T / (2.0 * G)), num)
    r = np.divide(num, den, out=np.ones(G), where=~lattice)
    return r * r


_RESCORE = 16  # snapped-scan short-list width re-scored with the exact objective
# scores per row block of the coarse scan, whose buffers every block reuses:
# block-sized temporaries, freed and faulted in again, cost a varying amount
_SCAN_BLOCK = 1 << 17


def _local_max_cell(snapped: np.ndarray, score, ends: bool) -> tuple[np.ndarray, np.ndarray]:
    """Candidate cell per row whose exact score is a local maximum on the
    grid, and that score.

    The snapped scan ranks candidates with estimates rounded to the grid,
    which can misorder near-tied likelihood peaks.  Re-scoring the best
    _RESCORE cells per row (and, with ends=True, the two end cells, which
    the snapped scan can rank out of the list) with the exact objective
    restores the exact ranking; candidate indices are sorted ascending so
    exact ties resolve toward the smaller phase.  The winner then steps to a
    strictly better neighbouring cell until neither neighbour scores higher:
    circularly when ends=False, clipped to the candidate range when
    ends=True.  score maps an (n, m) array of cell indices to exact values.
    """
    n, ncand = snapped.shape
    m = min(_RESCORE, ncand)
    top = np.argpartition(snapped, ncand - m, axis=1)[:, ncand - m :]
    if ends:
        top = np.concatenate([top, np.tile([0, ncand - 1], (n, 1))], axis=1)
    top.sort(axis=1)
    vals = score(top)
    rows = np.arange(n)
    pick = np.argmax(vals, axis=1)
    k, fk = top[rows, pick], vals[rows, pick]
    while True:
        nb = k[:, None] + np.array([-1, 1])
        nb = np.clip(nb, 0, ncand - 1) if ends else nb % ncand
        f_nb = score(nb)
        pick = np.argmax(f_nb, axis=1)
        best = f_nb[rows, pick]
        up = best > fk
        if not up.any():
            return k, fk
        k = np.where(up, nb[rows, pick], k)
        fk = np.where(up, best, fk)


def _dlog_kernel(T: int, delta) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives (h, h') of log K at delta, on the
    kernel's reduction (e, f): h = 2 pi [T cot(pi f) - cot(pi e)] and
    h' = -2 pi^2 [T^2 / sin^2(pi f) - 1 / sin^2(pi e)], infinite at kernel
    zeros; near e = 0, where the two terms cancel, the series
    h = s e [(T^2 - 1) + (pi e)^2 (T^4 - 1) / 15] and
    h' = s [(T^2 - 1) + (pi e)^2 (T^4 - 1) / 5], with s = -2 pi^2 / 3."""
    e, f = _reduce(T, delta)
    t2 = float(T * T)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 2.0 * np.pi * (T / np.tan(np.pi * f) - 1.0 / np.tan(np.pi * e))
        hp = -2.0 * np.pi**2 * (t2 / np.sin(np.pi * f) ** 2 - 1.0 / np.sin(np.pi * e) ** 2)
    # the series' truncation error and the cancellation error cross near here
    small = np.abs(e) < 1.5e-3 / T
    x2 = (np.pi * e) ** 2
    s = -2.0 * np.pi**2 / 3.0
    h = np.where(small, s * e * ((t2 - 1.0) + x2 * (t2 * t2 - 1.0) / 15.0), h)
    hp = np.where(small, s * ((t2 - 1.0) + x2 * (t2 * t2 - 1.0) / 5.0), hp)
    return h, hp


def _dll(T: int, est: np.ndarray, c: np.ndarray, counting: bool) -> tuple[np.ndarray, np.ndarray]:
    """(L'(c), L''(c)) per row of est (n, R) at c (n,).

    Plain: L' = -sum h(e - c), L'' = sum h'(e - c).  Mixture, with
    K+- = K(e +- c), h+- = h(e +- c) and weights w+- = K+- / (K- + K+):
    each term's derivative is l' = w+ h+ - w- h-, and
    L'' = sum [w- (h-^2 + h-') + w+ (h+^2 + h+') - l'^2].
    """
    c = c[:, None]
    h_m, hp_m = _dlog_kernel(T, est - c)
    if not counting:
        return -h_m.sum(axis=1), hp_m.sum(axis=1)
    h_p, hp_p = _dlog_kernel(T, est + c)
    k_m, k_p = pea_kernel(T, est - c), pea_kernel(T, est + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_m = k_m / (k_m + k_p)
        w_p = 1.0 - w_m
        d1 = w_p * h_p - w_m * h_m
        d2 = w_m * (h_m * h_m + hp_m) + w_p * (h_p * h_p + hp_p) - d1 * d1
    return d1.sum(axis=1), d2.sum(axis=1)


def _newton_step(
    T: int, est: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray, counting: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One guarded Newton step on L' per row of est (n, R) from c (n,).
    Returns (next point, accepted): a step is skipped, and the row stays at
    c, where L is not concave or the step would leave [lo, hi] by more than
    1e-9."""
    d1, d2 = _dll(T, est, c, counting)
    ok = np.isfinite(d1) & np.isfinite(d2) & (d2 < 0.0)
    nxt = c - np.divide(d1, d2, out=np.zeros_like(d1), where=ok)
    ok &= (nxt >= lo - 1e-9) & (nxt <= hi + 1e-9)
    return np.where(ok, nxt, c), ok


def _maximize(
    T: int, est: np.ndarray, counting: bool
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Maximizer of the plain log likelihood over [0, 1) (counting=False) or
    of the even mixture over [0, 1/2] (counting=True) for each row of est
    (n, R).  Returns (phi_hat, log likelihood, candidate cells, refinement
    steps), the last a per-row count of the steps each row ran (0 on the
    R = 1 path).  Estimates are wrapped into [0, 1) first (a no-op on rows
    already there); another shape or a non-finite estimate raises
    ValueError."""
    if est.ndim != 2:
        raise ValueError(f"estimates must be an (n, R) array, got shape {est.shape}")
    if not np.isfinite(est).all():
        raise ValueError("estimates must be finite")
    est = _wrap_array(est)
    n, R = est.shape
    ll_of = _mixture_ll if counting else _plain_ll

    def objective(e: np.ndarray, c: np.ndarray) -> np.ndarray:
        return ll_of(T, e[:, None, :], c[:, :, None])

    def f(e: np.ndarray, c: np.ndarray) -> np.ndarray:
        return objective(e, c[:, None])[:, 0]

    if R == 1:
        x = est[:, 0]
        x = np.minimum(x, 1.0 - x) if counting else x
        return x, f(est, x), 0, np.zeros(n, dtype=np.int64)
    if T == 1:
        raise ValueError("T = 1 gives a flat likelihood; the MLE needs T >= 2 when R >= 2")
    G = max(4 * T * R, 1024)
    # the mixture sums kernel values before the log; the plain scan reads logs
    tab = _scan_table(T, G) if counting else np.log(_scan_table(T, G))
    # candidate cells: the whole circle, or [0, 1/2] with both ends
    ncand = G // 2 + 1 if counting else G
    # each scan term is one window of a doubled table over the cells k:
    # row G-1-i of back is tab[(i - k) % G], row i of fwd is tab[(i + k) % G]
    ext = np.arange(2 * G)
    back = sliding_window_view(tab[(G - 1 - ext) % G], ncand)
    fwd = sliding_window_view(tab[ext % G], ncand)
    best, best_f = np.empty(n, dtype=np.int64), np.empty(n)
    block = max(1, _SCAN_BLOCK // ncand)
    bufs = np.empty((2, block, ncand))
    for s in range(0, n, block):
        e = est[s : s + block]
        ll, term = bufs[:, : len(e)]
        ll.fill(0.0)
        for j in range(R):
            i = np.rint(e[:, j] * G).astype(np.int64) % G
            # plain fancy indexing: np.take(back, ..., out=) would first copy
            # the whole strided view.  Its result is one block-sized
            # temporary at a time, which malloc reuses for the next term;
            # two alive at once were trimmed and faulted in again
            if counting:
                term[...] = back[G - 1 - i]
                term += fwd[i]
                ll += _log_mix(term)
            else:
                ll += back[G - 1 - i]
        best[s : s + block], best_f[s : s + block] = _local_max_cell(
            ll, lambda c: objective(e, c / G), ends=counting
        )
    lo, hi = (best - 1.0) / G, (best + 1.0) / G
    if counting:
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 0.5)

    def tol(v: np.ndarray) -> np.ndarray:
        return _ROUNDING * (T * R + np.abs(v))

    # one safeguarded loop per row (rtsafe, Numerical Recipes 9.4): a guarded
    # Newton step from the cell centre where it is safe, else a bisection of
    # the bracket, which narrows on the sign of L' at points strictly inside
    # it (the mixture's L' vanishes at both ends, which need not be maxima).
    # The step cap depends on G alone, so a row's steps never depend on the
    # rows batched with it
    x = best / G
    a, b = lo.copy(), hi.copy()
    iters = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    for _ in range(_NEWTON_STEPS + math.ceil(math.log2(2.0 / (G * _REFINE_TOL)))):
        e, c, a_l, b_l = est[live], x[live], a[live], b[live]
        nxt, ok = _newton_step(T, e, c, a_l, b_l, counting)
        # an accepted step has the sign of L'; a rejected one is evaluated
        slope = nxt - c
        rejected = np.flatnonzero(~ok)
        if rejected.size:
            slope[rejected] = _dll(T, e[rejected], c[rejected], counting)[0]
        inside = (a_l < c) & (c < b_l)
        a_l = np.where(inside & (slope > 0.0), c, a_l)
        b_l = np.where(inside & (slope < 0.0), c, b_l)
        x[live] = np.where(ok, nxt, 0.5 * (a_l + b_l))
        a[live], b[live] = a_l, b_l
        iters[live] += 1
        done = (ok & (np.abs(nxt - c) < _REFINE_TOL)) | (b_l - a_l < _REFINE_TOL)
        live = live[~done]
        if not live.size:
            break
    x = np.clip(x, 0.0, 0.5) if counting else x
    fx = f(est, x)
    # the climbed cell's exact score is the floor
    low = fx < best_f - tol(best_f)
    x[low], fx[low] = best[low] / G, best_f[low]
    if counting:
        # the mixture is even about both ends, so each is a stationary point:
        # a row whose bracket touches one takes it wherever it scores within
        # rounding, not a point a few ulps short of it
        for end, touch in ((0.0, lo == 0.0), (0.5, hi == 0.5)):
            rows = np.flatnonzero(touch & (x != end))
            f_end = f(est[rows], np.full(rows.size, end))
            snap = f_end >= fx[rows] - tol(fx[rows])
            x[rows[snap]], fx[rows[snap]] = end, f_end[snap]
    return (x if counting else _wrap_array(x)), fx, ncand, iters
