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
log-likelihoods and the maximizers all call, and has one maximizer,
vectorized over rows of estimates; the single-trial entry points run it on
one row.  Coarse scan over max(4*T*R, 1024) equispaced candidates (4x
oversampling of the likelihood's O(T*R) oscillations) with estimates snapped
to the candidate grid and factors gathered from one precomputed table of
kernel values, whose exact zeros are clamped to the value half a cell away
(the plain scan takes its log; the mixture sums before the log); exact
re-scoring of the best 16 cells (plus both interval ends for the mixture,
which are stationary points of an even objective); a climb to the better
neighbouring cell until neither neighbour scores higher, so the bracket of
the winning cell's two neighbours surrounds a local maximum; golden-section
refinement of that bracket to width 1e-12; and (plain variant only) a
guarded Newton polish on dL/dc that pins the peak well below the 1e-9
shift-equivariance tolerance.  Ties break toward the smaller phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_math import PeaParams, Phase, _kernel_parts, _wrap_array, pea_kernel

__all__ = [
    "LOG_ZERO",
    "MleResult",
    "log_kernel",
    "log_likelihood",
    "mle_estimate",
    "mle_estimate_counting",
    "mle_batch",
    "mle_counting_batch",
]

# sentinel for log of an exact kernel zero: the maximizer only compares, so
# a large negative finite value stands in for -infinity
LOG_ZERO = -1e18

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_BRACKET_TOL = 1e-12


@dataclass(frozen=True)
class MleResult:
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
    """log of pea_kernel with exact zeros mapped to the LOG_ZERO sentinel."""
    num, den, lattice = _kernel_parts(T, delta)
    zero = (num == 0.0) & ~lattice
    # on the lattice the log of the limit value is exactly 0
    num = np.where(zero | lattice, 1.0, np.abs(num))
    den = np.where(zero | lattice, 1.0, np.abs(den))
    out = 2.0 * (np.log(num) - np.log(den))
    out = np.where(zero, LOG_ZERO, out)
    out = np.where(lattice, 0.0, out)
    return float(out) if out.ndim == 0 else out


def _log_mix(k_sum: np.ndarray) -> np.ndarray:
    """log of the even mixture k_sum/2, where k_sum = K(e - c) + K(e + c) is
    a sum of two kernel values, with exact zeros mapped to the LOG_ZERO
    sentinel.  Halves k_sum in place: callers pass a fresh sum, and at scan
    size (n x G/2) one fewer temporary of that shape is held."""
    mix = np.multiply(k_sum, 0.5, out=k_sum)
    return np.where(mix > 0.0, np.log(np.where(mix > 0.0, mix, 1.0)), LOG_ZERO)


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


def _one_row(core, params: PeaParams, estimates) -> MleResult:
    """Run a batch maximizer on a single row of estimates."""
    est = _nonempty(estimates).reshape(1, -1)
    x, fx, grid_points, iters = core(params.T, est)
    return MleResult(float(x[0]), float(fx[0]), grid_points, iters)


def mle_estimate(params: PeaParams, estimates) -> MleResult:
    """Global maximizer of the plain log likelihood over [0, 1)."""
    return _one_row(_plain_max, params, estimates)


def mle_estimate_counting(params: PeaParams, estimates) -> MleResult:
    """Maximizer of the even mixture log likelihood over [0, 1/2].

    R = 1 takes the fold min(w, 1-w) of the single estimate as an explicit
    fast path: the fold preserves sin^2(pi .) exactly, which is what the
    single-run bias law and its correction assume.  (The literal mixture
    argmax drifts off the fold when the +-phi peaks overlap, i.e. within
    ~1/T of the interval ends; the fold is the contractual estimator.)
    """
    return _one_row(_counting_max, params, estimates)


def mle_batch(params: PeaParams, estimates: np.ndarray) -> np.ndarray:
    """Plain MLE for many trials at once; estimates has shape (n, R).
    Returns phi_hat of shape (n,), row i equal to mle_estimate on row i."""
    return _plain_max(params.T, np.asarray(estimates, dtype=float))[0]


def mle_counting_batch(params: PeaParams, estimates: np.ndarray) -> np.ndarray:
    """Counting-variant MLE for many trials; estimates (n, R) -> phi_hat (n,)
    in [0, 1/2], row i equal to mle_estimate_counting on row i."""
    return _counting_max(params.T, np.asarray(estimates, dtype=float))[0]


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


def _golden_batch(f, lo: np.ndarray, hi: np.ndarray, seed_x: np.ndarray, seed_f: np.ndarray):
    """Vectorized golden-section max; f maps a candidate vector to a value
    vector.  Returns (x, f(x), iterations) with best-seen tracking."""
    a = lo.copy()
    b = hi.copy()
    best_x = seed_x.copy()
    best_f = seed_f.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    iters = 0
    while float(np.max(b - a)) > _BRACKET_TOL and iters < 200:
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
        iters += 1
    for x_, f_ in ((c, fc), (d, fd)):
        better = (f_ > best_f) | ((f_ == best_f) & (x_ < best_x))
        best_x = np.where(better, x_, best_x)
        best_f = np.where(better, f_, best_f)
    return best_x, best_f, iters


_RESCORE = 16  # snapped-scan short-list width re-scored with the exact objective


def _local_max_cell(snapped: np.ndarray, score, ends: bool) -> np.ndarray:
    """Candidate cell per row whose exact score is a local maximum on the grid.

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
            return k
        k = np.where(up, nb[rows, pick], k)
        fk = np.where(up, best, fk)


def _plain_max(T: int, est: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Maximizer of the plain log likelihood for each row of est (n, R).
    Returns (phi_hat, log likelihood, candidate cells, golden iterations)."""
    n, R = est.shape

    def objective(c: np.ndarray) -> np.ndarray:
        return _plain_ll(T, est[:, None, :], c[:, :, None])

    def f(c: np.ndarray) -> np.ndarray:
        return objective(c[:, None])[:, 0]

    if R == 1:
        x = _wrap_array(est[:, 0])
        return x, f(x), 0, 0
    G = max(4 * T * R, 1024)
    tab = np.log(_scan_table(T, G))
    idx = np.rint(est * G).astype(np.int64) % G
    k = np.arange(G)
    ll = np.zeros((n, G))
    for j in range(R):
        ll += tab[(idx[:, j : j + 1] - k[None, :]) % G]
    best = _local_max_cell(ll, lambda cells: objective(cells / G), ends=False)
    lo = (best - 1.0) / G
    hi = (best + 1.0) / G
    seed_x = best / G
    x, fx, iters = _golden_batch(f, lo, hi, seed_x, f(seed_x))
    x, fx = _newton_polish_batch(T, est, x, fx, lo, hi, f)
    return _wrap_array(x), fx, G, iters


def _newton_polish_batch(
    T: int, est: np.ndarray, x: np.ndarray, fx: np.ndarray, lo, hi, f
) -> tuple[np.ndarray, np.ndarray]:
    """Three guarded Newton steps on dL/dc from the golden-section point.

    d/dc log K(e - c) = -2 pi [T cot(T pi d) - cot(pi d)], d = e - c, with
    the series branch -2 pi^2 d (T^2-1)/3 * [1 + (pi d)^2 (T^4-1)/(15(T^2-1))]
    near d = 0 where the two cotangents cancel.  A step is skipped where it
    would leave the bracket or the objective is not concave, and the
    polished point replaces the incumbent only where it scores at least as
    high.  Returns (x, f(x)).
    """
    cur = x.copy()
    for _ in range(3):
        d = est - cur[:, None]
        d -= np.round(d)
        small = np.abs(d) < (0.02 / T)
        t2 = float(T * T)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_big = 2.0 * np.pi * (T / np.tan(np.pi * T * d) - 1.0 / np.tan(np.pi * d))
            gp_big = 2.0 * np.pi**2 * (
                t2 / np.sin(np.pi * T * d) ** 2 - 1.0 / np.sin(np.pi * d) ** 2
            )
        g_small = -2.0 * np.pi**2 * d * (t2 - 1.0) / 3.0 * (
            1.0 + (np.pi * d) ** 2 * (t2 * t2 - 1.0) / (15.0 * (t2 - 1.0))
        )
        gp_small = -2.0 * np.pi**2 * (t2 - 1.0) / 3.0 * (
            1.0 + 3.0 * (np.pi * d) ** 2 * (t2 * t2 - 1.0) / (15.0 * (t2 - 1.0))
        )
        g = np.where(small, g_small, g_big)
        gp = np.where(small, gp_small, gp_big)
        # dL/dc = -sum g(d); d2L/dc2 = +sum g'(d)  (two sign flips cancel once)
        d1 = -g.sum(axis=1)
        d2 = gp.sum(axis=1)
        ok = np.isfinite(d1) & np.isfinite(d2) & (d2 < 0.0)
        step = np.where(ok, d1 / np.where(d2 != 0.0, d2, 1.0), 0.0)
        nxt = cur - step
        ok &= (nxt >= lo - 1e-9) & (nxt <= hi + 1e-9)
        cur = np.where(ok, nxt, cur)
    f_cur = f(cur)
    accept = f_cur >= fx
    return np.where(accept, cur, x), np.where(accept, f_cur, fx)


def _counting_max(T: int, est: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Maximizer of the even mixture log likelihood over [0, 1/2] for each
    row of est (n, R).  Returns (phi_hat, log likelihood, candidate cells,
    golden iterations)."""
    n, R = est.shape

    def objective(c: np.ndarray) -> np.ndarray:
        return _mixture_ll(T, est[:, None, :], c[:, :, None])

    def f(c: np.ndarray) -> np.ndarray:
        return objective(c[:, None])[:, 0]

    if R == 1:
        w = _wrap_array(est[:, 0])
        x = np.minimum(w, 1.0 - w)
        return x, f(x), 0, 0
    G = max(4 * T * R, 1024)
    # kernel-value table (not log): the mixture sums kernels before the log
    ktab = _scan_table(T, G)
    idx = np.rint(est * G).astype(np.int64) % G
    ncand = G // 2 + 1
    k = np.arange(ncand)
    ll = np.zeros((n, ncand))
    for j in range(R):
        i = idx[:, j : j + 1]
        ll += _log_mix(ktab[(i - k[None, :]) % G] + ktab[(i + k[None, :]) % G])
    best = _local_max_cell(ll, lambda cells: objective(cells / G), ends=True)
    lo = np.maximum((best - 1.0) / G, 0.0)
    hi = np.minimum((best + 1.0) / G, 0.5)
    seed_x = best / G
    x, fx, iters = _golden_batch(f, lo, hi, seed_x, f(seed_x))
    return np.clip(x, 0.0, 0.5), fx, ncand, iters
