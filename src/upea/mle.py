"""Maximum-likelihood combination of repeated phase estimates.

Given R estimates phi_tilde_j from randomized runs at one unknown phase, the
combined estimate maximizes

    L(c) = sum_j log K(phi_tilde_j - c),

where K is the squared outcome kernel (limit 1 at integer offsets, exact
zeros at k/T).  The counting variant maximizes the even mixture

    L(c) = sum_j log [ K(phi_tilde_j - c)/2 + K(phi_tilde_j + c)/2 ]

over c in [0, 1/2], because the generating process draws the sign of the
phase uniformly and K is even.

Each objective is written once, as a broadcasting function (_plain_ll,
_mixture_ll) that the maximizer calls.  One maximizer, vectorized over rows
of estimates, serves both; the single-trial entry points run it on one row.
The scan's fine grid has G = 4*T*R equispaced cells (4x oversampling of the
likelihood's O(T*R) oscillations), each estimate snapped to the grid.  It
reads a table of exact upper bounds, UB[d] >= max K over
[(d - 1)/G, (d + 1)/G] (K at the grid points, or where the tangents of the
concave log K meet beside each lobe's grid maximum, rounded up), so each
fine cell's sum of R table terms (the fine bound) bounds the likelihood
everywhere in the cell.  K is even, so the table is built on half the
circle and mirrored.

The scan has two levels (branch and bound).  Level 0 bounds coarse cells
of w fine cells each: a coarse cell's term for one run is the largest table
term of the fine cells it covers, read from one strided window view of the
table's sliding maxima laid end to end.  Floating-point addition is
monotone, so a coarse sum, added in run order from 0.0 as the fine sums
are, is at least every fine bound in its cell; the mixture's terms take a
log of a sum, so its coarse table is also rounded up by _LOG_MARGIN.
Level 1 gathers fine bounds, the sums of the one-level scan (w = 1) to the
bit, inside the coarse cells that can still reach the best: each row's best
coarse cell, then the cells that reach its best fine bound (they hold the
row's fine maximum, so its first cell is the one-level argmax), then the
cells that reach f0 minus rounding, f0 the exact score at that argmax.  The
fine cells whose bound is at least f0 minus rounding, the shortlist, are
those the one-level scan keeps, and never exclude the global maximizer's.  w is a fixed
function of (T, R) (_width): R, a 4T-cell coarse grid, where that was
measured faster, else 1, a one-level scan of the fine bounds.
MleResult.grid_points counts the fine candidate cells at every w.

The shortlist and its neighbours are scored exactly once; each that no
neighbour beats is a refinement start, whose neighbours bracket a local
maximum.  A kept cell that a neighbour beats is not refined, though a
narrow peak inside it may score higher, so this is no proof of the global
maximum.  Refinement is one safeguarded loop per start (rtsafe, Numerical
Recipes 9.4), the package's only root finder, run on fixed-size slices of
a call's starts.  From the cell centre, each step evaluates dL/dc once,
narrows the bracket on its sign and takes the guarded Newton point, or the
bracket's midpoint.  A start stops once its accepted step or its bracket
is below 1e-12, or at a step cap fixed by G alone; one whose point scores
below its cell's exact score by more than rounding takes the cell centre.
A mixture start whose bracket touches an end of [0, 1/2] takes that end
exactly wherever it scores within rounding of the refined point, so a
maximum at an end never stops a few ulps short of it.  Each row takes its
best start, an exact tie the smaller phase, and reports the loop steps in
which any of its starts was live.  Every step acts on each start alone, so
a row's result never depends on its batch, its scan block or its slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .phase_math import (
    _TINY,
    PeaParams,
    Phase,
    _finite,
    _finite_array,
    _int_in,
    _kernel_parts,
    _reduce,
    _wrap_array,
    pea_kernel,
)

__all__ = [
    "LOG_ZERO",
    "MleResult",
    "log_kernel",
    "mle_estimate",
    "mle_estimate_counting",
    "mle_batch",
    "mle_counting_batch",
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
    scanned and the refinement loop steps in which any of the row's starts
    was live; both counts are 0 on the R = 1 path."""

    phi_hat: Phase
    log_likelihood: float
    grid_points: int
    refine_iterations: int

    def __post_init__(self) -> None:
        for name in ("phi_hat", "log_likelihood"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        for name in ("grid_points", "refine_iterations"):
            object.__setattr__(self, name, _int_in(name, getattr(self, name), 0))
        if not (0.0 <= self.phi_hat < 1.0):
            raise ValueError("phi_hat must lie in [0, 1)")


def log_kernel(T: int, delta) -> np.ndarray | float:
    """log of pea_kernel with exact zeros mapped to the LOG_ZERO sentinel,
    computed in place on the fresh arrays of _kernel_parts.  It checks T and
    delta as pea_kernel does, and likewise lets a NaN or infinite delta
    through, to a NaN value."""
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


def _plain_ll(T: int, est: np.ndarray, c) -> np.ndarray:
    """Plain log likelihood sum_j log K(est_j - c), summed over the last
    axis of the broadcast of est and c."""
    return log_kernel(T, est - c).sum(axis=-1)


def _mixture_ll(T: int, est: np.ndarray, c) -> np.ndarray:
    """Even mixture log likelihood sum_j log [K(est_j - c) + K(est_j + c)]/2,
    summed over the last axis of the broadcast of est and c."""
    return _log_mix(pea_kernel(T, est - c) + pea_kernel(T, est + c)).sum(axis=-1)


def _runs(params: PeaParams, estimates, one_row: bool = False) -> np.ndarray:
    """estimates as a float array, reshaped to one row when one_row is set,
    once its entries are checked to be finite numbers and its rows (if it
    has two axes) to hold params.R runs each; params.R being >= 1, an empty
    row fails that check."""
    est = _finite_array("estimates", estimates)
    if one_row:
        est = est.reshape(1, -1)
    if est.ndim == 2 and est.shape[1] != params.R:
        raise ValueError(
            f"estimates hold R = {est.shape[1]} runs per row but params.R = {params.R}"
        )
    return est


def _one_row(params: PeaParams, estimates, counting: bool) -> MleResult:
    """Run the batch maximizer on a single row of estimates."""
    est = _runs(params, estimates, one_row=True)
    x, fx, grid_points, iters = _maximize(params.T, est, counting)
    return MleResult(float(x[0]), float(fx[0]), grid_points, int(iters[0]))


def mle_estimate(params: PeaParams, estimates) -> MleResult:
    """Maximizer of the plain log likelihood over [0, 1): the best refined
    local maximum among those the bound scan cannot rule out."""
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


# relative round-up of the bound table: far above the rounding of its kernel
# values and tangent points, of the scan's logs and R-term sums and of the
# snap, and far below the table's own slack, which is O(1) nats per cell
_TABLE_MARGIN = 2.0**-20
# relative round-up of the mixture's coarse table, whose terms take a log of
# a sum: it moves each coarse term up by about 2^-31 nats, far above the
# log's few-ulp error (an ulp is at most 2^-43 below 1024 nats)
_LOG_MARGIN = 2.0**-30
# scores per row block of the coarse scan, whose buffers every block reuses:
# block-sized temporaries, freed and faulted in again, cost a varying amount.
# The exact scores of a block's kept cells, and the refinement of a call's
# starts, run in slices of _SCORE_BLOCK terms
_SCAN_BLOCK = 1 << 17
_SCORE_BLOCK = 1 << 14


def _tol(T: int, R: int, v: np.ndarray) -> np.ndarray:
    """Rounding allowance of the scores v of rows of R runs."""
    return _ROUNDING * (T * R + np.abs(v))


def _width(T: int, R: int) -> int:
    """Fine cells per coarse cell of the scan over G = 4TR fine cells: R, so
    that the coarse grid has 4T cells, where T >= 8, R >= 3 and TR >= 96,
    else 1 (one level).  Timed against the dense fine scan on 1024 rows of
    shifted runs, two levels were even or faster from R = 6 at T = 16, from
    R = 3 at T = 32 to 256 and at R = 16 for T = 8, and slower at R = 2 and
    at T <= 4, where the gather of the kept fine cells costs more than the
    dense scan it saves."""
    return R if T >= 8 and R >= 3 and T * R >= 96 else 1


def _bound_table(T: int, G: int) -> np.ndarray:
    """UB[d] >= max K over [(d - 1)/G, (d + 1)/G], for d in 0..G-1, T >= 2 a
    power of two and G >= 4T a multiple of T.  The zeros k/T are grid points,
    and between them log K is concave: (log K)'' = 2 pi^2 [1/sin^2(pi y) -
    T^2/sin^2(pi T y)] <= 0, since K <= 1.  So on a cell log K is at most its
    larger end value, unless its slope turns from + to - inside the cell, one
    of the two beside the lobe's grid maximum p.  On those two cells log K is
    at most where the tangents at the cell's ends meet, g0 + s0 (g1 - g0 - s1)
    / (s0 - s1), with g = log K and s = h/G; on a cell where the slope keeps
    its sign that point lies below an end value, so it does no harm.  A lobe's
    peak lies 0.43 to 0.57 of the way across it, so at G >= 4T no cell beside p
    ends at a zero.  K is even, so entries 0..G/2 are built and mirrored,
    UB[G - d] = UB[d], as entry G - d's interval mirrors entry d's; every
    p < G/2, K(1/2) being 0, and the main lobe's cell [-1, 0] gives entry -1's
    share to its mirror, entry 1.  The relative round-up _TABLE_MARGIN covers
    K's rounding at mirror points.  A snapped estimate i/G and a candidate in
    cell k (within half a cell of k/G) differ by (i - k)/G to within one cell,
    so UB[(i - k) mod G] bounds their kernel factor everywhere in the cell."""
    k = pea_kernel(T, np.arange(-1, G // 2 + 2) / G)
    ub = np.maximum(np.maximum(k[:-2], k[1:-1]), k[2:])
    # each lobe's grid maximum: K there is at least both neighbours'
    p = np.flatnonzero((ub == k[1:-1]) & (k[1:-1] > 0.0))
    h, _, k_p = _dlog_kernel(T, (p[:, None] + np.arange(-1.0, 2.0)) / G)
    g, s = np.log(k_p), h / G
    g0, g1, s0, s1 = g[:, :-1], g[:, 1:], s[:, :-1], s[:, 1:]
    top = np.exp(g0 + s0 * (g1 - g0 - s1) / (s0 - s1))
    # cell [p - 1 + j, p + j] lies in the entries p - 1 + j and p + j
    np.maximum.at(ub, np.abs(p[:, None, None] + np.array([[-1, 0], [0, 1]])), top[:, :, None])
    ub = np.concatenate([ub, ub[-2:0:-1]])
    ub *= 1.0 + _TABLE_MARGIN
    return ub


def _coarse_window(tab: np.ndarray, w: int, m: int, counting: bool) -> np.ndarray:
    """Level-0 terms as one strided window view: over the coarse cells
    k = 0..m-1, row (-i - w // 2) % G holds the largest of the w entries
    tab[(k w - w // 2 + o - i) % G], o = 0..w-1, for a snapped index i.
    Coarse cell k covers the fine cells k w - w // 2 through
    k w - w // 2 + w - 1, so that entry is at least the table term of every
    fine cell it covers.  The view reads top[(row + k w) % G], top[d] the
    largest of tab[d..d+w-1] (circularly), from one array of top laid end
    to end.  At w = 1 row -i % G holds tab[(k - i) % G], which is the fine
    scan's term.  With counting set and w > 1, top is rounded up by
    _LOG_MARGIN, since the mixture's terms take the log of a sum of two
    entries."""
    G = tab.size
    span = (m - 1) * w + 1
    # tab laid end to end; top by doubling its span in place, in ascending
    # slices so that each slice reads entries no earlier slice has written
    top = np.concatenate([tab, tab[: span + w - 2]])
    width = 1
    while width < w:
        s = min(width, w - width)
        for a in range(0, top.size - s, _SCAN_BLOCK):
            b = min(a + _SCAN_BLOCK, top.size - s)
            np.maximum(top[a:b], top[a + s : b + s], out=top[a:b])
        width += s
    if counting and w > 1:
        top *= 1.0 + _LOG_MARGIN
    return sliding_window_view(top[: G + span - 1], span)[:, ::w]


def _neighbours(key: np.ndarray, m: int, ends: bool) -> np.ndarray:
    """The two neighbours (p, 2) of flat keys row * m + cell: around the
    circle, or, with ends=True, clipped to the candidate range."""
    r, k = np.divmod(key, m)
    k = k[:, None] + np.array([-1, 1])
    return r[:, None] * m + (np.clip(k, 0, m - 1) if ends else k % m)


def _shortlist(bound: np.ndarray, fine, score, tol, m: int, ends: bool) -> np.ndarray:
    """Sorted flat keys row * m + cell of one scan block's shortlist S and
    its neighbours (_neighbours), the set U, among the m fine candidate
    cells of each row.  S is every fine cell whose bound is at least f0
    minus rounding, f0 the exact score at the row's first best-bounded fine
    cell, and holds the global maximizer's cell.  bound (n, m0) holds the
    coarse bounds, each at least the fine bound of every fine cell its
    coarse cell covers.  fine(rows, k) gives the keys and bounds, (p, w)
    each, of the fine cells of coarse cells k of rows, the bound -inf off
    the candidate range; fine is None when the coarse cells are the fine
    cells (w = 1), and bound then holds the fine bounds.

    Fine bounds are gathered in three passes: each row's best coarse cell,
    with best fine bound b1; every other coarse cell whose bound reaches
    b1, which holds every fine cell at the row's fine maximum, so its
    first such cell and f0 are the one-level scan's; and every coarse cell
    left whose bound reaches f0 minus rounding.  The last two gather in
    slices of 2n coarse cells, twice the first pass (rows of shifted runs
    reach b1 in about one more cell each); past its first slice, the second
    keeps only each cell's best bound and first key there, and its cells
    join the third."""
    n = len(bound)
    rows = np.arange(n)
    k1 = np.argmax(bound, axis=1)
    if fine is None:
        f0 = score(rows * m + k1)
        short = bound >= (f0 - tol(f0))[:, None]
        near = short.copy()
        near[:, 1:] |= short[:, :-1]
        near[:, :-1] |= short[:, 1:]
        if not ends:
            near[:, 0] |= short[:, -1]
            near[:, -1] |= short[:, 0]
        return np.flatnonzero(near)

    def gather(r: np.ndarray, k: np.ndarray):
        step = 2 * n
        for a in range(0, r.size, step):
            yield r[a : a + step], *fine(r[a : a + step], k[a : a + step])

    # ties at the maximum take the first key, as argmax does
    none = np.iinfo(np.int64).max

    def best(key: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        top = v.max(axis=1)
        return top, np.where(v == top[:, None], key, none).min(axis=1)

    key1, v1 = fine(rows, k1)
    b1, first = best(key1, v1)
    reach = bound >= b1[:, None]
    reach[rows, k1] = False
    r2, k2 = np.nonzero(reach)
    # the first slice's bounds are kept for the shortlist; a cell past it
    # keeps its best bound and first key there, and is gathered again below
    kept = [(rows, key1, v1)]
    cells = []
    for r, key, v in gather(r2, k2):
        if len(kept) == 1:
            kept.append((r, key, v))
        cells.append((r, *best(key, v)))
    top = b1.copy()
    if cells:
        r, t, k = (np.concatenate(a) for a in zip(*cells))
        np.maximum.at(top, r, t)
        first[b1 < top] = none
        at = t == top[r]
        np.minimum.at(first, r[at], k[at])
    f0 = score(first)
    cut = f0 - tol(f0)
    reach = bound >= cut[:, None]
    reach[rows, k1] = False
    reach[r2[: 2 * n], k2[: 2 * n]] = False
    short = [key[v >= cut[r, None]] for r, key, v in kept]
    short += [key[v >= cut[r, None]] for r, key, v in gather(*np.nonzero(reach))]
    short = np.concatenate(short)
    # sorted runs, which a stable sort merges
    key = np.concatenate([short, _neighbours(short, m, ends).ravel()])
    key.sort(kind="stable")
    return key[np.r_[True, key[1:] != key[:-1]]]


def _starts(key: np.ndarray, m: int, score, ends: bool):
    """Refinement starts of one scan block: (row, cell, exact score) of the
    grid-local maxima that the bound cannot rule out, sorted by row, then
    cell.  key holds the sorted flat keys row * m + cell of the shortlist
    and its neighbours, the set U (_shortlist).

    U is scored exactly once.  A start is a cell of U that no neighbour
    beats, outer neighbours of U's edge cells included.  A cell beaten from
    outside U is dropped, not climbed: the climb would end at a local
    maximum whose cell and neighbours lie outside the shortlist, which
    scores below f0.  score maps keys to exact values."""
    fk = score(key)
    nb = _neighbours(key, m, ends)
    # the keys of U come sorted, so each neighbour's score is a bisection away
    at = np.minimum(np.searchsorted(key, nb), key.size - 1)
    scored = key[at] == nb
    f_nb = np.where(scored, fk[at], -np.inf)
    keep = fk >= f_nb.max(axis=1)
    key, fk, nb, f_nb, scored = key[keep], fk[keep], nb[keep], f_nb[keep], scored[keep]
    f_nb[~scored] = score(nb[~scored])
    keep = fk >= f_nb.max(axis=1)
    return key[keep] // m, key[keep] % m, fk[keep]


def _scan(T: int, est: np.ndarray, counting: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refinement starts of every row of est (n, R), n, R >= 2, wrapped into
    [0, 1): (row, fine cell, exact score), sorted by row, then cell, on the
    G = 4TR fine cells.  Rows run in blocks: a level-0 scan of the coarse
    bounds (_coarse_window), the shortlist's fine bounds (_shortlist), then
    _starts."""
    n, R = est.shape
    G = 4 * T * R
    w = _width(T, R)
    G0 = G // w
    # candidate cells: the whole circle, or [0, 1/2] with both ends
    m, m0 = (G // 2 + 1, G0 // 2 + 1) if counting else (G, G0)
    ll_of = _mixture_ll if counting else _plain_ll
    # the mixture sums kernel bounds before the log; the plain scan reads logs
    tab = _bound_table(T, G)
    if not counting:
        np.log(tab, out=tab)
    if w > 1:
        tab = np.concatenate([tab, tab[: w - 1]])
    win = _coarse_window(tab[:G], w, m0, counting)
    # the fine bounds (only at w > 1) read a coarse cell's w fine terms for
    # one run as one row of this view: row d is tab[d..d+w-1], circularly
    fine_win = sliding_window_view(tab, w) if w > 1 else None
    del tab
    h = w // 2
    offs = np.arange(w) - h

    tol = partial(_tol, T, R)
    starts = []
    step = max(1, _SCORE_BLOCK // R)
    # a row's level-1 gather holds about 4w fine cells, its kept coarse
    # cells' worth, besides its m0 coarse bounds
    block = max(1, _SCAN_BLOCK // (m0 + 4 * (w - 1)))
    bufs = np.empty((2, block, m0))
    for s in range(0, n, block):
        e = est[s : s + block]
        i = np.rint(e * G).astype(np.int64) % G
        bound, term = bufs[:, : len(e)]
        bound.fill(0.0)
        for j in range(R):
            # plain fancy indexing: np.take(win, ..., out=) would first copy
            # the whole strided view.  Its result is one block-sized
            # temporary at a time, which malloc reuses for the next term;
            # two alive at once were trimmed and faulted in again
            if counting:
                term[...] = win[(-i[:, j] - h) % G]
                term += win[(i[:, j] - h) % G]
                bound += _log_mix(term)
            else:
                bound += win[(-i[:, j] - h) % G]

        def fine(rows: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # each run's table terms over the fine cells c of cell k,
            # tab[(c - i) % G] (and the mixture's tab[(c + i) % G]), summed
            # in run order from 0.0 as the one-level scan sums them; a cell
            # off [0, 1/2] takes bound -inf
            c = k[:, None] * w + offs
            v = np.zeros(c.shape)
            for ij in i[rows].T:
                if counting:
                    v += _log_mix(fine_win[(c[:, 0] - ij) % G] + fine_win[(c[:, 0] + ij) % G])
                else:
                    v += fine_win[(c[:, 0] - ij) % G]
            if counting:
                v[(c < 0) | (c >= m)] = -np.inf
            return rows[:, None] * m + c % G, v

        def score(key: np.ndarray) -> np.ndarray:
            return np.concatenate([
                ll_of(T, e[k // m], (k % m)[:, None] / G)
                for k in np.split(key, range(step, key.size, step))
            ])

        near = _shortlist(bound, fine if w > 1 else None, score, tol, m, counting)
        r, k, fk = _starts(near, m, score, counting)
        starts.append((r + s, k, fk))
    return tuple(np.concatenate(a) for a in zip(*starts))


def _dlog_kernel(T: int, delta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and second derivatives (h, h') of log K at delta, and K itself,
    on the kernel's reduction (e, f): h = 2 pi [T cot(pi f) - cot(pi e)] and
    h' = -2 pi^2 [T^2 / sin^2(pi f) - 1 / sin^2(pi e)], infinite at kernel
    zeros; near e = 0, where the two terms cancel, the series
    h = s e [(T^2 - 1) + (pi e)^2 (T^4 - 1) / 15] and
    h' = s [(T^2 - 1) + (pi e)^2 (T^4 - 1) / 5], with s = -2 pi^2 / 3.
    K takes pea_kernel's operations on the same sines (in place on the
    reduction's fresh f), so it is bit-identical to pea_kernel."""
    e, f = _reduce(T, delta)
    t2 = float(T * T)
    pf = np.multiply(f, np.pi, out=f)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 2.0 * np.pi * (T / np.tan(pf) - 1.0 / np.tan(np.pi * e))
        sf, se = np.sin(pf, out=pf), np.sin(np.pi * e)
        hp = -2.0 * np.pi**2 * (t2 / sf**2 - 1.0 / se**2)
        k = np.divide(sf, se * T, out=sf)
    np.copyto(k, 1.0, where=np.abs(e) < _TINY)
    # the series' truncation error and the cancellation error cross near here
    small = np.abs(e) < 1.5e-3 / T
    x2 = (np.pi * e) ** 2
    s = -2.0 * np.pi**2 / 3.0
    h = np.where(small, s * e * ((t2 - 1.0) + x2 * (t2 * t2 - 1.0) / 15.0), h)
    hp = np.where(small, s * ((t2 - 1.0) + x2 * (t2 * t2 - 1.0) / 5.0), hp)
    return h, hp, np.multiply(k, k, out=k)


def _dll(T: int, est: np.ndarray, c: np.ndarray, counting: bool) -> tuple[np.ndarray, np.ndarray]:
    """(L'(c), L''(c)) per row of est (n, R) at c (n,).

    Plain: L' = -sum h(e - c), L'' = sum h'(e - c).  Mixture, with
    K+- = K(e +- c), h+- = h(e +- c) and weights w+- = K+- / (K- + K+):
    each term's derivative is l' = w+ h+ - w- h-, and
    L'' = sum [w- (h-^2 + h-') + w+ (h+^2 + h+') - l'^2].
    """
    c = c[:, None]
    h_m, hp_m, k_m = _dlog_kernel(T, est - c)
    if not counting:
        return -h_m.sum(axis=1), hp_m.sum(axis=1)
    h_p, hp_p, k_p = _dlog_kernel(T, est + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_m = k_m / (k_m + k_p)
        w_p = 1.0 - w_m
        d1 = w_p * h_p - w_m * h_m
        d2 = w_m * (h_m * h_m + hp_m) + w_p * (h_p * h_p + hp_p) - d1 * d1
    return d1.sum(axis=1), d2.sum(axis=1)


def _newton_step(
    T: int, est: np.ndarray, c, a, b, lo, hi, counting: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One refinement step per row of est (n, R) from c (n,) in [a, b], the
    start's [lo, hi] narrowed, on one evaluation of L' and L''.  Returns
    (next point, accepted, a, b).  The bracket narrows on the sign of L' at
    points strictly inside it only: the mixture's L' vanishes at both ends
    of [0, 1/2], which need not be maxima.  The Newton point is accepted
    where L'' < 0 and it lies in the narrowed bracket (within 1e-9 while
    that is [lo, hi]), else the midpoint, so L' at rounding noise bisects."""
    d1, d2 = _dll(T, est, c, counting)
    inside = (a < c) & (c < b)
    a = np.where(inside & (d1 > 0.0), c, a)
    b = np.where(inside & (d1 < 0.0), c, b)
    ok = np.isfinite(d1) & np.isfinite(d2) & (d2 < 0.0)
    nxt = c - np.divide(d1, d2, out=np.zeros_like(d1), where=ok)
    slack = np.where((a == lo) & (b == hi), 1e-9, 0.0)
    ok &= (a - slack <= nxt) & (nxt <= b + slack)
    return np.where(ok, nxt, 0.5 * (a + b)), ok, a, b


def _refine(
    T: int, est: np.ndarray, row, x, lo, hi, counting: bool, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """One safeguarded loop (rtsafe, Numerical Recipes 9.4) per start: the
    maximum of L on row row[i] of est from x[i] in [lo[i], hi[i]], by
    _newton_step for at most cap steps.  A start stops once its accepted
    step or its bracket is below _REFINE_TOL.  Returns (points, steps)."""
    a, b = lo.copy(), hi.copy()
    iters = np.zeros(row.size, dtype=np.int64)
    live = np.arange(row.size)
    for _ in range(cap):
        if not live.size:
            break
        c = x[live]
        nxt, ok, a_l, b_l = _newton_step(
            T, est[row[live]], c, a[live], b[live], lo[live], hi[live], counting
        )
        x[live], a[live], b[live] = nxt, a_l, b_l
        iters[live] += 1
        done = (ok & (np.abs(nxt - c) < _REFINE_TOL)) | (b_l - a_l < _REFINE_TOL)
        live = live[~done]
    return x, iters


def _maximize(
    T: int, est: np.ndarray, counting: bool
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Maximizer of the plain log likelihood over [0, 1) (counting=False) or
    of the even mixture over [0, 1/2] (counting=True) for each row of est
    (n, R).  Returns (phi_hat, log likelihood, candidate cells, refinement
    steps), the last a per-row count of the loop steps in which any of the
    row's starts was live (0 on the R = 1 path).  Estimates are wrapped into
    [0, 1) first (a no-op on rows already there); the callers check that
    they are finite (_runs), and another shape raises ValueError."""
    if est.ndim != 2:
        raise ValueError(f"estimates must be an (n, R) array, got shape {est.shape}")
    est = _wrap_array(est)
    n, R = est.shape
    ll_of = _mixture_ll if counting else _plain_ll

    def f(e: np.ndarray, c: np.ndarray) -> np.ndarray:
        return ll_of(T, e, c[:, None])

    if R == 1:
        x = est[:, 0]
        x = np.minimum(x, 1.0 - x) if counting else x
        return x, f(est, x), 0, np.zeros(n, dtype=np.int64)
    if T == 1:
        raise ValueError("T = 1 gives a flat likelihood; the MLE needs T >= 2 when R >= 2")
    G = 4 * T * R
    ncand = G // 2 + 1 if counting else G
    if not n:
        return np.empty(0), np.empty(0), ncand, np.zeros(0, dtype=np.int64)
    tol = partial(_tol, T, R)
    # rows (ascending), cells and exact scores of every start
    row, best, best_f = _scan(T, est, counting)
    # the step cap depends on G alone, and each step acts on each start
    # alone, so no row depends on its batch or on its refinement slice
    cap = _NEWTON_STEPS + math.ceil(math.log2(2.0 / (G * _REFINE_TOL)))
    out = []
    step = max(1, _SCORE_BLOCK // R)
    for s in range(0, row.size, step):
        rs, bs, fs = row[s : s + step], best[s : s + step], best_f[s : s + step]
        lo, hi = (bs - 1.0) / G, (bs + 1.0) / G
        if counting:
            lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 0.5)
        x, iters = _refine(T, est, rs, bs / G, lo, hi, counting, cap)
        x = np.clip(x, 0.0, 0.5) if counting else x
        fx = f(est[rs], x)
        # the start's exact score is the floor
        low = fx < fs - tol(fs)
        x[low], fx[low] = bs[low] / G, fs[low]
        if counting:
            # the mixture is even about both ends, so each is a stationary
            # point: a start whose bracket touches one takes it wherever it
            # scores within rounding, not a point a few ulps short of it
            for end, touch in ((0.0, lo == 0.0), (0.5, hi == 0.5)):
                at = np.flatnonzero(touch & (x != end))
                f_end = f(est[rs[at]], np.full(at.size, end))
                snap = f_end >= fx[at] - tol(fx[at])
                x[at[snap]], fx[at[snap]] = end, f_end[snap]
        else:
            x = _wrap_array(x)
        out.append((x, fx, iters))
    x, fx, iters = (np.concatenate(a) for a in zip(*out))
    # each row takes its best start, an exact tie the smaller phase, and the
    # step count of its longest-running start
    first = np.searchsorted(row, np.arange(n))
    pick = np.lexsort((x, -fx, row))[first]
    return x[pick], fx[pick], ncand, np.maximum.reduceat(iters, first)
