"""Seed-reproducible Monte Carlo sampling of phase-register outcomes.

`sample_upea_block` is the one sampler.  With y = T wrap(phi + theta),
a = rint(y) and e = y - a, outcome a + j (mod T) has probability

    P(j) = sin^2(pi e) / (T^2 sin^2(pi (j - e)/T))

over the T integers j with |j - e| < T/2.  One uniform per trial picks
j = 0 or j = sign(e) against their exact probabilities, which carry at least
81 % of the mass; the trials left draw j by rejection (`_tail`), so the
expected cost per trial does not depend on T.  Where sin^2(pi e) is below
the normal range (e = 0 included) the law is the point mass at j = 0.

A block of n trials draws, in this order: the theta vector, n uniforms, and
then rejection rounds, each of 2 * _PROPOSALS uniforms for each of up to
_ROUND trials still pending.  Each round's shape depends only on the draws
before it, so a block is a pure function of the generator's state.  Seeds
are 64-bit integers fed to numpy's PCG64 generator; the algorithm name is
exported as RNG_ALGORITHM for run metadata."""

from __future__ import annotations

import hashlib

import numpy as np

from .phase_math import _TINY, PeaParams, ThetaMode, _finite_array, _int_in, _wrap_array

__all__ = [
    "RNG_ALGORITHM",
    "RngSeed",
    "make_rng",
    "derive_seed",
    "sample_upea_block",
]

RNG_ALGORITHM = "numpy-pcg64"

# 64-bit unsigned seed, in [0, _MAX_SEED]
RngSeed = int
_MAX_SEED = (1 << 64) - 1

# proposals per pending trial in each rejection round of _tail, and the
# pending trials that one round takes
_PROPOSALS = 4
_ROUND = 1 << 10
# csc^2(z) - 1/z^2 rises on (0, pi/2] from 1/3 to this value
_CSC_EXCESS = 1.0 - 4.0 / np.pi**2

# trials per chunk of a sweep cell or a calibration; each chunk draws from
# its own generator, so this partition fixes every output for any worker count
_CHUNK = 4096


def make_rng(seed: RngSeed) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(_int_in("seed", seed, 0, _MAX_SEED)))


def derive_seed(base_seed: RngSeed, *path) -> RngSeed:
    """Strong child seed from a base seed in [0, 2^64) and a path of
    labels/indices.

    sha256 over the rendered path; collision-free for practical purposes and
    stable across platforms and processes.
    """
    text = "|".join([str(_int_in("base_seed", base_seed, 0, _MAX_SEED))] + [str(p) for p in path])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _chunks(n: int) -> list[tuple[int, int]]:
    """(chunk_index, size) partition of n trials into _CHUNK-sized chunks."""
    return [(i, min(_CHUNK, n - start)) for i, start in enumerate(range(0, n, _CHUNK))]


def _draw_theta(mode: ThetaMode, T: int, rng: np.random.Generator, n: int) -> np.ndarray:
    if mode.kind == "full":
        return rng.random(n)
    if mode.kind == "period":
        return rng.random(n) * (1.0 / T)
    return np.full(n, mode.value)


def sample_upea_block(
    params: PeaParams, phi, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized block of n independent runs; returns (s, theta, phi_tilde)
    arrays.  phi may be a scalar or a vector of 1 or n per-trial true
    phases; a phi that is not finite and numeric or of another shape, and
    an n that is not an integer >= 0, raise ValueError before any draw.  The
    draws follow the module docstring's stream order.  Its temporaries
    scale with the block: a few arrays of n entries, and the trials past
    the atoms (at most 19 % of them)."""
    T = params.T
    n = _int_in("n", n, 0)
    phi = _finite_array("phi", phi)
    if phi.ndim > 1 or phi.size not in (1, n):
        raise ValueError(f"phi must be a scalar or hold 1 or n = {n} phases, got shape {phi.shape}")
    phi_tilde = np.empty(n)
    s = np.empty(n, dtype=int)
    theta = _draw_theta(params.theta_mode, T, rng, n)
    trials, f, a, sign = _atoms(T, phi + theta, rng, s)
    sign *= _tail(T, f, rng)
    a += sign
    s[trials] = np.mod(a, T)
    np.divide(s, T, out=phi_tilde)
    phi_tilde -= theta
    return s, theta, _wrap_array(phi_tilde, out=phi_tilde)


def _atoms(
    T: int, y: np.ndarray, rng: np.random.Generator, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Set out to the outcomes a + j (mod T) of the shifted phases y, with j
    = 0 or sign(e) drawn from one uniform per trial against their exact
    probabilities, and return (trial, f, a, sign(e)) of the trials past both
    atoms, for _tail to draw.  Works in place on y, a fresh array."""
    # y = T wrap(phi + theta) and a = rint(y); then y becomes f = |y - a|
    a = np.floor(y)
    y -= a
    y *= T
    np.rint(y, out=a)
    y -= a
    sign = np.sign(y)
    f = np.abs(y, out=y)
    r = np.multiply(f, np.pi)
    np.sin(r, out=r)
    lattice = r * r < _TINY
    # a stand-in whose denominators have no zero; P(0) is set to 1 below
    f[lattice] = 0.5
    r[lattice] = 1.0
    r /= T
    # P(0) = (sin(pi f) / (T sin(pi f/T)))^2, and P(sign(e)) with 1 - f
    p = np.multiply(f, np.pi / T)
    np.sin(p, out=p)
    np.divide(r, p, out=p)
    p *= p
    p[lattice] = 1.0
    u = rng.random(len(y))
    j = u >= p
    past = np.empty(0, dtype=np.intp)
    if T > 2:  # at T <= 2 the atoms hold the whole law
        u -= p
        np.subtract(1.0, f, out=p)
        p *= np.pi / T
        np.sin(p, out=p)
        np.divide(r, p, out=p)
        p *= p
        past = np.flatnonzero(u >= p)
    rest = (past, f[past], a[past], sign[past])
    sign *= j
    a += sign
    np.mod(a, T, out=out, casting="unsafe")
    return rest


def _tail(T: int, f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Offsets j of the trials past both atoms, in the frame e = f > 0
    (sample_upea_block flips the sign back): j ranges over -T/2 < j <= T/2
    other than 0 and 1, with probability proportional to P(j).

    Exact rejection.  With z = pi m/T, m = |j - f| <= T/2 and
    csc^2(z) <= 1/z^2 + _CSC_EXCESS,

        P(j) / sin^2(pi f) <= 1/(pi^2 (m^2 - 1/4)) + _CSC_EXCESS/T^2.

    The first term is the mass that the density 1/(pi^2 t^2) puts on the
    unit cell around m, so the proposal draws t from it by inversion, on
    the half-lines t >= 3/2 - f (j >= 2) and t >= 1/2 + f (j <= -1), and
    rounds it to the nearest cell; the second term is a uniform choice of j.
    A proposal outside the window is rejected.  One uniform picks the part
    and the point, another accepts with probability P(j) over the bound, in
    which sin^2(pi f) cancels.  Each round takes up to _ROUND pending
    trials and draws _PROPOSALS of each for each of them; a trial keeps the
    first proposal it accepts, or waits for a later round.  At least 52 %
    of the proposals are accepted at T = 4, 75 % at T = 16 and 85 % at
    T >= 256."""
    j = np.empty(f.size)
    left = np.arange(f.size)
    # masses of the three parts, times pi^2 / sin^2(pi f)
    up = 1.0 / (1.5 - f)
    down = 1.0 / (0.5 + f)
    flat = np.pi**2 * _CSC_EXCESS * (T - 2) / T**2
    while left.size:
        part = left[:_ROUND]
        fl, hi, lo = (np.broadcast_to(x[part], (_PROPOSALS, part.size)) for x in (f, up, down))
        w, v = rng.random((2, _PROPOSALS, part.size))
        np.subtract(1.0, w, out=w)  # in (0, 1], so every 1/w below is finite
        w *= hi + lo + flat
        prop = np.empty_like(w)
        above = w <= hi
        below = ~above & (w <= hi + lo)
        level = ~(above | below)
        prop[above] = np.maximum(np.floor(1.0 / w[above] + fl[above] + 0.5), 2.0)
        t = 1.0 / (w[below] - hi[below])
        prop[below] = -np.maximum(np.floor(t - fl[below] + 0.5), 1.0)
        # cell k of the T - 2 uniform ones: j = -T/2 + 1 .. -1, then 2 .. T/2
        k = np.minimum(np.floor((w[level] - hi[level] - lo[level]) * ((T - 2) / flat)), T - 3)
        prop[level] = k + (1 - T // 2) + 2.0 * (k >= T // 2 - 1)
        m = np.abs(prop - fl)
        z = np.sin(m * (np.pi / T))
        z *= z
        bound = z * (T * T / np.pi**2) / (m * m - 0.25) + _CSC_EXCESS * z
        ok = (v * bound < 1.0) & (prop > -T / 2) & (prop <= T / 2)
        first = ok.argmax(axis=0)
        hit = ok[first, np.arange(part.size)]
        j[part[hit]] = prop[first[hit], np.flatnonzero(hit)]
        left = np.concatenate((part[~hit], left[_ROUND:]))
    return j
