"""Gate-level statevector simulation used as an independent cross-check.

Builds the phase-register estimation circuit (register qubits + one target
qubit carrying the eigenstate of a diagonal unitary), the classically shifted
variant (an Rz ladder injecting the random offset theta), and the counting
circuit (register qubits controlling repeated applications of the search
iteration on a work register), then returns exact Born-rule outcome
distributions to compare against the analytic laws.

Wire convention: little-endian.  Qubit 0 is the least significant bit of the
measured integer s; register qubits are 0..t-1 and any target/work qubits sit
above them.  The inverse QFT includes its bit-reversal swaps, so the measured
integer aligns with the analytic outcome index directly.

A state is a bare complex amplitude array.  Each circuit builds its start
state with np.zeros, chains the gates below and hands the result to
_register_pmf, which checks each state's norm once and marginalizes over
the register, the low t bits of the state index.

States are batched: amplitudes have shape (*batch, 2^n), one state per index
of the leading batch axes, and every gate acts on each state.  A gate angle
is a scalar for the whole batch or one angle per state.  pea_circuit_pmf
broadcasts its phases and grover_pea_pmf takes a sequence of instances, so
many circuits of one shape run gate by gate in one pass; a scalar call is
the batch of shape ().  Every gate of every circuit is applied: the batch
axis shares the Python work, not the circuit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .counting import CountingInstance, phi_from_m
from .phase_math import MeasurementPmf, _finite, _finite_array, _int_in, _wrap_array, pea_kernel

__all__ = [
    "pea_circuit_pmf",
    "grover_pea_pmf",
    "analytic_counting_pmf",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _per_state(angle, axes: int) -> np.ndarray:
    """A scalar angle or one angle per state, as a float array with `axes`
    trailing unit axes, so it broadcasts against a view of the states."""
    angle = np.asarray(angle, dtype=float)
    return angle.reshape(angle.shape + (1,) * axes)


def _bit_view(amps: np.ndarray, num_qubits: int, *qubits: int) -> np.ndarray:
    """View of amps with a length-2 axis for each listed qubit, highest
    qubit first, between the batch axes and blocks of the other qubits."""
    shape, top = [], num_qubits
    for q in sorted(qubits, reverse=True):
        shape += [1 << (top - 1 - q), 2]
        top = q
    return amps.reshape(*amps.shape[:-1], *shape, 1 << top)


def _apply_single(amps: np.ndarray, n: int, q: int, u00, u01, u10, u11) -> np.ndarray:
    """Apply a 2x2 unitary on qubit q of every state via a strided view;
    each entry is a scalar or has shape (*batch, 1, 1).  Returns a new array."""
    view = _bit_view(amps, n, q)
    out = np.empty_like(view)
    out[..., 0, :] = u00 * view[..., 0, :] + u01 * view[..., 1, :]
    out[..., 1, :] = u10 * view[..., 0, :] + u11 * view[..., 1, :]
    return out.reshape(amps.shape)


# The gates and the inverse QFT below act on bare amplitude arrays of n
# qubits; the circuits chain them and check the state once, at the end.


def _h(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    return _apply_single(amps, n, q, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF)


def _rz(amps: np.ndarray, n: int, q: int, angle) -> np.ndarray:
    """Rz(angle) = diag(e^{-i angle/2}, e^{+i angle/2})."""
    half = 0.5j * _per_state(angle, 2)
    return _apply_single(amps, n, q, np.exp(-half), 0.0, 0.0, np.exp(half))


def _cphase(amps: np.ndarray, n: int, a: int, b: int, angle) -> np.ndarray:
    """diag(1, 1, 1, e^{i angle}) on (a, b); symmetric in its two qubits."""
    amps = amps.copy()
    _bit_view(amps, n, a, b)[..., 1, :, 1, :] *= np.exp(1j * _per_state(angle, 3))
    return amps


def _swap(amps: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    return _bit_view(amps, n, a, b).swapaxes(-4, -2).reshape(amps.shape)


def _inverse_qft(amps: np.ndarray, n: int, qubits: list[int]) -> np.ndarray:
    """|x> -> T^{-1/2} sum_k e^{-2 pi i x k / T} |k> on the listed qubits,
    the first listed one the least significant bit of x and k."""
    k = len(qubits)
    for j in range(k // 2):
        amps = _swap(amps, n, qubits[j], qubits[k - 1 - j])
    for j in range(k):
        for i in reversed(range(j)):
            amps = _cphase(amps, n, qubits[i], qubits[j], -np.pi / (1 << (j - i)))
        amps = _h(amps, n, qubits[j])
    return amps


def _register_pmf(amps: np.ndarray, n: int, t: int) -> MeasurementPmf:
    """Born distribution of each state over register qubits 0..t-1, the low
    t bits of the state index.  Each state's norm must lie within 1e-12 of
    1; a non-finite norm fails."""
    amps = np.ascontiguousarray(amps, dtype=complex)
    parts = amps.view(float)  # real and imaginary parts, interleaved
    norms = (parts * parts).sum(axis=-1)
    good = abs(norms - 1.0) <= 1e-12  # False for a NaN norm
    if not good.all():
        bad = np.ravel(norms)[~np.ravel(good)]
        raise ValueError(f"state norm {float(bad[0])!r} deviates from 1")
    # rows: the other qubits (high bits); columns: the register's outcome
    grid = (np.abs(amps) ** 2).reshape(*amps.shape[:-1], 1 << (n - t), 1 << t)
    # summed in the order of the state index, one addend at a time
    marg = grid[..., 0, :].copy()
    for row in range(1, grid.shape[-2]):
        marg += grid[..., row, :]
    return MeasurementPmf(marg)


def _grover_operator(instance: CountingInstance) -> np.ndarray:
    """Dense search iteration: reflect about the mean after flipping the sign
    of the marked items, the first M.  Real orthogonal (N x N)."""
    oracle = np.where(np.arange(instance.N) < instance.M, -1.0, 1.0)
    diffusion = 2.0 / instance.N - np.eye(instance.N)
    return diffusion * oracle[None, :]


def pea_circuit_pmf(t: int, phi, theta=0.0) -> MeasurementPmf:
    """Exact register pmf of the full estimation circuit.

    The controlled powers of the diagonal unitary U = diag(1, e^{2 pi i phi})
    act on the eigenstate |1>, so controlled-U^{2^k} is a controlled phase of
    angle 2 pi 2^k phi from register qubit k; the classical shift theta rides
    in on an Rz ladder with angle 2 pi 2^k theta on qubit k.  The result must
    match the analytic kernel at shifted phase phi + theta.

    phi and theta broadcast against each other, and every (phi, theta) pair
    is one circuit of a batch run in one pass: probs has shape
    (*batch, 2^t), and (2^t,) for two scalars.  A non-integer t, t outside
    [1, 12] and a non-finite phase raise ValueError.
    """
    t = _int_in("t", t, 1, 12)
    phi, theta = np.broadcast_arrays(_finite_array("phi", phi), _finite_array("theta", theta))
    n = t + 1
    # register |0...0>, target eigenstate |1>
    amps = np.zeros((*phi.shape, 1 << n), dtype=complex)
    amps[..., 1 << t] = 1.0
    for k in range(t):
        amps = _h(amps, n, k)
    for k in range(t):
        amps = _cphase(amps, n, k, t, 2.0 * np.pi * (1 << k) * phi)
        amps = _rz(amps, n, k, 2.0 * np.pi * (1 << k) * theta)
    amps = _inverse_qft(amps, n, list(range(t)))
    return _register_pmf(amps, n, t)


def grover_pea_pmf(
    t: int, instance: CountingInstance | Sequence[CountingInstance], theta=0.0
) -> MeasurementPmf:
    """Exact register pmf of the counting circuit: uniform work register,
    controlled-G^{2^k} realized as 2^k sequential controlled applications
    (T-1 in total), the Rz theta ladder, then the inverse QFT.

    instance is one CountingInstance, giving probs of shape (2^t,), or a
    sequence of instances that share one n, run as one batch: each
    controlled application is one stacked matrix product, and probs has
    shape (len(instance), 2^t).  theta is a scalar or one shift per
    instance.  A non-integer t, t outside [1, 8], n > 6, mixed n and a
    non-finite theta raise ValueError.
    """
    t = _int_in("t", t, 1, 8)
    single = isinstance(instance, CountingInstance)
    instances = [instance] if single else list(instance)
    if not instances:
        raise ValueError("need at least one instance")
    n = _int_in("n", instances[0].n, 1, 6)
    if any(inst.n != n for inst in instances):
        raise ValueError("batched instances must share one n")
    theta = _finite_array("theta", theta)
    T = 1 << t
    N = 1 << n
    nq = t + n
    # complex once here, not in each product
    gmat = np.stack([_grover_operator(inst) for inst in instances]).astype(complex)
    if single:
        gmat = gmat[0]
    batch = gmat.shape[:-2]
    amps = np.zeros((*batch, 1 << nq), dtype=complex)
    amps[..., 0] = 1.0
    for q in range(nq):  # uniform superposition on register and work qubits
        amps = _h(amps, nq, q)
    grid = amps.reshape(*batch, N, T)  # rows: work register (high bits); cols: s
    ctrl = np.arange(T)
    for k in range(t):
        on = ((ctrl >> k) & 1).astype(bool)
        sub = grid[..., on]
        for _ in range(1 << k):
            sub = gmat @ sub
        grid[..., on] = sub
    for k in range(t):
        amps = _rz(amps, nq, k, 2.0 * np.pi * (1 << k) * theta)
    amps = _inverse_qft(amps, nq, list(range(t)))
    return _register_pmf(amps, nq, t)


def analytic_counting_pmf(t: int, m, theta: float = 0.0) -> np.ndarray:
    """Reference law for the counting circuit: the equal +-phi mixture of the
    analytic outcome kernel, shifted by theta.  m is one marked fraction or
    an array of them, giving an array of shape (*m.shape, 2^t).  A t that
    is not an integer >= 0 and an m that is not numeric or lies outside
    [0, 1] raise ValueError."""
    T = 1 << _int_in("t", t, 0)
    phi = np.reshape([phi_from_m(x) for x in np.ravel(_finite_array("m", m))], np.shape(m) + (1,))
    s = np.arange(T) / T
    # wrapped first: far outside [0, 1), s - theta would keep no fraction
    theta = _wrap_array(_finite("theta", theta))
    return 0.5 * pea_kernel(T, s - phi - theta) + 0.5 * pea_kernel(T, s + phi - theta)
