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

A state is a bare complex array of shape (*batch, 2^n), one state per index
of the leading batch axes; a gate angle is a scalar or one angle per state.
Each circuit chains the gates below on np.zeros and hands the result to
_register_pmf, which checks each state's norm once and marginalizes over the
register, the low t bits of the state index.  pea_circuit_pmf broadcasts its
phases and grover_pea_pmf takes a sequence of instances under one shift, so
many circuits of one shape run gate by gate in one pass.  Every gate of
every circuit is applied, each with only its matrix's arithmetic: H is a
butterfly, Rz and the controlled phase multiply by a diagonal.
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


def _per_state(angle) -> np.ndarray:
    """A scalar angle or one angle per state, as a float array with three
    trailing unit axes, so it broadcasts against a one- or two-qubit view."""
    angle = np.asarray(angle, dtype=float)
    return angle.reshape(angle.shape + (1, 1, 1))


def _bit_view(amps: np.ndarray, num_qubits: int, *qubits: int) -> np.ndarray:
    """View of amps with a length-2 axis for each listed qubit, highest
    qubit first, between the batch axes and blocks of the other qubits."""
    shape, top = [], num_qubits
    for q in sorted(qubits, reverse=True):
        shape += [1 << (top - 1 - q), 2]
        top = q
    return amps.reshape(*amps.shape[:-1], *shape, 1 << top)


def _h(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    """Hadamard as a butterfly, a + b and a - b with a = s*v0, b = s*v1 and
    s = 1/sqrt(2): the 2x2 form's products, up to the sign of a zero."""
    view = _bit_view(amps, n, q)
    out = np.empty_like(view)
    a, b = _SQRT_HALF * view[..., 0, :], _SQRT_HALF * view[..., 1, :]
    np.add(a, b, out=out[..., 0, :])
    np.subtract(a, b, out=out[..., 1, :])
    return out.reshape(amps.shape)


def _rz(amps: np.ndarray, n: int, q: int, angle) -> np.ndarray:
    """Rz(angle) = diag(e^{-i angle/2}, e^{+i angle/2}), the phase the left
    operand of each product: NumPy's complex u * x and x * u can differ."""
    half = 0.5j * _per_state(angle)
    phase = np.exp(np.concatenate([-half, half], axis=-2))  # (*batch, 1, 2, 1)
    return (phase * _bit_view(amps, n, q)).reshape(amps.shape)


def _cphase(amps: np.ndarray, n: int, a: int, b: int, angle) -> np.ndarray:
    """diag(1, 1, 1, e^{i angle}) on (a, b); symmetric in its two qubits."""
    amps = amps.copy()
    _bit_view(amps, n, a, b)[..., 1, :, 1, :] *= np.exp(1j * _per_state(angle))
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


def _grover_stack(N: int, M) -> np.ndarray:
    """Dense search iterations, one per marked count in M, of shape (*M.shape,
    N, N): flip the sign of the first M items, then reflect about the mean."""
    flip = np.where(np.arange(N) < np.asarray(M)[..., None, None], -1.0, 1.0)
    return ((2.0 / N - np.eye(N)) * flip).astype(complex)


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
    [1, 12], a non-finite phase and shapes that do not broadcast raise
    ValueError naming the argument, before any gate runs.
    """
    t = _int_in("t", t, 1, 12)
    phi, theta = _finite_array("phi", phi), _finite_array("theta", theta)
    try:
        phi, theta = np.broadcast_arrays(phi, theta)
    except ValueError:
        raise ValueError(
            f"phi and theta must broadcast together, got shapes {phi.shape} and {theta.shape}"
        ) from None
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
    shape (len(instance), 2^t).  theta is one shift for every instance.  A
    non-integer t, t outside [1, 8], n > 6, mixed n, and a theta that is not
    one finite number raise ValueError, before any gate runs.
    """
    t = _int_in("t", t, 1, 8)
    single = isinstance(instance, CountingInstance)
    instances = [instance] if single else list(instance)
    if not instances:
        raise ValueError("need at least one instance")
    n = _int_in("n", instances[0].n, 1, 6)
    if any(inst.n != n for inst in instances):
        raise ValueError("batched instances must share one n")
    batch = () if single else (len(instances),)
    theta = _finite("theta", theta)
    T = 1 << t
    N = 1 << n
    nq = t + n
    gmat = _grover_stack(N, np.reshape([inst.M for inst in instances], batch))
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
    del grid, sub, gmat  # grid holds the state: let each gate below free the one it replaces
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
    phi = np.expand_dims(phi_from_m(m), -1)
    s = np.arange(T) / T
    # wrapped first: far outside [0, 1), s - theta would keep no fraction
    theta = _wrap_array(_finite("theta", theta))
    both = pea_kernel(T, np.stack([s - phi - theta, s + phi - theta]))  # one call for -phi and +phi
    return 0.5 * both[0] + 0.5 * both[1]
