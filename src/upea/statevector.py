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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import CountingInstance, phi_from_m
from .phase_math import _wrap_array, pea_kernel

__all__ = [
    "StateVector",
    "MeasurementPmf",
    "zero_state",
    "basis_state",
    "apply_h",
    "apply_rz",
    "apply_controlled_phase",
    "apply_swap",
    "qft",
    "inverse_qft",
    "measurement_pmf",
    "grover_operator",
    "pea_circuit_pmf",
    "grover_pea_pmf",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on num_qubits qubits (little-endian indexing)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude count must be 2^num_qubits")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} deviates from 1")

    def probs(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class MeasurementPmf:
    """Marginal Born distribution over an ordered subset of qubits; index i
    of probs corresponds to the integer read from those qubits in order
    (first listed qubit = least significant bit)."""

    register_qubits: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "register_qubits", tuple(self.register_qubits))
        if p.shape != (1 << len(self.register_qubits),):
            raise ValueError("probs length must be 2^len(register_qubits)")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")


def zero_state(num_qubits: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, *qubits: int) -> None:
    seen = set()
    for q in qubits:
        if not (0 <= q < state.num_qubits):
            raise ValueError(f"qubit index {q} out of range")
        if q in seen:
            raise ValueError("qubit indices must be distinct")
        seen.add(q)


def _apply_single(amps: np.ndarray, q: int, u00, u01, u10, u11, num_qubits: int) -> np.ndarray:
    """Apply a 2x2 unitary on qubit q via a strided view; returns new array."""
    view = amps.reshape(1 << (num_qubits - 1 - q), 2, 1 << q)
    out = np.empty_like(view)
    out[:, 0, :] = u00 * view[:, 0, :] + u01 * view[:, 1, :]
    out[:, 1, :] = u10 * view[:, 0, :] + u11 * view[:, 1, :]
    return out.reshape(-1)


def apply_h(state: StateVector, qubit: int) -> StateVector:
    """Hadamard."""
    _check_qubit(state, qubit)
    amps = _apply_single(
        state.amplitudes, qubit, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF, state.num_qubits
    )
    return StateVector(state.num_qubits, amps)


def apply_rz(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rz(angle) = diag(e^{-i angle/2}, e^{+i angle/2}): relative phase
    e^{i angle} on |1> against |0>."""
    _check_qubit(state, qubit)
    half = 0.5j * float(angle)
    amps = _apply_single(state.amplitudes, qubit, np.exp(-half), 0.0, 0.0, np.exp(half), state.num_qubits)
    return StateVector(state.num_qubits, amps)


def apply_controlled_phase(state: StateVector, control: int, target: int, angle: float) -> StateVector:
    """diag(1, 1, 1, e^{i angle}) on the (control, target) pair; symmetric in
    its two qubits."""
    _check_qubit(state, control, target)
    idx = np.arange(state.amplitudes.size)
    both = (((idx >> control) & 1) & ((idx >> target) & 1)).astype(bool)
    amps = state.amplitudes.copy()
    amps[both] *= np.exp(1j * float(angle))
    return StateVector(state.num_qubits, amps)


def apply_swap(state: StateVector, a: int, b: int) -> StateVector:
    """Exchange two qubits."""
    _check_qubit(state, a, b)
    idx = np.arange(state.amplitudes.size)
    bit_a = (idx >> a) & 1
    bit_b = (idx >> b) & 1
    diff = bit_a ^ bit_b
    source = idx ^ ((diff << a) | (diff << b))
    return StateVector(state.num_qubits, state.amplitudes[source])


def qft(state: StateVector, qubits) -> StateVector:
    """QFT on the listed qubits: |s> -> T^{-1/2} sum_x e^{2 pi i s x / T} |x>,
    where the first listed qubit is the least significant bit of s and x."""
    qubits = list(qubits)
    _check_qubit(state, *qubits)
    n = len(qubits)
    for j in reversed(range(n)):
        state = apply_h(state, qubits[j])
        for k in range(j):
            state = apply_controlled_phase(state, qubits[k], qubits[j], np.pi / (1 << (j - k)))
    for j in range(n // 2):
        state = apply_swap(state, qubits[j], qubits[n - 1 - j])
    return state


def inverse_qft(state: StateVector, qubits) -> StateVector:
    """Exact inverse of qft on the same qubit list (bit-reversal swaps first,
    then the reversed rotation ladder with negated angles)."""
    qubits = list(qubits)
    _check_qubit(state, *qubits)
    n = len(qubits)
    for j in range(n // 2):
        state = apply_swap(state, qubits[j], qubits[n - 1 - j])
    for j in range(n):
        for k in reversed(range(j)):
            state = apply_controlled_phase(state, qubits[k], qubits[j], -np.pi / (1 << (j - k)))
        state = apply_h(state, qubits[j])
    return state


def measurement_pmf(state: StateVector, qubits) -> MeasurementPmf:
    """Marginal outcome distribution over the listed qubits."""
    qubits = list(qubits)
    _check_qubit(state, *qubits)
    probs = state.probs()
    idx = np.arange(probs.size)
    out_index = np.zeros(probs.size, dtype=np.int64)
    for pos, q in enumerate(qubits):
        out_index |= ((idx >> q) & 1) << pos
    marg = np.bincount(out_index, weights=probs, minlength=1 << len(qubits))
    return MeasurementPmf(tuple(qubits), marg)


def grover_operator(instance: CountingInstance) -> np.ndarray:
    """Dense search iteration: reflect about the mean after flipping the sign
    of every marked item.  Real orthogonal (N x N)."""
    marked = np.zeros(instance.N, dtype=bool)
    if instance.marked is None:
        marked[: instance.M] = True
    else:
        marked[sorted(instance.marked)] = True
    oracle = np.where(marked, -1.0, 1.0)
    diffusion = 2.0 / instance.N - np.eye(instance.N)
    return diffusion * oracle[None, :]


def pea_circuit_pmf(t: int, phi: float, theta: float = 0.0) -> MeasurementPmf:
    """Exact register pmf of the full estimation circuit.

    The controlled powers of the diagonal unitary U = diag(1, e^{2 pi i phi})
    act on the eigenstate |1>, so controlled-U^{2^k} is a controlled phase of
    angle 2 pi 2^k phi from register qubit k; the classical shift theta rides
    in on an Rz ladder with angle 2 pi 2^k theta on qubit k.  The result must
    match the analytic kernel at shifted phase phi + theta.
    """
    if not (1 <= t <= 12):
        raise ValueError("t must lie in [1, 12]")
    phi, theta = float(phi), float(theta)
    state = basis_state(t + 1, 1 << t)  # register |0...0>, target eigenstate |1>
    for k in range(t):
        state = apply_h(state, k)
    for k in range(t):
        state = apply_controlled_phase(state, k, t, 2.0 * np.pi * (1 << k) * phi)
        state = apply_rz(state, k, 2.0 * np.pi * (1 << k) * theta)
    state = inverse_qft(state, range(t))
    return measurement_pmf(state, range(t))


def grover_pea_pmf(t: int, instance: CountingInstance, theta: float = 0.0) -> MeasurementPmf:
    """Exact register pmf of the counting circuit: uniform work register,
    controlled-G^{2^k} realized as 2^k sequential controlled applications
    (T-1 in total), the Rz theta ladder, then the inverse QFT."""
    if not (1 <= t <= 8):
        raise ValueError("t must lie in [1, 8]")
    if instance.n > 6:
        raise ValueError("n must be <= 6")
    n = instance.n
    T = 1 << t
    N = instance.N
    nq = t + n
    gmat = grover_operator(instance)
    state = zero_state(nq)
    for q in range(nq):  # uniform superposition on register and work qubits
        state = apply_h(state, q)
    amps = state.amplitudes.copy()
    grid = amps.reshape(N, T)  # rows: work register (high bits); cols: s
    ctrl = np.arange(T)
    for k in range(t):
        on = ((ctrl >> k) & 1).astype(bool)
        for _ in range(1 << k):
            grid[:, on] = gmat @ grid[:, on]
    state = StateVector(nq, grid.reshape(-1))
    for k in range(t):
        state = apply_rz(state, k, 2.0 * np.pi * (1 << k) * float(theta))
    state = inverse_qft(state, range(t))
    return measurement_pmf(state, range(t))


def analytic_counting_pmf(t: int, m: float, theta: float = 0.0) -> np.ndarray:
    """Reference law for the counting circuit: the equal +-phi mixture of the
    analytic outcome kernel, shifted by theta."""
    T = 1 << t
    phi = phi_from_m(m)
    s = np.arange(T) / T
    # wrapped first: far outside [0, 1), s - theta would keep no fraction
    theta = _wrap_array(float(theta))
    return 0.5 * pea_kernel(T, s - phi - theta) + 0.5 * pea_kernel(T, s + phi - theta)
