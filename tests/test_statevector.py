"""Tests for the gate-level simulator: single gates against their matrices
and the general 2x2 form, the inverse QFT against the inverse DFT matrix,
the search operators against a per-instance oracle, the register marginal,
and the estimation circuits against the analytic laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upea.counting import CountingInstance, phi_from_m
from upea.phase_math import MeasurementPmf, pea_kernel
from upea.statevector import (
    _cphase,
    _grover_stack,
    _h,
    _inverse_qft,
    _register_pmf,
    _rz,
    _swap,
    analytic_counting_pmf,
    grover_pea_pmf,
    pea_circuit_pmf,
)


def _basis(nq: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << nq, dtype=complex)
    amps[index] = 1.0
    return amps


def _random_state(nq: int, seed: int, batch: tuple[int, ...] = ()) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(*batch, 1 << nq)) + 1j * rng.normal(size=(*batch, 1 << nq))
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def _apply_single(amps: np.ndarray, n: int, q: int, u00, u01, u10, u11) -> np.ndarray:
    """Oracle: the general 2x2 unitary on qubit q of every state, each entry
    a scalar or of shape (*batch, 1, 1); the form H and Rz once ran through."""
    view = amps.reshape(*amps.shape[:-1], 1 << (n - 1 - q), 2, 1 << q)
    out = np.empty_like(view)
    out[..., 0, :] = u00 * view[..., 0, :] + u01 * view[..., 1, :]
    out[..., 1, :] = u10 * view[..., 0, :] + u11 * view[..., 1, :]
    return out.reshape(amps.shape)


def _grover_operator(instance: CountingInstance) -> np.ndarray:
    """Oracle: one instance's search iteration, built on its own."""
    oracle = np.where(np.arange(instance.N) < instance.M, -1.0, 1.0)
    diffusion = 2.0 / instance.N - np.eye(instance.N)
    return diffusion * oracle[None, :]


def _gate(amps: np.ndarray, gate, *args) -> np.ndarray:
    """Apply a bare-array gate to states of log2(amps.shape[-1]) qubits and
    check that each result's norm stays within 1e-12 of 1."""
    out = gate(amps, amps.shape[-1].bit_length() - 1, *args)
    assert np.all(np.abs(np.linalg.norm(out, axis=-1) - 1.0) <= 1e-12)
    return out


# ---------------------------------------------------------------------------
# single gates


def test_state_constructor_checks_norm() -> None:
    with pytest.raises(ValueError, match="norm"):
        _register_pmf(np.array([1.0, 1.0]), 1, 1)


def test_basis_state_indexing_is_little_endian() -> None:
    st5 = _basis(3, 5)  # |101>: qubits 0 and 2 set
    probs = _register_pmf(st5, 3, 1).probs
    assert probs[1] == pytest.approx(1.0)  # qubit 0 is the LSB
    probs = _register_pmf(st5, 3, 2).probs
    assert probs[1] == pytest.approx(1.0)  # qubit 1 is 0


def test_h_matches_matrix_on_single_qubit() -> None:
    got = _gate(_basis(1, 0), _h, 0)
    assert np.allclose(got, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    got = _gate(_basis(1, 1), _h, 0)
    assert np.allclose(got, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_rz_applies_relative_phase_on_one() -> None:
    alpha = 0.7
    st0 = _gate(_basis(1, 0), _rz, 0, alpha)
    st1 = _gate(_basis(1, 1), _rz, 0, alpha)
    # global phase convention: diag(e^{-ia/2}, e^{+ia/2})
    assert st0[0] == pytest.approx(np.exp(-0.5j * alpha))
    assert st1[1] == pytest.approx(np.exp(+0.5j * alpha))


def test_controlled_phase_acts_only_on_both_ones() -> None:
    alpha = 1.1
    for idx in range(4):
        got = _gate(_basis(2, idx), _cphase, 0, 1, alpha)
        expect = np.zeros(4, dtype=complex)
        expect[idx] = np.exp(1j * alpha) if idx == 3 else 1.0
        assert np.allclose(got, expect)


def test_controlled_phase_is_symmetric_in_its_qubits() -> None:
    st0 = _random_state(3, 11)
    a = _gate(st0, _cphase, 0, 2, 0.87)
    b = _gate(st0, _cphase, 2, 0, 0.87)
    assert np.allclose(a, b)


def test_swap_exchanges_qubits() -> None:
    got = _gate(_basis(2, 1), _swap, 0, 1)
    assert got[2] == pytest.approx(1.0)
    st0 = _random_state(4, 3)
    twice = _gate(_gate(st0, _swap, 1, 3), _swap, 1, 3)
    assert np.allclose(twice, st0)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=999))
@settings(max_examples=25)
def test_gates_preserve_norm(q: int, seed: int) -> None:
    st0 = _random_state(4, seed)
    for out in (
        _gate(st0, _h, q),
        _gate(st0, _rz, q, 0.3),
        _gate(st0, _swap, q, (q + 1) % 4),
        _gate(st0, _cphase, q, (q + 1) % 4, 0.9),
    ):
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# transforms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qft_matches_dft_matrix(n: int) -> None:
    # the inverse QFT against the inverse DFT matrix exp(-2 pi i x k / N)/sqrt(N)
    N = 1 << n
    x = np.arange(N)
    inverse_dft = np.exp(-2j * np.pi * np.outer(x, x) / N) / np.sqrt(N)
    # row x of a batch of basis states is the image of |x>
    got = _gate(np.eye(N, dtype=complex), _inverse_qft, list(range(n)))
    assert np.allclose(got, inverse_dft, atol=1e-12)
    # on a superposition, which a circuit's register holds before it
    st0 = _random_state(n, 21)
    got = _gate(st0, _inverse_qft, list(range(n)))
    assert np.allclose(got, inverse_dft @ st0, atol=1e-12)


def test_qft_on_register_subset_leaves_rest_alone() -> None:
    # inverse-transform the low 2 qubits of |q2=1, q1q0=01>
    out = _gate(_basis(3, 5), _inverse_qft, [0, 1])
    expect = np.zeros(8, dtype=complex)
    expect[4:8] = np.exp(-0.5j * np.pi * np.arange(4)) / 2  # q2 stays 1
    assert np.allclose(out, expect)


def test_measurement_pmf_marginalizes() -> None:
    st0 = _gate(_basis(2, 0), _h, 0)
    pmf = _register_pmf(st0, 2, 1)
    assert np.allclose(pmf.probs, [0.5, 0.5])
    pmf = _register_pmf(_gate(st0, _swap, 0, 1), 2, 1)  # the superposed qubit is now 1
    assert np.allclose(pmf.probs, [1.0, 0.0])
    assert abs(pmf.probs.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# search operator


@pytest.mark.parametrize("n,marked", [(2, range(1)), (3, range(2)), (3, range(0))])
def test_grover_operator_is_orthogonal(n: int, marked: range) -> None:
    # the marked items are the first M: their columns of the diffusion flip sign
    g = _grover_stack(1 << n, len(marked))
    assert g.dtype == complex and g.shape == (1 << n, 1 << n)
    assert np.allclose(g @ g.T, np.eye(1 << n), atol=1e-12)
    flip = np.where(np.isin(np.arange(1 << n), marked), -1.0, 1.0)
    assert np.array_equal(g, (2.0 / (1 << n) - np.eye(1 << n)) * flip)


def test_grover_operator_eigenphase_matches_count_fraction() -> None:
    inst = CountingInstance(n=3, M=3)
    g = _grover_stack(inst.N, inst.M)
    eig = np.angle(np.linalg.eigvals(g)) / (2 * np.pi)
    phi = phi_from_m(inst.M / inst.N)
    # rotation eigenphases come in a +-phi pair
    assert min(abs(e - phi) for e in eig) < 1e-12
    assert min(abs(e + phi) for e in eig) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_grover_stack_equals_the_stacked_per_instance_oracle_bit_for_bit(n: int) -> None:
    insts = [CountingInstance(n=n, M=M) for M in range((1 << n) + 1)]
    want = np.stack([_grover_operator(inst) for inst in insts]).astype(complex)
    got = _grover_stack(1 << n, [inst.M for inst in insts])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _grover_stack(1 << n, 1).tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# estimation circuits vs analytic laws


@pytest.mark.parametrize("t", [1, 2, 4])
def test_pea_circuit_matches_kernel(t: int) -> None:
    T = 1 << t
    for phi, theta in [(0.0, 0.0), (0.3, 0.0), (0.77, 0.21), (0.5, 0.9)]:
        pmf = pea_circuit_pmf(t, phi, theta).probs
        expect = pea_kernel(T, np.arange(T) / T - (phi + theta))
        assert np.allclose(pmf, expect, atol=1e-12)
        assert abs(pmf.sum() - 1.0) < 1e-12


def test_pea_circuit_rejects_out_of_range_t() -> None:
    with pytest.raises(ValueError):
        pea_circuit_pmf(0, 0.3)
    with pytest.raises(ValueError):
        pea_circuit_pmf(13, 0.3)


@pytest.mark.parametrize("t,n", [(1, 1), (3, 2), (4, 3)])
def test_grover_circuit_matches_mixture(t: int, n: int) -> None:
    N = 1 << n
    theta = 0.13
    for M in range(N + 1):
        inst = CountingInstance(n=n, M=M)
        pmf = grover_pea_pmf(t, inst, theta).probs
        expect = analytic_counting_pmf(t, M / N, theta)
        assert np.allclose(pmf, expect, atol=1e-12)


def test_grover_circuit_rejects_out_of_range_dims() -> None:
    inst = CountingInstance(n=2, M=1)
    with pytest.raises(ValueError):
        grover_pea_pmf(9, inst)
    with pytest.raises(ValueError):
        grover_pea_pmf(3, CountingInstance(n=7, M=1))


def test_analytic_counting_pmf_is_half_half_mixture() -> None:
    # bit for bit: one kernel call on the stacked -phi and +phi arguments
    # gives each entry the bits of its own call
    t, theta = 4, 0.05
    T = 1 << t
    for m in (0.3, [[0.0, 1 / 3, 0.5], [0.7, 0.999, 1.0]]):
        phi = np.vectorize(phi_from_m)(m)[..., None]
        s = np.arange(T) / T
        expect = 0.5 * pea_kernel(T, s - phi - theta) + 0.5 * pea_kernel(T, s + phi - theta)
        assert analytic_counting_pmf(t, m, theta).tobytes() == expect.tobytes()


@pytest.mark.parametrize("far", [1e300, -1e300, 1e17])
def test_analytic_counting_pmf_wraps_a_far_theta(far: float) -> None:
    # each far theta is a whole number of turns, so it is theta 0
    assert np.array_equal(analytic_counting_pmf(4, 0.3, far), analytic_counting_pmf(4, 0.3, 0.0))


@pytest.mark.parametrize(
    "t, message", [(2.5, "t must be an integer"), (True, "t must be an integer"), (-1, "t must be >= 0")]
)
def test_analytic_counting_pmf_rejects_a_bad_t(t, message: str) -> None:
    # 2.5 once raised NumPy's TypeError, True ran as t = 1, and -1 raised
    # "negative shift count"
    with pytest.raises(ValueError, match=message):
        analytic_counting_pmf(t, 0.3)


def test_measurement_pmf_validation() -> None:
    with pytest.raises(ValueError):
        MeasurementPmf(probs=np.array([0.7, 0.7]))


@pytest.mark.parametrize("qubits", [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]])
def test_measurement_pmf_matches_an_index_oracle(qubits: list) -> None:
    # bit for bit: the marginal over the register qubits 0..t-1 adds each
    # outcome's terms in index order, as bincount over the read-out integer
    # of every basis index does, on each state of a batch
    t = len(qubits)
    states = _random_state(5, 17, (3,))
    idx = np.arange(32)
    out = sum(((idx >> q) & 1) << pos for pos, q in enumerate(qubits))
    got = _register_pmf(states, 5, t)
    assert got.probs.shape == (3, 1 << t)
    for amps, row in zip(states, got.probs):
        expect = np.bincount(out, weights=np.abs(amps) ** 2, minlength=1 << t)
        assert row.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# batched states


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_batched_pea_circuit_equals_scalar_calls_bit_for_bit(t: int) -> None:
    rng = np.random.default_rng(100 + t)
    phi, theta = rng.random((4, 1)), rng.random(4)
    got = pea_circuit_pmf(t, phi, theta).probs
    assert got.shape == (4, 4, 1 << t)
    for i in range(4):
        for j in range(4):
            one = pea_circuit_pmf(t, float(phi[i, 0]), float(theta[j])).probs
            assert got[i, j].tobytes() == one.tobytes()


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_grover_circuit_equals_per_instance_calls_bit_for_bit(t: int, n: int) -> None:
    insts = [CountingInstance(n=n, M=M) for M in range((1 << n) + 1)]
    theta = 0.37
    got = grover_pea_pmf(t, insts, theta).probs
    assert got.shape == (len(insts), 1 << t)
    for row, inst in zip(got, insts):
        assert row.tobytes() == grover_pea_pmf(t, inst, theta).probs.tobytes()


def test_batched_analytic_counting_pmf_equals_scalar_calls_bit_for_bit() -> None:
    m = np.arange(9) / 8
    got = analytic_counting_pmf(4, m, 0.21)
    assert got.shape == (9, 16)
    for row, x in zip(got, m):
        assert row.tobytes() == analytic_counting_pmf(4, float(x), 0.21).tobytes()
    # the verify-circuit grid: every fraction M/N at each t in 1..5, n in 1..4
    for t in range(1, 6):
        for n in range(1, 5):
            m = np.arange((1 << n) + 1) / (1 << n)
            got = analytic_counting_pmf(t, m, 0.37)
            want = [analytic_counting_pmf(t, float(x), 0.37) for x in m]
            assert got.tobytes() == np.stack(want).tobytes()


def test_batched_gates_act_on_each_state() -> None:
    states = [_random_state(3, seed) for seed in (1, 2)]
    batch = np.stack(states)
    angles = np.array([0.3, -1.1])
    gates = [
        lambda s, a: _gate(s, _h, 1),
        lambda s, a: _gate(s, _rz, 2, a),
        lambda s, a: _gate(s, _cphase, 2, 0, a),
        lambda s, a: _gate(s, _swap, 0, 2),
    ]
    for gate in gates:
        got = gate(batch, angles)
        for i, s in enumerate(states):
            assert np.array_equal(got[i], gate(s, float(angles[i])))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_h_and_rz_equal_the_general_2x2_form(batch: tuple, n: int) -> None:
    # array_equal counts -0 and +0 as equal: the butterfly subtracts s*v1
    # where the 2x2 form adds (-s)*v1, and Rz drops the form's 0*v terms,
    # so only the sign of a zero may differ; every third amplitude is zero
    states = _random_state(n, 40 + n, batch)
    states[..., ::3] = 0.0
    rng = np.random.default_rng(n)
    s = 1.0 / np.sqrt(2.0)
    for q in range(n):
        assert np.array_equal(_h(states, n, q), _apply_single(states, n, q, s, s, s, -s))
        for angle in (0.7, -13.1, rng.normal(size=batch) * 5):
            half = 0.5j * np.reshape(angle, np.shape(angle) + (1, 1))
            want = _apply_single(states, n, q, np.exp(-half), 0.0, 0.0, np.exp(half))
            assert np.array_equal(_rz(states, n, q, angle), want)


def test_gates_leave_their_input_unchanged() -> None:
    # the tests, and the circuits' callers, reuse a state after a gate
    states = _random_state(4, 9, (3,))
    kept = states.copy()
    angles = np.array([0.3, -1.1, 2.0])
    for out in (
        _h(states, 4, 2),
        _rz(states, 4, 1, angles),
        _rz(states, 4, 3, 0.4),
        _cphase(states, 4, 0, 3, angles),
        _swap(states, 4, 1, 2),
        _inverse_qft(states, 4, [0, 1, 2]),
    ):
        assert out is not states and not np.shares_memory(out, states)
        assert states.tobytes() == kept.tobytes()


def test_batch_holding_one_unnormalized_state_raises() -> None:
    amps = np.zeros((3, 4), dtype=complex)
    amps[:, 0] = 1.0
    amps[1, 1] = 0.5
    with pytest.raises(ValueError, match="norm 1.25 deviates"):
        _register_pmf(amps, 2, 1)
    probs = np.array([[1.0, 0.0], [0.6, 0.6]])
    with pytest.raises(ValueError, match="sum to 1"):
        MeasurementPmf(probs)


def test_grover_batch_with_mixed_n_raises() -> None:
    with pytest.raises(ValueError, match="one n"):
        grover_pea_pmf(2, [CountingInstance(n=2, M=1), CountingInstance(n=3, M=1)])
    with pytest.raises(ValueError, match="at least one"):
        grover_pea_pmf(2, [])


def test_a_shift_of_the_wrong_shape_raises_naming_it_before_any_gate() -> None:
    # shapes that once raised NumPy's broadcast errors from inside a gate; a
    # batch of instances runs under one shift, so one per instance raises too
    for insts, theta in (([CountingInstance(2, 1)], [0.1, 0.2]), (CountingInstance(2, 1), [0.1]),
                         ([CountingInstance(2, 0), CountingInstance(2, 1)], [0.1, 0.2])):
        with pytest.raises(ValueError, match=r"theta must be a scalar"):
            grover_pea_pmf(3, insts, theta=theta)
    with pytest.raises(ValueError, match=r"phi and theta must broadcast together"):
        pea_circuit_pmf(3, [0.1, 0.2], [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# non-finite and non-integer inputs


@pytest.mark.parametrize(
    "build",
    [
        lambda: pea_circuit_pmf(3, float("nan")),
        lambda: pea_circuit_pmf(3, 0.2, float("inf")),
        lambda: pea_circuit_pmf(3, np.array([0.1, np.nan])),
        lambda: grover_pea_pmf(2, CountingInstance(n=2, M=1), float("nan")),
        lambda: analytic_counting_pmf(2, 0.3, float("nan")),
        lambda: pea_circuit_pmf(2, "0.3"),
        lambda: pea_circuit_pmf(2, 0.2, True),
        lambda: pea_circuit_pmf(2, np.array(["0.1", "0.2"])),
        lambda: grover_pea_pmf(2, CountingInstance(n=2, M=1), "0.1"),
        lambda: analytic_counting_pmf(2, 0.25, "0.1"),
    ],
)
def test_pmf_builders_reject_a_non_finite_phase(build) -> None:
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_state_and_pmf_checks_fail_a_nan() -> None:
    with pytest.raises(ValueError, match="norm"):
        _register_pmf(np.array([np.nan, 0.0]), 1, 1)
    with pytest.raises(ValueError, match="sum to 1"):
        MeasurementPmf(np.array([np.nan, 1.0]))


@pytest.mark.parametrize("t", [2.5, 3.0, True])
def test_pmf_builders_reject_a_non_integer_t(t) -> None:
    with pytest.raises(ValueError, match="t must be an integer"):
        pea_circuit_pmf(t, 0.1)
    with pytest.raises(ValueError, match="t must be an integer"):
        grover_pea_pmf(t, CountingInstance(n=2, M=1))
