"""Tests for the gate-level simulator: single gates against their matrices,
the inverse QFT against the inverse DFT matrix, the register marginal, and
the estimation circuits against the analytic laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upea.counting import CountingInstance
from upea.phase_math import MeasurementPmf, pea_kernel
from upea.statevector import (
    _cphase,
    _grover_operator,
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
    g = _grover_operator(CountingInstance(n=n, M=len(marked)))
    assert np.allclose(g @ g.T, np.eye(1 << n), atol=1e-12)
    flip = np.where(np.isin(np.arange(1 << n), marked), -1.0, 1.0)
    assert np.array_equal(g, (2.0 / (1 << n) - np.eye(1 << n)) * flip)


def test_grover_operator_eigenphase_matches_count_fraction() -> None:
    inst = CountingInstance(n=3, M=3)
    g = _grover_operator(inst)
    eig = np.angle(np.linalg.eigvals(g)) / (2 * np.pi)
    phi = inst.phi
    # rotation eigenphases come in a +-phi pair
    assert min(abs(e - phi) for e in eig) < 1e-12
    assert min(abs(e + phi) for e in eig) < 1e-12


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
    t, m, theta = 4, 0.3, 0.05
    from upea.counting import phi_from_m

    T = 1 << t
    phi = phi_from_m(m)
    s = np.arange(T) / T
    expect = 0.5 * pea_kernel(T, s - phi - theta) + 0.5 * pea_kernel(T, s + phi - theta)
    assert np.allclose(analytic_counting_pmf(t, m, theta), expect, atol=1e-15)


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
    # one shift per instance
    thetas = np.linspace(0.0, 1.0, len(insts), endpoint=False)
    got = grover_pea_pmf(t, insts, thetas).probs
    for row, inst, th in zip(got, insts, thetas):
        assert row.tobytes() == grover_pea_pmf(t, inst, float(th)).probs.tobytes()


def test_batched_analytic_counting_pmf_equals_scalar_calls_bit_for_bit() -> None:
    m = np.arange(9) / 8
    got = analytic_counting_pmf(4, m, 0.21)
    assert got.shape == (9, 16)
    for row, x in zip(got, m):
        assert row.tobytes() == analytic_counting_pmf(4, float(x), 0.21).tobytes()


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
    # the first and last raised NumPy's broadcast errors from inside a gate
    with pytest.raises(ValueError, match=r"theta must be a scalar or one shift per instance"):
        grover_pea_pmf(3, [CountingInstance(2, 1)], theta=[0.1, 0.2])
    # one instance takes a scalar shift, as its probs take shape (2^t,)
    with pytest.raises(ValueError, match=r"theta must be a scalar"):
        grover_pea_pmf(3, CountingInstance(2, 1), theta=[0.1])
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
