"""Unit tests for the exact phase-domain math: wrapping, circular distance,
the outcome kernel, and the closed-form error laws."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from upea.mle import LOG_ZERO, log_kernel
from upea.phase_math import (
    BiasMaeEntry,
    _circ_dist_array,
    _wrap_array,
    PeaParams,
    ThetaMode,
    circ_dist,
    exact_bias_mae_pea,
    exact_mae_upea,
    exact_msd_upea,
    pea_kernel,
    pea_pmf,
    wrap_phase,
)

P16 = PeaParams.from_T(16)

finite_reals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
unit_phases = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


# ---------------------------------------------------------------------------
# wrap_phase / circ_dist


@given(finite_reals)
def test_wrap_phase_lands_in_unit_interval(x: float) -> None:
    r = wrap_phase(x)
    assert 0.0 <= r < 1.0


@given(finite_reals, st.integers(min_value=-5, max_value=5))
@example(x=-2.220446049250313e-16, k=-2)  # x + k rounds to -2.0: wraps to 0, not ~1
def test_wrap_phase_is_periodic(x: float, k: int) -> None:
    # equal as circle points; compare circularly
    assert abs(circ_dist(wrap_phase(x + k), wrap_phase(x))) < 1e-9


def test_wrap_phase_handles_tiny_negative() -> None:
    # x - floor(x) rounds to exactly 1.0 here; the result must still be < 1
    assert wrap_phase(-1e-20) == 0.0


def test_wrap_phase_rejects_non_finite() -> None:
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            wrap_phase(bad)


@given(unit_phases, unit_phases)
def test_circ_dist_range_and_antisymmetry(a: float, b: float) -> None:
    d = circ_dist(a, b)
    assert -0.5 < d <= 0.5
    back = circ_dist(b, a)
    if abs(d) < 0.5:  # away from the antipodal tie, distance is odd
        assert back == pytest.approx(-d, abs=1e-12)


@given(unit_phases, unit_phases, finite_reals)
def test_circ_dist_shift_invariance(a: float, b: float, c: float) -> None:
    d0 = circ_dist(a, b)
    d1 = circ_dist(wrap_phase(a + c), wrap_phase(b + c))
    # equal as circle points; compare circularly
    assert abs(circ_dist(d0 % 1.0, d1 % 1.0)) < 1e-9


def test_circ_dist_wraparound_cases() -> None:
    assert circ_dist(0.95, 0.05) == pytest.approx(-0.1)
    assert circ_dist(0.05, 0.95) == pytest.approx(0.1)
    assert circ_dist(0.75, 0.25) == 0.5  # antipodal tie resolves positive
    assert circ_dist(0.25, 0.75) == 0.5


# ---------------------------------------------------------------------------
# kernel and pmf


def test_kernel_exact_at_lattice_and_zeros() -> None:
    T = 16
    assert pea_kernel(T, 0.0) == 1.0
    assert pea_kernel(T, 3.0) == 1.0
    assert pea_kernel(T, -2.0) == 1.0
    for k in range(1, T):
        assert pea_kernel(T, k / T) == 0.0
        assert pea_kernel(T, k / T + 5.0) == 0.0


def test_kernel_exact_within_subnormal_of_lattice() -> None:
    # pi*delta rounds in the subnormal range here; the naive sin ratio
    # overshoots 1 by ~1e-11 and breaks the pmf bounds
    for delta in (2.2250738585e-313, -2.2250738585e-313, 5e-324, 1e-310):
        for t in (0, 1, 4, 12):
            assert pea_kernel(1 << t, delta) == 1.0
            assert pea_kernel(1 << t, delta + 2.0) == 1.0
    probs = pea_pmf(PeaParams(t=1), 2.2250738585e-313).probs
    assert probs.max() <= 1.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "T, delta, message",
    [
        (0, 0.1, "T must be >= 1"),
        (-4, 0.1, "T must be >= 1"),
        (3, 0.1, "T must be a positive power of two"),
        (16.0, 0.1, "T must be an integer"),
        (True, 0.1, "T must be an integer"),
        (16, "0.1", "delta must be numeric"),
        (16, b"0.1", "delta must be numeric"),
        (16, True, "delta must be numeric"),
        (16, np.array([0.1, None], dtype=object), "delta must be numeric"),
        (16, [True, 0.3], "delta must be numeric"),
    ],
)
def test_kernels_reject_a_bad_T_or_delta(T, delta, message: str) -> None:
    # these once returned NaN, 0.592, 0.762, a value for 16.0, 0.037 for the
    # str and the bool; log_kernel(0, 0.1) returned -1e18
    for kernel in (pea_kernel, log_kernel):
        with pytest.raises(ValueError, match=message):
            kernel(T, delta)


def test_kernels_take_any_power_of_two_and_integer_types() -> None:
    assert pea_kernel(1, 0.3) == 1.0 and log_kernel(1, 0.3) == 0.0
    delta = np.array([0.1, 0.2])
    assert np.array_equal(pea_kernel(np.int64(16), delta), pea_kernel(16, delta))
    assert pea_kernel(16, 2) == 1.0 and pea_kernel(16, np.float32(0.25)) == 0.0


@pytest.mark.parametrize("t", [0, 1, 2, 4, 6])
@pytest.mark.parametrize("phi", [0.0, 0.1234, 0.5, 0.999, 1 / 3])
def test_pmf_normalization(t: int, phi: float) -> None:
    params = PeaParams(t=t)
    table = pea_pmf(params, phi)
    assert abs(float(table.probs.sum()) - 1.0) < 1e-12
    assert np.all(table.probs >= 0.0)


def test_pmf_pinned_value() -> None:
    # midpoint between two lattice outcomes; frozen high-precision evaluation
    # of (sin(16*pi*d)/(16*sin(pi*d)))^2 at d = 0.5/16
    assert pea_pmf(P16, 4.5 / 16).probs[4] == pytest.approx(
        0.40658933171803694, abs=1e-15
    )


@given(unit_phases, st.integers(min_value=1, max_value=6))
@settings(max_examples=50)
def test_pmf_reflection_symmetry(phi: float, t: int) -> None:
    """P(s | phi) = P((T - s) mod T | -phi): outcome tables mirror."""
    params = PeaParams(t=t)
    T = params.T
    fwd = pea_pmf(params, phi).probs
    rev = pea_pmf(params, wrap_phase(-phi)).probs
    for s in range(T):
        assert fwd[s] == pytest.approx(rev[(T - s) % T], abs=1e-12)


def test_upea_pdf_integrates_to_one() -> None:
    # midpoint rule on a fine grid; the density of phi_tilde is T * kernel
    n = 1 << 14
    x = (np.arange(n) + 0.5) / n
    vals = P16.T * pea_kernel(P16.T, x - 0.37)
    assert abs(vals.mean() - 1.0) < 1e-6


def test_upea_pdf_depends_only_on_difference() -> None:
    # the laws see the phase only through s/T - phi: a shift of phi by k/T
    # rolls the outcome row by k
    for k in (1, 5, 15):
        rolled = np.roll(pea_pmf(P16, 0.1).probs, k)
        assert np.allclose(pea_pmf(P16, 0.1 + k / 16).probs, rolled, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("far", [1e300, -1e300, 1e17])
def test_pointwise_laws_wrap_a_far_phase(far: float) -> None:
    # each far phase is a whole number of turns, so it is phase 0
    assert np.array_equal(pea_pmf(P16, far).probs, pea_pmf(P16, 0.0).probs)
    assert pea_kernel(16, far) == pea_kernel(16, 0.0) == 1.0


# ---------------------------------------------------------------------------
# exact error laws


def test_exact_bias_zero_on_half_lattice() -> None:
    # phi = k/(2T) are the symmetry points of the raw estimator
    T = 16
    for k in range(2 * T):
        e = exact_bias_mae_pea(P16, k / (2 * T))
        assert abs(e.bias) < 1e-15


def test_exact_bias_is_odd_around_lattice() -> None:
    for eps in (0.001, 0.01, 0.02):
        up = exact_bias_mae_pea(P16, 0.25 + eps).bias
        dn = exact_bias_mae_pea(P16, 0.25 - eps).bias
        assert up == pytest.approx(-dn, abs=1e-14)


def test_exact_bias_alternates_between_zeros() -> None:
    # between consecutive half-lattice points the bias keeps one sign and
    # flips at each crossing
    T = 16
    signs = []
    for k in range(8):
        mid = (k + 0.5) / (2 * T)
        signs.append(math.copysign(1.0, exact_bias_mae_pea(P16, mid).bias))
    assert signs == [1.0, -1.0] * 4 or signs == [-1.0, 1.0] * 4


def test_exact_bias_mae_pinned_values() -> None:
    e = exact_bias_mae_pea(P16, 1 / 64)
    assert e.bias == pytest.approx(-0.009460069944962316, abs=1e-14)
    assert e.mae == pytest.approx(0.033462897346486296, abs=1e-14)


def test_exact_mae_upea_t1_closed_form() -> None:
    # single outcome: estimate is a uniform shift, E|d| over the circle = 1/4
    assert exact_mae_upea(PeaParams(t=0)) == 0.25
    # one qubit: the sum has the single term m = 1, (1 - 1/2) / 1
    assert exact_mae_upea(PeaParams(t=1)) == pytest.approx(0.25 - 1 / math.pi**2, rel=1e-15)


def test_exact_mae_upea_matches_high_precision_oracle() -> None:
    # frozen 30-digit adaptive quadrature of the phase-averaged exact MAE
    # (kink-aligned panels), an independent check of the closed form
    assert exact_mae_upea(P16) == pytest.approx(0.031930774464448815, abs=1e-9)


def test_exact_mae_upea_shrinks_with_t() -> None:
    maes = [exact_mae_upea(PeaParams(t=t)) for t in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(maes, maes[1:]))


def test_exact_mae_upea_large_t_stays_small_in_memory() -> None:
    # a quadrature node x outcome table at T = 1024 would take 512 MiB
    tracemalloc.start()
    try:
        mae = exact_mae_upea(PeaParams.from_T(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 0.0 < mae < exact_mae_upea(PeaParams.from_T(512))


def _quadrature_of_the_density(params: PeaParams, g) -> float:
    """The integral of g(d) T K(d), the density of the randomized estimate's
    error d, over (-1/2, 1/2], by 24-point
    Gauss-Legendre on each cell between the density's zeros k/T, where the
    integrand is smooth (T >= 2)."""
    T = params.T
    nodes, weights = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for k in range(-T // 2, T // 2):
        lo, hi = k / T, (k + 1) / T
        d = (hi - lo) / 2 * nodes + (hi + lo) / 2
        pdf = T * pea_kernel(T, d)
        total += (hi - lo) / 2 * float(np.dot(weights, g(d) * pdf))
    return total


@pytest.mark.parametrize("T", [2, 16, 256])
def test_exact_msd_upea_matches_quadrature_of_the_density(T: int) -> None:
    params = PeaParams.from_T(T)
    assert _quadrature_of_the_density(params, np.ones_like) == pytest.approx(1.0, rel=1e-13)
    msd = _quadrature_of_the_density(params, np.square)
    assert exact_msd_upea(params) == pytest.approx(msd, rel=1e-12)
    mae = _quadrature_of_the_density(params, np.abs)
    assert exact_mae_upea(params) == pytest.approx(mae, rel=1e-12)
    # |d| has a positive variance
    assert exact_msd_upea(params) > exact_mae_upea(params) ** 2


def test_exact_msd_upea_closed_forms_at_t_1_and_2() -> None:
    # a uniform error on the circle, then the single term m = 1
    assert exact_msd_upea(PeaParams(t=0)) == 1 / 12
    assert exact_msd_upea(PeaParams(t=1)) == pytest.approx(1 / 12 - 1 / (2 * math.pi**2), rel=1e-15)


# ---------------------------------------------------------------------------
# dataclass validation


def test_pea_params_validation() -> None:
    assert PeaParams(t=4).T == 16
    assert PeaParams.from_T(32).t == 5
    with pytest.raises(ValueError):
        PeaParams(t=-1)
    with pytest.raises(ValueError):
        PeaParams(t=4, R=0)
    with pytest.raises(ValueError):
        PeaParams.from_T(12)


@pytest.mark.parametrize("kw", [dict(t=2.5), dict(t=4.0), dict(t=True), dict(t=4, R=2.5)])
def test_pea_params_reject_a_non_integer_size(kw: dict) -> None:
    # t = 2.5 was accepted, and its .T then raised a bare TypeError
    name = "R" if "R" in kw else "t"
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        PeaParams(**kw)


@pytest.mark.parametrize("T", [16.0, 16.5, True])
def test_from_t_rejects_a_non_integer_size(T) -> None:
    with pytest.raises(ValueError, match="T must be an integer"):
        PeaParams.from_T(T)


def test_theta_mode_parse_and_str() -> None:
    assert ThetaMode.parse("full").kind == "full"
    assert ThetaMode.parse("period").kind == "period"
    fx = ThetaMode.parse("fixed:0.25")
    assert fx.kind == "fixed" and fx.value == 0.25
    assert ThetaMode.parse(str(fx)) == fx
    with pytest.raises(ValueError):
        ThetaMode.parse("bogus")
    with pytest.raises(ValueError):
        ThetaMode.parse("fixed:")


def test_bias_mae_entry_validation() -> None:
    BiasMaeEntry(0.1, 0.01, 0.02)
    with pytest.raises(ValueError):
        BiasMaeEntry(0.1, 0.05, 0.02)  # |bias| > mae
    with pytest.raises(ValueError):
        BiasMaeEntry(0.1, 0.0, -1.0)


def test_bias_mae_entry_rejects_non_finite_values() -> None:
    with pytest.raises(ValueError, match="finite"):
        BiasMaeEntry(0.0, math.nan, math.inf)  # a T = 1 corrected-count row
    with pytest.raises(ValueError, match="finite"):
        BiasMaeEntry(0.0, math.nan, 0.1)
    with pytest.raises(ValueError, match="finite"):
        BiasMaeEntry(0.0, 0.0, math.inf)


@pytest.mark.parametrize(
    "bad", ["0.3", b"0.3", True, np.True_, np.array(["0.3"]), np.array([0.3], dtype=object)]
)
def test_phase_inputs_reject_strings_and_bools(bad) -> None:
    # wrap_phase("0.3") returned 0.3 and circ_dist(True, 0.2) returned -0.2
    with pytest.raises(ValueError, match="phase must be finite and numeric"):
        wrap_phase(bad)
    with pytest.raises(ValueError, match="phase must be finite and numeric"):
        circ_dist(bad, 0.2)
    with pytest.raises(ValueError, match="phase must be finite and numeric"):
        circ_dist(0.2, bad)


def test_phase_inputs_take_numpy_scalars_and_0d_arrays() -> None:
    assert wrap_phase(np.array(1.25)) == wrap_phase(np.float64(1.25)) == 0.25
    assert circ_dist(np.float32(0.75), np.array(0.25)) == 0.5
    # each argument is finite, but their difference overflows
    with pytest.raises(ValueError, match="phase must be finite"):
        circ_dist(1e308, -1e308)


@pytest.mark.parametrize("bad", [[0.3], (0.3,), np.array([0.3]), np.zeros((1, 1))])
def test_scalar_phase_inputs_reject_a_one_item_sequence(bad) -> None:
    # wrap_phase([0.3]) raised NumPy's TypeError
    with pytest.raises(ValueError, match="phase must be a scalar"):
        wrap_phase(bad)
    with pytest.raises(ValueError, match="phase must be a scalar"):
        circ_dist(bad, 0.2)
    with pytest.raises(ValueError, match="phi must be a scalar"):
        pea_pmf(P16, bad)


def test_theta_mode_and_params_reject_a_bad_mode() -> None:
    # ThetaMode("fixed", "0.5") raised a bare TypeError; PeaParams took a
    # str mode, and sampling then failed on its missing .kind
    with pytest.raises(ValueError, match="theta value must be finite and numeric"):
        ThetaMode("fixed", "0.5")
    with pytest.raises(ValueError, match="theta value must be finite and numeric"):
        ThetaMode.fixed("0.5")
    assert ThetaMode("fixed", 0).value == 0.0 and type(ThetaMode("fixed", 0).value) is float
    with pytest.raises(ValueError, match="theta_mode must be a ThetaMode"):
        PeaParams(2, 1, "full")
    with pytest.raises(ValueError, match="theta_mode must be a ThetaMode"):
        PeaParams.from_T(4, 1, "period")


def test_pmf_rejects_a_non_finite_phase() -> None:
    with pytest.raises(ValueError, match="finite"):
        pea_pmf(P16, math.nan)


# ---------------------------------------------------------------------------
# in-place kernel evaluation against the out-of-place formula


def _kernel_parts_reference(T: int, delta):
    delta = np.asarray(delta, dtype=float)
    e = delta - np.round(delta)
    u = T * e
    f = u - np.round(u)
    lattice = np.abs(e) < np.finfo(float).tiny
    return np.sin(np.pi * f), T * np.sin(np.pi * e), lattice


def _pea_kernel_reference(T: int, delta) -> np.ndarray:
    num, den, lattice = _kernel_parts_reference(T, delta)
    r = np.divide(num, den, out=np.ones_like(num), where=~lattice)
    return r * r


def _log_kernel_reference(T: int, delta) -> np.ndarray:
    num, den, lattice = _kernel_parts_reference(T, delta)
    zero = (num == 0.0) & ~lattice
    num = np.where(zero | lattice, 1.0, np.abs(num))
    den = np.where(zero | lattice, 1.0, np.abs(den))
    out = 2.0 * (np.log(num) - np.log(den))
    out = np.where(zero, LOG_ZERO, out)
    return np.where(lattice, 0.0, out)


def _edge_deltas(T: int) -> np.ndarray:
    """Lattice points, exact zeros k/T and their one-ulp neighbours,
    subnormal and negative deltas, and multi-turn offsets."""
    tiny = np.finfo(float).tiny
    zeros = np.arange(-T, 2 * T + 1) / T
    base = np.concatenate(
        [
            [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 0.5, -0.5, 0.1, -0.3, 0.73],
            [5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny, 2 * tiny, 1e-300],
            zeros,
            np.nextafter(zeros, np.inf),
            np.nextafter(zeros, -np.inf),
        ]
    )
    return np.concatenate([base, base + 5.0, base - 3.0, -base])


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


KERNELS = [(pea_kernel, _pea_kernel_reference), (log_kernel, _log_kernel_reference)]


@pytest.mark.parametrize("T", [1, 2, 16, 1024])
@pytest.mark.parametrize("kernel, reference", KERNELS)
def test_in_place_kernel_matches_the_out_of_place_formula(T: int, kernel, reference) -> None:
    delta = _edge_deltas(T)
    before = delta.copy()
    assert _same_bits(kernel(T, delta), reference(T, delta))
    assert delta.tobytes() == before.tobytes()
    # a strided view of the same values
    view = np.stack([delta, delta])[:, ::2]
    assert _same_bits(kernel(T, view), reference(T, view))


@pytest.mark.parametrize("T", [1, 16])
@pytest.mark.parametrize("kernel, reference", KERNELS)
def test_in_place_kernel_takes_python_floats_and_0d_arrays(T: int, kernel, reference) -> None:
    for x in _edge_deltas(T)[::3]:
        want = reference(T, x)
        got = kernel(T, float(x))
        assert isinstance(got, float) and _same_bits(got, want)
        arr = np.array(x)
        got = kernel(T, arr)
        assert isinstance(got, float) and _same_bits(got, want)
        assert arr.tobytes() == np.array(x).tobytes()


@pytest.mark.parametrize("kernel, reference", KERNELS)
def test_in_place_kernel_on_likelihood_broadcasts(kernel, reference) -> None:
    rng = np.random.default_rng(4)
    n, m, R, T = 5, 7, 3, 16
    est = rng.random((n, 1, R))
    est[0, 0] = [0.0, 1 / 16, 0.5]
    c = np.concatenate([rng.random((n, m - 2)), np.zeros((n, 1)), np.full((n, 1), 1 / 16)], axis=1)
    for delta in (est - c[:, :1, None], est - c[:, :, None], est + c[:, :, None]):
        assert delta.shape in ((n, 1, R), (n, m, R))
        before = delta.copy()
        assert _same_bits(kernel(T, delta), reference(T, delta))
        assert delta.tobytes() == before.tobytes()


# the edge values, their wrap into [0, 1) and their distance from 0, in hex
_WRAP_EDGES = [
    (0.0, "0x0.0p+0", "0x0.0p+0"),
    (-0.0, "0x0.0p+0", "0x0.0p+0"),
    (1e-300, (1e-300).hex(), (1e-300).hex()),
    (-1e-300, "0x0.0p+0", "0x0.0p+0"),  # 1 - 1e-300 rounds to 1, which wraps to 0
    (1 - 2**-53, (1 - 2**-53).hex(), (-(2**-53)).hex()),
    (-(1 - 2**-53), (2**-53).hex(), (2**-53).hex()),
    (0.5, "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    (-0.5, "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    (1e300, "0x0.0p+0", "0x0.0p+0"),
    (-1e300, "0x0.0p+0", "0x0.0p+0"),
    (7.25, "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    (-3.75, "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    (2.0**53 + 1, "0x0.0p+0", "0x0.0p+0"),
]


def test_scalar_and_array_wraps_agree_bit_for_bit_with_a_positive_zero() -> None:
    xs = np.array([x for x, _, _ in _WRAP_EDGES])
    wrapped, dists = _wrap_array(xs), _circ_dist_array(xs, 0.0)
    for (x, want_wrap, want_dist), w, d in zip(_WRAP_EDGES, wrapped, dists):
        assert wrap_phase(x).hex() == float(w).hex() == want_wrap, x
        assert circ_dist(x, 0.0).hex() == float(d).hex() == want_dist, x
        assert type(wrap_phase(x)) is float and type(circ_dist(x, 0.0)) is float
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            wrap_phase(bad)
        with pytest.raises(ValueError, match="phase must be finite"):
            circ_dist(bad, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.3", True])
def test_pointwise_laws_reject_a_non_finite_phase_by_name(bad: float) -> None:
    with pytest.raises(ValueError, match="phi must be finite"):
        pea_pmf(P16, bad)


# ---------------------------------------------------------------------------
# pea_pmf rows against the closed form sin^2(pi e) / (T^2 sin^2(pi (j - e)/T))

ROW_T = [1, 2, 16, 256, 1 << 14, 1 << 16]
# cells agree to 8 units of 2^-52, relative
ROW_RTOL = 8 * np.finfo(float).eps


def _dyadic_shifts(T: int) -> np.ndarray:
    """Shifts m/2^40, at which every k/T - x is exact: lattice points
    (e = 0), half-way points (e = +-1/2), shifts 2^-40 either side of a
    lattice point, and scattered shifts in [-1, 2)."""
    unit = 2.0**-40
    lattice = np.array([0, 1, T // 2, T - 1]) / T
    scattered = np.random.default_rng(T).integers(-(2**40), 2**41, 16) * unit
    return np.concatenate(
        [lattice, lattice + unit, lattice - unit, lattice + 0.5 / T, lattice - 0.5 / T, scattered]
    )


def _rows(T: int, x) -> np.ndarray:
    """The pea_pmf row of each shift in x."""
    params = PeaParams.from_T(T)
    return np.array([pea_pmf(params, v).probs for v in np.ravel(x)])


def _closed_form_rows(T: int, x) -> np.ndarray:
    """Rows of the outcome law in closed form: with y = T wrap(x), a =
    rint(y) and e = y - a (exact for a power-of-two T), cell k holds
    sin^2(pi e) / (T^2 sin^2(pi (j - e)/T)) for the j = k - a (mod T) with
    |j - e| <= T/2, so each sine's argument is at most pi/2.  Where
    (pi e)^2 is below the normal range the row is exactly 1 at k = a mod T."""
    y = T * (np.asarray(x, dtype=float)[:, None] % 1.0)
    a = np.rint(y)
    e = y - a
    j = (np.arange(T) - a) % T
    j = np.where(j - e > T / 2, j - T, j)
    lattice = (np.pi * e) ** 2 < np.finfo(float).tiny
    e = np.where(lattice, 0.5, e)
    rows = np.sin(np.pi * e) ** 2 / (T * np.sin(np.pi * (j - e) / T)) ** 2
    return np.where(lattice, (j == 0).astype(float), rows)


def _assert_rows_match(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(got == 1.0, want == 1.0)
    assert np.all(np.abs(got - want) <= ROW_RTOL * want)


@pytest.mark.parametrize("T", ROW_T)
def test_kernel_rows_match_the_kernel_at_dyadic_shifts(T: int) -> None:
    x = _dyadic_shifts(T)
    got = _rows(T, x)
    _assert_rows_match(got, _closed_form_rows(T, x))
    assert np.all(np.abs(got.sum(axis=1) - 1.0) <= 1e-14)
    # lattice shifts give the lattice row exactly
    for row, k in zip(got[:4], np.array([0, 1, T // 2, T - 1]) % T):
        assert row[k] == 1.0 and np.count_nonzero(row) == 1


# shifts whose row is the lattice row at k = 0: subnormals, a negative shift
# whose wrap rounds to 1, and integers far outside [0, 1)
_LATTICE_EDGES = [5e-324, 2.2250738585e-313, -1e-20, 1e300, -1e300, 1.7e308]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", ROW_T)
def test_kernel_rows_at_edge_shifts(T: int) -> None:
    lattice = _rows(T, _LATTICE_EDGES)
    want = np.zeros(T)
    want[0] = 1.0
    for row in lattice:
        assert row.tobytes() == want.tobytes()
    # wraps to 0.25: the lattice row at k = T/4 for T >= 4, a regular row below
    quarter = _rows(T, [2.0**50 + 0.25])
    _assert_rows_match(quarter, _closed_form_rows(T, [0.25]))
    assert abs(quarter.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("T", [2, 16, 256])
def test_pmf_rows_match_a_40_digit_reference(T: int) -> None:
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    params = PeaParams.from_T(T)
    # every cell within 2^-52 (absolute) of the 40-digit value
    for phi in (0.3, 0.5 / T, 1 / T + 1e-12, 0.7 + 2.0**-40, 1 - 1e-9):
        got = pea_pmf(params, phi).probs
        for k in range(T):
            d = mpmath.mpf(k) / T - mpmath.mpf(phi)
            want = (mpmath.sin(T * mpmath.pi * d) / (T * mpmath.sin(mpmath.pi * d))) ** 2
            assert abs(got[k] - float(want)) <= np.finfo(float).eps, (phi, k)
