"""Unbiased quantum phase estimation and counting.

Phase estimation with a T-dimensional readout register concentrates outcomes
on a 1/T lattice, which biases the naive estimate s/T toward the nearest
lattice point.  Randomizing the register's reference phase by a uniform shift
theta and reporting s/T - theta removes that bias exactly, at a bounded cost
in mean absolute error.  This package implements the shifted estimator, its
maximum-likelihood multi-run refinement, and the bias-corrected counting
estimator built on it, together with exact error laws, a gate-level
statevector oracle for cross-checking the circuit model, and a reproducible
experiment harness with a CLI.
"""

from .counting import (
    CalibrationRecord,
    CountingInstance,
    calibrate_b,
    correct_mle,
    correct_single,
    exact_bias_uqca_single,
    m_from_phi,
    phi_from_m,
    sample_uqca_block,
)
from .harness import (
    EXPERIMENTS,
    PRESETS,
    SweepConfig,
    SweepReport,
    run_sweep,
    run_verify_circuit,
    write_csv,
    write_metadata,
)
from .mle import (
    MleResult,
    log_likelihood,
    mixture_log_likelihood,
    mle_estimate,
    mle_estimate_counting,
)
from .phase_math import (
    BiasMaeEntry,
    PeaParams,
    ThetaMode,
    circ_dist,
    exact_bias_mae_pea,
    exact_mae_upea,
    exact_msd_upea,
    pea_kernel,
    pea_pmf,
    pea_pmf_at,
    upea_pdf,
    wrap_phase,
)
from .sampler import (
    RNG_ALGORITHM,
    derive_seed,
    empirical_bias_mae,
    make_rng,
    sample_upea_block,
)
from .statevector import (
    MeasurementPmf,
    StateVector,
    analytic_counting_pmf,
    basis_state,
    grover_operator,
    grover_pea_pmf,
    measurement_pmf,
    pea_circuit_pmf,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "BiasMaeEntry",
    "CalibrationRecord",
    "CountingInstance",
    "EXPERIMENTS",
    "MeasurementPmf",
    "MleResult",
    "PRESETS",
    "PeaParams",
    "RNG_ALGORITHM",
    "StateVector",
    "SweepConfig",
    "SweepReport",
    "ThetaMode",
    "analytic_counting_pmf",
    "basis_state",
    "calibrate_b",
    "circ_dist",
    "correct_mle",
    "correct_single",
    "derive_seed",
    "empirical_bias_mae",
    "exact_bias_mae_pea",
    "exact_bias_uqca_single",
    "exact_mae_upea",
    "exact_msd_upea",
    "grover_operator",
    "grover_pea_pmf",
    "log_likelihood",
    "m_from_phi",
    "make_rng",
    "measurement_pmf",
    "mixture_log_likelihood",
    "mle_estimate",
    "mle_estimate_counting",
    "pea_circuit_pmf",
    "pea_kernel",
    "pea_pmf",
    "pea_pmf_at",
    "phi_from_m",
    "run_sweep",
    "run_verify_circuit",
    "sample_upea_block",
    "sample_uqca_block",
    "upea_pdf",
    "wrap_phase",
    "write_csv",
    "write_metadata",
    "zero_state",
]
