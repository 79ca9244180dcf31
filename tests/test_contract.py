"""The input contract of every public entry point: fed a bad value for any
one argument, it raises a ValueError that names that argument.

CONTRACT has one row per callable in upea.__all__, per public
classmethod of a class there (as Class.name) and per name that
tests/test_acceptance.py imports: a call that succeeds, and for each
argument the bad values of its kind and the name its message uses (the
argument's own, unless the row says otherwise).  Arguments whose values are
objects the library builds and checks elsewhere (parameters, generators,
configs, result records) are listed in UNPROBED with the reason.
tests/test_package.py fails when a callable in upea.__all__, or such a
classmethod, has no row."""

from __future__ import annotations

import ast
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import upea
from upea.counting import _MAX_N
from upea.harness import csv_text
from upea.mle import log_kernel, mle_batch
from upea.phase_math import _MAX_T


def phase() -> list:
    """A phase, or any real number the library reads as one."""
    return ["0.3", b"0.3", True, [True, 0.3], math.nan, math.inf, -math.inf]


def fraction() -> list:
    """A count fraction m = M/N, a number in [0, 1], or an array of them."""
    return phase() + [-0.1, 1.5, [0.5, 1.5], [0.5, math.nan], [True, 0.5]]


def size(lo: int, hi: int | None = None) -> list:
    """An integer count or size in [lo, hi]: a whole float, a bool, and one
    value past each stated end."""
    return [float(lo), True, lo - 1] + ([] if hi is None else [hi + 1])


def seed() -> list:
    return size(0, 2**64 - 1)


def power_of_two(hi: int | None = None) -> list:
    """An outcome count T: a power of two in [1, hi]."""
    return size(1, hi) + [3]


T_MAX = 1 << _MAX_T
P3 = upea.PeaParams(2, 3)


_RECORD_ARGS = dict(T=16, R=3, b=0.01, stderr_b=0.001, n_samples=4096, seed=1)
_RECORD_JSON = upea.CalibrationRecord(**_RECORD_ARGS).to_json()


def record_text() -> list:
    """Text that is not a calibration record: not JSON, not an object, or
    an object with a key missing or one too many."""
    raw = json.loads(_RECORD_JSON)
    missing = {k: v for k, v in raw.items() if k != "seed"}
    return ["null", "[]", "{}", "x", 5, json.dumps(missing), json.dumps({**raw, "extra": 1})]


def _config() -> upea.SweepConfig:
    return upea.SweepConfig("upea-bias-mae", T=4, grid_points=2, n_samples=8)


def _report() -> upea.SweepReport:
    return upea.run_sweep(_config())


# name -> (callable, good keyword arguments, {argument: bad values, or
# (bad values, name in the message)})
CONTRACT: dict = {
    # a kind other than fixed takes no value, so with value 0.3 it is bad
    "ThetaMode": (upea.ThetaMode, dict(kind="fixed", value=0.3), {
        "kind": (["nope", 1, "full", "period"], "kind"),
        "value": (phase() + [-0.1, 1.0], "theta value"),
    }),
    "ThetaMode.full": (upea.ThetaMode.full, {}, {}),
    "ThetaMode.period": (upea.ThetaMode.period, {}, {}),
    "ThetaMode.fixed": (upea.ThetaMode.fixed, dict(value=0.3), {
        "value": (phase() + [-0.1, 1.0], "theta value"),
    }),
    "ThetaMode.parse": (upea.ThetaMode.parse, dict(text="fixed:0.25"), {
        "text": ([5, None, "fixed:", "fixed:abc", "fixed:1.0", "full:", "bogus"], "theta mode"),
    }),
    "PeaParams": (upea.PeaParams, dict(t=2, R=3), {
        "t": size(0, _MAX_T),
        "R": size(1),
        "theta_mode": ["full", None],
    }),
    "PeaParams.from_T": (upea.PeaParams.from_T, dict(T=4, R=3), {
        "T": power_of_two(T_MAX),
        "R": size(1),
        "theta_mode": ["full"],
    }),
    "MeasurementPmf": (upea.MeasurementPmf, dict(probs=[0.25, 0.75]), {
        "probs": [[0.7, 0.7], [math.nan, 1.0], [1.5, -0.5], [[0.5, 0.5], [0.2, 0.2]]],
    }),
    "BiasMaeEntry": (upea.BiasMaeEntry, dict(ground_truth=0.1, bias=0.01, mae=0.02,
                                             stderr_bias=0.001, stderr_mae=0.001,
                                             n_samples=8), {
        "ground_truth": phase(),
        "bias": phase(),
        "mae": phase() + [-0.1],
        "stderr_bias": phase(),
        "stderr_mae": phase(),
        "n_samples": size(1),
    }),
    "MleResult": (upea.MleResult, dict(phi_hat=0.1, log_likelihood=-1.0, grid_points=4,
                                       refine_iterations=1), {
        "phi_hat": phase() + [-0.1, 1.0],
        "log_likelihood": phase(),
        "grid_points": size(0),
        "refine_iterations": size(0),
    }),
    "SweepReport": (upea.SweepReport, dict(config=_config(), entries=(), metadata={}), {}),
    "CountingInstance": (upea.CountingInstance, dict(n=2, M=1), {
        "n": size(1, _MAX_N),
        "M": size(0, 4),
    }),
    "CalibrationRecord": (upea.CalibrationRecord, _RECORD_ARGS, {
        "T": power_of_two(T_MAX),
        "R": size(1),
        "b": phase(),
        "stderr_b": phase() + [0.0, -0.1],
        "n_samples": size(2),
        "seed": seed(),
        "rng_algorithm": ["mt19937", "", 1],
    }),
    "CalibrationRecord.from_json": (upea.CalibrationRecord.from_json, dict(text=_RECORD_JSON), {
        "text": (record_text(), "calibration record"),
    }),
    "SweepConfig": (upea.SweepConfig, dict(experiment="upea-bias-mae", T=4, grid_points=2,
                                           n_samples=8), {
        "experiment": (["nope", "verify-circuit", "calibrate"], "experiment"),
        "T": power_of_two(T_MAX),
        "R": size(1),
        "grid_points": size(2),
        "n_samples": size(1),
        "theta_mode": ["full", None],
        "base_seed": seed(),
    }),
    "wrap_phase": (upea.wrap_phase, dict(x=0.3), {"x": (phase(), "phase")}),
    "circ_dist": (upea.circ_dist, dict(a=0.3, b=0.1), {
        "a": (phase(), "phase"),
        "b": (phase(), "phase"),
    }),
    # a NaN or infinite delta passes through to a NaN value; see
    # test_kernels_let_a_non_finite_delta_through_to_nan
    "pea_kernel": (upea.pea_kernel, dict(T=16, delta=0.1), {
        "T": power_of_two(),
        "delta": phase()[:4],
    }),
    "log_kernel": (log_kernel, dict(T=16, delta=0.1), {
        "T": power_of_two(),
        "delta": phase()[:4],
    }),
    "pea_pmf": (upea.pea_pmf, dict(params=P3, phi=0.3), {"phi": phase()}),
    "exact_bias_mae_pea": (upea.exact_bias_mae_pea, dict(params=P3, phi=0.3), {"phi": phase()}),
    "exact_mae_upea": (upea.exact_mae_upea, dict(params=P3), {}),
    "exact_msd_upea": (upea.exact_msd_upea, dict(params=P3), {}),
    "make_rng": (upea.make_rng, dict(seed=1), {"seed": seed()}),
    "derive_seed": (upea.derive_seed, dict(base_seed=1), {"base_seed": seed()}),
    "sample_upea_block": (upea.sample_upea_block, dict(params=P3, phi=0.3, rng=upea.make_rng(1),
                                                       n=4), {
        "phi": phase(),
        "n": size(0),
    }),
    "mle_estimate": (upea.mle_estimate, dict(params=P3, estimates=[0.1, 0.2, 0.15]), {
        "estimates": phase(),
    }),
    "mle_estimate_counting": (upea.mle_estimate_counting, dict(params=P3,
                                                               estimates=[0.1, 0.2, 0.15]), {
        "estimates": phase(),
    }),
    "mle_batch": (mle_batch, dict(params=P3, estimates=[[0.1, 0.2, 0.15]]), {
        "estimates": phase(),
    }),
    "phi_from_m": (upea.phi_from_m, dict(m=0.3), {"m": fraction()}),
    "exact_bias_uqca_single": (upea.exact_bias_uqca_single, dict(m=0.3, T=16), {
        "m": fraction(),
        "T": power_of_two(T_MAX),
    }),
    "correct_single": (upea.correct_single, dict(m_tilde=0.3, T=16), {
        "m_tilde": phase(),
        "T": power_of_two(T_MAX),
    }),
    "correct_mle": (upea.correct_mle, dict(m_tilde=0.3, b=0.01), {
        "m_tilde": phase(),
        "b": phase(),
    }),
    "sample_uqca_block": (upea.sample_uqca_block, dict(params=P3, m=0.3, rng=upea.make_rng(1),
                                                       n=4), {
        "m": fraction(),
        "n": size(0),
    }),
    "calibrate_b": (upea.calibrate_b, dict(T=4, R=2, n_samples=8, seed=1), {
        "T": power_of_two(T_MAX),
        "R": size(1),
        "n_samples": size(2),
        "seed": seed(),
        "workers": size(1),
    }),
    "run_sweep": (upea.run_sweep, dict(config=_config()), {"workers": size(1)}),
    "run_verify_circuit": (upea.run_verify_circuit, dict(n_phi=1, n_theta=1), {
        "n_phi": size(1),
        "n_theta": size(1),
        "seed": seed(),
    }),
    "csv_text": (csv_text, dict(entries=()), {}),
    "write_csv": (upea.write_csv, None, {}),
    "write_metadata": (upea.write_metadata, None, {}),
    # two phases, so a theta of three shifts does not broadcast against them
    "pea_circuit_pmf": (upea.pea_circuit_pmf, dict(t=2, phi=[0.3, 0.4], theta=0.1), {
        "t": size(1, 12),
        "phi": phase(),
        "theta": phase() + [[0.1, 0.2, 0.3]],
    }),
    "grover_pea_pmf": (upea.grover_pea_pmf, dict(t=2, instance=upea.CountingInstance(2, 1),
                                                 theta=0.1), {
        "t": size(1, 8),
        "theta": phase() + [[0.1, 0.2]],
    }),
    "analytic_counting_pmf": (upea.analytic_counting_pmf, dict(t=2, m=0.3, theta=0.1), {
        "t": size(0),
        "m": fraction(),
        "theta": phase(),
    }),
}

_RECORD = "a field of a result record that the library fills from checked values"
_BUILT = "an object of a type the library builds and checks where it is built"
UNPROBED: dict[tuple[str, str], str] = {
    **{("SweepReport", f): _RECORD for f in ("config", "entries", "metadata")},
    **{(name, "params"): _BUILT for name in (
        "pea_pmf", "exact_bias_mae_pea", "exact_mae_upea", "exact_msd_upea",
        "sample_upea_block", "mle_estimate", "mle_estimate_counting", "mle_batch",
        "sample_uqca_block")},
    **{(name, "rng"): _BUILT for name in ("sample_upea_block", "sample_uqca_block")},
    ("grover_pea_pmf", "instance"): _BUILT,
    ("run_sweep", "config"): _BUILT,
    ("run_sweep", "calibration"): _BUILT,
    ("write_csv", "report"): _BUILT,
    ("write_metadata", "report"): _BUILT,
    ("csv_text", "entries"): "BiasMaeEntry records, which the sweeps build",
    ("write_csv", "path"): "a file path, handed to open()",
    ("write_metadata", "path"): "a file path, handed to open()",
    ("SweepConfig", "output_path"): "a file path, which the CLI hands to open()",
    ("run_verify_circuit", "corrupt_theta"): "a switch for the negative control",
    ("derive_seed", "path"): "labels, each rendered with str()",
}


def _cases():
    for name, (_, _, args) in CONTRACT.items():
        for arg, bad in args.items():
            values, label = bad if isinstance(bad, tuple) else (bad, arg)
            for value in values:
                yield pytest.param(name, arg, value, label, id=f"{name}-{arg}-{value!r}")


@pytest.mark.parametrize("name, arg, value, label", list(_cases()))
def test_a_bad_argument_raises_a_value_error_naming_it(name: str, arg: str, value, label: str) -> None:
    fn, good, _ = CONTRACT[name]
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(label)}(?!\w)"):
        fn(**{**good, arg: value})


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_each_row_covers_every_argument_and_its_good_call_runs(name: str, tmp_path) -> None:
    fn, good, args = CONTRACT[name]
    params = inspect.signature(fn).parameters
    unprobed = {arg for (row, arg) in UNPROBED if row == name}
    assert set(args) | unprobed == set(params), name
    assert not set(args) & unprobed, name
    if good is None:  # the writers take a report and a path
        good = dict(report=_report(), path=str(tmp_path / "out.csv"))
    fn(**good)


@pytest.mark.parametrize("kernel", [upea.pea_kernel, log_kernel])
def test_kernels_let_a_non_finite_delta_through_to_nan(kernel) -> None:
    # a check would cost a pass over every array the likelihood scores
    assert math.isnan(kernel(16, math.nan))
    with pytest.warns(RuntimeWarning):
        assert np.isnan(kernel(16, np.array([0.1, math.inf, -math.inf]))[1:]).all()


def test_the_table_covers_the_names_the_acceptance_tests_import() -> None:
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("upea")
        for alias in node.names
    }
    assert imported and imported <= set(CONTRACT), sorted(imported - set(CONTRACT))
