"""Tests for the sweep harness and the command-line front end: config
validation and round trips, deterministic parallel execution, output file
formats, calibration plumbing, and exit codes."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

import upea.cli as cli
import upea.harness as harness
from upea.counting import CalibrationRecord, calibrate_b
from upea.harness import (
    CSV_HEADER,
    PRESETS,
    SweepConfig,
    csv_text,
    run_sweep,
    run_verify_circuit,
    write_csv,
    write_metadata,
)
from upea.phase_math import _MAX_T, PeaParams, ThetaMode, exact_mae_upea, exact_msd_upea
from upea.sampler import make_rng


def _small(experiment: str, **kw) -> SweepConfig:
    base = dict(T=16, R=1, grid_points=3, n_samples=600, base_seed=9)
    base.update(kw)
    return SweepConfig(experiment, **base)


@pytest.mark.parametrize("T", [16, 256])
def test_single_run_sweep_rows_lie_within_4_exact_standard_errors(T: int) -> None:
    # the error d of every R = 1 row has the phase-independent Fejer law,
    # so its bias and MAE have exact standard errors
    config = SweepConfig("upea-bias-mae", T=T, grid_points=16, n_samples=1 << 13, base_seed=5)
    params = PeaParams.from_T(T)
    msd, mae = exact_msd_upea(params), exact_mae_upea(params)
    for e in run_sweep(config).entries:
        n = e.n_samples
        assert abs(e.bias) <= 4 * math.sqrt(msd / n)
        assert abs(e.mae - mae) <= 4 * math.sqrt((msd - mae * mae) / n)


def _sinc2_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of the density sin^2(pi x) / (pi x)^2, the law of T d at large T
    (relative error about (pi x / T)^2)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, 0.5)
    nz = x != 0.0
    xs = x[nz]
    out[nz] += special.sici(2 * np.pi * xs)[0] / np.pi - np.sin(np.pi * xs) ** 2 / (np.pi**2 * xs)
    return out


def test_a_sweep_at_the_largest_register_draws_the_law() -> None:
    # T d carries 53 - t bits below the point.  At T = 2^64 this sweep once
    # reported MAEs of 0.12 (the law: about 2e-20) with a RuntimeWarning, from
    # T = 2^53 MAEs of 0, and a KS test of T d already rejects the law at
    # t = 44 over 2^22 draws
    T = 1 << _MAX_T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = run_sweep(SweepConfig("upea-bias-mae", T=T, grid_points=2, n_samples=4096)).entries
        x = T * harness._phase_errors(PeaParams(_MAX_T), 0.3, make_rng(11), 1 << 16)
    assert all(0.0 < e.mae < 1e-6 and abs(e.bias) <= 4 * e.stderr_bias for e in entries)
    assert stats.kstest(x, _sinc2_cdf).pvalue > 1e-3


def test_a_register_past_the_largest_raises_naming_the_limit() -> None:
    with pytest.raises(ValueError, match=re.escape(f"t must lie in [0, {_MAX_T}], got {_MAX_T + 1}")):
        PeaParams(_MAX_T + 1)
    past = 1 << (_MAX_T + 1)
    for build in (
        PeaParams.from_T,
        lambda T: _small("upea-bias-mae", T=T),
        lambda T: CalibrationRecord(T=T, R=2, b=0.01, stderr_b=0.001, n_samples=8, seed=1),
        lambda T: calibrate_b(T, 2, 8, 1),
    ):
        with pytest.raises(ValueError, match=re.escape(f"T must lie in [1, {1 << _MAX_T}], got {past}")):
            build(past)


# ---------------------------------------------------------------------------
# config


def test_config_json_round_trip() -> None:
    # the sidecar's config is written for the record, never read back: it
    # holds every field, theta_mode as its text and an R range as a list
    for cfg in [
        _small("upea-bias-mae"),
        _small("mae-vs-r", R=(2, 5)),
        _small("pea-bias-mae", theta_mode=ThetaMode.fixed(0.125)),
        _small("uqca-corrected", R=3),
    ]:
        raw = json.loads(cfg.to_json())
        assert raw == {
            **{f.name: getattr(cfg, f.name) for f in fields(SweepConfig)},
            "theta_mode": str(cfg.theta_mode),
            "R": list(cfg.R) if isinstance(cfg.R, tuple) else cfg.R,
        }


def test_config_rejects_bad_combinations() -> None:
    with pytest.raises(ValueError):
        _small("nonsense")
    with pytest.raises(ValueError, match="unknown experiment 'calibrate'"):
        _small("calibrate")  # a calibrate_b call, not a sweep
    with pytest.raises(ValueError):
        _small("upea-bias-mae", T=12)  # not a power of two
    with pytest.raises(ValueError):
        _small("upea-bias-mae", R=2)  # single-run experiment
    with pytest.raises(ValueError):
        _small("upea-bias-mae", R=(1, 4))  # range where scalar required
    with pytest.raises(ValueError):
        _small("mae-vs-r", R=(3, 2))  # inverted range
    with pytest.raises(ValueError):
        _small("pea-bias-mae")  # needs a fixed theta mode
    with pytest.raises(ValueError, match="unknown experiment 'verify-circuit'"):
        _small("verify-circuit")  # a check report, not a sweep


@pytest.mark.parametrize(
    "name,kw",
    [
        ("T", dict(T=16.0)),
        ("grid_points", dict(grid_points=2.5)),
        ("n_samples", dict(n_samples=100.5)),
        ("base_seed", dict(base_seed=2.5)),
        ("R", dict(experiment="mae-vs-r", R=(1, 2.0))),
        # a JSON config reader once loaded these, and base_seed=2.5, as
        # int() of the value: 16, 1 and (1, 3)
        ("T", dict(experiment="mae-vs-r", T=16.7)),
        ("n_samples", dict(experiment="mae-vs-r", n_samples=True)),
        ("R", dict(experiment="mae-vs-r", R=[1.9, 3.2])),
        ("R", dict(experiment="mae-vs-r", R=(1.9, 3.2))),
    ],
)
def test_config_rejects_a_non_integer_size(name: str, kw: dict) -> None:
    # these once ran as truncated values or raised a bare TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        _small(kw.pop("experiment", "upea-bias-mae"), **kw)


@pytest.mark.parametrize("R", [(1, 2, 3), (2,), (), [1, 2, 3], [2]])
def test_config_rejects_an_r_range_of_other_than_two_items(R) -> None:
    # these raised "too many values to unpack" or "not enough values"
    with pytest.raises(ValueError, match=r"R must be an integer or an inclusive \(lo, hi\) range"):
        _small("mae-vs-r", R=R)


def test_config_rejects_a_theta_mode_that_is_not_a_theta_mode() -> None:
    # theta_mode="full" was accepted and failed at run time on its .kind
    with pytest.raises(ValueError, match="theta_mode must be a ThetaMode"):
        _small("upea-bias-mae", theta_mode="full")


def test_config_rejects_a_fixed_theta_where_the_slope_needs_a_shift() -> None:
    # uqca-corrected wrote rows corrected by the shifted estimator's slope:
    # bias -0.033 at m = 0 under fixed:0.0
    for value in (0.0, 0.3):
        with pytest.raises(ValueError, match="needs a random shift"):
            _small("uqca-corrected", theta_mode=ThetaMode.fixed(value))
    # a shift over one period gives the shifted estimate the full mode's law
    assert _small("uqca-corrected", theta_mode=ThetaMode.period()).theta_mode.kind == "period"


@pytest.mark.parametrize("kind", ["full", "period", "fixed"])
def test_every_theta_mode_kind_round_trips_through_text_and_config_json(kind: str) -> None:
    # ThetaMode("period", 5.0) once built, printed as "period" and read back
    # as ThetaMode("period", 0.0), so its config did not round-trip
    mode = ThetaMode(kind, 0.25 if kind == "fixed" else 0.0)
    cfg = _small("upea-bias-mae", theta_mode=mode)
    assert ThetaMode.parse(str(mode)) == mode
    assert ThetaMode.parse(json.loads(cfg.to_json())["theta_mode"]) == mode
    if kind != "fixed":
        with pytest.raises(ValueError, match=f"theta value must be 0.0 for kind '{kind}', got 5.0"):
            ThetaMode(kind, 5.0)


def test_presets_cover_documented_figures() -> None:
    assert set(PRESETS) == {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
    assert all(c.T == 16 for c in PRESETS.values())


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_entries_one_per_grid_point() -> None:
    rep = run_sweep(_small("upea-bias-mae"))
    assert len(rep.entries) == 3
    truths = [e.ground_truth for e in rep.entries]
    assert truths == [0.0, pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert all(e.n_samples == 600 for e in rep.entries)
    assert rep.metadata["rng_algorithm"] == "numpy-pcg64"


def test_sweep_entries_one_per_r_for_range_experiments() -> None:
    rep = run_sweep(_small("mae-vs-r", R=(2, 4), n_samples=300))
    assert [e.ground_truth for e in rep.entries] == [2.0, 3.0, 4.0]


def test_parallel_execution_is_byte_identical() -> None:
    cfg = _small("mle-bias-mae", R=2, n_samples=900)
    a = csv_text(run_sweep(cfg, workers=1).entries)
    b = csv_text(run_sweep(cfg, workers=5).entries)
    assert a == b


def test_run_sweep_rejects_nonpositive_workers() -> None:
    with pytest.raises(ValueError, match="workers"):
        run_sweep(_small("upea-bias-mae"), workers=0)


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_run_sweep_rejects_a_non_integer_worker_count(workers) -> None:
    # 1.5 and True both ran
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_sweep(_small("upea-bias-mae"), workers=workers)


def test_repeat_run_is_byte_identical() -> None:
    cfg = _small("qca-bias-mae")
    assert csv_text(run_sweep(cfg).entries) == csv_text(run_sweep(cfg).entries)


def test_different_seed_changes_results() -> None:
    a = run_sweep(_small("upea-bias-mae", base_seed=1)).entries
    b = run_sweep(_small("upea-bias-mae", base_seed=2)).entries
    assert any(x.bias != y.bias for x, y in zip(a, b))


def test_csv_schema() -> None:
    rep = run_sweep(_small("upea-bias-mae"))
    text = csv_text(rep.entries)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "ground_truth,bias,stderr_bias,mae,stderr_mae,n_samples"
    assert len(lines) == 1 + 3 + 1  # header + rows + trailing newline
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 0.0 and int(first[5]) == 600


def test_write_csv_and_metadata(tmp_path) -> None:
    cfg = _small("uqca-corrected", R=2, n_samples=400)
    rep = run_sweep(cfg)
    out = tmp_path / "rows.csv"
    write_csv(rep, str(out))
    write_metadata(rep, str(out) + ".meta.json")
    assert out.read_text(encoding="utf-8") == csv_text(rep.entries)
    meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
    assert meta["config"]["experiment"] == "uqca-corrected"
    assert meta["rng_algorithm"] == "numpy-pcg64"
    assert meta["wall_time"] > 0
    [rec] = meta["calibration_records"]
    assert rec["T"] == 16 and rec["R"] == 2


def test_supplied_calibration_must_match() -> None:
    rec = calibrate_b(16, 2, 512, 3)
    cfg = _small("uqca-corrected", R=3, n_samples=200)
    with pytest.raises(ValueError, match="R=2"):
        run_sweep(cfg, calibration=rec)
    ok = _small("uqca-corrected", R=2, n_samples=200)
    rep = run_sweep(ok, calibration=rec)
    assert [r["b"] for r in rep.metadata["calibration_records"]] == [rec.b]


def test_single_run_correction_uses_exact_constant() -> None:
    rep = run_sweep(_small("uqca-corrected", R=1, n_samples=400))
    # exact analytic correction: no calibration record needed or emitted
    assert rep.metadata["calibration_records"] == []


def test_multi_r_corrected_sweep_lists_one_record_per_r() -> None:
    rep = run_sweep(_small("uqca-corrected", R=(2, 3), n_samples=200, grid_points=2))
    recs = rep.metadata["calibration_records"]
    assert [r["R"] for r in recs] == [2, 3]


def test_single_run_corrected_sweep_checks_a_supplied_record() -> None:
    cfg = _small("uqca-corrected", R=1, n_samples=200)
    with pytest.raises(ValueError, match="R=3"):
        run_sweep(cfg, calibration=calibrate_b(16, 3, 256, 1))
    rec = calibrate_b(16, 1, 256, 1)
    rep = run_sweep(cfg, calibration=rec)
    assert [r["b"] for r in rep.metadata["calibration_records"]] == [rec.b]
    # the record's b replaces the exact single-run constant
    assert csv_text(rep.entries) != csv_text(run_sweep(cfg).entries)


def test_cli_single_run_rejects_a_record_for_another_r(tmp_path, capsys) -> None:
    cal = tmp_path / "cal.json"
    cli.main(["calibrate", "--R", "3", "--samples", "256", "--seed", "3", "--out", str(cal)])
    capsys.readouterr()
    code = cli.main(
        ["uqca-corrected", "--R", "1", "--grid", "2", "--samples", "100",
         "--calibration", str(cal)]
    )
    assert code == 1
    assert "calibration record" in capsys.readouterr().err


def test_calibration_record_rejected_for_r_ranges() -> None:
    rec = calibrate_b(16, 2, 256, 1)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep(_small("uqca-corrected", R=(2, 3), n_samples=200), calibration=rec)


@pytest.mark.parametrize(
    "cfg",
    [
        _small("pea-bias-mae", theta_mode=ThetaMode.fixed(0.0), n_samples=200),
        _small("upea-bias-mae", n_samples=200),
        _small("mle-bias-mae", R=2, n_samples=200),
        _small("mae-vs-r", R=(1, 2), n_samples=200),
        _small("qca-bias-mae", R=2, n_samples=200),
    ],
    ids=lambda cfg: cfg.experiment,
)
def test_calibration_record_rejected_by_experiments_that_ignore_it(cfg: SweepConfig) -> None:
    rec = calibrate_b(16, 2, 256, 1)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep(cfg, calibration=rec)


# ---------------------------------------------------------------------------
# circuit verification


def test_verify_circuit_passes_with_small_caps() -> None:
    rep = run_verify_circuit(n_phi=4, n_theta=2)
    assert rep["passed"]
    assert {c["name"] for c in rep["checks"]} == {
        "pea-circuit-vs-analytic",
        "counting-circuit-vs-mixture",
    }
    assert all(c["max_deviation"] < 1e-10 for c in rep["checks"])


def test_verify_circuit_negative_control() -> None:
    rep = run_verify_circuit(n_phi=2, n_theta=2, corrupt_theta=True)
    assert not rep["passed"]


def test_verify_circuit_memory_is_bounded_by_its_pair_slices(monkeypatch) -> None:
    # 64 x 40 pairs in one call per t peaked at 21.4 MiB; slices of 2^10
    # pairs hold it near 9 MiB, and the report keeps its bits
    tracemalloc.start()
    try:
        rep = run_verify_circuit(n_phi=64, n_theta=40, seed=5, corrupt_theta=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    monkeypatch.setattr(harness, "_VERIFY_PAIRS", 64 * 40)
    one_call = run_verify_circuit(n_phi=64, n_theta=40, seed=5, corrupt_theta=True)
    assert json.dumps(one_call) == json.dumps(rep)


@pytest.mark.parametrize("name", ["n_phi", "n_theta"])
def test_verify_circuit_rejects_a_check_over_no_cases(name: str) -> None:
    # a zero count used to leave a loop empty and pass, even the negative control
    sizes = dict(n_phi=1, n_theta=1)
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
        run_verify_circuit(**{**sizes, name: 0}, corrupt_theta=True)


@pytest.mark.parametrize("name", ["n_phi", "n_theta", "seed"])
@pytest.mark.parametrize("value", [1.5, 2.0, True])
def test_verify_circuit_rejects_a_non_integer_size_or_seed(name: str, value) -> None:
    sizes = dict(n_phi=1, n_theta=1)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_verify_circuit(**{**sizes, name: value})


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_every_seed_entry_point_takes_both_ends_of_the_64_bit_range(seed: int) -> None:
    assert run_sweep(_small("upea-bias-mae", grid_points=2, n_samples=8, base_seed=seed)).entries
    assert calibrate_b(16, 2, 8, seed).seed == seed
    assert run_verify_circuit(n_phi=1, n_theta=1, seed=seed)["passed"]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_every_seed_entry_point_rejects_a_seed_outside_64_bits(seed: int, monkeypatch, capsys) -> None:
    # a sweep at base_seed -1 or 2**70 and calibrate_b(16, 2, 8, -1) once ran
    in_range = re.escape(f"must lie in [0, {2**64 - 1}], got {seed}")
    with pytest.raises(ValueError, match="base_seed " + in_range):
        _small("upea-bias-mae", base_seed=seed)
    with pytest.raises(ValueError, match="seed " + in_range):
        calibrate_b(16, 2, 8, seed)
    with pytest.raises(ValueError, match="seed " + in_range):
        run_verify_circuit(n_phi=1, n_theta=1, seed=seed)
    with pytest.raises(ValueError, match="seed " + in_range):
        CalibrationRecord(T=16, R=2, b=0.01, stderr_b=0.001, n_samples=8, seed=seed)
    # the CLI exits 1 before any chunk draws
    monkeypatch.setattr(harness, "make_rng", lambda seed: pytest.fail("a chunk ran"))
    assert cli.main(["upea-bias-mae", "--seed", str(seed), "--samples", "8", "--grid", "2"]) == 1
    assert cli.main(["verify-circuit", "--seed", str(seed)]) == 1
    assert capsys.readouterr().err.count(f"seed must lie in [0, {2**64 - 1}]") == 2


def test_verify_circuit_fails_on_a_nan_pmf_after_finite_ones(monkeypatch) -> None:
    # the builtin max(0.0, nan) is 0.0, so a NaN after a finite deviation
    # once passed; t = 1 stays finite and t = 2 turns NaN
    real = harness.pea_circuit_pmf

    def nan_at_t2(t, phi, theta):
        pmf = real(t, phi, theta)
        return SimpleNamespace(probs=np.full_like(pmf.probs, np.nan) if t == 2 else pmf.probs)

    monkeypatch.setattr(harness, "pea_circuit_pmf", nan_at_t2)
    rep = run_verify_circuit(n_phi=2, n_theta=2)
    pea = rep["checks"][0]
    assert pea["name"] == "pea-circuit-vs-analytic"
    assert np.isnan(pea["max_deviation"])
    assert pea["passed"] is False
    assert rep["passed"] is False


# ---------------------------------------------------------------------------
# CLI


def test_cli_prints_csv_to_stdout(capsys) -> None:
    code = cli.main(
        ["upea-bias-mae", "--T", "16", "--grid", "2", "--samples", "200", "--seed", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.splitlines()) == 3


def test_cli_matches_library_output(capsys) -> None:
    cli.main(["qca-bias-mae", "--grid", "2", "--samples", "150", "--seed", "8"])
    out = capsys.readouterr().out
    cfg = SweepConfig("qca-bias-mae", grid_points=2, n_samples=150, base_seed=8)
    assert out == csv_text(run_sweep(cfg).entries)


@pytest.mark.parametrize(
    "argv",
    [
        ["upea-bias-mae", "--grid", "2", "--samples", "100"],
        ["calibrate", "--R", "2", "--samples", "256", "--seed", "3"],
        ["verify-circuit", "--seed", "2"],
    ],
)
def test_cli_out_writes_the_bytes_stdout_gets(argv, tmp_path, capsys) -> None:
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    out = tmp_path / "series.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # the output went to the file, not stdout
    assert out.read_bytes() == want.encode("utf-8")
    sidecar = tmp_path / "series.out.meta.json"
    assert sidecar.exists() == (argv[0] == "upea-bias-mae")
    if sidecar.exists():  # a sweep's sidecar records the config, not where it went
        assert captured.err == f"wrote 2 rows to {out}\n"
        config = json.loads(sidecar.read_text(encoding="utf-8"))["config"]
        cfg = SweepConfig("upea-bias-mae", grid_points=2, n_samples=100)
        assert config == json.loads(cfg.to_json()) and "output_path" not in config


@pytest.mark.parametrize(
    "argv, args",
    [
        ([], (16, 1, 1 << 16, 1, 1)),
        (["--T", "16", "--R", "3", "--samples", "4096", "--seed", "5", "--workers", "2"],
         (16, 3, 4096, 5, 2)),
        (["--R", "2", "--samples", "256", "--seed", "3"], (16, 2, 256, 3, 1)),
    ],
)
def test_cli_calibrate_writes_the_calibrate_b_record_byte_for_byte(
    argv, args, tmp_path, capsys
) -> None:
    want = calibrate_b(*args).to_json() + "\n"
    assert cli.main(["calibrate", *argv]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "cal.json"
    assert cli.main(["calibrate", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == want


def test_cli_calibrate_takes_only_the_flags_calibrate_b_reads(capsys) -> None:
    # as a sweep, calibrate took --theta-mode period and ignored it, failed
    # --grid 1 on a field it never read, and refused every preset and record
    for flag, value in (("--grid", "3"), ("--theta-mode", "period"), ("--preset", "fig7"),
                        ("--calibration", "cal.json")):
        assert cli.main(["calibrate", "--samples", "64", flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["calibrate", "--help"])
    offered = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert offered == {"--help", "--T", "--R", "--samples", "--seed", "--out", "--workers"}


def test_cli_calibration_flag_round_trip(tmp_path, capsys) -> None:
    cal = tmp_path / "cal.json"
    cli.main(["calibrate", "--R", "2", "--samples", "256", "--seed", "3", "--out", str(cal)])
    capsys.readouterr()
    code = cli.main(
        ["uqca-corrected", "--R", "2", "--grid", "2", "--samples", "100",
         "--calibration", str(cal)]
    )
    assert code == 0


def test_cli_calibration_flag_rejected_by_other_experiments(tmp_path, capsys) -> None:
    cal = tmp_path / "cal.json"
    cli.main(["calibrate", "--R", "2", "--samples", "256", "--seed", "3", "--out", str(cal)])
    code = cli.main(
        ["mle-bias-mae", "--R", "3", "--grid", "2", "--samples", "100",
         "--calibration", str(cal)]
    )
    assert code == 1
    assert "calibration record" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["upea-bias-mae", "--badflag"], "unrecognized arguments: --badflag"),
        (["mle-bias-mae", "--R", "x..y"],
         "argument --R: expects an integer or lo..hi range, got 'x..y'"),
        (["mle-bias-mae", "--R", "1..2..3"],
         "argument --R: expects an integer or lo..hi range, got '1..2..3'"),
        (["upea-bias-mae", "--T", "x"], "argument --T: invalid int value: 'x'"),
        (["upea-bias-mae", "--T", "12"], "T must be a positive power of two, got 12"),
        (["pea-bias-mae", "--grid", "2", "--samples", "10"],
         "pea-bias-mae requires a fixed theta mode (no random shift)"),
        (["upea-bias-mae", "--preset", "fig5"],
         "preset fig5 belongs to mle-bias-mae, not upea-bias-mae"),
        (["upea-bias-mae", "--theta-mode", "fixed:abc"],
         "argument --theta-mode: cannot parse theta mode 'fixed:abc': "
         "could not convert string to float: 'abc'"),
        (["uqca-corrected", "--grid", "2", "--theta-mode", "fixed:0.3"],
         "uqca-corrected needs a random shift: its slope assumes one"),
        (["calibrate", "--samples", "1"], "n_samples must be >= 2, got 1"),
        (["verify-circuit", "--seed", "-1"], f"seed must lie in [0, {2**64 - 1}], got -1"),
        (["upea-bias-mae", "--grid", "2", "--samples", "8", "--workers", "0"],
         "workers must be >= 1, got 0"),
        # a calibration file holding a JSON list once ended in a TypeError traceback
        (["uqca-corrected", "--R", "3", "--grid", "2", "--samples", "8", "--calibration", "{cal}"],
         "bad calibration record '{cal}': a calibration record must be a JSON object with "
         "exactly the keys ['T', 'R', 'b', 'stderr_b', 'n_samples', 'seed', 'rng_algorithm']"),
    ],
)
def test_cli_usage_error_exits_1_with_one_error_line(argv, message, tmp_path, capsys) -> None:
    cal = tmp_path / "cal.json"
    cal.write_text("[1, 2]")
    argv = [a.format(cal=cal) for a in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cal=cal)}\n"  # no traceback


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("fixed:abc", "could not convert string to float: 'abc'"),
        ("fixed:2.0", "theta value must lie in [0, 1) for a fixed mode, got 2.0"),
        ("bogus", "cannot parse theta mode 'bogus'"),
    ],
)
def test_cli_theta_mode_error_gives_the_parse_reason(mode: str, reason: str, capsys) -> None:
    # argparse printed only "invalid parse value: 'fixed:abc'" for these
    assert cli.main(["upea-bias-mae", "--theta-mode", mode]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --theta-mode: cannot parse theta mode")
    assert reason in err and "invalid parse value" not in err


def test_cli_preset_with_overrides(capsys) -> None:
    code = cli.main(["upea-bias-mae", "--preset", "fig3", "--grid", "2", "--samples", "64"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_range_r(capsys) -> None:
    code = cli.main(["mae-vs-r", "--R", "2..3", "--grid", "2", "--samples", "120"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 3  # header + one row per R


@pytest.mark.parametrize(
    "argv",
    [
        ["upea-bias-mae", "--grid", "2", "--samples", "50", "--out", "/nonexistent-dir/x.csv"],
        # an empty path was once read as "no record" and the sweep ran uncorrected
        ["uqca-corrected", "--R", "1", "--grid", "2", "--samples", "16", "--calibration", ""],
        ["uqca-corrected", "--R", "1", "--grid", "2", "--samples", "16",
         "--calibration", "/nonexistent-dir/cal.json"],
    ],
)
def test_cli_io_error_exit_3(argv, capsys) -> None:
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1


def test_cli_verify_circuit_failure_exit_2(monkeypatch, capsys) -> None:
    monkeypatch.setattr(
        cli, "run_verify_circuit", lambda **kw: {"checks": [], "passed": False}
    )
    assert cli.main(["verify-circuit"]) == 2
    capsys.readouterr()


def test_cli_verify_circuit_reports_json(monkeypatch, capsys) -> None:
    monkeypatch.setattr(
        cli,
        "run_verify_circuit",
        lambda **kw: {"checks": [{"name": "x", "max_deviation": 0.0,
                                  "tolerance": 1e-10, "passed": True}],
                      "passed": True},
    )
    assert cli.main(["verify-circuit"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True


def test_single_run_corrected_sweep_at_t1_rejects_b_one_half(capsys) -> None:
    # one register outcome: the exact single-run slope is b = 1/(2T) = 1/2
    with pytest.raises(ValueError, match="b = 1/2"):
        run_sweep(SweepConfig("uqca-corrected", T=1, R=1, grid_points=2, n_samples=10))
    code = cli.main(["uqca-corrected", "--T", "1", "--R", "1", "--grid", "2", "--samples", "10"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "b = 1/2" in captured.err


def test_cli_workers_flag_leaves_corrected_range_output_unchanged(monkeypatch, capsys) -> None:
    # three calibration chunks per R, so the pool really splits them
    monkeypatch.setattr("upea.harness._AUTO_CAL_SAMPLES", 2 * 4096 + 100)
    argv = ["uqca-corrected", "--R", "1..3", "--grid", "3", "--samples", "700", "--seed", "4"]
    outs = []
    for workers in ("1", "2"):
        assert cli.main(argv + ["--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 4
    assert cli.main(argv + ["--workers", "0"]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mle-bias-mae", "--T", "1", "--R", "2", "--grid", "2", "--samples", "16"],
        ["calibrate", "--T", "1", "--R", "2", "--samples", "64"],
    ],
)
def test_cli_t1_with_several_runs_exits_1_naming_the_flat_likelihood(argv, capsys) -> None:
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "T = 1 gives a flat likelihood" in captured.err


_G = 3
_N = 4096 + 5  # two unequal chunks per cell


@pytest.mark.parametrize(
    "experiment,R,truths,row_samples",
    [
        ("pea-bias-mae", 1, [0.0, 1 / 3, 2 / 3], _N),
        ("upea-bias-mae", 1, [0.0, 1 / 3, 2 / 3], _N),
        ("mle-bias-mae", 2, [0.0, 1 / 3, 2 / 3], _N),
        ("mae-vs-r", 2, [2.0], _G * _N),
        ("mae-vs-r", (1, 2), [1.0, 2.0], _G * _N),
        ("qca-bias-mae", 2, [0.0, 0.5, 1.0], _N),
        ("qca-bias-mae", (1, 2), [1.0, 2.0], _G * _N),
        ("uqca-corrected", 2, [0.0, 0.5, 1.0], _N),
        ("uqca-corrected", (1, 2), [1.0, 2.0], _G * _N),
    ],
)
def test_every_sweep_layout_has_its_rows_at_any_worker_count(
    experiment, R, truths, row_samples, monkeypatch
) -> None:
    # three calibration chunks per R keep the corrected sweeps short
    monkeypatch.setattr("upea.harness._AUTO_CAL_SAMPLES", 2 * 4096 + 100)
    theta = ThetaMode.fixed(0.0) if experiment == "pea-bias-mae" else ThetaMode.full()
    cfg = SweepConfig(
        experiment, T=8, R=R, grid_points=_G, n_samples=_N, theta_mode=theta, base_seed=6
    )
    serial, pooled = (run_sweep(cfg, workers=w).entries for w in (1, 3))
    assert [e.ground_truth for e in serial] == truths
    assert [e.n_samples for e in serial] == [row_samples] * len(truths)
    assert csv_text(serial) == csv_text(pooled)


def test_cli_rejects_a_malformed_calibration_file_when_it_loads(tmp_path, capsys) -> None:
    cal = tmp_path / "cal.json"
    cal.write_text(
        json.dumps(
            {"T": 3, "R": 0, "b": 0.1, "stderr_b": 0.1, "n_samples": -5, "seed": 1,
             "rng_algorithm": "numpy-pcg64"}
        )
    )
    code = cli.main(
        ["uqca-corrected", "--R", "3", "--grid", "2", "--samples", "100",
         "--calibration", str(cal)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad calibration record" in err and "T must be a positive power of two" in err


def test_a_calibration_record_of_another_generator_is_refused(tmp_path, capsys) -> None:
    # the library draws only from numpy-pcg64, yet a record naming mt19937
    # once loaded and corrected a sweep
    raw = json.loads(calibrate_b(16, 2, 256, 3).to_json())
    text = json.dumps({**raw, "rng_algorithm": "mt19937"})
    with pytest.raises(ValueError, match="rng_algorithm must be 'numpy-pcg64', got 'mt19937'"):
        CalibrationRecord.from_json(text)
    cal = tmp_path / "cal.json"
    cal.write_text(text)
    code = cli.main(
        ["uqca-corrected", "--R", "2", "--grid", "2", "--samples", "100",
         "--calibration", str(cal)]
    )
    assert code == 1
    assert "bad calibration record" in capsys.readouterr().err
