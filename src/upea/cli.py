"""Command-line front end: a subcommand per sweep, plus calibrate and verify-circuit.

Sweep subcommands print CSV to stdout, or write it to --out together with a
.meta.json sidecar (config, RNG algorithm, wall time, calibration records).
calibrate emits calibrate_b's record as JSON; verify-circuit emits a check
report and signals failure through its exit code.

Exit codes: 0 success, 1 usage error, 2 verify-circuit check failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import partial

from .counting import CalibrationRecord, calibrate_b
from .harness import (
    EXPERIMENTS,
    PRESETS,
    SweepConfig,
    _write_text,
    csv_text,
    run_sweep,
    run_verify_circuit,
    write_csv,
    write_metadata,
)
from .phase_math import ThetaMode

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2 for
    # verify-circuit failures, so route usage problems through an exception
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_r(text: str) -> int | tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        return int(text)
    except ValueError:
        raise _UsageError(f"--R expects an integer or lo..hi range, got {text!r}")


def _theta_mode(text: str) -> ThetaMode:
    try:  # argparse prints an ArgumentTypeError's message, not a ValueError's
        return ThetaMode.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    # each flag sets the SweepConfig field (or calibrate_b argument) named by
    # its dest; a flag left out leaves no attribute, so the value is the
    # field's default, the preset's or the one calibrate's parser sets
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--T", dest="T", type=int, help="register dimension, a power of two")
    flag("--R", dest="R", type=_parse_r, help="repetitions: integer, or lo..hi for range sweeps")
    flag("--samples", dest="n_samples", type=int, help="trials (per grid cell in a sweep)")
    flag("--seed", dest="base_seed", type=int, help="base seed (default 1)")
    flag("--out", dest="output_path", help="output path (stdout if omitted)")
    p.add_argument("--workers", type=int, default=1, help="threads, which do not change the output")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p)
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--grid", dest="grid_points", type=int, help="number of grid points")
    flag(
        "--theta-mode",
        dest="theta_mode",
        type=_theta_mode,
        metavar="{full|period|fixed:<x>}",
        help="reference-shift distribution",
    )
    p.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    p.add_argument("--calibration", help="calibration record JSON to apply")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="upea", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in EXPERIMENTS:
        _add_sweep_flags(sub.add_parser(name, help=f"run the {name} sweep"))
    c = sub.add_parser("calibrate", help="measure the counting bias slope b for (T, R)")
    _add_run_flags(c)
    c.set_defaults(T=16, R=1, n_samples=1 << 16, base_seed=1, output_path=None)
    v = sub.add_parser("verify-circuit", help="check circuits against analytic laws")
    v.add_argument("--seed", type=int, help="base seed (default 1)")
    v.add_argument("--out", help="report JSON path (stdout if omitted)")
    return parser


def _build_config(name: str, args: argparse.Namespace) -> SweepConfig:
    kwargs = {f.name: getattr(args, f.name) for f in fields(SweepConfig) if hasattr(args, f.name)}
    if args.preset is None:
        return SweepConfig(experiment=name, **kwargs)
    base = PRESETS[args.preset]
    if base.experiment != name:
        raise _UsageError(f"preset {args.preset} belongs to {base.experiment}, not {name}")
    return replace(base, **kwargs)


def _load_calibration(path: str) -> CalibrationRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CalibrationRecord.from_json(fh.read())
    except ValueError as exc:
        raise _UsageError(f"bad calibration record {path!r}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "verify-circuit":
            report = run_verify_circuit(seed=args.seed if args.seed is not None else 1)
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            if not report["passed"]:
                print("verify-circuit: FAILED", file=sys.stderr)
                return 2
            return 0

        if args.command == "calibrate":
            record = calibrate_b(args.T, args.R, args.n_samples, args.base_seed, args.workers)
            _emit(record.to_json() + "\n", args.output_path)
            return 0

        config = _build_config(args.command, args)
        calibration = _load_calibration(args.calibration) if args.calibration else None
        report = run_sweep(config, calibration=calibration, workers=args.workers)

        if config.output_path is None:
            sys.stdout.write(csv_text(report.entries))
        else:
            write_csv(report, config.output_path)
            write_metadata(report, config.output_path + ".meta.json")
            print(
                f"wrote {len(report.entries)} rows to {config.output_path}",
                file=sys.stderr,
            )
        return 0
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
