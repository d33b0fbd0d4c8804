"""Speculation-safety analyzer CLI.

Compiles MiniC programs (files, the built-in benchmark workloads, or
both) across a matrix of speculation modes and promotion rounds, runs
the analyzer over each compilation, and reports every finding::

    python -m repro.speclint --workloads --strict
    python -m repro.speclint examples/quickstart.mc --tv --json
    python -m repro.speclint --workloads --modes profile,heuristic \\
        --rounds 1,2 --tv

``--strict`` exits 1 when any error-severity diagnostic is found (the
CI gate); warnings never affect the exit code.  An internal compiler
error is never a warning: with or without ``--strict`` it ends the run,
with a traceback (exit 1), or in one line (exit 2) when it is a
:class:`~repro.errors.ReproError` such as a ``VerificationError``.
``--tv`` additionally runs differential translation validation
(conservative vs speculative interpretation on the train inputs) per
configuration.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.pipeline import (
    CompilerOptions,
    OptLevel,
    SpecLintMode,
    SpecMode,
    compile_source,
)
from repro.speclint import LintReport, validate_translation
from repro.speclint.diagnostics import Diagnostic


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.speclint",
        description="Statically verify ALAT speculation safety of "
        "compiled MiniC programs.",
    )
    parser.add_argument(
        "files", nargs="*", help="MiniC source files to analyze"
    )
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="also analyze every built-in benchmark workload",
    )
    parser.add_argument(
        "--modes",
        default="profile,heuristic,software",
        help="comma-separated speculation modes (default "
        "profile,heuristic,software)",
    )
    parser.add_argument(
        "--rounds",
        default="1,2",
        help="comma-separated promotion round counts (default 1,2)",
    )
    parser.add_argument(
        "--train-args",
        type=int,
        nargs="*",
        default=[10],
        help="profiling-run arguments for file inputs (default: 10)",
    )
    parser.add_argument(
        "--tv",
        action="store_true",
        help="also run differential translation validation on the "
        "train inputs",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any error-severity diagnostic is found",
    )
    return parser


def _analyze(
    label: str,
    source: str,
    train_args: list[int],
    modes: list[SpecMode],
    rounds: list[int],
    tv: bool,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for mode in modes:
        for r in rounds:
            options = CompilerOptions(
                opt_level=OptLevel.O3,
                spec_mode=mode,
                rounds=r,
                speclint=SpecLintMode.WARN,  # collect, never raise
            )
            output = compile_source(
                source, options, train_args=train_args, name=label
            )
            diags.extend(output.diagnostics)
            if tv:
                diags.extend(
                    validate_translation(
                        source,
                        options,
                        args=train_args,
                        train_args=train_args,
                        name=label,
                    )
                )
    return diags


def _error(label: str, reason) -> int:
    """Report an unusable input in one line, as ``python -m repro``
    does; exit 2."""
    print(f"python -m repro.speclint: {label}: {reason}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    modes = [SpecMode(m.strip()) for m in args.modes.split(",") if m.strip()]
    rounds = [int(r) for r in args.rounds.split(",") if r.strip()]

    targets: list[tuple[str, str, list[int]]] = []
    for path in args.files:
        try:
            with open(path) as f:
                targets.append((path, f.read(), list(args.train_args)))
        except OSError as exc:
            return _error(path, exc.strerror or exc)
    if args.workloads:
        from repro.workloads.programs import BENCHMARKS, get_workload

        for name in BENCHMARKS:
            w = get_workload(name)
            targets.append((name, w.source, list(w.train_args)))
    if not targets:
        print("nothing to analyze (pass files or --workloads)", file=sys.stderr)
        return 2

    all_diags: list[Diagnostic] = []
    for label, source, train in targets:
        try:
            diags = _analyze(label, source, train, modes, rounds, args.tv)
        except ReproError as exc:
            return _error(label, exc)
        all_diags.extend(diags)
        status = (
            "clean"
            if not diags
            else f"{len(diags)} finding(s)"
        )
        print(f"speclint: {label}: {status}", file=sys.stderr)

    report = LintReport(all_diags)
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    if args.strict and report.errors:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
