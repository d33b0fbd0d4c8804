"""Command-line driver: compile and simulate a MiniC file.

Usage::

    python -m repro program.mc --args 50 --opt 3 --spec profile \\
        --train-args 10 --dump-ir --counters \\
        --trace trace.jsonl --metrics-out metrics.json --summary

Mirrors the library pipeline: optional alias-profiling run on the train
arguments, compilation at the chosen level/speculation mode, simulation
on the main arguments, and pfmon-style counter output.  ``--trace``
streams the structured event log (JSONL; ``-`` for stdout),
``--metrics-out`` writes the aggregated metrics JSON, and ``--summary``
prints the human-readable report.  ``--profile`` prints the
perf-annotate-style source listing (cycle attribution + ALAT site
stats); ``--diff-baseline`` additionally compiles with speculation off
and prints the baseline-vs-speculative comparison.

Host-side telemetry (see DESIGN.md §13): ``--host-profile`` attributes
host wall time to simulator opcode classes, ``--trace-chrome`` writes a
Perfetto-loadable Chrome trace of the span tree, ``--flamegraph``
writes collapsed stacks, and ``--mem`` adds tracemalloc peak deltas to
every phase.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import MachineError, ReproError
from repro.obs import (
    HostProfiler,
    ProfileReport,
    TraceContext,
    build_metrics,
    diff_runs,
    format_diff,
    format_summary,
    make_sink,
    write_chrome_trace,
    write_flamegraph,
)
from repro.pipeline import (
    AliasProbSource,
    CompilerOptions,
    OptLevel,
    PromotionGate,
    SpecLintMode,
    SpecMode,
    compile_source,
    run_program,
)
from repro.ir.printer import format_module
from repro.target.asmprinter import format_program


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile and simulate a MiniC program with "
        "ALAT-based speculative register promotion.",
    )
    parser.add_argument("file", help="MiniC source file")
    parser.add_argument(
        "--args",
        type=int,
        nargs="*",
        default=[],
        help="integer arguments passed to main()",
    )
    parser.add_argument(
        "--train-args",
        type=int,
        nargs="*",
        default=None,
        help="arguments for the alias-profiling run (defaults to --args)",
    )
    parser.add_argument(
        "--opt", type=int, choices=(0, 1, 2, 3), default=3, help="optimisation level"
    )
    parser.add_argument(
        "--spec",
        choices=[m.value for m in SpecMode],
        default="none",
        help="alias speculation mode (requires --opt 3)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="promotion rounds (2 enables cascaded pointer chains)",
    )
    parser.add_argument(
        "--speclint",
        choices=[m.value for m in SpecLintMode],
        default="strict",
        help="speculation-safety analyzer: strict fails compilation on "
        "any error, warn prints findings to stderr, off disables it "
        "(default strict)",
    )
    parser.add_argument(
        "--promotion-gate",
        choices=[g.value for g in PromotionGate],
        default="warn",
        help="static ALAT pressure gate: on demotes predicted-"
        "unprofitable speculative candidates, warn only reports them, "
        "off skips the analysis (default warn)",
    )
    parser.add_argument(
        "--alias-prob",
        choices=[s.value for s in AliasProbSource],
        default="profile",
        help="alias-probability source for the pressure gate and "
        "heuristic speculation: profile uses the training run's "
        "constants, static uses repro.analysis.probalias estimates "
        "(no profiling needed), hybrid backfills unprofiled stores "
        "with static estimates (default profile)",
    )
    parser.add_argument(
        "--dump-pressure-dot",
        metavar="FILE",
        default=None,
        help="write the pressure model's candidate conflict graph as "
        "Graphviz (- for stdout)",
    )
    parser.add_argument("--dump-ir", action="store_true", help="print optimised IR")
    parser.add_argument("--dump-asm", action="store_true", help="print machine code")
    parser.add_argument(
        "--counters", action="store_true", help="print simulator counters"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="differentially check against the unoptimised interpreter",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the structured event trace as JSONL (- for stdout)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="with --trace: emit a counters.snapshot every N instructions",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write aggregated run metrics as JSON (- for stdout)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the human-readable metrics summary",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute retired cycles and ALAT events to MiniC source "
        "lines and print the annotated listing",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=10,
        metavar="N",
        help="with --profile: rows in the hot-lines table (default 10)",
    )
    parser.add_argument(
        "--diff-baseline",
        action="store_true",
        help="also compile with speculation off and print the "
        "baseline-vs-speculative diff (cycles, loads, check overhead)",
    )
    parser.add_argument(
        "--host-profile",
        action="store_true",
        help="attribute host wall time to simulator opcode classes and "
        "print the breakdown (with --verify, also profiles the "
        "interpreter's dispatch loop)",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="FILE",
        default=None,
        help="write the span tree (plus --host-profile buckets) as "
        "Chrome trace_event JSON, loadable in Perfetto",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="FILE",
        default=None,
        help="write the span tree as collapsed stacks "
        "(flamegraph.pl / speedscope input)",
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help="track tracemalloc peak-allocation deltas per phase/span "
        "(slows allocation-heavy host code)",
    )
    return parser


def _path_error(path: str, exc: OSError) -> int:
    """Report an unusable input or output path in one line; exit 2."""
    print(f"python -m repro: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _probe_output(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` later would raise,
    before any compile or simulation runs; a file created by the probe
    is removed again."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        # a source, lint or guest error (the message carries any
        # line:col): one line, like a missing input, after whatever the
        # guest printed before it faulted
        if isinstance(exc, MachineError):
            for line in exc.output:
                print(line)
        print(f"python -m repro: {args.file}: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        return _path_error(args.file, exc)
    for path in (args.trace, args.metrics_out, args.trace_chrome,
                 args.flamegraph, args.dump_pressure_dot):
        if path and path != "-":
            try:
                _probe_output(path)
            except OSError as exc:
                return _path_error(path, exc)

    options = CompilerOptions(
        opt_level=OptLevel(args.opt),
        spec_mode=SpecMode(args.spec),
        rounds=args.rounds,
        speclint=SpecLintMode(args.speclint),
        promotion_gate=PromotionGate(args.promotion_gate),
        alias_prob=AliasProbSource(args.alias_prob),
    )
    train = args.train_args if args.train_args is not None else args.args

    obs = TraceContext(
        make_sink(args.trace),
        snapshot_every=args.snapshot_every,
        track_memory=args.mem,
    )
    host = HostProfiler() if args.host_profile else None
    try:
        output = compile_source(
            source, options, train_args=train, name=args.file, obs=obs
        )
        for diag in output.diagnostics:
            print(diag.format(), file=sys.stderr)

        if args.dump_pressure_dot:
            from repro.ir.dot import pressure_to_dot

            pressure = output.pressure
            if pressure is None:
                # The pressure phase did not run (gate off, or a
                # non-speculative mode); the analysis is pure, so run
                # it on demand for the dump.
                from repro.analysis.alatpressure import (
                    analyze_output_pressure,
                )

                pressure = analyze_output_pressure(output)
            dot = pressure_to_dot(pressure)
            if args.dump_pressure_dot == "-":
                print(dot)
            else:
                with open(args.dump_pressure_dot, "w") as f:
                    f.write(dot + "\n")
        if args.dump_ir:
            print(format_module(output.module))
            print()
        if args.dump_asm:
            print(format_program(output.program))
            print()

        want_profile = args.profile or args.diff_baseline
        result = output.run(
            list(args.args), profile=want_profile, host_profiler=host
        )

        base_result = None
        if args.diff_baseline:
            base_options = CompilerOptions(
                opt_level=OptLevel(args.opt),
                spec_mode=SpecMode.NONE,
                rounds=args.rounds,
            )
            # Baseline compiles under its own (disabled) trace context so
            # the main trace records exactly one compilation.
            base_output = compile_source(
                source, base_options, train_args=train, name=args.file
            )
            base_result = base_output.run(list(args.args), profile=True)

        report = None
        if args.profile and result.profile is not None:
            report = ProfileReport(result.profile, source, result.counters)
            report.emit_events(obs)
    finally:
        obs.close()
    for line in result.output:
        print(line)

    if report is not None:
        print(report.render(top=args.profile_top), file=sys.stderr)

    if base_result is not None:
        print(
            format_diff(diff_runs(base_result, result)),
            file=sys.stderr,
        )

    if args.verify:
        interp_host = HostProfiler() if args.host_profile else None
        reference = run_program(
            source, list(args.args), host_profiler=interp_host
        )
        if reference.output != result.output or reference.exit_value != result.exit_value:
            print("VERIFY FAILED: optimised output differs from oracle", file=sys.stderr)
            return 2
        print("verify: OK (matches unoptimised interpreter)", file=sys.stderr)
        if interp_host is not None:
            print(
                interp_host.format_breakdown(title="interpreter host profile"),
                file=sys.stderr,
            )

    if args.counters:
        for key, value in result.counters.as_dict().items():
            print(f"{key:>22}: {value}", file=sys.stderr)

    if host is not None:
        simulate_ms = obs.phase_times.get("simulate", 0.0) * 1e3
        print(
            host.format_breakdown(
                simulate_ms or None, title="simulator host profile"
            ),
            file=sys.stderr,
        )
    if args.trace_chrome:
        write_chrome_trace(args.trace_chrome, obs, host)
        print(
            f"wrote Chrome trace to {args.trace_chrome} "
            "(open in https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.flamegraph:
        write_flamegraph(args.flamegraph, obs, host)

    if args.metrics_out or args.summary:
        metrics = build_metrics(output, result, obs, host=host)
        if args.metrics_out == "-":
            json.dump(metrics, sys.stdout, indent=2)
            print()
        elif args.metrics_out:
            with open(args.metrics_out, "w") as f:
                json.dump(metrics, f, indent=2)
                f.write("\n")
        if args.summary:
            print(format_summary(metrics), file=sys.stderr)

    return result.exit_value % 256


if __name__ == "__main__":
    sys.exit(main())
