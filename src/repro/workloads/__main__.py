"""``python -m repro.workloads`` — run the benchmark matrix.

The one matrix CLI.  The matrix runs through
:func:`repro.service.matrix.run_matrix`; ``--jobs N`` only sets the
pool size (``0``, the default, runs every benchmark in this process).
Failing or timed-out benchmarks are reported at the end instead of
aborting the sweep; the exit status is 1 when any benchmark failed, 0
otherwise.

``--report-json`` writes the run records byte for byte whatever the
pool size or cache state, so runs compare with ``cmp`` (CI's
``service-smoke`` does exactly that).  ``--ledger-json`` writes the
service ledger, the cache stats and each completed job's artifact hash.
``--trace FILE`` streams ``service.job`` / ``service.retry`` /
``service.cache`` events as JSONL.  ``--dashboard FILE`` site-profiles
the run and writes its self-contained HTML dashboard
(:mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.job import COMPLETED
from repro.service.matrix import run_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Compile, profile and simulate every benchmark "
        "(baseline vs speculative) through the job pool, tolerating "
        "individual failures.",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="benchmark subset (default: all ten)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write per-mode JSONL event traces under this directory "
        "(a traced run skips the artifact cache)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream service trace events (jobs, retries, cache) as JSONL",
    )
    parser.add_argument(
        "--report-json",
        metavar="FILE",
        default=None,
        help="write the run records as sorted-key JSON (the bytes of "
        "benchmarks/results/records.json)",
    )
    parser.add_argument(
        "--ledger-json",
        metavar="FILE",
        default=None,
        help="write the service ledger, cache stats and per-job "
        "artifact hashes as JSON",
    )
    parser.add_argument(
        "--dashboard",
        metavar="FILE",
        default=None,
        help="write a self-contained HTML dashboard of this run; runs "
        "are site-profiled so it shows per-ALAT-site pressure",
    )
    parser.add_argument(
        "--alias-prob",
        choices=["profile", "static", "hybrid"],
        default="profile",
        help="alias-probability source for the speculative mode: "
        "'static' runs the no-profile configuration (heuristic "
        "speculation gated by repro.analysis.probalias), 'hybrid' "
        "backfills unprofiled stores with static estimates",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="repro.service pool size: N forked workers, or 0 (the "
        "default) to run every benchmark in this process",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="service artifact cache directory",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-benchmark wall-clock budget in seconds (default "
        "repro.service.matrix.BENCH_TIMEOUT_S)",
    )
    parser.add_argument(
        "--fuel",
        type=int,
        default=None,
        help="interpreter fuel per workload run (default "
        "repro.workloads.runner.DEFAULT_INTERP_FUEL); exhaustion is a "
        "structured timeout failure, not a hang",
    )
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")

    obs = None
    if args.trace is not None:
        from repro.obs import JsonlSink, TraceContext

        obs = TraceContext(JsonlSink(args.trace))
    try:
        outcome = run_matrix(
            jobs=args.jobs,
            cache_dir=args.cache,
            obs=obs,
            benchmarks=args.benchmarks or None,
            spec=args.alias_prob,
            profile_sites=bool(args.dashboard),
            fuel=args.fuel,
            timeout_s=args.timeout,
            trace_dir=args.trace_dir,
        )
    finally:
        if obs is not None:
            obs.close()
    if args.dashboard and outcome.results:
        from repro.obs.dashboard import render_dashboard

        with open(args.dashboard, "w", encoding="utf-8") as fh:
            fh.write(render_dashboard(outcome.results) + "\n")
    if args.ledger_json:
        with open(args.ledger_json, "w", encoding="utf-8") as fh:
            payload = dict(outcome.ledger.as_dict())
            payload["cache"] = outcome.cache_stats
            payload["shas"] = {
                jr.spec.label: jr.artifact_sha
                for jr in outcome.job_results
                if jr.state == COMPLETED
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return outcome.print_report(args.report_json)


if __name__ == "__main__":
    sys.exit(main())
