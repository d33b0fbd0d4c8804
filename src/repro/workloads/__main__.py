"""``python -m repro.workloads`` — run the full benchmark matrix.

The matrix runs through :func:`repro.service.matrix.run_matrix`;
``--jobs N`` only sets the pool size (``0``, the default, runs every
benchmark in this process).  Failing benchmarks are reported at the end
instead of aborting the sweep; the exit status is 1 when any benchmark
failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.service.matrix import run_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Compile, profile and simulate every benchmark "
        "(baseline vs speculative), tolerating individual failures.",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write per-mode JSONL event traces under this directory "
        "(a traced run skips the artifact cache)",
    )
    parser.add_argument(
        "--report-json",
        metavar="FILE",
        default=None,
        help="write the run records as sorted-key JSON (the bytes of "
        "benchmarks/results/records.json)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="ingest every measurement into the experiment results "
        "store (benchmarks/store); runs are site-profiled so records "
        "carry per-ALAT-site stats",
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

    outcome = run_matrix(
        jobs=args.jobs,
        cache_dir=args.cache,
        spec=args.alias_prob,
        profile_sites=bool(args.store),
        fuel=args.fuel,
        trace_dir=args.trace_dir,
    )
    if args.store and outcome.results:
        from repro.obs.store import ResultsStore
        from repro.workloads.runner import store_records

        run_ids = ResultsStore(args.store).ingest_many(
            store_records(outcome.results, suite="matrix")
        )
        print(
            f"store: ingested {len(run_ids)} run record(s) into "
            f"{args.store}",
            file=sys.stderr,
        )
    return outcome.print_report(args.report_json)


if __name__ == "__main__":
    sys.exit(main())
