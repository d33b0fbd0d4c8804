"""``python -m repro.chaos`` — run the differential chaos campaign.

Exit status: 0 when every run matched the oracle (and, with
``--self-test``, the planted bug was caught); 1 on any divergence,
crash, or accounting failure; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.chaos.campaign import (
    ChaosSelfTestError,
    run_campaign,
    run_self_test,
)
from repro.chaos.faults import default_fault_plans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "Differential fuzzing of the speculative-promotion pipeline "
            "under ALAT fault injection."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed: programs, inputs and fault schedules "
             "are all derived from it (default 0)",
    )
    parser.add_argument(
        "--runs", type=int, default=200,
        help="number of generated programs (default 200); each runs "
             "under every mode and fault plan",
    )
    parser.add_argument(
        "--plans", type=int, default=3,
        help="number of fault plans from the standard battery (1-3)",
    )
    parser.add_argument(
        "--minimize", action="store_true",
        help="ddmin-reduce failing programs to minimal reproducers",
    )
    parser.add_argument(
        "--failures-dir", default="chaos/failures",
        help="where reproducers and metadata are written",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="plant a known miscompile (disable the ld.c rewrite) and "
             "verify the harness catches and minimises it",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="repro.service pool size: N forked workers, or 0 (the "
             "default) to check every program in this process; the "
             "report is the same at every size (--service-self-test "
             "defaults to 2)",
    )
    parser.add_argument(
        "--service-self-test", action="store_true",
        help="run the service-level fault drill: kill workers, inject "
             "hangs and corrupt cache entries mid-matrix, then assert "
             "byte-identical results, a balanced ledger and "
             "quarantine-and-recompute recovery",
    )
    parser.add_argument(
        "--benchmarks", default=None, metavar="A,B,...",
        help="comma-separated benchmark subset for --service-self-test "
             "(default: the full matrix)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="record the campaign summary in the experiment results "
        "store (kind=chaos)",
    )
    args = parser.parse_args(argv)
    if args.runs <= 0:
        parser.error("--runs must be positive")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.benchmarks and not args.service_self_test:
        parser.error("--benchmarks only applies to --service-self-test")

    if args.service_self_test:
        from repro.chaos.service import (
            ChaosServiceError,
            run_service_self_test,
        )

        try:
            report = run_service_self_test(
                jobs=args.jobs or 2,
                benchmarks=(
                    args.benchmarks.split(",") if args.benchmarks else None
                ),
            )
        except ChaosServiceError as exc:
            print(f"service chaos self-test FAILED: {exc}", file=sys.stderr)
            return 1
        if args.as_json:
            payload = report.as_dict()
            payload["self_test"] = "passed"
            print(json.dumps(payload, indent=2))
        else:
            print(report.summary())
        return 0

    if args.self_test:
        try:
            report = run_self_test(
                seed=args.seed, failures_dir=args.failures_dir
            )
        except ChaosSelfTestError as exc:
            print(f"chaos self-test FAILED: {exc}", file=sys.stderr)
            return 1
        if args.as_json:
            payload = report.as_dict()
            payload["self_test"] = "passed"
            print(json.dumps(payload, indent=2))
        else:
            print(
                "chaos self-test passed: planted miscompile detected "
                f"({len(report.failures)} failure(s)) and minimised"
            )
        return 0

    def progress(rep):
        if args.quiet or rep.programs % 25:
            return
        print(
            f"  ... {rep.programs} programs, {rep.runs} runs, "
            f"{len(rep.failures)} failure(s)",
            file=sys.stderr,
        )

    report = run_campaign(
        seed=args.seed,
        runs=args.runs,
        plans=default_fault_plans(args.seed, count=args.plans),
        minimize=args.minimize,
        failures_dir=args.failures_dir,
        progress=progress,
        jobs=args.jobs,
    )
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.summary())
    if args.store:
        from repro.obs.store import ResultsStore, make_record

        record = make_record(
            "chaos",
            "campaign",
            {
                "chaos": {
                    "programs": report.programs,
                    "runs": report.runs,
                    "skipped": report.skipped,
                    "failures": len(report.failures),
                    **{
                        f"faults_{kind}": n
                        for kind, n in sorted(
                            report.faults_injected.items()
                        )
                    },
                }
            },
            kind="chaos",
            suite="chaos",
            config={
                "seed": args.seed,
                "runs": args.runs,
                "plans": args.plans,
            },
        )
        run_id = ResultsStore(args.store).ingest(record)
        print(f"store: recorded campaign {run_id}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
