"""``python -m repro.service`` — the compilation service CLI.

Runs the full workload matrix through the job pool (``--jobs N``; ``0``
runs it in-process), prints the matrix table plus the service ledger
and cache statistics, and exits non-zero if any job failed or timed
out.  ``--report-json`` writes the run records ``python -m
repro.workloads`` writes, byte for byte, so runs at different pool
sizes and cache states compare with ``cmp`` (CI's ``service-smoke``
does exactly that).

``--trace FILE`` streams ``service.job`` / ``service.retry`` /
``service.cache`` events (plus whatever the jobs emit) as JSONL.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.service.job import COMPLETED
from repro.service.pool import DEFAULT_TIMEOUT_S


def _make_obs(trace: Optional[str]):
    if trace is None:
        return None
    from repro.obs import JsonlSink, TraceContext

    return TraceContext(JsonlSink(trace))


def _batch(args, obs) -> int:
    """The workload matrix as the service's batch client."""
    from repro.service.matrix import run_matrix

    outcome = run_matrix(
        jobs=args.jobs,
        cache_dir=args.cache,
        obs=obs,
        benchmarks=args.benchmarks or None,
        spec=args.alias_prob,
        timeout_s=args.timeout,
    )
    status = outcome.print_report(args.report_json)
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
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Fault-tolerant compilation service: run the "
        "benchmark matrix across a worker pool with timeouts, retries "
        "and a verified artifact cache.",
    )
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2; 0 runs every "
                        "job in this process)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed artifact cache directory")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="stream service trace events as JSONL")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="per-job wall-clock budget in seconds")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset")
    parser.add_argument("--alias-prob",
                        choices=["profile", "static", "hybrid"],
                        default="profile",
                        help="treatment configuration")
    parser.add_argument("--report-json", metavar="FILE", default=None,
                        help="write the run records as sorted-key JSON "
                        "(the bytes python -m repro.workloads writes)")
    parser.add_argument("--ledger-json", metavar="FILE", default=None,
                        help="write the service ledger, cache stats and "
                        "per-job artifact hashes as JSON")
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")

    obs = _make_obs(args.trace)
    try:
        return _batch(args, obs)
    finally:
        if obs is not None:
            obs.close()


if __name__ == "__main__":
    sys.exit(main())
