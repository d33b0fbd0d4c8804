"""``python -m repro.service`` — the compilation service CLI.

Two modes:

* **batch** (default): run the full workload matrix through the job
  pool (``--jobs N``; ``0`` runs it in-process), print the matrix table
  plus the service ledger and cache statistics, exit non-zero if any
  job failed or timed out.  ``--report-json`` writes the same
  counters+host shape ``python -m repro.workloads`` emits, so runs at
  different pool sizes are directly diffable (CI's ``service-smoke``
  does exactly that).

* **serve** (``--serve``): a long-lived worker pool reading one JSON
  job request per stdin line (``{"kind": ..., "payload": ...,
  "label": ..., "timeout_s": ...}``) and writing one JSON result per
  stdout line.  The pool — and the artifact cache — stay warm across
  requests, which is the repeat-traffic scenario the cache exists for.

``--trace FILE`` streams ``service.job`` / ``service.retry`` /
``service.cache`` events (plus whatever the jobs emit) as JSONL.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.service.job import COMPLETED, JobSpec
from repro.service.pool import DEFAULT_TIMEOUT_S


def _make_obs(trace: Optional[str]):
    if trace is None:
        return None
    from repro.obs import JsonlSink, TraceContext

    return TraceContext(JsonlSink(trace))


def _result_line(jr) -> dict:
    return {
        "label": jr.spec.label,
        "kind": jr.spec.kind,
        "state": jr.state,
        "attempts": jr.attempts,
        "from_cache": jr.from_cache,
        "artifact_sha": jr.artifact_sha,
        "artifact": jr.artifact,
        "extra": jr.extra,
        "error": jr.error.format() if jr.error else None,
        "wall_ms": round(jr.wall_ms, 3),
    }


def _serve(args, obs) -> int:
    """One request line in, one result line out, pool kept warm."""
    from repro.service.cache import ArtifactCache
    from repro.service.pool import JobPool

    cache = ArtifactCache(args.cache, obs=obs) if args.cache else None
    with JobPool(jobs=args.jobs, cache=cache, obs=obs,
                 default_timeout_s=args.timeout) as pool:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
                spec = JobSpec(
                    kind=req["kind"],
                    payload=req.get("payload") or {},
                    label=req.get("label", req["kind"]),
                    timeout_s=req.get("timeout_s"),
                )
            except (ValueError, KeyError) as exc:
                print(json.dumps({"error": f"bad request: {exc}"}),
                      flush=True)
                continue
            (result,) = pool.run([spec])
            print(json.dumps(_result_line(result)), flush=True)
        print(pool.ledger.format(), file=sys.stderr)
    return 0


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
        "benchmark matrix (batch) or serve JSONL job requests from "
        "stdin (--serve) across a worker pool with timeouts, retries "
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
    parser.add_argument("--serve", action="store_true",
                        help="long-lived mode: JSONL requests on stdin")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset for batch mode")
    parser.add_argument("--alias-prob",
                        choices=["profile", "static", "hybrid"],
                        default="profile",
                        help="treatment configuration for batch mode")
    parser.add_argument("--report-json", metavar="FILE", default=None,
                        help="write counters+host JSON (the shape "
                        "python -m repro.workloads emits)")
    parser.add_argument("--ledger-json", metavar="FILE", default=None,
                        help="write the service ledger, cache stats and "
                        "per-job artifact hashes as JSON")
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")

    obs = _make_obs(args.trace)
    try:
        if args.serve:
            return _serve(args, obs)
        return _batch(args, obs)
    finally:
        if obs is not None:
            obs.close()


if __name__ == "__main__":
    sys.exit(main())
