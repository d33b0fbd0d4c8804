"""The workload matrix as a job-pool client — the one matrix driver.

Builds one ``bench`` job per benchmark, runs them through a
:class:`repro.service.pool.JobPool` (in-process at ``jobs=0``, forked
workers otherwise), and reassembles the ``{name: BenchmarkResult}`` map
the figure tables consume from each job's per-mode run records
(:meth:`repro.workloads.runner.BenchmarkResult.from_records`).
Simulated counters are deterministic, so the tables are byte-identical
whatever the pool size; host wall times ride in the job's unhashed
``extra`` and are merged back for display only.

Degradation lives in the pool: once its crash budget is spent it
re-runs the unfinished jobs in-process, so a matrix never fails for
lack of workers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.service.job import COMPLETED, TIMEOUT, JobResult, JobSpec, ServiceLedger
from repro.service.pool import JobPool

#: per-bench wall-clock budget: a full baseline+speculative measurement
#: takes a few seconds on an idle host; 300 s only trips on real hangs.
BENCH_TIMEOUT_S = 300.0

#: serialized error types that mean "interpreter fuel exhausted" — the
#: concrete raised class is ``InterpLimitExceeded``
#: (:class:`repro.errors.InterpTimeout` is its documented catch point,
#: which string matching across the process boundary cannot use).
INTERP_TIMEOUT_TYPES = frozenset({"InterpTimeout", "InterpLimitExceeded"})


def build_matrix_specs(
    benchmarks: Optional[list[str]] = None,
    spec: str = "profile",
    profile_sites: bool = False,
    fuel: Optional[int] = None,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
) -> list[JobSpec]:
    """One ``bench`` job per benchmark (default: all ten, in order)."""
    from repro.workloads.programs import BENCHMARKS

    specs = []
    for name in benchmarks if benchmarks is not None else list(BENCHMARKS):
        payload: dict = {"bench": name, "spec": spec}
        if profile_sites:
            payload["profile_sites"] = True
        if fuel is not None:
            payload["fuel"] = fuel
        if trace_dir is not None:
            payload["trace_dir"] = trace_dir
        specs.append(
            JobSpec(
                kind="bench",
                payload=payload,
                label=f"bench:{name}",
                timeout_s=timeout_s if timeout_s is not None
                else BENCH_TIMEOUT_S,
            )
        )
    return specs


def matrix_results(job_results: list[JobResult]):
    """Split pool results into ``(results, failures)``."""
    from repro.workloads.programs import get_workload
    from repro.workloads.runner import BenchmarkResult, WorkloadFailure

    results: dict = {}
    failures: list[WorkloadFailure] = []
    for jr in job_results:
        name = jr.spec.payload["bench"]
        if jr.state == COMPLETED:
            results[name] = BenchmarkResult.from_records(
                jr.artifact["modes"],
                jr.extra.get("host", {}),
                workload=get_workload(name),
            )
            continue
        err = jr.error  # every failed or timed-out job carries one
        timeout = jr.state == TIMEOUT or err.type in INTERP_TIMEOUT_TYPES
        failures.append(
            WorkloadFailure(
                name, err.type, err.message, loc=err.loc,
                kind="timeout" if timeout else "error",
            )
        )
    return results, failures


@dataclass
class MatrixOutcome:
    """Everything one matrix run produced."""

    results: dict
    failures: list
    job_results: list[JobResult] = field(default_factory=list)
    ledger: Optional[ServiceLedger] = None
    cache_stats: Optional[dict] = None
    #: job labels the pool re-ran in-process after its crash budget
    #: ran out
    degraded: list[str] = field(default_factory=list)

    def print_report(self, report_json: Optional[str] = None) -> int:
        """What both matrix CLIs print: the matrix table on stdout; the
        ledger, cache stats, degraded jobs and failures on stderr.
        ``report_json`` gets the run records (:func:`records_json`).
        Returns the exit status: 1 when any benchmark failed."""
        from repro.workloads.report import matrix_table, records_json

        if self.results:
            print(matrix_table(self.results))
            if report_json:
                with open(report_json, "w", encoding="utf-8") as fh:
                    fh.write(records_json(self.results))
        print(self.ledger.format(), file=sys.stderr)
        if self.cache_stats is not None:
            print(f"cache: {json.dumps(self.cache_stats)}", file=sys.stderr)
        if self.degraded:
            print(
                "service degraded to in-process for: "
                + ", ".join(self.degraded),
                file=sys.stderr,
            )
        for failure in self.failures:
            print(f"FAILED {failure.format()}", file=sys.stderr)
        if not self.failures:
            return 0
        print(
            f"{len(self.failures)} benchmark(s) failed, "
            f"{len(self.results)} succeeded",
            file=sys.stderr,
        )
        return 1


def run_matrix(
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    obs=None,
    benchmarks: Optional[list[str]] = None,
    spec: str = "profile",
    profile_sites: bool = False,
    fuel: Optional[int] = None,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
    pool_kwargs: Optional[dict] = None,
) -> MatrixOutcome:
    """The matrix through a ``jobs``-sized pool (``0``: in-process).

    ``trace_dir`` streams every mode's event trace to
    ``{trace_dir}/{bench}.{mode}.jsonl``; a cache hit would write none,
    so a traced run skips the cache."""
    from repro.service.cache import ArtifactCache

    specs = build_matrix_specs(
        benchmarks, spec, profile_sites, fuel, timeout_s, trace_dir
    )
    cache = (
        ArtifactCache(cache_dir, obs=obs)
        if cache_dir and trace_dir is None else None
    )
    with JobPool(
        jobs=jobs, cache=cache, obs=obs, **(pool_kwargs or {})
    ) as pool:
        job_results = pool.run(specs)
    results, failures = matrix_results(job_results)
    return MatrixOutcome(
        results=results,
        failures=failures,
        job_results=job_results,
        ledger=pool.ledger,
        cache_stats=cache.stats.as_dict() if cache else None,
        degraded=pool.degraded,
    )
