"""Fault-tolerant compilation service.

``repro.service`` turns the one-shot, in-process ``compile_source``
into a job queue that survives hostile conditions: requests fan out
across a pool of forked workers with per-job wall-clock timeouts,
bounded exponential-backoff retries, crash isolation with respawn, a
structured error taxonomy across the process boundary, and a
content-addressed artifact cache whose every read is checksum-verified
(corrupt entries quarantined and recomputed, never served).  A pool of
size 0 runs every job in-process, with the same handlers, retries,
ledger and cache.

Entry points:

* :class:`JobPool` / :class:`JobSpec` — the programmatic API;
* :func:`repro.service.matrix.run_matrix` — the workload matrix, the
  one matrix driver, behind the one matrix CLI (``python -m
  repro.workloads --jobs N --cache DIR``);
* :func:`repro.chaos.campaign.run_campaign` — the chaos campaign, the
  one campaign driver (``python -m repro.chaos --jobs N``);
* :mod:`repro.chaos.service` — the service-level fault campaign.
"""

from repro.service.cache import ArtifactCache, CacheStats, artifact_sha, cache_key
from repro.service.job import (
    COMPLETED,
    FAILED,
    TIMEOUT,
    JobError,
    JobResult,
    JobSpec,
    ServiceError,
    ServiceLedger,
    options_from_dict,
    options_to_dict,
)
from repro.service.pool import JobPool, WorkerHandle
from repro.service.retry import RetryPolicy, RetryState

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "artifact_sha",
    "cache_key",
    "COMPLETED",
    "FAILED",
    "TIMEOUT",
    "JobError",
    "JobResult",
    "JobSpec",
    "JobPool",
    "WorkerHandle",
    "RetryPolicy",
    "RetryState",
    "ServiceError",
    "ServiceLedger",
    "options_from_dict",
    "options_to_dict",
]
