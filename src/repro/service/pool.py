"""The fault-tolerant job pool: dispatch, deadlines, retries, respawn.

One single-threaded coordinator owns N forked workers, each behind its
own :class:`multiprocessing.Pipe` (never a shared queue: a worker
SIGKILLed mid-write can only corrupt *its own* pipe, which the parent
observes as ``EOFError`` — crash detection and crash isolation are the
same mechanism).  The event loop is:

1. serve due jobs from the verified artifact cache (parent-side, so a
   hit never occupies a worker);
2. dispatch ready jobs to idle workers, arming a per-job wall-clock
   deadline;
3. block in :func:`multiprocessing.connection.wait` on the busy pipes —
   but never past the next deadline or backoff-retry due time;
4. harvest responses; on pipe EOF the worker is dead: requeue its job
   (charged to the crash budget) and respawn; on deadline the worker is
   SIGKILLed first (after a last poll, so a just-delivered result is
   never discarded) and the attempt counts as a timeout.

Failure routing: a **permanent** error (``transient=False`` — the
source/speclint/config taxonomy) goes terminal ``failed`` immediately;
a transient error or a timeout consumes one attempt from the
:class:`~repro.service.retry.RetryPolicy` budget and is rescheduled
with exponential backoff + jitter; a worker crash requeues the job
without consuming its retry budget (the job did nothing wrong) but
spends the pool-wide ``crash_budget`` — when that is exhausted the pool
stops forking and re-runs its unfinished jobs in-process.

``JobPool(jobs=0)`` is the in-process pool: each job runs inline through
:func:`~repro.service.workers.execute_request`, with the same handlers,
retry routing, ledger and cache as the forked pool.  It cannot enforce
``timeout_s`` (nothing can stop an inline job); interpreter fuel and
the simulator's ``max_instructions`` already stop runaway jobs.  This
is the only place that chooses between running in-process and forking.

The ledger invariant (``submitted == completed + failed + timed_out``)
holds at :meth:`JobPool.drain` return by construction: every job leaves
the loop through exactly one of the three terminal transitions.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import random
import time
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Optional

from repro.service.cache import ArtifactCache, artifact_sha, cache_key
from repro.service.job import (
    COMPLETED,
    FAILED,
    TIMEOUT,
    JobError,
    JobResult,
    JobSpec,
    ServiceError,
    ServiceLedger,
)
from repro.service.retry import RetryPolicy, RetryState
from repro.service.workers import CACHEABLE_KINDS, execute_request, worker_main

#: default per-job wall-clock budget.  Generous: the host may be a
#: loaded single-core box where a full bench job takes tens of seconds;
#: the timeout exists to catch *hangs*, not slow honest work.
DEFAULT_TIMEOUT_S = 300.0

#: worker crashes tolerated before the pool stops forking and runs the
#: rest of its jobs in-process
DEFAULT_CRASH_BUDGET = 8


class _Job:
    """Coordinator-side state for one submitted job."""

    __slots__ = ("job_id", "spec", "retry", "ready_at", "start", "hang_ms",
                 "crashes", "cache_checked")

    def __init__(self, job_id: int, spec: JobSpec, retry: RetryState) -> None:
        self.job_id = job_id
        self.spec = spec
        self.retry = retry
        self.ready_at = 0.0
        self.start = 0.0
        #: chaos: artificial hang injected into the *next* attempt only
        self.hang_ms = 0
        #: workers that died while running this job (a job that kills
        #: every worker it touches goes terminal instead of draining
        #: the pool-wide crash budget)
        self.crashes = 0
        #: cache already consulted for the current attempt — a job
        #: parked because every worker is busy must not be re-probed
        #: (and re-counted as a miss) on every drain tick
        self.cache_checked = False


class WorkerHandle:
    """One forked worker and its private pipe."""

    def __init__(self, worker_id: int, ctx) -> None:
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id),
            daemon=True,
            name=f"repro-service-worker-{worker_id}",
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.job: Optional[_Job] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.job is not None

    def kill(self) -> None:
        """SIGKILL, reap, and close the pipe (idempotent)."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Polite shutdown: ask first, escalate to SIGKILL."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2.0)
        self.kill()


class JobPool:
    """N workers (none at ``jobs=0``) + retry scheduler + artifact
    cache, one drain at a time.

    ``fault_hook``, when set, is called once per event-loop iteration
    with the pool itself — the chaos harness uses it to SIGKILL random
    busy workers and schedule artificial hangs while a real campaign is
    in flight.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache: Optional[ArtifactCache] = None,
        retry_policy: Optional[RetryPolicy] = None,
        default_timeout_s: float = DEFAULT_TIMEOUT_S,
        crash_budget: int = DEFAULT_CRASH_BUDGET,
        obs=None,
        rng: Optional[random.Random] = None,
        fault_hook: Optional[Callable[["JobPool"], None]] = None,
    ) -> None:
        if jobs < 0:
            raise ServiceError(f"pool size must be >= 0, got {jobs}")
        self.n_workers = jobs
        self.cache = cache
        self.retry_policy = retry_policy or RetryPolicy()
        self.default_timeout_s = default_timeout_s
        self.crash_budget = crash_budget
        self.obs = obs
        self.rng = rng or random.Random(0)
        self.fault_hook = fault_hook
        self.ledger = ServiceLedger()
        self.results: dict[int, JobResult] = {}
        self._ids = itertools.count(1)
        self._order: list[int] = []
        #: (ready_at, job_id, _Job) min-heap of jobs awaiting dispatch
        self._pending: list[tuple[float, int, _Job]] = []
        self._ctx = multiprocessing.get_context("fork")
        self.workers: list[WorkerHandle] = []
        #: labels of the jobs re-run in-process once the crash budget
        #: ran out
        self.degraded: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        while len(self.workers) < self.n_workers:
            self.workers.append(WorkerHandle(len(self.workers), self._ctx))

    def close(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    def __enter__(self) -> "JobPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Queue one job; returns its id (results keyed by it)."""
        job_id = next(self._ids)
        if spec.cache_key is None and spec.kind in CACHEABLE_KINDS:
            spec.cache_key = cache_key(spec.kind, spec.payload)
        job = _Job(job_id, spec, RetryState(self.retry_policy, self.rng))
        self.ledger.submitted += 1
        self._order.append(job_id)
        heapq.heappush(self._pending, (0.0, job_id, job))
        return job_id

    def run(self, specs: list[JobSpec]) -> list[JobResult]:
        """Submit + drain; results in submission order."""
        ids = [self.submit(spec) for spec in specs]
        self.drain()
        return [self.results[i] for i in ids]

    # -- terminal transitions (the only ways out of the loop) -----------

    def _finish(self, job: _Job, result: JobResult) -> None:
        self.results[job.job_id] = result
        if result.state == COMPLETED:
            self.ledger.completed += 1
        elif result.state == FAILED:
            self.ledger.failed += 1
        else:
            self.ledger.timed_out += 1
        if self.obs is not None:
            self.obs.event(
                "service.job",
                job=job.spec.label,
                kind=job.spec.kind,
                state=result.state,
                attempts=result.attempts,
                from_cache=result.from_cache,
                wall_ms=round(result.wall_ms, 3),
                sha=result.artifact_sha,
            )

    def _reschedule(self, job: _Job, now: float, reason: str,
                    ready_at: float) -> None:
        self.ledger.retries += 1
        job.ready_at = ready_at
        # Retried attempts re-check the cache: a sibling job with the
        # same key may have completed while this one was backing off.
        job.cache_checked = False
        if self.obs is not None:
            self.obs.event(
                "service.retry",
                job=job.spec.label,
                reason=reason,
                attempt=job.retry.attempts,
                delay_ms=round(max(0.0, ready_at - now) * 1e3, 1),
            )
        heapq.heappush(self._pending, (ready_at, job.job_id, job))

    # -- dispatch -------------------------------------------------------

    def _serve_from_cache(self, job: _Job) -> bool:
        if self.cache is None or job.spec.cache_key is None:
            return False
        if job.cache_checked:
            return False
        job.cache_checked = True
        artifact = self.cache.get(job.spec.cache_key)
        if artifact is None:
            self.ledger.cache_misses += 1
            return False
        self.ledger.cache_hits += 1
        self._finish(
            job,
            JobResult(
                spec=job.spec,
                state=COMPLETED,
                artifact=artifact,
                artifact_sha=artifact_sha(artifact),
                attempts=job.retry.attempts,
                from_cache=True,
            ),
        )
        return True

    def _request(self, job: _Job) -> dict:
        """The request for the job's next attempt."""
        job.retry.attempts += 1
        request = {
            "job_id": job.job_id,
            "kind": job.spec.kind,
            "payload": job.spec.payload,
            "attempt": job.retry.attempts,
        }
        if job.hang_ms:
            request["inject_hang_ms"] = job.hang_ms
            job.hang_ms = 0
        return request

    def _dispatch(self, job: _Job, worker: WorkerHandle, now: float) -> None:
        job.start = now
        try:
            worker.conn.send(self._request(job))
        except (BrokenPipeError, OSError):
            # Worker died between harvests; treat like a crash mid-job.
            job.retry.attempts -= 1
            self._worker_died(worker, now)
            heapq.heappush(self._pending, (now, job.job_id, job))
            return
        timeout = job.spec.timeout_s or self.default_timeout_s
        worker.job = job
        worker.deadline = now + timeout

    def _run_inline(self, job: _Job) -> None:
        """One attempt in this process: the worker's request and
        response, without the deadline (and without its injected hang)."""
        job.start = time.monotonic()
        response = execute_request(self._request(job), -1)
        self._handle_response(job, response, time.monotonic())

    # -- failure paths --------------------------------------------------

    def _respawn(self, worker: WorkerHandle) -> None:
        self.ledger.workers_respawned += 1
        idx = self.workers.index(worker)
        self.workers[idx] = WorkerHandle(worker.worker_id, self._ctx)

    def _worker_died(self, worker: WorkerHandle, now: float) -> None:
        """Crash isolation: requeue the in-flight job (no retry-budget
        charge — the job did nothing wrong), respawn, spend the crash
        budget."""
        self.ledger.worker_crashes += 1
        job = worker.job
        worker.job = None
        worker.kill()
        if not self._crash_budget_spent():
            self._respawn(worker)
        if job is not None:
            job.retry.attempts -= 1  # the attempt never concluded
            job.crashes += 1
            if job.crashes >= self.retry_policy.max_attempts:
                # Poisonous job: it has killed as many workers as the
                # retry budget allows attempts — stop feeding it.
                self._finish(
                    job,
                    JobResult(
                        spec=job.spec,
                        state=FAILED,
                        error=JobError(
                            type="WorkerCrashed",
                            message=(
                                f"worker died on {job.crashes} "
                                "consecutive attempts"
                            ),
                            transient=True,
                        ),
                        attempts=job.retry.attempts,
                    ),
                )
            else:
                self._reschedule(job, now, "worker-crash", now)

    def _crash_budget_spent(self) -> bool:
        return self.ledger.worker_crashes > self.crash_budget

    def _stop_forking(self, now: float) -> None:
        """The crash budget is spent: requeue the jobs still in flight
        (their attempts never concluded), stop every worker, and run
        whatever is left in-process from here on."""
        for worker in self.workers:
            job = worker.job
            if job is not None:
                worker.job = None
                job.retry.attempts -= 1
                heapq.heappush(self._pending, (now, job.job_id, job))
            worker.kill()
        self.workers.clear()
        self.n_workers = 0
        self.degraded = [job.spec.label for _, _, job in sorted(self._pending)]

    def _attempt_timed_out(self, worker: WorkerHandle, now: float) -> None:
        """Deadline hit: SIGKILL the worker (the only safe way to stop a
        wedged fork), then route the job through the retry policy."""
        job = worker.job
        worker.job = None
        self.ledger.timeout_attempts += 1
        worker.kill()
        self._respawn(worker)
        job.retry.attempts -= 1  # record_failure re-counts this attempt
        next_at = job.retry.record_failure(now, timeout=True)
        if next_at is None:
            self._finish(
                job,
                JobResult(
                    spec=job.spec,
                    state=TIMEOUT,
                    error=JobError(
                        type="Timeout",
                        message=(
                            f"attempt exceeded "
                            f"{job.spec.timeout_s or self.default_timeout_s:g}s "
                            f"wall-clock budget"
                        ),
                        transient=True,
                    ),
                    attempts=job.retry.attempts,
                    wall_ms=(now - job.start) * 1e3,
                ),
            )
        else:
            self._reschedule(job, now, "timeout", next_at)

    def _harvest(self, worker: WorkerHandle, response: dict,
                 now: float) -> None:
        job = worker.job
        worker.job = None
        worker.deadline = None
        if job is None or response.get("job_id") != job.job_id:
            raise ServiceError(
                "protocol violation: response for job "
                f"{response.get('job_id')} from worker {worker.worker_id} "
                f"which was running {job.job_id if job else 'nothing'}"
            )
        self._handle_response(job, response, now)

    def _handle_response(self, job: _Job, response: dict, now: float) -> None:
        wall_ms = response.get("wall_ms", 0.0)
        if response["ok"]:
            artifact = response["artifact"]
            sha = None
            if self.cache is not None and job.spec.cache_key is not None:
                sha = self.cache.put(job.spec.cache_key, artifact)
            self._finish(
                job,
                JobResult(
                    spec=job.spec,
                    state=COMPLETED,
                    artifact=artifact,
                    artifact_sha=sha or artifact_sha(artifact),
                    extra=response.get("extra") or {},
                    attempts=job.retry.attempts,
                    wall_ms=wall_ms,
                ),
            )
            return
        error = JobError.from_dict(response["error"])
        job.retry.attempts -= 1  # record_failure re-counts this attempt
        if not error.transient:
            job.retry.attempts += 1
            self._finish(
                job,
                JobResult(
                    spec=job.spec, state=FAILED, error=error,
                    attempts=job.retry.attempts, wall_ms=wall_ms,
                ),
            )
            return
        next_at = job.retry.record_failure(now)
        if next_at is None:
            self._finish(
                job,
                JobResult(
                    spec=job.spec, state=FAILED, error=error,
                    attempts=job.retry.attempts, wall_ms=wall_ms,
                ),
            )
        else:
            self._reschedule(job, now, "transient", next_at)

    # -- the event loop -------------------------------------------------

    def drain(self) -> None:
        """Run until every submitted job is terminal."""
        self.start()
        while self._pending or any(w.busy for w in self.workers):
            now = time.monotonic()
            if self.workers and self._crash_budget_spent():
                self._stop_forking(now)
            if self.fault_hook is not None:
                self.fault_hook(self)

            # 1 + 2: serve cache hits, dispatch due jobs to idle workers
            # (or, without workers, run the first one inline).
            idle = [w for w in self.workers if not w.busy]
            while self._pending and self._pending[0][0] <= now:
                _, _, job = heapq.heappop(self._pending)
                if self._serve_from_cache(job):
                    continue
                if not self.workers:
                    self._run_inline(job)
                    break
                if idle:
                    self._dispatch(job, idle.pop(), now)
                else:
                    # Due but no worker free: put it back, keep order.
                    heapq.heappush(
                        self._pending, (job.ready_at, job.job_id, job)
                    )
                    break

            busy = [w for w in self.workers if w.busy]
            if not busy:
                if not self._pending:
                    break
                # Nothing in flight: sleep until the first job is due
                # (bounded, so chaos hooks keep firing).
                delay = self._pending[0][0] - time.monotonic()
                if delay > 0:
                    time.sleep(min(0.05, delay))
                continue

            # 3: block on the busy pipes, bounded by deadlines — and by
            # the next backoff due time only when a worker could take
            # the job (all-busy must not busy-spin on an overdue queue).
            wakeups = [w.deadline for w in busy if w.deadline is not None]
            if self._pending and len(busy) < len(self.workers):
                wakeups.append(self._pending[0][0])
            wait_s = max(0.001, min(wakeups) - now) if wakeups else 0.05
            ready = conn_wait([w.conn for w in busy], timeout=min(wait_s, 0.25))

            # 4: harvest, then scan deadlines.
            now = time.monotonic()
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                try:
                    response = conn.recv()
                except (EOFError, OSError):
                    self._worker_died(worker, now)
                    continue
                self._harvest(worker, response, now)
            for worker in self.workers:
                if worker.busy and worker.deadline is not None \
                        and now >= worker.deadline:
                    # One last poll: a result delivered at the wire in
                    # the same tick beats the axe.
                    try:
                        if worker.conn.poll(0):
                            self._harvest(worker, worker.conn.recv(), now)
                            continue
                    except (EOFError, OSError):
                        self._worker_died(worker, now)
                        continue
                    self._attempt_timed_out(worker, now)

        assert self.ledger.balanced(), (
            "service ledger out of balance: " + self.ledger.format()
        )

    # -- chaos hooks ----------------------------------------------------

    def kill_random_busy_worker(self, rng: random.Random) -> bool:
        """SIGKILL one busy worker (the chaos 'kill' fault).  The next
        harvest sees EOF and routes through :meth:`_worker_died`."""
        busy = [w for w in self.workers if w.busy and w.proc.is_alive()]
        if not busy:
            return False
        rng.choice(busy).proc.kill()
        return True

    def inject_hang_on_pending(self, rng: random.Random,
                               hang_ms: int) -> bool:
        """Mark one not-yet-dispatched job so its next attempt hangs
        (the chaos 'hang' fault — exercises the deadline/SIGKILL path
        when the job's timeout is shorter than the hang)."""
        fresh = [j for _, _, j in self._pending
                 if j.retry.attempts == 0 and not j.hang_ms]
        if not fresh:
            return False
        rng.choice(fresh).hang_ms = hang_ms
        return True
