"""Service-level chaos: prove the job pool's fault tolerance has teeth.

The compiler-level campaign (:mod:`repro.chaos.campaign`) attacks the
*speculation* recovery contract; this module attacks the *service*
recovery contract with the same logic: every fault the harness injects
is one the pool already claims to survive, so any observable difference
from a fault-free run is a service bug.

Fault kinds (:class:`ServiceFaultPlan`):

``kill``     SIGKILL a random busy worker mid-job (crash isolation:
             the in-flight job must requeue and a fresh worker spawn);
``hang``     make a job's first attempt sleep past its wall-clock
             budget (the deadline scan must SIGKILL the worker and the
             retry must complete cleanly);
``corrupt``  flip a byte inside stored cache entries between runs (the
             checksum-verified read must quarantine and recompute, and
             must never serve the corrupted artifact).

:func:`run_service_self_test` runs the real workload matrix through a
pool under all three faults and audits the full contract:

1. every job still completes (``failed == timed_out == 0`` terminally —
   injected hangs are retried, not surfaced);
2. the ledger balances: ``submitted == completed + failed + timed_out``;
3. every artifact hash is **byte-identical** to the same jobs run on
   the in-process pool (``JobPool(jobs=0)``, the oracle);
4. after corrupting K entries, the warm run quarantines exactly K,
   recomputes them to the same hashes, and serves the rest from cache;
5. a final clean warm run serves 100% of jobs from the verified cache,
   every hit's hash matching the artifact a prior miss stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ReproError


class ChaosServiceError(ReproError):
    """The service violated its fault-tolerance contract."""


@dataclass(frozen=True)
class ServiceFaultPlan:
    """One reproducible service-fault schedule."""

    seed: int = 0
    #: busy workers to SIGKILL over the cold run
    kills: int = 2
    #: per-event-loop-tick probability of performing a pending kill
    kill_rate: float = 0.25
    #: jobs whose first attempt is made to hang past its deadline
    hangs: int = 2
    #: injected sleep (must exceed ``hang_timeout_s``)
    hang_ms: int = 15000
    #: clamped wall-clock budget for hang-victim jobs — long enough
    #: that an honest retry attempt always fits, short enough that the
    #: deadline scan fires well inside the injected sleep
    hang_timeout_s: float = 10.0
    #: cache entries to byte-flip between the cold and warm runs
    corrupt: int = 3

    def describe(self) -> str:
        return (
            f"service(kills={self.kills}, hangs={self.hangs}, "
            f"corrupt={self.corrupt}; seed={self.seed})"
        )


class ServiceFaultDriver:
    """The pool ``fault_hook``: executes one plan against a live drain.

    Hang victims are chosen up front by label; their pending first
    attempts get the artificial sleep.  Kills fire at random event-loop
    ticks against whichever worker happens to be busy — the harness
    deliberately does not aim, because crash isolation must hold for
    any victim.
    """

    def __init__(self, plan: ServiceFaultPlan,
                 hang_victims: dict[str, int]) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: ``{job label: sleep ms}`` — per-victim, because the sleep
        #: must exceed that job's (possibly scaled) wall-clock budget
        self.hang_victims = hang_victims
        self.kills_done = 0
        self.hangs_injected = 0

    def __call__(self, pool) -> None:
        for _, _, job in pool._pending:
            hang_ms = self.hang_victims.get(job.spec.label, 0)
            if hang_ms and job.retry.attempts == 0 and not job.hang_ms:
                job.hang_ms = hang_ms
                self.hangs_injected += 1
        if (self.kills_done < self.plan.kills
                and self.rng.random() < self.plan.kill_rate):
            if pool.kill_random_busy_worker(self.rng):
                self.kills_done += 1


def corrupt_cache_entries(cache_root: str, count: int,
                          rng: random.Random) -> list[str]:
    """Flip one byte inside the artifact region of ``count`` stored
    entries; returns the corrupted keys."""
    root = Path(cache_root)
    entries = sorted(
        p for p in root.glob("??/*.json") if p.parent.name != "quarantine"
    )
    victims = rng.sample(entries, min(count, len(entries)))
    corrupted = []
    for path in victims:
        data = bytearray(path.read_bytes())
        # Aim inside the artifact value so the defect is always a
        # quarantine (checksum/parse), never a quiet stale-version miss.
        anchor = bytes(data).find(b'"artifact"')
        at = (anchor + 12) if anchor >= 0 else len(data) // 2
        at = min(at + rng.randrange(16), len(data) - 2)
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        corrupted.append(path.stem)
    return corrupted


@dataclass
class ServiceChaosReport:
    """Everything the self-test measured, for the CLI to print."""

    plan: ServiceFaultPlan
    benchmarks: list[str] = field(default_factory=list)
    kills_performed: int = 0
    hangs_injected: int = 0
    corrupted: int = 0
    quarantined: int = 0
    cold_ledger: Optional[dict] = None
    recovery_ledger: Optional[dict] = None
    warm_ledger: Optional[dict] = None
    reference_shas: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "plan": self.plan.describe(),
            "benchmarks": self.benchmarks,
            "kills_performed": self.kills_performed,
            "hangs_injected": self.hangs_injected,
            "corrupted": self.corrupted,
            "quarantined": self.quarantined,
            "cold_ledger": self.cold_ledger,
            "recovery_ledger": self.recovery_ledger,
            "warm_ledger": self.warm_ledger,
            "reference_shas": dict(sorted(self.reference_shas.items())),
        }

    def summary(self) -> str:
        lines = [
            f"service chaos: {self.plan.describe()} over "
            f"{len(self.benchmarks)} benchmark(s)",
            f"  kills={self.kills_performed} hangs={self.hangs_injected} "
            f"corrupted={self.corrupted} quarantined={self.quarantined}",
        ]
        for label, ledger in (("cold", self.cold_ledger),
                              ("recovery", self.recovery_ledger),
                              ("warm", self.warm_ledger)):
            if ledger:
                lines.append(
                    f"  {label}: completed={ledger['completed']}"
                    f"/{ledger['submitted']} retries={ledger['retries']} "
                    f"cache={ledger['cache_hits']}"
                    f"/{ledger['cache_hits'] + ledger['cache_misses']}"
                )
        lines.append(
            "  all artifacts byte-identical to the in-process pool"
        )
        return "\n".join(lines)


def _in_process_reference(specs) -> tuple[dict[str, str], dict[str, float]]:
    """Oracle: the same jobs on the in-process pool, fault-free.
    Returns ``({label: artifact sha}, {label: wall seconds})`` — the
    timings calibrate hang-victim deadlines so an honest retry always
    fits its budget even on a loaded host."""
    from repro.service.pool import JobPool

    with JobPool(jobs=0) as pool:
        results = pool.run(specs)
    for jr in results:
        if not jr.ok:
            raise ChaosServiceError(
                f"reference: {jr.spec.label} {jr.state}: "
                + (jr.error.format() if jr.error else "no result")
            )
    return (
        {jr.spec.label: jr.artifact_sha for jr in results},
        {jr.spec.label: jr.wall_ms / 1e3 for jr in results},
    )


def run_service_self_test(
    jobs: int = 2,
    benchmarks: Optional[list[str]] = None,
    plan: Optional[ServiceFaultPlan] = None,
    cache_dir: Optional[str] = None,
    obs=None,
) -> ServiceChaosReport:
    """The full service chaos sequence; raises
    :class:`ChaosServiceError` on any contract violation."""
    import tempfile

    from repro.service.cache import ArtifactCache
    from repro.service.job import ServiceLedger
    from repro.service.matrix import build_matrix_specs
    from repro.service.pool import JobPool
    from repro.service.retry import RetryPolicy

    plan = plan or ServiceFaultPlan()
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-service-chaos-")
    rng = random.Random(plan.seed)
    report = ServiceChaosReport(plan=plan)

    def fresh_specs():
        return build_matrix_specs(benchmarks)

    specs = fresh_specs()
    report.benchmarks = [s.payload["bench"] for s in specs]
    victim_labels = [
        s.label for s in rng.sample(specs, min(plan.hangs, len(specs)))
    ]

    reference, walls = _in_process_reference(specs)
    report.reference_shas = reference

    # Per-victim deadline: generous against its own honest runtime (a
    # contended retry must fit), tight against the injected sleep.
    hang_victims: dict[str, int] = {}
    for spec in specs:
        if spec.label in victim_labels:
            budget = max(plan.hang_timeout_s, 6.0 * walls[spec.label])
            spec.timeout_s = budget
            hang_victims[spec.label] = max(
                plan.hang_ms, int(budget * 1500)
            )

    def check(label: str, ledger: ServiceLedger, results) -> None:
        if not ledger.balanced():
            raise ChaosServiceError(
                f"{label}: ledger out of balance: {ledger.format()}"
            )
        if ledger.failed or ledger.timed_out:
            raise ChaosServiceError(
                f"{label}: injected faults surfaced as terminal "
                f"failures: {ledger.format()}"
            )
        for jr in results:
            if jr.artifact_sha != reference[jr.spec.label]:
                raise ChaosServiceError(
                    f"{label}: {jr.spec.label} artifact hash "
                    f"{jr.artifact_sha} != in-process reference "
                    f"{reference[jr.spec.label]} — the service served a "
                    "wrong answer"
                )

    # -- cold run under kills + hangs -----------------------------------
    driver = ServiceFaultDriver(plan, hang_victims)
    cache = ArtifactCache(cache_dir, obs=obs)
    # Timeouts must be retryable or injected hangs would go terminal.
    policy = RetryPolicy(retry_timeouts=True)
    with JobPool(jobs=jobs, cache=cache, obs=obs, retry_policy=policy,
                 crash_budget=plan.kills + 4, rng=random.Random(plan.seed),
                 fault_hook=driver) as pool:
        cold = pool.run(specs)
        check("cold", pool.ledger, cold)
        if pool.ledger.worker_crashes < driver.kills_done:
            raise ChaosServiceError(
                f"cold: {driver.kills_done} kill(s) performed but only "
                f"{pool.ledger.worker_crashes} crash(es) accounted"
            )
        if hang_victims and not pool.ledger.timeout_attempts:
            raise ChaosServiceError(
                "cold: hangs injected but no attempt ever hit its "
                "deadline — the timeout path never ran"
            )
        report.kills_performed = driver.kills_done
        report.hangs_injected = driver.hangs_injected
        report.cold_ledger = pool.ledger.as_dict()
        misses_stored = {
            jr.spec.cache_key: jr.artifact_sha
            for jr in cold if not jr.from_cache
        }

    # -- corrupt K entries, then recover --------------------------------
    corrupted = corrupt_cache_entries(cache_dir, plan.corrupt, rng)
    report.corrupted = len(corrupted)
    cache = ArtifactCache(cache_dir, obs=obs)
    with JobPool(jobs=jobs, cache=cache, obs=obs) as pool:
        recovery = pool.run(fresh_specs())
        check("recovery", pool.ledger, recovery)
        if cache.stats.quarantined != len(corrupted):
            raise ChaosServiceError(
                f"recovery: corrupted {len(corrupted)} entries but "
                f"quarantined {cache.stats.quarantined} — a corrupt "
                "entry was served or lost"
            )
        expected_hits = len(recovery) - len(corrupted)
        if pool.ledger.cache_hits != expected_hits:
            raise ChaosServiceError(
                f"recovery: expected {expected_hits} cache hits, got "
                f"{pool.ledger.cache_hits}"
            )
        report.quarantined = cache.stats.quarantined
        report.recovery_ledger = pool.ledger.as_dict()
        misses_stored.update({
            jr.spec.cache_key: jr.artifact_sha
            for jr in recovery if not jr.from_cache
        })

    # -- clean warm run: 100% verified hits -----------------------------
    cache = ArtifactCache(cache_dir, obs=obs)
    with JobPool(jobs=jobs, cache=cache, obs=obs) as pool:
        warm = pool.run(fresh_specs())
        check("warm", pool.ledger, warm)
        if pool.ledger.cache_hits != len(warm) or pool.ledger.cache_misses:
            raise ChaosServiceError(
                f"warm: expected 100% cache hits, got "
                f"{pool.ledger.cache_hits}/{len(warm)}"
            )
        for jr in warm:
            if misses_stored.get(jr.spec.cache_key) != jr.artifact_sha:
                raise ChaosServiceError(
                    f"warm: {jr.spec.label} hit hash {jr.artifact_sha} "
                    "does not match the artifact a prior miss stored"
                )
        report.warm_ledger = pool.ledger.as_dict()

    return report
