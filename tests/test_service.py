"""repro.service: retry schedule, artifact cache, pool fault tolerance.

The retry/backoff tests run against a fake clock and a seeded RNG (no
sleeps); the pool tests use ``probe`` jobs — deterministic
misbehaviour on demand (taxonomy errors, hangs, worker suicide) — and
a compile job whose guest divides by zero, so every failure-routing
path is exercised with real forked processes in well under a second
each, and on the in-process pool (``jobs=0``) where a path does not
need a process.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.service import (
    COMPLETED,
    FAILED,
    TIMEOUT,
    ArtifactCache,
    JobPool,
    JobSpec,
    RetryPolicy,
    RetryState,
    ServiceError,
    artifact_sha,
    cache_key,
    options_from_dict,
    options_to_dict,
)

# -- retry schedule (fake clock, seeded RNG) ----------------------------


def test_backoff_sequence_without_jitter():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, factor=2.0, max_delay=0.5,
        jitter=0.0,
    )
    rng = random.Random(0)
    delays = [policy.backoff(k, rng) for k in (1, 2, 3, 4)]
    assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5])  # capped at max


def test_backoff_jitter_stays_within_bounds():
    policy = RetryPolicy(base_delay=1.0, factor=1.0, jitter=0.1)
    rng = random.Random(42)
    delays = [policy.backoff(1, rng) for _ in range(200)]
    assert all(0.9 <= d <= 1.1 for d in delays)
    # ... and actually spreads (no lockstep retries)
    assert max(delays) > 1.05
    assert min(delays) < 0.95


def test_retry_state_attempt_times_and_give_up():
    policy = RetryPolicy(
        max_attempts=3, base_delay=0.1, factor=2.0, jitter=0.0
    )
    state = RetryState(policy, random.Random(0))
    t1 = state.record_failure(100.0)
    assert t1 == pytest.approx(100.1)
    assert state.attempts == 1 and not state.exhausted
    t2 = state.record_failure(t1)
    assert t2 == pytest.approx(100.1 + 0.2)
    # Third failed execution exhausts a 3-attempt budget.
    assert state.record_failure(t2) is None
    assert state.exhausted


def test_timeout_terminal_when_policy_says_so():
    state = RetryState(
        RetryPolicy(max_attempts=3, retry_timeouts=False), random.Random(0)
    )
    assert state.record_failure(0.0, timeout=True) is None
    state = RetryState(
        RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        random.Random(0),
    )
    assert state.record_failure(7.0, timeout=True) == pytest.approx(7.0)


# -- artifact cache ------------------------------------------------------

ART = {"counters": {"cpu_cycles": 123}, "output": ["5"], "exit_value": 4}


def test_cache_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache_key("probe", {"x": 1})
    assert cache.get(key) is None
    sha = cache.put(key, ART)
    assert cache.get(key) == ART
    assert sha == artifact_sha(ART)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_cache_corrupt_entry_quarantined_then_recomputed(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache_key("probe", {"x": 2})
    cache.put(key, ART)
    path = cache.entry_path(key)
    raw = path.read_bytes()
    i = raw.index(b'"artifact"') + 12
    path.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:])
    # The defect is never served: quarantined and reported as a miss.
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1
    assert not path.exists()
    assert list(cache.quarantine_dir.iterdir())
    # Recompute-and-store makes the key serviceable again.
    cache.put(key, ART)
    assert cache.get(key) == ART


def test_cache_stale_pipeline_version_deleted_quietly(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache_key("probe", {"x": 3})
    cache.put(key, ART)
    path = cache.entry_path(key)
    entry = json.loads(path.read_text())
    entry["pipeline_version"] = "pre-history"
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.stats.stale == 1
    assert cache.stats.quarantined == 0  # staleness is not corruption
    assert not path.exists()


def test_pipeline_version_follows_the_code(tmp_path):
    """Cache keys carry a hash of the package's code, so a one-byte
    edit anywhere in it changes them."""
    import shutil

    from repro.service.cache import PACKAGE_ROOT, code_version, pipeline_version

    tree = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert code_version(tree) == pipeline_version()
    target = tree / "workloads" / "programs.py"
    data = target.read_bytes()
    target.write_bytes(data.replace(b"420", b"421", 1))
    assert code_version(tree) != pipeline_version()


def test_cache_entry_under_wrong_key_quarantined(tmp_path):
    cache = ArtifactCache(tmp_path)
    key_a = cache_key("probe", {"x": 4})
    key_b = cache_key("probe", {"x": 5})
    cache.put(key_a, ART)
    dest = cache.entry_path(key_b)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_bytes(cache.entry_path(key_a).read_bytes())
    assert cache.get(key_b) is None
    assert cache.stats.quarantined == 1


def test_cache_key_ignores_volatile_payload_keys():
    base = cache_key("bench", {"bench": "gzip"})
    assert cache_key("bench", {"bench": "gzip", "trace_dir": "/tmp/t"}) == base
    assert cache_key("bench", {"bench": "vpr"}) != base
    assert cache_key("compile", {"bench": "gzip"}) != base


# -- options serialisation ----------------------------------------------


def test_options_round_trip_preserves_identity():
    from repro.workloads.runner import SPECULATIVE

    opts = SPECULATIVE()
    d = options_to_dict(opts)
    back = options_from_dict(d)
    assert options_to_dict(back) == d
    assert back.describe() == opts.describe()


def test_options_unknown_key_rejected():
    with pytest.raises(ServiceError):
        options_from_dict({"no_such_option": 1})


# -- the pool under misbehaving jobs ------------------------------------


def probe(label: str, timeout_s: float = 30.0, **payload) -> JobSpec:
    return JobSpec(
        kind="probe", payload=payload, label=label, timeout_s=timeout_s
    )


#: a guest that divides by zero: the profile-training run raises
#: ``InterpError`` on every attempt
DIVIDES_BY_ZERO = """
int g;
int main(int n) {
    g = 10 / n;
    print(g);
    return 0;
}
"""


def guest_error_spec() -> JobSpec:
    from repro import CompilerOptions, OptLevel, SpecMode

    return JobSpec(
        kind="compile",
        payload={
            "source": DIVIDES_BY_ZERO,
            "options": options_to_dict(CompilerOptions(
                opt_level=OptLevel.O3, spec_mode=SpecMode.PROFILE,
            )),
            "args": [0],
            "train_args": [0],
            "name": "div0",
        },
        label="compile:div0",
    )


def test_pool_routes_every_outcome_and_balances_ledger():
    policy = RetryPolicy(
        max_attempts=3, base_delay=0.01, jitter=0.0, retry_timeouts=False
    )
    with JobPool(jobs=2, retry_policy=policy, crash_budget=8) as pool:
        ids = {
            "ok": pool.submit(probe("ok", value=7)),
            "guest": pool.submit(guest_error_spec()),
            "permanent": pool.submit(probe("permanent", error="source")),
            "crash": pool.submit(probe("crash", die=True)),
            "hang": pool.submit(
                probe("hang", hang_ms=60000, timeout_s=0.3)
            ),
        }
        pool.drain()
    res = pool.results

    ok = res[ids["ok"]]
    assert ok.state == COMPLETED and ok.artifact == {"value": 7}
    assert ok.attempts == 1 and not ok.from_cache

    guest = res[ids["guest"]]  # deterministic: never retried
    assert guest.state == FAILED and guest.attempts == 1
    assert guest.error.type == "InterpError"

    perm = res[ids["permanent"]]
    assert perm.state == FAILED and perm.attempts == 1  # never retried
    assert perm.error.type == "SourceError"
    assert perm.error.loc  # taxonomy location survives the pipe

    crash = res[ids["crash"]]
    assert crash.state == FAILED
    assert crash.error.type == "WorkerCrashed"

    hang = res[ids["hang"]]
    assert hang.state == TIMEOUT
    assert hang.error.type == "Timeout"

    led = pool.ledger
    assert led.balanced()
    assert led.submitted == 5
    assert led.completed == 1 and led.failed == 3 and led.timed_out == 1
    assert led.worker_crashes >= 3  # the crasher burns its attempts
    assert led.workers_respawned >= 3
    assert led.retries == led.worker_crashes - 1  # only crash requeues


def test_pool_never_retries_a_guest_error_on_workers():
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
    with JobPool(jobs=2, retry_policy=policy) as pool:
        (result,) = pool.run([guest_error_spec()])
    assert result.state == FAILED and result.attempts == 1
    assert result.error.type == "InterpError"
    assert pool.ledger.retries == 0


def test_pool_timeout_consumes_retry_budget_when_retryable():
    policy = RetryPolicy(
        max_attempts=2, base_delay=0.01, jitter=0.0, retry_timeouts=True
    )
    with JobPool(jobs=1, retry_policy=policy) as pool:
        jid = pool.submit(probe("hang", hang_ms=60000, timeout_s=0.2))
        pool.drain()
    result = pool.results[jid]
    assert result.state == TIMEOUT
    assert result.attempts == 2  # retried once, then gave up
    assert pool.ledger.retries == 1
    assert pool.ledger.timeout_attempts == 2


def test_pool_jobs_zero_runs_in_process():
    import multiprocessing

    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
    children = set(multiprocessing.active_children())
    with JobPool(jobs=0, retry_policy=policy) as pool:
        ok, guest, perm = pool.run([
            probe("ok", value=7),
            guest_error_spec(),
            probe("permanent", error="config"),
        ])
        assert pool.workers == []
        assert set(multiprocessing.active_children()) == children
    # Same handlers and routing as a worker, run by the coordinator.
    assert ok.state == COMPLETED and ok.artifact == {"value": 7}
    assert ok.extra == {"worker": -1}
    assert guest.state == FAILED and guest.attempts == 1
    assert guest.error.type == "InterpError"
    assert perm.state == FAILED and perm.attempts == 1
    assert perm.error.type == "ConfigError"
    assert pool.ledger.balanced() and pool.ledger.retries == 0
    with pytest.raises(ServiceError):
        JobPool(jobs=-1)


SIMPLE = """
int g;
int main(int n) {
    g = n;
    print(g + 1);
    return g;
}
"""


def compile_spec() -> JobSpec:
    from repro import CompilerOptions

    return JobSpec(
        kind="compile",
        payload={
            "source": SIMPLE,
            "options": options_to_dict(CompilerOptions()),
            "args": [4],
            "name": "simple",
        },
        label="compile:simple",
    )


def test_pool_compile_cold_then_verified_warm_hit(tmp_path):
    cache = ArtifactCache(tmp_path)
    with JobPool(jobs=1, cache=cache) as pool:
        jid = pool.submit(compile_spec())
        pool.drain()
        cold = pool.results[jid]
    assert cold.state == COMPLETED and not cold.from_cache
    assert cold.artifact["output"] == ["5"]
    assert cold.artifact["exit_value"] == 4
    assert cache.stats.misses == 1 and cache.stats.stores == 1

    warm_cache = ArtifactCache(tmp_path)
    with JobPool(jobs=1, cache=warm_cache) as pool:
        jid = pool.submit(compile_spec())
        pool.drain()
        warm = pool.results[jid]
    assert warm.state == COMPLETED and warm.from_cache
    assert warm.artifact == cold.artifact
    assert warm.artifact_sha == cold.artifact_sha
    assert warm_cache.stats.hits == 1 and warm_cache.stats.misses == 0
    # Host wall times ride outside the hashed artifact: a cache hit has
    # no host block, so it can never leak one run's timings as another's.
    assert cold.extra.get("host") and not warm.extra


#: every phase a SPECULATIVE() compile job runs, in order
JOB_PHASES = [
    "frontend", "profile", "scalarrepl", "alias", "pre", "pressure",
    "cleanup", "verify", "codegen", "speclint", "simulate",
]


@pytest.mark.parametrize("jobs", [0, 2])
def test_compile_job_reports_its_phase_times(jobs):
    """A compile job's host block carries the wall time of every phase
    it ran, in ms, in phase order; ``wall_ms`` is their sum."""
    from repro.workloads.runner import SPECULATIVE

    spec = compile_spec()
    spec.payload["options"] = options_to_dict(SPECULATIVE())
    spec.payload["train_args"] = [3]
    with JobPool(jobs=jobs) as pool:
        (result,) = pool.run([spec])
    assert result.state == COMPLETED
    host = result.extra["host"]
    phases = host["phase_ms"]
    assert list(phases) == JOB_PHASES
    assert all(ms >= 0.0 for ms in phases.values())
    # each phase and the total are rounded to the microsecond
    assert sum(phases.values()) == pytest.approx(host["wall_ms"], abs=1e-3 * len(phases))
    assert phases["simulate"] == host["simulate_wall_ms"]
    assert "phase_ms" not in json.dumps(result.artifact)


def test_pool_bad_machine_geometry_fails_once_as_config_error():
    # Bad geometry is a permanent, typed error: the pool must not retry it.
    spec = compile_spec()
    spec.payload["options"]["machine"]["cache"]["line_words"] = 0
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
    with JobPool(jobs=1, retry_policy=policy) as pool:
        jid = pool.submit(spec)
        pool.drain()
    result = pool.results[jid]
    assert result.state == FAILED
    assert result.attempts == 1
    assert result.error.type == "ConfigError"
    assert pool.ledger.retries == 0


# -- service matrix client ----------------------------------------------


def test_matrix_fuel_exhaustion_is_structured_timeout_failure(tmp_path):
    from repro.service.matrix import run_matrix

    outcome = run_matrix(jobs=1, benchmarks=["gzip"], fuel=200)
    assert outcome.results == {}
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.name == "gzip"
    assert failure.kind == "timeout"
    assert outcome.ledger.balanced()


def test_matrix_degrades_in_process_with_the_same_failure():
    """A pool out of crash budget re-runs its unfinished jobs in-process:
    the failure it reports is the one ``jobs=0`` reports."""
    from repro.service.matrix import run_matrix

    rng = random.Random(0)

    def kill_the_busy_worker(pool):
        # Hang the job's first attempt, then kill its worker mid-hang.
        if not pool.inject_hang_on_pending(rng, 60000):
            pool.kill_random_busy_worker(rng)

    outcome = run_matrix(
        jobs=1, benchmarks=["gzip"], fuel=200,
        pool_kwargs={"crash_budget": 0, "fault_hook": kill_the_busy_worker},
    )
    assert outcome.ledger.worker_crashes == 1
    assert outcome.degraded == ["bench:gzip"]
    inline = run_matrix(jobs=0, benchmarks=["gzip"], fuel=200)
    assert outcome.failures == inline.failures
    (failure,) = outcome.failures
    assert failure.kind == "timeout" and failure.name == "gzip"
    assert outcome.ledger.balanced()


def test_matrix_records_match_across_pool_sizes():
    from repro.service.matrix import run_matrix

    inline, forked = (
        run_matrix(jobs=jobs, benchmarks=["vortex"],
                   profile_sites=True).results["vortex"]
        for jobs in (0, 2)
    )
    for a, b in zip(inline.modes, forked.modes):
        assert a.label == b.label
        assert a.record == b.record  # counters, PRE, ALAT, cache, RSE, sites
        assert a.host.keys() == b.host.keys()
        assert "host" in a.host and "phase_wall_ms" in a.host
    assert inline.speculative.record["sites"]  # site-profiled


# -- service-level chaos -------------------------------------------------


def test_service_chaos_self_test_small(tmp_path):
    from repro.chaos.service import ServiceFaultPlan, run_service_self_test

    report = run_service_self_test(
        jobs=2,
        benchmarks=["gzip", "vortex"],
        plan=ServiceFaultPlan(kills=1, hangs=0, corrupt=1),
        cache_dir=str(tmp_path / "cache"),
    )
    assert report.corrupted == 1
    assert report.quarantined == 1
    assert report.warm_ledger["cache_hits"] == 2
    assert report.warm_ledger["cache_misses"] == 0


def test_campaign_service_matches_sequential():
    """The campaign on forked workers reports exactly what the
    in-process pool reports."""
    from repro.chaos.campaign import run_campaign

    seq = run_campaign(seed=5, runs=3, failures_dir=None)
    svc = run_campaign(seed=5, runs=3, jobs=2, failures_dir=None)
    assert svc.programs == seq.programs == 3
    assert svc.as_dict() == seq.as_dict()
    assert not seq.failures
