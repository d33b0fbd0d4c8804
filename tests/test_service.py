"""repro.service: retry schedule, artifact cache, pool fault tolerance.

The retry/backoff tests run against a fake clock and a seeded RNG (no
sleeps); the pool tests use ``probe`` jobs — deterministic
misbehaviour on demand (transient failures, permanent taxonomy errors,
hangs, worker suicide) — so every failure-routing path is exercised
with real forked processes in well under a second each, and on the
in-process pool (``jobs=0``) where a path does not need a process.
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
    assert cache_key("bench", {"bench": "gzip", "store": "/tmp/s"}) == base
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


def test_pool_routes_every_outcome_and_balances_ledger():
    policy = RetryPolicy(
        max_attempts=3, base_delay=0.01, jitter=0.0, retry_timeouts=False
    )
    with JobPool(jobs=2, retry_policy=policy, crash_budget=8) as pool:
        ids = {
            "ok": pool.submit(probe("ok", value=7)),
            "flaky": pool.submit(probe("flaky", fail_attempts=1, value=1)),
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

    flaky = res[ids["flaky"]]
    assert flaky.state == COMPLETED and flaky.attempts == 2

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
    assert led.completed == 2 and led.failed == 2 and led.timed_out == 1
    assert led.worker_crashes >= 3  # the crasher burns its attempts
    assert led.workers_respawned >= 3


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
        ok, flaky, perm = pool.run([
            probe("ok", value=7),
            probe("flaky", fail_attempts=1, value=1),
            probe("permanent", error="config"),
        ])
        assert pool.workers == []
        assert set(multiprocessing.active_children()) == children
    # Same handlers and routing as a worker, run by the coordinator.
    assert ok.state == COMPLETED and ok.artifact == {"value": 7}
    assert ok.extra == {"worker": -1}
    assert flaky.state == COMPLETED and flaky.attempts == 2
    assert perm.state == FAILED and perm.attempts == 1
    assert perm.error.type == "ConfigError"
    assert pool.ledger.balanced() and pool.ledger.retries == 1
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
    from repro.workloads.runner import store_records

    records = [
        store_records(
            run_matrix(jobs=jobs, benchmarks=["vortex"],
                       profile_sites=True).results
        )
        for jobs in (0, 2)
    ]
    inline, forked = records
    assert [r["run_id"] for r in inline] == [r["run_id"] for r in forked]
    for a, b in zip(inline, forked):
        assert a["metrics"].keys() == b["metrics"].keys()
        for section in ("counters", "alat", "cache", "rse", "pre"):
            assert a["metrics"][section] == b["metrics"][section]
        assert a.get("sites") == b.get("sites")
        assert "host" in a["metrics"] and "phase_wall_ms" in a["metrics"]
    assert inline[1]["sites"]  # the speculative mode was site-profiled


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
