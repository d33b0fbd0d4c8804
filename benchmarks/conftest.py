"""Shared benchmark infrastructure.

Each ``bench_fig*`` module regenerates one of the paper's evaluation
figures, and ``bench_ablations.py`` the five ablation tables.  The ten
baseline/speculative runs every figure reads are made once per session,
by the in-process matrix driver
(``repro.service.matrix.run_matrix(jobs=0)``); tables are written to
``benchmarks/results/`` and echoed to the terminal at session end
(pytest captures stdout during tests, so the tables are printed from
the sessionfinish hook).  Host timing is ``benchmarks/perf/``'s job,
not these modules'.

Counter gate: every session also writes ``results/records.json``, each
(benchmark, mode) run record with its counters, PRE, ALAT, cache and
RSE sections (``repro.workloads.records_json``).  It is committed like
the tables, so CI's freshness diff of ``benchmarks/results/`` checks
every simulated number exactly.  Host times stay out of it.  Set
``REPRO_BENCH_TRACE=1`` to also stream every benchmark run's structured
event trace to ``results/traces/<bench>.<mode>.jsonl``.

Results store: set ``REPRO_BENCH_STORE=1`` (or a directory path) to
ingest every measurement into the experiment results store
(``benchmarks/store`` by default) — the matrix runs as ``suite=matrix``
run records, every ablation sweep point as ``suite=ablation:<name>``.
Both are full run records (``store_records``): options, machine
geometry and source hash included.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STORE_DIR = pathlib.Path(__file__).parent / "store"

_tables: dict[str, str] = {}
_store = None
_store_batch = None


def bench_store():
    """The session's :class:`repro.obs.store.ResultsStore`, or None
    when ``REPRO_BENCH_STORE`` is unset.  All records ingested in one
    pytest session share one batch id (one sweep)."""
    global _store, _store_batch
    spec = os.environ.get("REPRO_BENCH_STORE")
    if not spec:
        return None
    if _store is None:
        from repro.obs.store import ResultsStore, new_batch_id

        root = STORE_DIR if spec == "1" else pathlib.Path(spec)
        _store = ResultsStore(root)
        _store_batch = new_batch_id()
    return _store


def record_benchmark(result, suite: str, config=None) -> None:
    """Ingest one :class:`BenchmarkResult` (all modes) as run records;
    no-op when the store is disabled."""
    store = bench_store()
    if store is None:
        return
    from repro.workloads.runner import store_records

    store.ingest_many(
        store_records(
            {result.workload.name: result},
            suite=suite,
            batch=_store_batch,
            config=config,
        )
    )


def publish_table(name: str, table: str) -> None:
    """Save a figure table to disk and queue it for terminal echo."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    _tables[name] = table


def pytest_sessionfinish(session, exitstatus):
    if not _tables:
        return
    tw = getattr(session.config, "get_terminal_writer", lambda: None)()
    emit = tw.line if tw is not None else print
    emit("")
    emit("=" * 78)
    emit("Reproduced evaluation figures (also in benchmarks/results/)")
    emit("=" * 78)
    for name in sorted(_tables):
        emit("")
        for line in _tables[name].splitlines():
            emit(line)


@pytest.fixture(scope="session")
def all_results():
    """The ten benchmark measurements, shared by every figure.  Also
    writes the figure data (``figures.json``) and the run records
    (``records.json``), plus full event traces when
    ``REPRO_BENCH_TRACE`` is set."""
    import json

    from repro.service.matrix import run_matrix
    from repro.workloads import figures_as_dict, records_json

    trace_dir = None
    if os.environ.get("REPRO_BENCH_TRACE"):
        trace_dir = str(RESULTS_DIR / "traces")

    outcome = run_matrix(
        jobs=0, trace_dir=trace_dir, profile_sites=bench_store() is not None
    )
    if outcome.failures:
        raise RuntimeError(
            "benchmark matrix failed:\n"
            + "\n".join(f.format() for f in outcome.failures)
        )
    results = outcome.results
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "figures.json").write_text(
        json.dumps(figures_as_dict(results), indent=2) + "\n"
    )
    (RESULTS_DIR / "records.json").write_text(records_json(results))

    store = bench_store()
    if store is not None:
        from repro.workloads.runner import store_records

        store.ingest_many(
            store_records(results, suite="matrix", batch=_store_batch)
        )

    return results
