"""Shared benchmark infrastructure.

Each bench module regenerates one of the paper's evaluation figures.
The ten baseline/speculative runs every figure reads are made once per
session, by the in-process matrix driver
(``repro.service.matrix.run_matrix(jobs=0)``); tables are written to
``benchmarks/results/`` and echoed to the terminal at session end
(pytest captures stdout during tests, so the tables are printed from
the sessionfinish hook).  Host timing is ``benchmarks/perf/``'s job,
not these modules'.

Observability: every session also dumps per-mode run metrics
(``results/metrics.json``, via ``repro.obs.build_metrics`` — including
the ``host`` section with wall-clock and steps/sec).  Set
``REPRO_BENCH_TRACE=1`` to additionally stream every benchmark run's
structured event trace to ``results/traces/<bench>.<mode>.jsonl``.

Regression gate: set ``REPRO_BENCH_HISTORY=1`` to append each run's
tracked counters *and host metrics* to the history store
``benchmarks/history/`` and flag regressions — counters against the
previous record, host wall-clock/throughput against the median of the
last ≤3 (or point it at an alternate store directory).  The report is
echoed at session end; flags never fail the figure tests themselves —
CI gates separately via ``python -m repro.obs.regress --store``.

Results store: set ``REPRO_BENCH_STORE=1`` (or a directory path) to
ingest every measurement into the experiment results store
(``benchmarks/store`` by default) — the matrix runs as ``suite=matrix``
run records, every ablation sweep point as ``suite=ablation:<name>``,
and every published figure table as a ``kind=table`` record, so
``python -m repro.obs.store tables`` can regenerate everything in
``benchmarks/results/`` from stored runs alone.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
HISTORY_DIR = pathlib.Path(__file__).parent / "history"
STORE_DIR = pathlib.Path(__file__).parent / "store"

_tables: dict[str, str] = {}
_gate_report = None
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


def record_counters(suite: str, bench: str, mode: str, counters,
                    config=None) -> None:
    """Ingest one bare counter measurement (ablations that run the
    pipeline directly, without a BenchmarkResult)."""
    store = bench_store()
    if store is None:
        return
    from repro.obs.store import make_record

    payload = counters.as_dict() if hasattr(counters, "as_dict") else dict(counters)
    store.ingest(
        make_record(
            bench,
            mode,
            {"counters": payload},
            suite=suite,
            config=config,
            batch=_store_batch,
        )
    )


def publish_table(name: str, table: str) -> None:
    """Save a figure table to disk and queue it for terminal echo.
    With the store enabled, the rendered text is also recorded as a
    ``kind=table`` record so the .txt is reproducible from the store."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    _tables[name] = table
    store = bench_store()
    if store is not None:
        from repro.obs.store import make_record

        store.ingest(
            make_record(
                name,
                "text",
                {"table": {"chars": len(table),
                           "lines": table.count("\n") + 1,
                           "text": table}},
                kind="table",
                suite="tables",
                batch=_store_batch,
            )
        )


def pytest_sessionfinish(session, exitstatus):
    if not _tables and _gate_report is None:
        return
    tw = getattr(session.config, "get_terminal_writer", lambda: None)()
    emit = tw.line if tw is not None else print
    if _tables:
        emit("")
        emit("=" * 78)
        emit("Reproduced evaluation figures (also in benchmarks/results/)")
        emit("=" * 78)
        for name in sorted(_tables):
            emit("")
            for line in _tables[name].splitlines():
                emit(line)
    if _gate_report is not None:
        emit("")
        for line in _gate_report.format().splitlines():
            emit(line)


@pytest.fixture(scope="session")
def all_results():
    """The ten benchmark measurements, shared by every figure.  Also
    dumps the raw data as JSON for downstream plotting, plus per-mode
    run metrics (and full event traces when ``REPRO_BENCH_TRACE`` is
    set)."""
    import json

    from repro.service.matrix import run_matrix
    from repro.workloads import figures_as_dict, host_metrics_as_dict

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
    metrics = {
        name: {
            mode.label: mode.metrics
            for mode in (result.baseline, result.speculative)
        }
        for name, result in results.items()
    }
    (RESULTS_DIR / "metrics.json").write_text(
        json.dumps(metrics, indent=2) + "\n"
    )

    history = os.environ.get("REPRO_BENCH_HISTORY")
    if history:
        from repro.obs.regress import StoreHistory, gate_metrics

        store_dir = HISTORY_DIR if history == "1" else history
        global _gate_report
        _gate_report = gate_metrics(
            StoreHistory(store_dir), host_metrics_as_dict(results)
        )

    store = bench_store()
    if store is not None:
        from repro.workloads.runner import store_records

        store.ingest_many(
            store_records(results, suite="matrix", batch=_store_batch)
        )

    return results
