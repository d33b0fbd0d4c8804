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
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_tables: dict[str, str] = {}


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

    outcome = run_matrix(jobs=0, trace_dir=trace_dir)
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
    return results
