"""Experiment results store: append-only run records + cross-run queries.

Layers (each its own module):

* :mod:`repro.obs.store.core` — record schema, content-addressed run
  ids, the sharded torn-write-safe :class:`ResultsStore`, retention;
* :mod:`repro.obs.store.query` — :func:`runs` / :func:`series` /
  :func:`compare` over stored records;
* :mod:`repro.obs.store.render` — ASCII renderings for the CLI;
* :mod:`repro.obs.store.html` — the self-contained analytics dashboard;
* also a CLI: ``python -m repro.obs.store {list,show,compare,series,
  prune,dashboard,ingest}``.
"""

from repro.obs.store.core import (
    SCHEMA_VERSION,
    PruneReport,
    ResultsStore,
    StoreError,
    compute_run_id,
    git_revision,
    machine_geometry,
    make_record,
    new_batch_id,
    pipeline_version,
)
from repro.obs.store.html import render_dashboard, write_dashboard
from repro.obs.store.query import (
    RunComparison,
    compare,
    compare_records,
    get_metric,
    latest_matrix,
    resolve_run,
    runs,
    series,
)
from repro.obs.store.render import (
    ascii_spark,
    format_comparison,
    format_record,
    format_run_list,
    format_series,
)

__all__ = [
    "PruneReport",
    "ResultsStore",
    "RunComparison",
    "SCHEMA_VERSION",
    "StoreError",
    "ascii_spark",
    "compare",
    "compare_records",
    "compute_run_id",
    "format_comparison",
    "format_record",
    "format_run_list",
    "format_series",
    "get_metric",
    "git_revision",
    "latest_matrix",
    "machine_geometry",
    "make_record",
    "new_batch_id",
    "pipeline_version",
    "render_dashboard",
    "resolve_run",
    "runs",
    "series",
    "write_dashboard",
]
