"""Observability: structured event tracing + metrics for the pipeline.

Its modules:

* :mod:`repro.obs.sinks` — where events go (null / in-memory / JSONL);
* :mod:`repro.obs.trace` — the :class:`TraceContext` threaded through
  ``compile_source`` and the simulator (phase timers, speculation
  decisions, ALAT/cache/RSE events, counter snapshots);
* :mod:`repro.obs.report` — metrics aggregation and the human summary;
* :mod:`repro.obs.profile` — per-instruction cycle attribution and the
  perf-annotate-style source listing (:class:`RunProfile`,
  :class:`ProfileReport`);
* :mod:`repro.obs.diff` — baseline-vs-speculative run comparison
  (Figure 8 shape);
* :mod:`repro.obs.dashboard` — the self-contained HTML dashboard of
  one matrix run (``python -m repro.workloads --dashboard FILE``);
* :mod:`repro.obs.telemetry` — host-side telemetry: the hot-loop
  :class:`HostProfiler` and the Chrome-trace / flamegraph exporters
  over the span tree :class:`TraceContext` records.

The default everywhere is :data:`NULL_TRACE`, whose sink reports
``enabled = False``; producers skip event construction entirely, so an
untraced run is bit-identical (in simulated counters) to one before
this subsystem existed.
"""

from repro.obs.diff import diff_runs, format_diff
from repro.obs.profile import ProfileReport, RunProfile
from repro.obs.report import build_metrics, format_summary, misspeculation_breakdown
from repro.obs.sinks import (
    NULL_SINK,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    make_sink,
    read_jsonl,
)
from repro.obs.telemetry import (
    HostProfiler,
    chrome_trace,
    collapsed_stacks,
    write_chrome_trace,
    write_flamegraph,
)
from repro.obs.trace import NULL_TRACE, Span, TraceContext

__all__ = [
    "HostProfiler",
    "JsonlSink",
    "MemorySink",
    "NULL_SINK",
    "NULL_TRACE",
    "NullSink",
    "ProfileReport",
    "RunProfile",
    "Sink",
    "Span",
    "TraceContext",
    "build_metrics",
    "chrome_trace",
    "collapsed_stacks",
    "diff_runs",
    "format_diff",
    "format_summary",
    "make_sink",
    "misspeculation_breakdown",
    "read_jsonl",
    "write_chrome_trace",
    "write_flamegraph",
]
