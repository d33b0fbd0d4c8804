"""The per-compilation trace context.

One :class:`TraceContext` accompanies a ``compile_source(...).run(...)``
pair end to end.  Producers call :meth:`event` with a name and flat
keyword fields; the context stamps a monotonically increasing sequence
number so event ordering is explicit in the output, and accumulates
per-phase wall-clock times independently of whether a sink is attached.

Spans
-----
:meth:`span` and :meth:`phase` open **hierarchical spans**: nested,
re-entrant timing intervals with stable ``span_id``/``parent_id``
linkage, per-span wall-clock and (under ``track_memory``) ``tracemalloc``
peak-allocation deltas.  Pipeline phases are spans that additionally
emit the classic ``phase.begin``/``phase.end`` events and accumulate
into :attr:`phase_times`; generic spans emit ``span.begin``/``span.end``.
Completed spans are retained on :attr:`spans` (begin order) so the
exporters in :mod:`repro.obs.telemetry` can render a Chrome trace
(Perfetto-loadable JSON) or a collapsed-stack flamegraph after the run.

Re-entrancy: a phase entered again while an instance of the *same name*
is still open (e.g. a recursive sub-phase) does **not** re-accumulate
into :attr:`phase_times` — the outer instance's wall time already
contains it — but it still gets its own span record and parent id.

Event schema (documented in DESIGN.md §"Trace schema"):

========================  =================================================
``phase.begin/end``       pipeline phase timers (``phase``, ``span_id``,
                          ``parent_id``; ``end`` adds ``wall_ms`` +
                          per-phase payload counts, ``mem_kb`` when
                          memory tracking is on, and ``error`` when the
                          phase raised)
``span.begin/end``        generic hierarchical span (``span``,
                          ``span_id``, ``parent_id``; ``end`` adds
                          ``wall_ms`` [+ ``mem_kb``, ``error``] like
                          ``phase.end``)
``spec.decision``         one per decider verdict (``function``, ``sid``,
                          ``stmt``, ``verdict``)
``spec.lowered``          one per speculative annotation surviving to the
                          final IR (``function``, ``sid``, ``flag``,
                          ``target``, ``recovery_stmts``)
``pre.function``          per-function promotion stats
``pressure.decision``     one per promoted candidate the static ALAT
                          pressure model scored (``function``, ``temp``,
                          ``register``, ``set_index``, ``checks``,
                          ``p_alias``, ``p_conflict``, ``profit``,
                          ``verdict`` keep/flag/demote)
``probalias.estimate``    one per (candidate, may-aliasing statement)
                          probability the pressure model charged
                          (``function``, ``sid``, ``temp``, ``kind``
                          store/call, ``prob``, ``source``
                          profile/static/hybrid, ``features`` model
                          inputs: overlap, loop_carried, ...)
``speclint.diag``         one per speculation-safety finding (``rule``,
                          ``severity``, ``function``, ``loc``,
                          ``message``)
``codegen.function``      register/frame footprint + instruction mix
``alat.allocate``         ``ld.a``/``ld.sa`` allocated an entry
``alat.collision``        a store invalidated an entry
``alat.evict``            capacity (way-conflict) eviction
``alat.check``            ``ld.c``/``chk.a`` probe (``hit`` bool)
``alat.invalidate``       ``invala.e`` (``dropped`` bool)
``cache.miss``            data-cache miss (``level``)
``chaos.fault``           one injected fault (``kind`` plus kind-specific
                          detail: geometry clamps carry ``field`` /
                          ``before`` / ``after``; dynamic faults carry
                          ``tag`` / ``addr`` / ``dropped``)
``pipeline.fallback``     graceful degradation retried a compilation
                          conservatively (``error``, ``failed``,
                          ``retry``)
``rse.spill/fill``        register-stack traffic (``regs``, ``cycles``)
``counters.snapshot``     periodic counter time-series sample
``sim.begin/end``         one simulated run
``profile.line``          per-source-line attribution (``line``,
                          ``cycle_pct``, ``cycles``, ``retired``,
                          ``data_cycles``, ``spec``)
``profile.site``          per-ALAT-site attribution (``site``, ``line``,
                          ``allocations``, ``collisions``, ``evictions``,
                          ``check_hits``, ``check_failures``,
                          ``recovery_cycles``, ``kinds``)
``service.job``           one per terminal job in the service pool
                          (``job``, ``kind``, ``state``
                          completed/failed/timeout, ``attempts``,
                          ``from_cache``, ``wall_ms``, ``sha``)
``service.retry``         one per rescheduled attempt (``job``,
                          ``reason`` timeout/worker-crash,
                          ``attempt``, ``delay_ms`` backoff + jitter)
``service.cache``         one per artifact-cache access (``status``
                          hit/miss/store/stale/quarantine, ``key``
                          truncated cache key)
========================  =================================================

ALAT events carry the register tag as ``[activation_serial, register]``
and the retired-instruction index, so a trace line pinpoints *which*
advanced load misspeculated — the attribution Figures 10's breakdown
needs and flat counters cannot give.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, Optional

from repro.obs.sinks import NULL_SINK, Sink


@dataclass
class Span:
    """One completed (or still-open) hierarchical timing interval.

    ``start_ms`` is relative to the owning context's creation, so spans
    from one run share a single timeline (what the Chrome exporter
    plots).  ``mem_kb`` is the tracemalloc *peak* allocation delta over
    the span (None when memory tracking was off).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ms: float
    wall_ms: float = 0.0
    mem_kb: Optional[float] = None
    fields: dict = field(default_factory=dict)
    #: wall-clock already attributed to direct children (exporters use
    #: it to derive self-time without re-walking the tree)
    child_wall_ms: float = 0.0

    @property
    def self_ms(self) -> float:
        return max(0.0, self.wall_ms - self.child_wall_ms)


class _LiveSpan:
    """Bookkeeping for a span currently on the stack."""

    __slots__ = ("record", "t0", "mem0", "peak_abs", "reentrant")

    def __init__(self, record: Span, t0: float, reentrant: bool) -> None:
        self.record = record
        self.t0 = t0
        self.mem0 = 0
        #: max absolute tracemalloc peak observed inside this span so
        #: far (children propagate theirs up on exit)
        self.peak_abs = 0
        #: same span *name* already open further down the stack
        self.reentrant = reentrant


class TraceContext:
    """Event + metrics funnel for one compilation/run.

    ``enabled`` mirrors the sink; producers use it to skip payload
    construction entirely (the zero-overhead-when-disabled contract).

    ``track_memory`` starts :mod:`tracemalloc` (if not already tracing)
    and stamps every span/phase with its peak-allocation delta; it is
    off by default because tracemalloc slows allocation-heavy host code
    down noticeably.  ``record_spans`` retains completed spans on
    :attr:`spans` for the exporters; :data:`NULL_TRACE` disables it so
    the shared process-wide context never grows.
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        snapshot_every: int = 0,
        track_memory: bool = False,
        record_spans: bool = True,
    ) -> None:
        self.sink = sink if sink is not None else NULL_SINK
        #: emit a ``counters.snapshot`` every N retired instructions
        #: (0 = never); only consulted when a real sink is attached.
        self.snapshot_every = snapshot_every if self.sink.enabled else 0
        self.seq = 0
        #: cumulative wall-clock seconds per pipeline phase — cheap
        #: enough to keep even with the null sink.  Re-entrant phases
        #: (same name nested in itself) count only the outermost
        #: instance, so the bucket never double-counts.
        self.phase_times: dict[str, float] = {}
        #: max tracemalloc peak-allocation delta (KiB) per phase name
        #: (empty unless ``track_memory``)
        self.phase_mem_kb: dict[str, float] = {}
        #: completed spans in begin order (when ``record_spans``)
        self.spans: list[Span] = []
        self._record_spans = record_spans
        self._stack: list[_LiveSpan] = []
        self._next_span_id = 0
        self._origin = time.perf_counter()
        self._track_memory = track_memory
        self._owns_tracemalloc = False
        if track_memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    @property
    def track_memory(self) -> bool:
        return self._track_memory

    # -- events ---------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Emit one structured event (no-op when disabled)."""
        if not self.sink.enabled:
            return
        self.seq += 1
        self.sink.emit({"seq": self.seq, "event": name, **fields})

    # -- spans ----------------------------------------------------------

    def _begin_span(self, name: str) -> _LiveSpan:
        self._next_span_id += 1
        parent = self._stack[-1] if self._stack else None
        t0 = time.perf_counter()
        record = Span(
            span_id=self._next_span_id,
            parent_id=parent.record.span_id if parent else None,
            name=name,
            start_ms=(t0 - self._origin) * 1e3,
        )
        reentrant = any(live.record.name == name for live in self._stack)
        live = _LiveSpan(record, t0, reentrant)
        if self._track_memory:
            import tracemalloc

            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None and peak > parent.peak_abs:
                # Credit the parent with the high-water mark reached
                # before this child resets the peak counter.
                parent.peak_abs = peak
            tracemalloc.reset_peak()
            live.mem0 = cur
            live.peak_abs = cur
        self._stack.append(live)
        return live

    def _finish_span(self, live: _LiveSpan) -> Span:
        rec = live.record
        rec.wall_ms = (time.perf_counter() - live.t0) * 1e3
        # Tolerate abandoned children (a context manager whose __exit__
        # never ran, e.g. a generator collected mid-span) so one leak
        # cannot corrupt every enclosing span.
        while self._stack and self._stack[-1] is not live:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.record.child_wall_ms += rec.wall_ms
        if self._track_memory:
            import tracemalloc

            cur, peak = tracemalloc.get_traced_memory()
            span_peak = max(live.peak_abs, peak)
            rec.mem_kb = round(max(0, span_peak - live.mem0) / 1024.0, 1)
            if parent is not None and span_peak > parent.peak_abs:
                parent.peak_abs = span_peak
            tracemalloc.reset_peak()
        if self._record_spans:
            self.spans.append(rec)
        return rec

    @contextmanager
    def _bracket(
        self,
        name: str,
        fields: dict,
        begin: Callable[..., None],
        end: Callable[..., None],
        on_finish: Optional[Callable[[_LiveSpan], None]] = None,
    ) -> Iterator[dict]:
        """The body :meth:`span` and :meth:`phase` share: one span whose
        ``begin``/``end`` callbacks emit the kind's two events.  Each
        caller spells its event names out as literals, which the trace
        schema drift test scans the source for.  ``on_finish`` sees the
        closed span before ``end`` runs."""
        live = self._begin_span(name)
        rec = live.record
        info: dict = {}
        error: Optional[str] = None
        try:
            begin(span_id=rec.span_id, parent_id=rec.parent_id)
            yield info
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._finish_span(live)
            rec.fields.update(fields)
            rec.fields.update(info)
            if on_finish is not None:
                on_finish(live)
            extra: dict = {}
            if rec.mem_kb is not None:
                extra["mem_kb"] = rec.mem_kb
            if error is not None:
                extra["error"] = error
            end(
                span_id=rec.span_id,
                parent_id=rec.parent_id,
                wall_ms=round(rec.wall_ms, 3),
                **fields,
                **info,
                **extra,
            )

    def span(self, name: str, **fields) -> ContextManager[dict]:
        """Time a hierarchical span (generic: not a pipeline phase).

        Yields a dict the caller may fill with payload counts; they are
        attached to the ``span.end`` event and retained on the span
        record.  Spans nest and re-enter freely; parent linkage comes
        from the live stack.
        """
        return self._bracket(
            name,
            fields,
            lambda **kw: self.event("span.begin", span=name, **kw),
            lambda **kw: self.event("span.end", span=name, **kw),
        )

    def phase(self, name: str, **fields) -> ContextManager[dict]:
        """Time a pipeline phase (a span that feeds :attr:`phase_times`).

        Yields a dict the caller may fill with op counts; they are
        attached to the ``phase.end`` event.  Wall time accumulates in
        :attr:`phase_times` even when tracing is disabled; a re-entrant
        instance (same phase name already open) is excluded from the
        bucket because the outer instance's time already covers it.

        A phase that raises still emits its ``phase.end`` — with an
        ``error`` field carrying ``ExcType: message`` — so a trace
        always brackets correctly and records *where* the pipeline died.
        """
        return self._bracket(
            name,
            fields,
            lambda **kw: self.event("phase.begin", phase=name, **kw),
            lambda **kw: self.event("phase.end", phase=name, **kw),
            self._charge_phase,
        )

    def _charge_phase(self, live: _LiveSpan) -> None:
        if live.reentrant:
            return
        rec = live.record
        self.phase_times[rec.name] = (
            self.phase_times.get(rec.name, 0.0) + rec.wall_ms / 1e3
        )
        if rec.mem_kb is not None:
            self.phase_mem_kb[rec.name] = max(
                self.phase_mem_kb.get(rec.name, 0.0), rec.mem_kb
            )

    def close(self) -> None:
        self.sink.close()
        if self._owns_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._owns_tracemalloc = False

    def __enter__(self) -> "TraceContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled context — the default ``obs`` everywhere.  Spans are
#: not retained on it (a process-wide list would grow without bound).
NULL_TRACE = TraceContext(NULL_SINK, record_spans=False)
