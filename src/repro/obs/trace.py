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
from dataclasses import dataclass, field
from typing import ContextManager, Optional

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


class _OpenSpan:
    """The context manager :meth:`TraceContext.span` and
    :meth:`TraceContext.phase` return, and the bookkeeping of the span
    while it is on the stack.  A class rather than a generator, so a
    span costs two method calls when no sink is attached; each kind
    still emits its events by literal name (the trace schema drift test
    scans the source for them)."""

    __slots__ = (
        "ctx", "name", "fields", "is_phase", "info", "record", "t0",
        "mem0", "peak_abs", "reentrant",
    )

    def __init__(
        self, ctx: "TraceContext", name: str, fields: dict, is_phase: bool
    ) -> None:
        self.ctx = ctx
        self.name = name
        self.fields = fields
        self.is_phase = is_phase

    def __enter__(self) -> dict:
        ctx = self.ctx
        name = self.name
        stack = ctx._stack
        ctx._next_span_id += 1
        span_id = ctx._next_span_id
        parent = stack[-1] if stack else None
        parent_id = parent.record.span_id if parent is not None else None
        t0 = time.perf_counter()
        self.record = Span(span_id, parent_id, name, (t0 - ctx._origin) * 1e3)
        self.t0 = t0
        self.mem0 = 0
        #: max absolute tracemalloc peak observed inside this span so
        #: far (children propagate theirs up on exit)
        self.peak_abs = 0
        #: same span *name* already open further down the stack
        self.reentrant = False
        for live in stack:
            if live.name == name:
                self.reentrant = True
                break
        if ctx._track_memory:
            import tracemalloc

            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None and peak > parent.peak_abs:
                # Credit the parent with the high-water mark reached
                # before this child resets the peak counter.
                parent.peak_abs = peak
            tracemalloc.reset_peak()
            self.mem0 = cur
            self.peak_abs = cur
        stack.append(self)
        self.info = {}
        if ctx.sink.enabled:
            try:
                if self.is_phase:
                    ctx.event(
                        "phase.begin", phase=name, span_id=span_id,
                        parent_id=parent_id,
                    )
                else:
                    ctx.event(
                        "span.begin", span=name, span_id=span_id,
                        parent_id=parent_id,
                    )
            except BaseException as exc:
                self.__exit__(type(exc), exc, exc.__traceback__)
                raise
        return self.info

    def __exit__(self, exc_type, exc, tb) -> None:
        ctx = self.ctx
        rec = self.record
        rec.wall_ms = (time.perf_counter() - self.t0) * 1e3
        stack = ctx._stack
        # Tolerate abandoned children (a context manager whose __exit__
        # never ran, e.g. a generator collected mid-span) so one leak
        # cannot corrupt every enclosing span.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.record.child_wall_ms += rec.wall_ms
        if ctx._track_memory:
            import tracemalloc

            cur, peak = tracemalloc.get_traced_memory()
            span_peak = max(self.peak_abs, peak)
            rec.mem_kb = round(max(0, span_peak - self.mem0) / 1024.0, 1)
            if parent is not None and span_peak > parent.peak_abs:
                parent.peak_abs = span_peak
            tracemalloc.reset_peak()
        if ctx._record_spans:
            ctx.spans.append(rec)
        fields, info = self.fields, self.info
        if fields or info:
            rec.fields = {**fields, **info}
        if self.is_phase and not self.reentrant:
            # A re-entrant instance is covered by the outer one's time.
            name = self.name
            ctx.phase_times[name] = ctx.phase_times.get(name, 0.0) + rec.wall_ms / 1e3
            if rec.mem_kb is not None:
                ctx.phase_mem_kb[name] = max(
                    ctx.phase_mem_kb.get(name, 0.0), rec.mem_kb
                )
        if not ctx.sink.enabled:
            return
        extra: dict = {}
        if rec.mem_kb is not None:
            extra["mem_kb"] = rec.mem_kb
        if exc_type is not None:
            extra["error"] = f"{exc_type.__name__}: {exc}"
        if self.is_phase:
            ctx.event(
                "phase.end",
                phase=self.name,
                span_id=rec.span_id,
                parent_id=rec.parent_id,
                wall_ms=round(rec.wall_ms, 3),
                **fields,
                **info,
                **extra,
            )
        else:
            ctx.event(
                "span.end",
                span=self.name,
                span_id=rec.span_id,
                parent_id=rec.parent_id,
                wall_ms=round(rec.wall_ms, 3),
                **fields,
                **info,
                **extra,
            )


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
        self._stack: list[_OpenSpan] = []
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

    def span(self, name: str, **fields) -> ContextManager[dict]:
        """Time a hierarchical span (generic: not a pipeline phase).

        Yields a dict the caller may fill with payload counts; they are
        attached to the ``span.end`` event and retained on the span
        record.  Spans nest and re-enter freely; parent linkage comes
        from the live stack.
        """
        return _OpenSpan(self, name, fields, False)

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
        return _OpenSpan(self, name, fields, True)

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
