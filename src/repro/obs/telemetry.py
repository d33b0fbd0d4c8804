"""Host-side performance telemetry: hot-loop profiling and exporters.

Everything in :mod:`repro.obs` up to this module observes the *guest* —
simulated cycles, ALAT traffic, per-line attribution.  This module
observes the *host*: where the Python process itself spends wall-clock
and allocations, the baseline any speed-up of the two dominant hot loops
(simulator dispatch, interpreter dispatch) is judged against.

Three pieces:

* :class:`HostProfiler` — coarse bucketed wall-clock accounting for the
  two hot loops (``machine.cpu`` cycle stepping, ``ir.interp``
  dispatch).  The loops chain ``perf_counter_ns`` timestamps so every
  nanosecond between two marks lands in exactly one bucket: per
  simulated-opcode class (``sim.op.Ld``, ``interp.op.Assign``), the
  issue/operand-stall segment (``sim.issue``), the cache and ALAT
  models (``sim.cache``, ``sim.alat``), frame setup/teardown
  (``sim.frame``, ``interp.frame``), and whatever the pipeline bracket
  could not attribute (``sim.other``).  Opt-in: only the variants of
  the simulator's loop with the ``host`` probe point call the profiler
  (through the hooks :class:`repro.machine.cpu.Probe` composes), so an
  unprofiled run pays nothing.
  Deliberately *not* ``sys.setprofile`` — that would slow the loop ~10x
  and distort exactly what it measures.

* :func:`chrome_trace` / :func:`write_chrome_trace` — export a
  :class:`~repro.obs.trace.TraceContext`'s span tree (plus, optionally,
  the profiler's breakdown as a synthetic second thread) as Chrome
  ``trace_event`` JSON, loadable in Perfetto / ``chrome://tracing``.

* :func:`collapsed_stacks` — the same data as collapsed-stack flamegraph
  text (``a;b;c <microseconds>`` per line), consumable by
  ``flamegraph.pl`` / speedscope.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from repro.obs.trace import Span, TraceContext


class HostProfiler:
    """Accumulates host wall-clock (ns) and op counts into named buckets.

    The hot loops call :meth:`add` with deltas between chained
    timestamps; nested work that accounts for itself (a callee's
    instructions, the cache model inside a load) is routed through
    :meth:`add_sub` / :attr:`_sub` so the enclosing bucket can subtract
    it and nothing is counted twice.
    """

    __slots__ = ("ns", "counts", "_sub", "_op_keys")

    #: timestamp source (ns, monotonic) — one attribute lookup in the loop
    now = staticmethod(time.perf_counter_ns)

    def __init__(self) -> None:
        self.ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        #: nanoseconds inside the current bucket segment that some inner
        #: bucket already claimed (reset by :meth:`take_sub`)
        self._sub = 0
        self._op_keys: dict[type, str] = {}

    def op_key(self, cls: type, prefix: str = "sim.op.") -> str:
        """Interned ``prefix + ClassName`` bucket key (no per-op
        string building in the hot loop)."""
        key = self._op_keys.get(cls)
        if key is None:
            key = prefix + cls.__name__
            self._op_keys[cls] = key
        return key

    def add(self, key: str, ns: int, count: int = 1) -> None:
        self.ns[key] = self.ns.get(key, 0) + ns
        self.counts[key] = self.counts.get(key, 0) + count

    def add_sub(self, key: str, ns: int) -> None:
        """Record an inner bucket *and* flag its time for subtraction
        from the enclosing segment."""
        self.add(key, ns)
        self._sub += ns

    def defer(self, ns: int) -> None:
        """Flag time for subtraction without recording a bucket (used
        around recursive calls whose body accounts for itself)."""
        self._sub += ns

    def take_sub(self) -> int:
        s = self._sub
        self._sub = 0
        return s

    def timed(self, fn, key: str, nested: bool = True):
        """``fn`` wrapped to record its time in bucket ``key``: through
        :meth:`add_sub` when ``nested`` (the enclosing bucket segment
        subtracts it), else through :meth:`add`.  This is how the
        simulator's probe times the cache and ALAT models and frame
        setup without a branch of its own at each call site."""
        now = self.now
        record = self.add_sub if nested else self.add

        def timed_fn(*args):
            t0 = now()
            result = fn(*args)
            record(key, now() - t0)
            return result

        return timed_fn

    # -- aggregation -----------------------------------------------------

    @property
    def total_ns(self) -> int:
        return sum(self.ns.values())

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    def merge(self, other: "HostProfiler") -> None:
        for key, ns in other.ns.items():
            self.add(key, ns, other.counts.get(key, 0))

    def as_dict(self) -> dict:
        """JSON-ready summary: per-bucket ms/count/ns-per-op, sorted by
        descending time."""
        buckets = {
            key: {
                "ms": round(ns / 1e6, 3),
                "count": self.counts.get(key, 0),
                "ns_per_op": round(ns / max(1, self.counts.get(key, 0))),
            }
            for key, ns in sorted(
                self.ns.items(), key=lambda kv: -kv[1]
            )
        }
        return {"total_ms": round(self.total_ms, 3), "buckets": buckets}

    def format_breakdown(
        self, measured_wall_ms: Optional[float] = None,
        title: str = "host profile",
    ) -> str:
        """Human-readable table; with ``measured_wall_ms`` (e.g. the
        ``simulate`` phase wall time) the header reports attribution
        coverage and the rows percentages of *measured* time."""
        total_ms = self.total_ms
        denom = measured_wall_ms if measured_wall_ms else total_ms
        header = f"== {title}: {total_ms:.2f} ms attributed"
        if measured_wall_ms:
            pct = 100.0 * total_ms / measured_wall_ms if measured_wall_ms else 0.0
            header += (
                f" of {measured_wall_ms:.2f} ms measured ({pct:.1f}%)"
            )
        header += " =="
        lines = [
            header,
            f"{'bucket':<24}{'ms':>10}{'%':>8}{'ops':>12}{'ns/op':>9}",
        ]
        for key, ns in sorted(self.ns.items(), key=lambda kv: -kv[1]):
            count = self.counts.get(key, 0)
            pct = 100.0 * ns / (denom * 1e6) if denom else 0.0
            lines.append(
                f"{key:<24}{ns / 1e6:>10.2f}{pct:>8.1f}{count:>12}"
                f"{ns // max(1, count):>9}"
            )
        return "\n".join(lines)


# -- Chrome trace_event export ------------------------------------------


def chrome_trace(
    obs: TraceContext,
    host: Optional[HostProfiler] = None,
    host_anchor: str = "simulate",
) -> dict:
    """Render a context's spans as a Chrome ``trace_event`` document.

    Spans go on one thread (they nest by time containment, which the
    stack discipline guarantees).  With ``host``, the profiler's
    buckets are laid out as consecutive slices on a second synthetic
    thread starting at the ``host_anchor`` span (the breakdown bar a
    flamegraph would show, but on the trace timeline).
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "pipeline"}},
    ]
    spans = sorted(obs.spans, key=lambda s: (s.start_ms, s.span_id))
    for s in spans:
        args: dict = {"span_id": s.span_id, "parent_id": s.parent_id}
        if s.mem_kb is not None:
            args["mem_kb"] = s.mem_kb
        for key, value in s.fields.items():
            args[key] = value if isinstance(value, (int, float, str, bool)) else str(value)
        events.append(
            {
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "ts": round(s.start_ms * 1e3, 3),  # microseconds
                "dur": round(s.wall_ms * 1e3, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    if host is not None and host.ns:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "host-profile"}}
        )
        anchor = next((s for s in spans if s.name == host_anchor), None)
        ts = anchor.start_ms * 1e3 if anchor is not None else 0.0
        for key, ns in sorted(host.ns.items(), key=lambda kv: -kv[1]):
            dur = ns / 1e3  # ns -> us
            events.append(
                {
                    "name": key,
                    "cat": "host",
                    "ph": "X",
                    "ts": round(ts, 3),
                    "dur": round(dur, 3),
                    "pid": 1,
                    "tid": 2,
                    "args": {"ops": host.counts.get(key, 0)},
                }
            )
            ts += dur
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    obs: TraceContext,
    host: Optional[HostProfiler] = None,
) -> None:
    doc = chrome_trace(obs, host)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# -- collapsed-stack flamegraph export ----------------------------------


def collapsed_stacks(
    obs: TraceContext,
    host: Optional[HostProfiler] = None,
    host_anchor: str = "simulate",
) -> list[str]:
    """Render spans (+ host-profiler buckets) as collapsed-stack lines.

    One line per stack: ``name;child;grandchild <value>`` where the
    value is the stack's *self* wall time in integer microseconds —
    ``flamegraph.pl`` and speedscope both consume this format.  Host
    buckets hang under the ``host_anchor`` span's stack, and their
    attributed time is removed from that span's self time so the graph
    still sums to the measured total.
    """
    by_id: dict[int, Span] = {s.span_id: s for s in obs.spans}

    def stack_of(span: Span) -> str:
        parts = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                break
            parts.append(parent.name)
            parent_id = parent.parent_id
        return ";".join(reversed(parts))

    host_us = host.total_ns / 1e3 if host is not None else 0.0
    lines: list[str] = []
    for s in sorted(obs.spans, key=lambda s: (s.start_ms, s.span_id)):
        self_us = s.self_ms * 1e3
        if host is not None and s.name == host_anchor:
            self_us = max(0.0, self_us - host_us)
        value = int(round(self_us))
        if value > 0:
            lines.append(f"{stack_of(s)} {value}")
    if host is not None and host.ns:
        anchor = next(
            (s for s in obs.spans if s.name == host_anchor), None
        )
        prefix = stack_of(anchor) + ";" if anchor is not None else ""
        for key, ns in sorted(host.ns.items(), key=lambda kv: -kv[1]):
            value = int(round(ns / 1e3))
            if value > 0:
                lines.append(f"{prefix}{key} {value}")
    return lines


def write_flamegraph(
    path: str,
    obs: TraceContext,
    host: Optional[HostProfiler] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in collapsed_stacks(obs, host):
            fh.write(line + "\n")
