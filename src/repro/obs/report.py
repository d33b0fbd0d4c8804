"""Metrics aggregation and the human-readable summary report.

``build_metrics`` folds one compilation + run into a plain dict (JSON-
ready) — compiler options, phase wall times, PRE promotion stats, the
pfmon-style counters, and the ALAT/cache/RSE statistics.  It is what
``python -m repro --metrics-out FILE`` writes and what the benchmark
harness aggregates.

``format_summary`` renders the same dict for humans, including the
paper's derived figures (misspeculation ratio, checks-per-load).
"""

from __future__ import annotations

from dataclasses import asdict


def build_metrics(output, result=None, obs=None, host=None) -> dict:
    """Flatten a :class:`repro.pipeline.CompileOutput` (+ optional
    :class:`repro.machine.cpu.MachineResult`,
    :class:`repro.obs.TraceContext`, and
    :class:`repro.obs.telemetry.HostProfiler`) into one JSON-ready
    dict.  The ``host`` section carries host-side performance — total
    wall time, simulate-phase wall time, simulated steps per host
    second, peak allocations; a run record leaves it out, because
    host time is noisy where counters are exact (DESIGN.md §13)."""
    metrics: dict = {
        "program": output.module.name,
        "options": output.options.describe(),
    }
    if obs is None:
        obs = getattr(output, "obs", None)
    if obs is not None and obs.phase_times:
        metrics["phase_wall_ms"] = {
            name: round(seconds * 1e3, 3)
            for name, seconds in obs.phase_times.items()
        }
        if obs.phase_mem_kb:
            metrics["phase_mem_kb"] = dict(obs.phase_mem_kb)
    if output.pre_stats:
        metrics["pre"] = {
            name: {
                "saves": stats.saves,
                "reloads": stats.reloads,
                "checks": stats.checks,
                "inserts": stats.inserts,
                "speculative_inserts": stats.speculative_inserts,
                "invalidates": stats.invalidates,
                "left_saves": stats.left_saves,
            }
            for name, stats in output.pre_stats.items()
        }
    if result is not None:
        counters = result.counters
        metrics["counters"] = counters.as_dict()
        metrics["derived"] = {
            "misspeculation_ratio": counters.misspeculation_ratio,
            "checks_per_load": counters.checks_per_load,
        }
        metrics["alat"] = asdict(result.alat_stats)
        metrics["cache"] = asdict(result.cache_stats)
        metrics["rse"] = asdict(result.rse_stats)
        metrics["exit_value"] = result.exit_value
    host_metrics = build_host_metrics(result, obs, host)
    if host_metrics:
        metrics["host"] = host_metrics
    return metrics


def build_host_metrics(result, obs, host=None) -> dict:
    """The ``host`` section of a metrics dict (empty when there is
    nothing host-side to report): total/simulate wall ms, simulated
    steps per host second, tracemalloc peak, optional profiler dump."""
    out: dict = {}
    if obs is not None and obs.phase_times:
        out["wall_ms"] = round(sum(obs.phase_times.values()) * 1e3, 3)
        simulate_s = obs.phase_times.get("simulate")
        if simulate_s:
            out["simulate_wall_ms"] = round(simulate_s * 1e3, 3)
            if result is not None and result.counters.instructions:
                out["sim_steps_per_sec"] = round(
                    result.counters.instructions / simulate_s, 1
                )
        if obs.phase_mem_kb:
            out["peak_kb"] = round(max(obs.phase_mem_kb.values()), 1)
    if host is not None and host.ns:
        out["profile"] = host.as_dict()
    return out


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def format_summary(metrics: dict) -> str:
    """Human-readable report of one run's metrics dict."""
    lines = [
        f"== {metrics.get('program', 'program')} ({metrics.get('options', '?')}) =="
    ]
    phases = metrics.get("phase_wall_ms")
    if phases:
        total = sum(phases.values())
        mem = metrics.get("phase_mem_kb", {})
        lines.append(f"-- phases ({total:.1f} ms total)")
        for name, ms in phases.items():
            line = f"   {name:<12} {ms:>10.3f} ms"
            if name in mem:
                line += f"  peak {mem[name]:>9.1f} KiB"
            lines.append(line)
    pre = metrics.get("pre")
    if pre:
        lines.append("-- register promotion (per function)")
        for fn, stats in pre.items():
            lines.append(
                f"   {fn:<12} saves={stats['saves']} reloads={stats['reloads']} "
                f"checks={stats['checks']} inserts={stats['inserts']} "
                f"invalidates={stats['invalidates']}"
            )
    counters = metrics.get("counters")
    if counters:
        lines.append("-- counters")
        for key, value in counters.items():
            lines.append(f"   {key:<24} {value}")
    derived = metrics.get("derived")
    if derived:
        lines.append(
            "   misspeculation ratio     "
            + _pct(derived["misspeculation_ratio"])
        )
        lines.append(
            "   checks per load          " + _pct(derived["checks_per_load"])
        )
    alat = metrics.get("alat")
    if alat:
        lines.append(
            "-- ALAT  alloc={allocations} store_collisions={store_collisions} "
            "evictions={capacity_evictions} hits={check_hits} "
            "misses={check_misses}".format(**alat)
        )
    cache = metrics.get("cache")
    if cache:
        lines.append(
            "-- cache L1 {l1_hits}/{l1_misses} (hit/miss)  "
            "L2 {l2_hits}/{l2_misses}".format(**cache)
        )
    rse = metrics.get("rse")
    if rse:
        lines.append(
            "-- RSE   spilled={spilled_registers} filled={filled_registers} "
            "cycles={rse_cycles} max_depth={max_depth}".format(**rse)
        )
    host = metrics.get("host")
    if host:
        parts = [f"wall={host['wall_ms']:.1f}ms"]
        if "simulate_wall_ms" in host:
            parts.append(f"simulate={host['simulate_wall_ms']:.1f}ms")
        if "sim_steps_per_sec" in host:
            parts.append(f"steps/s={host['sim_steps_per_sec']:,.0f}")
        if "peak_kb" in host:
            parts.append(f"peak={host['peak_kb']:.0f}KiB")
        lines.append("-- host  " + " ".join(parts))
        profile = host.get("profile")
        if profile:
            lines.append(
                f"   profiled {profile['total_ms']:.2f} ms across "
                f"{len(profile['buckets'])} buckets "
                f"(top: {next(iter(profile['buckets']), '-')})"
            )
    return "\n".join(lines)


def misspeculation_breakdown(events: list[dict]) -> dict:
    """Attribute ALAT check misses from a trace (Figure 10 worked
    example in DESIGN.md).

    Takes parsed trace events (``repro.obs.read_jsonl``) and classifies
    every ``alat.check`` miss by what killed the entry most recently:
    a store collision, a capacity eviction, an explicit ``invala.e``,
    or no allocation at all on this path (control speculation).
    Returns ``{"collision": n, "capacity": n, "invalidate": n,
    "never_allocated": n, "hits": n}``.
    """
    last_death: dict[tuple, str] = {}
    alive: set[tuple] = set()
    out = {
        "collision": 0,
        "capacity": 0,
        "invalidate": 0,
        "never_allocated": 0,
        "hits": 0,
    }
    for ev in events:
        name = ev.get("event")
        if name == "alat.allocate":
            tag = tuple(ev["tag"])
            alive.add(tag)
            last_death.pop(tag, None)
        elif name == "alat.collision":
            tag = tuple(ev["tag"])
            alive.discard(tag)
            last_death[tag] = "collision"
        elif name == "alat.evict":
            tag = tuple(ev["tag"])
            alive.discard(tag)
            last_death[tag] = "capacity"
        elif name == "alat.invalidate":
            tag = tuple(ev["tag"])
            if ev.get("dropped"):
                alive.discard(tag)
                last_death[tag] = "invalidate"
        elif name == "alat.check":
            tag = tuple(ev["tag"])
            if ev.get("hit"):
                out["hits"] += 1
                if ev.get("clear"):
                    alive.discard(tag)
            else:
                out[last_death.get(tag, "never_allocated")] += 1
    return out
