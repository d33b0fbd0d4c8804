"""Per-layer self time and counts, measured from outside the compiler.

:class:`Tracer` rebinds the public entry point of each layer (``LAYERS``)
to a timing wrapper.  A method is rebound on its class; a function is
rebound at every module global of every loaded module that holds it, so
``from repro.minic.lower import compile_to_ir`` in another module is
covered too.  Modules imported after :meth:`Tracer.install` read the
rebound attribute from the defining module.  Nothing under ``src/`` is
edited.

A layer's self time is the time inside its wrapped calls minus the time
inside wrapped calls they made.  Counts come from each call's arguments
and result (``observe``), sometimes against a value read before the call
(``snapshot``), so the program is not asked to count anything.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class LayerStats:
    """What the wrappers of one layer accumulated."""

    calls: int = 0
    self_ns: int = 0
    #: time inside the layer's calls, children included
    total_ns: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# -- observers: (stats, args, result, before) -> None --------------------


def _machine(stats, args, result, before) -> None:
    c = result.counters
    stats.add("instr", c.instructions)
    stats.add("cycles", c.cpu_cycles)
    stats.add("checks", c.check_instructions)
    stats.add("check_fails", c.check_failures)


def _interp(stats, args, result, before) -> None:
    stats.add("steps", result.stats.steps)


def _profile(stats, args, result, before) -> None:
    stats.add("steps", result[1].stats.steps)


def _frontend(stats, args, result, before) -> None:
    stats.add("bytes", len(args[0].encode("utf-8")))


def _pre(stats, args, result, before) -> None:
    stats.add("checks", result.checks)
    stats.add("reloads", result.reloads)


def _codegen(stats, args, result, before) -> None:
    stats.add("minstrs", sum(len(f.instrs) for f in result.functions.values()))


def _pool_snapshot(args) -> int:
    return args[0].ledger.retries


def _pool(stats, args, result, before) -> None:
    stats.add("retries", args[0].ledger.retries - before)
    stats.add("busy_ms", sum(r.wall_ms for r in result if not r.from_cache))
    stats.counts["workers"] = args[0].n_workers


def _cache_snapshot(args) -> int:
    return args[0].stats.quarantined


def _cache_get(stats, args, result, before) -> None:
    stats.add("hits" if result is not None else "misses", 1)
    stats.add("quarantined", args[0].stats.quarantined - before)


@dataclass(frozen=True)
class EntryPoint:
    layer: str
    module: str
    #: ``function`` or ``Class.method``
    name: str
    observe: Optional[Callable] = None
    snapshot: Optional[Callable] = None


LAYERS = (
    EntryPoint("machine", "repro.machine.cpu", "Simulator.run", _machine),
    EntryPoint("ir.interp", "repro.ir.interp", "run_module", _interp),
    EntryPoint("speculation", "repro.speculation.profile",
               "collect_alias_profile", _profile),
    EntryPoint("minic", "repro.minic.lower", "compile_to_ir", _frontend),
    EntryPoint("alias", "repro.alias.manager", "AliasManager.__init__"),
    EntryPoint("ssa", "repro.ssa.hssa", "build_hssa"),
    EntryPoint("pre", "repro.pre.driver", "run_load_pre", _pre),
    EntryPoint("pre", "repro.pre.scalarrepl", "promote_module_scalars"),
    EntryPoint("analysis", "repro.analysis.alatpressure",
               "analyze_module_pressure"),
    EntryPoint("opt", "repro.opt.driver", "cleanup_module"),
    EntryPoint("ir.verify", "repro.ir.verify", "verify_module"),
    EntryPoint("target", "repro.target.codegen", "generate_machine_code",
               _codegen),
    EntryPoint("speclint", "repro.speclint", "run_speclint"),
    EntryPoint("pipeline", "repro.pipeline.driver", "compile_source"),
    EntryPoint("workloads", "repro.workloads.runner", "run_benchmark"),
    EntryPoint("chaos", "repro.chaos.campaign", "check_program"),
    EntryPoint("service.pool", "repro.service.pool", "JobPool.run", _pool,
               _pool_snapshot),
    EntryPoint("service.cache", "repro.service.cache", "ArtifactCache.get",
               _cache_get, _cache_snapshot),
    EntryPoint("service.cache", "repro.service.cache", "ArtifactCache.put"),
)

LAYER_NAMES = tuple(dict.fromkeys(e.layer for e in LAYERS))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Installs the wrappers, accumulates :class:`LayerStats`, and turns
    them into per-layer metrics."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in LAYER_NAMES}
        #: time inside outermost wrapped calls (for ``trace.coverage``)
        self.covered_ns = 0
        #: one ``[child_ns]`` cell per wrapped call in progress
        self._stack: list[list[int]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        stats = self.stats[entry.layer]
        stack = self._stack
        observe, snapshot = entry.observe, entry.snapshot
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            before = snapshot(args) if snapshot is not None else None
            cell = [0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.self_ns += elapsed - cell[0]
                stats.total_ns += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered_ns += elapsed
            if observe is not None:
                observe(stats, args, result, before)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for entry in LAYERS:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._rebind(owner, attr, self._wrap(entry, vars(owner)[attr]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(entry, original)
            for mod in list(sys.modules.values()):
                names = getattr(mod, "__dict__", None)
                if not names or mod is sys.modules[__name__]:
                    continue
                for key, value in list(names.items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one pass (totals divided by ``passes``),
        plus ``trace.coverage``: the share of ``wall_s``, the time all
        ops took, spent inside wrapped calls."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.self_s"] = s.self_ns / 1e9 / passes
            out[f"{name}.calls"] = s.calls / passes

        def count(layer: str, key: str) -> float:
            return self.stats[layer].counts.get(key, 0) / passes

        def self_s(layer: str) -> float:
            return out[f"{layer}.self_s"]

        instr = count("machine", "instr")
        out["machine.instr"] = instr
        out["machine.cycles"] = count("machine", "cycles")
        out["machine.instr_per_s"] = _ratio(instr, self_s("machine"))
        out["machine.cpi"] = _ratio(count("machine", "cycles"), instr)
        out["machine.check_fail_ratio"] = _ratio(
            count("machine", "check_fails"), count("machine", "checks")
        )
        steps = count("ir.interp", "steps")
        out["ir.interp.steps"] = steps
        out["ir.interp.steps_per_s"] = _ratio(steps, self_s("ir.interp"))
        out["speculation.steps"] = count("speculation", "steps")
        out["minic.kb_per_s"] = _ratio(
            count("minic", "bytes") / 1024, self_s("minic")
        )
        out["pre.checks"] = count("pre", "checks")
        out["pre.reloads"] = count("pre", "reloads")
        out["target.minstrs"] = count("target", "minstrs")

        pool = self.stats["service.pool"]
        out["service.pool.retries"] = count("service.pool", "retries")
        out["service.pool.busy_share"] = _ratio(
            pool.counts.get("busy_ms", 0) / 1e3,
            pool.counts.get("workers", 0) * pool.total_ns / 1e9,
        )
        hits = count("service.cache", "hits")
        misses = count("service.cache", "misses")
        out["service.cache.hits"] = hits
        out["service.cache.misses"] = misses
        out["service.cache.hit_ratio"] = _ratio(hits, hits + misses)
        out["service.cache.quarantined"] = count("service.cache", "quarantined")
        out["trace.coverage"] = _ratio(self.covered_ns / 1e9, wall_s)
        return out
