"""ALAT/cache fault injection: plans, the injector, and its accounting.

The paper's safety argument (sections 2.1 and 5) is that the ALAT may
*lose* entries at any time — store collisions, capacity evictions,
partial-address false collisions, context switches — and the worst case
is always a reload, never a wrong value.  The fault injector weaponises
exactly that freedom: every fault it can inject is one the architecture
already permits, so a program whose output changes under injection has
found a genuine compiler bug (a check rewrite that silently relied on
an entry surviving).

Fault kinds
-----------
Static (applied once, at component construction):

* ``clamp_entries`` / ``clamp_associativity`` — shrink the table so
  capacity evictions dominate;
* ``narrow_partial_bits`` — keep fewer partial-address bits so
  unrelated stores produce false collisions;
* ``clamp_cache`` — shrink a cache level (pure timing perturbation).

Dynamic (seeded RNG, per simulated event):

* ``drop_alloc`` — an ``ld.a``/``ld.sa`` fails to latch its entry;
* ``spurious_invalidate`` — a random live entry dies just before a
  check probes the table;
* ``flush`` — a context switch wipes the whole table mid-run.

Accounting invariant
--------------------
Every injected fault is triple-counted: in :class:`FaultInjector`
``counts``, in the chaos fields of
:class:`repro.machine.alat.ALATStats`, and as one ``chaos.fault`` trace
event.  ``repro.chaos.campaign`` cross-checks all three after every
run, so a fault that the observability layer would hide is itself a
reported failure.

Determinism: the injector draws from ``random.Random(plan.seed)`` at
well-defined simulation points, so the same (program, args, plan)
triple replays the identical fault sequence — the property
``tests/test_chaos.py`` pins and the reducer relies on.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.machine.alat import ALATConfig
from repro.machine.cache import CacheConfig, CacheLevelConfig


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible fault schedule (all knobs default to 'off')."""

    name: str = "none"
    seed: int = 0
    #: geometry overrides (None = keep the configured value)
    alat_entries: Optional[int] = None
    alat_associativity: Optional[int] = None
    partial_bits: Optional[int] = None
    l1_lines: Optional[int] = None
    l2_lines: Optional[int] = None
    #: probability an ld.a/ld.sa fails to latch its ALAT entry
    drop_alloc_rate: float = 0.0
    #: probability a check is preceded by one random live entry dying
    spurious_invalidate_rate: float = 0.0
    #: per-retired-instruction probability of a full table flush
    flush_rate: float = 0.0

    def describe(self) -> str:
        knobs = []
        if self.alat_entries is not None:
            knobs.append(f"entries={self.alat_entries}")
        if self.alat_associativity is not None:
            knobs.append(f"assoc={self.alat_associativity}")
        if self.partial_bits is not None:
            knobs.append(f"partial={self.partial_bits}")
        if self.l1_lines is not None:
            knobs.append(f"l1={self.l1_lines}")
        if self.l2_lines is not None:
            knobs.append(f"l2={self.l2_lines}")
        if self.drop_alloc_rate:
            knobs.append(f"drop={self.drop_alloc_rate}")
        if self.spurious_invalidate_rate:
            knobs.append(f"inval={self.spurious_invalidate_rate}")
        if self.flush_rate:
            knobs.append(f"flush={self.flush_rate}")
        inner = ", ".join(knobs) if knobs else "no faults"
        return f"{self.name}({inner}; seed={self.seed})"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def default_fault_plans(seed: int = 0, count: int = 3) -> list[FaultPlan]:
    """The standard three-plan battery the campaign and CI run.

    Each plan stresses a different loss mechanism from the paper's
    section 5 discussion: capacity pressure, partial-address false
    collisions, and asynchronous invalidation.
    """
    plans = [
        FaultPlan(
            name="capacity-storm",
            seed=seed * 31 + 1,
            alat_entries=2,
            alat_associativity=2,
            drop_alloc_rate=0.1,
            spurious_invalidate_rate=0.2,
        ),
        FaultPlan(
            name="false-collisions",
            seed=seed * 31 + 2,
            partial_bits=3,
            l1_lines=8,
            flush_rate=0.002,
        ),
        FaultPlan(
            name="async-invalidation",
            seed=seed * 31 + 3,
            spurious_invalidate_rate=0.5,
            drop_alloc_rate=0.25,
            flush_rate=0.01,
        ),
    ]
    return plans[: max(1, count)]


@dataclass
class FaultStats:
    """Per-kind injected-fault counts."""

    counts: dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class FaultInjector:
    """Executes one :class:`FaultPlan` against one simulated run.

    The machine layer (``repro.machine.{alat,cache,cpu}``) holds a
    duck-typed reference; this module owns the RNG, the plan, and the
    fault accounting.  One injector serves exactly one ``Simulator`` —
    reusing it across runs would entangle their RNG streams.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        #: static faults applied at construction, as (kind, detail)
        #: rows the simulator re-emits as ``chaos.fault`` trace events.
        self.static_faults: list[tuple[str, dict]] = []

    # -- static geometry faults (construction time) ---------------------

    def effective_alat_config(self, config: ALATConfig) -> ALATConfig:
        plan = self.plan
        out = config
        if plan.alat_entries is not None and plan.alat_entries != out.entries:
            self._static("clamp_entries", field="entries",
                         before=out.entries, after=plan.alat_entries)
            out = dataclasses.replace(out, entries=plan.alat_entries)
        if (plan.alat_associativity is not None
                and plan.alat_associativity != out.associativity):
            self._static("clamp_associativity", field="associativity",
                         before=out.associativity,
                         after=plan.alat_associativity)
            out = dataclasses.replace(
                out, associativity=plan.alat_associativity
            )
        if plan.partial_bits is not None and plan.partial_bits != out.partial_bits:
            self._static("narrow_partial_bits", field="partial_bits",
                         before=out.partial_bits, after=plan.partial_bits)
            out = dataclasses.replace(out, partial_bits=plan.partial_bits)
        return out

    def effective_cache_config(self, config: CacheConfig) -> CacheConfig:
        plan = self.plan
        out = config
        for attr, lines in (("l1", plan.l1_lines), ("l2", plan.l2_lines)):
            level: CacheLevelConfig = getattr(out, attr)
            if lines is None or lines == level.lines:
                continue
            self._static("clamp_cache", field=f"{attr}_lines",
                         before=level.lines, after=lines)
            out = dataclasses.replace(
                out, **{attr: dataclasses.replace(level, lines=lines)}
            )
        return out

    def _static(self, kind: str, **detail) -> None:
        self.stats.note(kind)
        self.static_faults.append((kind, detail))

    # -- dynamic faults (simulation time) -------------------------------

    def drop_allocation(self) -> bool:
        """True = the current ld.a/ld.sa must not latch its entry."""
        rate = self.plan.drop_alloc_rate
        if rate and self.rng.random() < rate:
            self.stats.note("drop_alloc")
            return True
        return False

    def spurious_victim(self, sets):
        """Pick a live entry to kill before a check probes the table.

        Returns ``(set_index, entry)`` or ``None``.  Counted only when
        a victim actually exists, so injector counts always equal the
        entries that really died.
        """
        rate = self.plan.spurious_invalidate_rate
        if not rate or self.rng.random() >= rate:
            return None
        live = [
            (i, entry) for i, bucket in enumerate(sets) for entry in bucket
        ]
        if not live:
            return None
        self.stats.note("spurious_invalidate")
        return self.rng.choice(live)

    @property
    def flushes(self) -> bool:
        """Whether :meth:`context_switch` can ever return True.  When it
        cannot, it draws no random number either, so the simulator may
        skip the call without moving the RNG stream."""
        return bool(self.plan.flush_rate)

    def context_switch(self) -> bool:
        """True = flush the whole ALAT at this retired instruction."""
        rate = self.plan.flush_rate
        if rate and self.rng.random() < rate:
            self.stats.note("flush")
            return True
        return False
