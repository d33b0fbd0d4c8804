"""The Advanced Load Address Table.

Modelled after the Itanium implementation the paper describes
(section 2.1): a small set-associative table indexed by the target
register number, whose entries hold the register tag, a *partial*
physical address, and the access size.  Every store compares its
address against all valid entries and invalidates matches
("collisions"); checks probe by register tag.

Partial addresses are a genuine Itanium cost-saving trick the paper
calls out in section 5 — two different full addresses can share partial
bits, producing spurious collisions.  ``partial_bits`` controls this
(word-address bits kept; default keeps enough to make false collisions
rare but possible, matching hardware behaviour).

Register tags include the activation serial so the model mirrors
register-stack renaming: a callee's r5 is not the caller's r5.

The table also keeps a multiset of its live entries' partial addresses,
so a store that matches no entry (nearly every store) is answered by
one dictionary probe instead of a scan of every set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

#: An entry tag: (activation serial, register number).
RegTag = tuple[int, int]


def set_index_for_register(register: int, config: "ALATConfig") -> int:
    """The ALAT set a register's entry lands in.

    The table is indexed purely by target register number (the
    activation serial picks the *entry* within a set, never the set), so
    this mapping is static per compiled function — the property the
    compile-time pressure model in :mod:`repro.analysis.alatpressure`
    relies on to predict way conflicts without running anything.
    """
    return register % config.sets


def partial_address(addr: int, config: "ALATConfig") -> int:
    """The partial (truncated) word address an entry stores."""
    return addr & ((1 << config.partial_bits) - 1)


@dataclass
class ALATConfig:
    """Geometry of the table (Itanium: 32 entries, 2-way)."""

    entries: int = 32
    associativity: int = 2
    #: bits of the word address kept in the entry
    partial_bits: int = 20

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ConfigError(
                f"ALAT geometry must be positive: entries={self.entries}, "
                f"associativity={self.associativity}"
            )
        if self.entries % self.associativity != 0:
            raise ConfigError(
                f"ALAT entries ({self.entries}) must be a multiple of the "
                f"associativity ({self.associativity})"
            )
        if not 0 < self.partial_bits <= 64:
            raise ConfigError(
                f"ALAT partial_bits must be in (0, 64], got {self.partial_bits}"
            )

    @property
    def sets(self) -> int:
        return self.entries // self.associativity


@dataclass
class ALATStats:
    allocations: int = 0
    store_collisions: int = 0  # entries invalidated by stores
    capacity_evictions: int = 0
    #: invala.e instructions executed (attempts, present entry or not)
    explicit_invalidations: int = 0
    #: invala.e executions that actually dropped a live entry
    explicit_drops: int = 0
    check_hits: int = 0
    check_misses: int = 0
    #: high-water mark of simultaneously valid entries; the dynamic
    #: ground truth the static occupancy model is calibrated against
    peak_occupancy: int = 0
    #: chaos-injected faults (zero outside fault-injection runs); every
    #: injected fault is visible here *and* as a ``chaos.fault`` trace
    #: event — the accounting invariant ``repro.chaos`` enforces.
    chaos_dropped_allocations: int = 0
    chaos_spurious_invalidations: int = 0
    chaos_flushes: int = 0


@dataclass
class _Entry:
    tag: RegTag
    partial_addr: int
    lru: int


class ALAT:
    """Functional ALAT model.

    ``injector`` is an optional :class:`repro.chaos.FaultInjector`
    (duck-typed: the machine layer never imports ``repro.chaos``).  It
    may clamp the geometry at construction and, at run time, drop
    allocations or spuriously invalidate live entries — faults that are
    *safe by construction*: they only ever remove entries, so a check
    can spuriously miss (costing a reload) but never spuriously hit.
    """

    def __init__(
        self, config: Optional[ALATConfig] = None, injector=None
    ) -> None:
        self.config = config or ALATConfig()
        self.injector = injector
        if injector is not None:
            self.config = injector.effective_alat_config(self.config)
        self.stats = ALATStats()
        self._sets: list[list[_Entry]] = [[] for _ in range(self.config.sets)]
        #: live entries per partial address (absent keys: none live)
        self._live: dict[int, int] = {}
        self._mask = (1 << self.config.partial_bits) - 1
        self._clock = 0
        #: optional ``callable(event_name, **fields)`` — set by the
        #: simulator only when tracing is on, so the None check is the
        #: entire cost of the instrumentation otherwise.
        self.observer = None

    # -- helpers ----------------------------------------------------------

    def _partial(self, addr: int) -> int:
        return partial_address(addr, self.config)

    def _set_index(self, tag: RegTag) -> int:
        return set_index_for_register(tag[1], self.config)

    def _find(self, tag: RegTag) -> Optional[_Entry]:
        for entry in self._sets[self._set_index(tag)]:
            if entry.tag == tag:
                return entry
        return None

    def _unlive(self, partial: int) -> None:
        live = self._live
        if live[partial] == 1:
            del live[partial]
        else:
            live[partial] -= 1

    def _remove(self, set_index: int, entry: _Entry) -> None:
        self._sets[set_index].remove(entry)
        self._unlive(entry.partial_addr)

    # -- operations ---------------------------------------------------------

    def allocate(self, tag: RegTag, addr: int) -> None:
        """ld.a / ld.sa: (re-)allocate the entry for ``tag``."""
        self._clock += 1
        self.stats.allocations += 1
        existing = self._find(tag)
        if self.injector is not None and self.injector.drop_allocation():
            # Injected fault: the table silently fails to latch the
            # entry.  ld.a replaces the register's entry, so the old one
            # goes too (it guards the old address, not the new value).
            # Subsequent checks miss and reload — safe.
            if existing is not None:
                self._remove(self._set_index(tag), existing)
            self.stats.chaos_dropped_allocations += 1
            if self.observer is not None:
                self.observer("chaos.fault", kind="drop_alloc", tag=tag, addr=addr)
            return
        bucket = self._sets[self._set_index(tag)]
        partial = self._partial(addr)
        live = self._live
        if existing is not None:
            self._unlive(existing.partial_addr)
            live[partial] = live.get(partial, 0) + 1
            existing.partial_addr = partial
            existing.lru = self._clock
            if self.observer is not None:
                self.observer("alat.allocate", tag=tag, addr=addr, refresh=True)
            return
        if len(bucket) >= self.config.associativity:
            victim = min(bucket, key=lambda e: e.lru)
            bucket.remove(victim)
            self._unlive(victim.partial_addr)
            self.stats.capacity_evictions += 1
            if self.observer is not None:
                self.observer("alat.evict", tag=victim.tag)
        bucket.append(_Entry(tag, partial, self._clock))
        live[partial] = live.get(partial, 0) + 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, self.occupancy)
        if self.observer is not None:
            self.observer("alat.allocate", tag=tag, addr=addr, refresh=False)

    def snoop_store(self, addr: int) -> int:
        """Every store: invalidate entries whose partial address matches.
        Returns the number of collisions."""
        partial = addr & self._mask
        if partial not in self._live:
            return 0
        del self._live[partial]
        removed = 0
        for bucket in self._sets:
            keep = []
            for entry in bucket:
                if entry.partial_addr == partial:
                    removed += 1
                    if self.observer is not None:
                        self.observer("alat.collision", tag=entry.tag, addr=addr)
                else:
                    keep.append(entry)
            if removed:
                bucket[:] = keep
        if removed:
            self.stats.store_collisions += removed
        return removed

    def check(self, tag: RegTag, clear: bool) -> bool:
        """ld.c / chk.a probe: True when the entry survived."""
        if self.injector is not None:
            victim = self.injector.spurious_victim(self._sets)
            if victim is not None:
                set_index, entry = victim
                self._remove(set_index, entry)
                self.stats.chaos_spurious_invalidations += 1
                if self.observer is not None:
                    self.observer(
                        "chaos.fault", kind="spurious_invalidate", tag=entry.tag
                    )
        entry = self._find(tag)
        if entry is None:
            self.stats.check_misses += 1
            if self.observer is not None:
                self.observer("alat.check", tag=tag, hit=False, clear=clear)
            return False
        self.stats.check_hits += 1
        if clear:
            self._remove(self._set_index(tag), entry)
        else:
            self._clock += 1
            entry.lru = self._clock
        if self.observer is not None:
            self.observer("alat.check", tag=tag, hit=True, clear=clear)
        return True

    def invalidate_entry(self, tag: RegTag) -> bool:
        """invala.e: drop one entry if present.

        ``explicit_invalidations`` counts executions of the instruction;
        ``explicit_drops`` counts the subset that found a live entry to
        remove (distinguishing dead invalidates from effective ones).
        Returns True when an entry was dropped.
        """
        entry = self._find(tag)
        dropped = entry is not None
        if dropped:
            self._remove(self._set_index(tag), entry)
            self.stats.explicit_drops += 1
        self.stats.explicit_invalidations += 1
        if self.observer is not None:
            self.observer("alat.invalidate", tag=tag, dropped=dropped)
        return dropped

    def invalidate_all(self) -> None:
        """invala: flush the table (also used at context boundaries)."""
        for bucket in self._sets:
            bucket.clear()
        self._live.clear()

    def chaos_flush(self) -> None:
        """Injected context-switch flush: the OS ran another thread and
        the whole table is gone (architecturally allowed at any time —
        software may never rely on an entry surviving)."""
        dropped = self.occupancy
        self.invalidate_all()
        self.stats.chaos_flushes += 1
        if self.observer is not None:
            self.observer("chaos.fault", kind="flush", dropped=dropped)

    @property
    def occupancy(self) -> int:
        return sum(len(b) for b in self._sets)
