"""Two-level data-cache model with Itanium-flavoured latencies.

The paper's section 4 analysis leans on two numbers: an integer L1D
hit costs 2 cycles, and floating-point loads bypass L1 and cost 9
cycles from L2 ("the latency of a floating point load on Itanium is 9
cycles.  Converting 9 cycle loads to 0 cycle checks can contribute
significantly").  Misses escalate to L2 and memory.

Geometry is configurable; the defaults approximate Itanium's 16 KB
4-way L1D and a unified 256 KB-class L2 with 64-byte (8-word) lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.errors import ConfigError


@dataclass
class CacheLevelConfig:
    lines: int
    associativity: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.lines < 1 or self.associativity < 1:
            raise ConfigError(
                f"cache geometry must be positive: lines={self.lines}, "
                f"associativity={self.associativity}"
            )
        if self.hit_latency < 0:
            raise ConfigError(
                f"cache hit_latency must be >= 0, got {self.hit_latency}"
            )

    @property
    def sets(self) -> int:
        return max(1, self.lines // self.associativity)


@dataclass
class CacheConfig:
    #: words per cache line (64 bytes)
    line_words: int = 8
    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(lines=256, associativity=4, hit_latency=2)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(lines=4096, associativity=8, hit_latency=9)
    )
    memory_latency: int = 120
    #: FP loads bypass L1 (Itanium): minimum latency is the L2 hit cost
    fp_min_latency: int = 9

    def __post_init__(self) -> None:
        if self.line_words < 1:
            raise ConfigError(
                f"cache line_words must be >= 1, got {self.line_words}"
            )
        for name in ("memory_latency", "fp_min_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"cache {name} must be >= 0, got {getattr(self, name)}"
                )


@dataclass
class CacheStats:
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0


#: Stands in for every set no access has touched yet.  Read-only: an
#: access that misses replaces it with the set's own dict first.
_UNTOUCHED: Mapping[int, None] = MappingProxyType({})


class _Level:
    """One cache level's sets.  Each set is a dict whose key order is
    its LRU order: a touched line moves to the end, so the first key is
    the least recently used line (the victim a per-access clock would
    pick).  A set's dict is made on its first miss, so a simulator
    builds no dicts for the sets its program never touches."""

    def __init__(self, config: CacheLevelConfig, line_words: int) -> None:
        self.line_words = line_words
        self.associativity = config.associativity
        self.nsets = config.sets
        self.sets: list = [_UNTOUCHED] * self.nsets


class CacheHierarchy:
    """L1 → L2 → memory; returns the load latency for an address.

    ``injector`` is an optional :class:`repro.chaos.FaultInjector`
    (duck-typed); it may clamp the cache geometry at construction —
    a pure timing perturbation that can never change program output.
    """

    def __init__(
        self, config: Optional[CacheConfig] = None, injector=None
    ) -> None:
        self.config = config or CacheConfig()
        if injector is not None:
            self.config = injector.effective_cache_config(self.config)
        self.stats = CacheStats()
        self._l1 = _Level(self.config.l1, self.config.line_words)
        self._l2 = _Level(self.config.l2, self.config.line_words)
        #: optional ``callable(event_name, **fields)``; set by the
        #: simulator only when tracing is on.
        self.observer = None

    def load_latency(self, addr: int, is_float: bool = False) -> int:
        # Both levels are touched inline (no per-level call): this runs
        # for every simulated load.
        stats = self.stats
        l1, l2 = self._l1, self._l2
        line = addr // l1.line_words
        if not is_float:
            index = line % l1.nsets
            bucket = l1.sets[index]
            if line in bucket:
                del bucket[line]
                bucket[line] = None
                stats.l1_hits += 1
                return self.config.l1.hit_latency
            if bucket is _UNTOUCHED:
                bucket = l1.sets[index] = {}
            elif len(bucket) >= l1.associativity:
                del bucket[next(iter(bucket))]
            bucket[line] = None
            stats.l1_misses += 1
        # FP loads bypass L1; they are satisfied from L2 at best.
        index = line % l2.nsets
        bucket = l2.sets[index]
        if line in bucket:
            del bucket[line]
            bucket[line] = None
            stats.l2_hits += 1
            if is_float:
                return self.config.fp_min_latency
            if self.observer is not None:
                self.observer("cache.miss", level="l1", addr=addr, fp=False)
            return self.config.l2.hit_latency
        if bucket is _UNTOUCHED:
            bucket = l2.sets[index] = {}
        elif len(bucket) >= l2.associativity:
            del bucket[next(iter(bucket))]
        bucket[line] = None
        stats.l2_misses += 1
        if self.observer is not None:
            self.observer("cache.miss", level="l2", addr=addr, fp=is_float)
        return self.config.memory_latency

    def store_touch(self, addr: int) -> None:
        """Stores allocate in both levels without stalling the pipe
        (write-buffer model)."""
        for level in (self._l1, self._l2):
            line = addr // level.line_words
            index = line % level.nsets
            bucket = level.sets[index]
            if line in bucket:
                del bucket[line]
            elif bucket is _UNTOUCHED:
                bucket = level.sets[index] = {}
            elif len(bucket) >= level.associativity:
                del bucket[next(iter(bucket))]
            bucket[line] = None
