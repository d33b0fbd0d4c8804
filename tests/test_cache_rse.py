"""Cache hierarchy and Register Stack Engine models."""

import pytest

from repro.errors import ConfigError
from repro.machine.cache import CacheConfig, CacheHierarchy, CacheLevelConfig
from repro.machine.rse import RegisterStackEngine, RSEConfig


# -- cache -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: CacheConfig(line_words=0),
        lambda: CacheConfig(
            l1=CacheLevelConfig(lines=256, associativity=0, hit_latency=2)
        ),
        lambda: CacheConfig(
            l2=CacheLevelConfig(lines=-1, associativity=8, hit_latency=9)
        ),
    ],
)
def test_bad_geometry_is_rejected_before_the_first_load(make):
    # A typed error at construction, not a ZeroDivisionError at the first
    # access.
    with pytest.raises(ConfigError):
        CacheHierarchy(make())


def test_first_access_misses_then_hits():
    cache = CacheHierarchy()
    cold = cache.load_latency(0x4000)
    warm = cache.load_latency(0x4000)
    assert cold == cache.config.memory_latency
    assert warm == cache.config.l1.hit_latency


def test_line_granularity():
    cache = CacheHierarchy()
    cache.load_latency(0x4000)
    # same 8-word line: hit
    assert cache.load_latency(0x4007) == cache.config.l1.hit_latency
    # next line: miss
    assert cache.load_latency(0x4008) == cache.config.memory_latency


def test_fp_loads_bypass_l1():
    cache = CacheHierarchy()
    cache.load_latency(0x4000, is_float=True)
    warm = cache.load_latency(0x4000, is_float=True)
    assert warm == cache.config.fp_min_latency == 9


def test_int_after_fp_access_misses_l1():
    cache = CacheHierarchy()
    cache.load_latency(0x4000, is_float=True)  # filled L2 only
    lat = cache.load_latency(0x4000, is_float=False)
    assert lat == cache.config.l2.hit_latency


def test_l1_capacity_eviction():
    config = CacheConfig(
        l1=CacheLevelConfig(lines=4, associativity=2, hit_latency=2),
        l2=CacheLevelConfig(lines=64, associativity=4, hit_latency=9),
    )
    cache = CacheHierarchy(config)
    # fill one L1 set (2 sets -> same set = every other line)
    line = config.line_words
    sets = config.l1.sets
    addr = lambda i: i * line * sets  # noqa: E731  all in set 0
    cache.load_latency(addr(0))
    cache.load_latency(addr(1))
    cache.load_latency(addr(2))  # evicts addr(0) from L1
    lat = cache.load_latency(addr(0))
    assert lat == config.l2.hit_latency  # still in L2


def test_sets_made_on_first_touch_behave_like_prebuilt_sets():
    """A set's dict is made on its first miss.  The same access stream
    against sets built up front gives the same latencies, statistics,
    victims and LRU order."""
    import random

    config = CacheConfig(
        l1=CacheLevelConfig(lines=16, associativity=2, hit_latency=2),
        l2=CacheLevelConfig(lines=64, associativity=4, hit_latency=9),
    )
    lazy, eager = CacheHierarchy(config), CacheHierarchy(config)
    for level in (eager._l1, eager._l2):
        level.sets = [{} for _ in range(level.nsets)]
    rng = random.Random(11)
    for _ in range(5000):
        addr = rng.randrange(2048)
        if rng.random() < 0.3:
            lazy.store_touch(addr)
            eager.store_touch(addr)
        else:
            fp = rng.random() < 0.2
            assert lazy.load_latency(addr, fp) == eager.load_latency(addr, fp)
    assert lazy.stats == eager.stats
    for a, b in ((lazy._l1, eager._l1), (lazy._l2, eager._l2)):
        assert [list(bucket) for bucket in a.sets] == [list(bucket) for bucket in b.sets]


def test_store_touch_prefills():
    cache = CacheHierarchy()
    cache.store_touch(0x5000)
    assert cache.load_latency(0x5000) == cache.config.l1.hit_latency


def test_stats_accumulate():
    cache = CacheHierarchy()
    cache.load_latency(0x6000)
    cache.load_latency(0x6000)
    assert cache.stats.l1_misses == 1 and cache.stats.l1_hits == 1


# -- RSE ----------------------------------------------------------------------


def test_no_spills_under_capacity():
    rse = RegisterStackEngine(RSEConfig(physical_registers=96))
    assert rse.call(30) == 0
    assert rse.call(30) == 0
    assert rse.call(30) == 0
    assert rse.stats.rse_cycles == 0


def test_overflow_spills_oldest():
    rse = RegisterStackEngine(RSEConfig(physical_registers=64, spill_cost=1))
    rse.call(30)
    rse.call(30)
    cycles = rse.call(30)  # 90 > 64: must spill 26 registers
    assert cycles == 26
    assert rse.stats.spilled_registers == 26


def test_return_fills_spilled_frames():
    rse = RegisterStackEngine(RSEConfig(physical_registers=64))
    rse.call(30)
    rse.call(30)
    rse.call(30)
    rse.ret()
    # caller frame had registers in backing store -> filled on return
    total = rse.ret()
    assert rse.stats.filled_registers > 0
    assert rse.stats.rse_cycles == rse.stats.spilled_registers + rse.stats.filled_registers


def test_deep_recursion_traffic_grows():
    shallow = RegisterStackEngine(RSEConfig(physical_registers=32))
    for _ in range(4):
        shallow.call(10)
    shallow_traffic = shallow.stats.rse_cycles

    deep = RegisterStackEngine(RSEConfig(physical_registers=32))
    for _ in range(40):
        deep.call(10)
    assert deep.stats.rse_cycles > shallow_traffic


def test_bigger_frames_mean_more_traffic():
    """Promotion grows frames; RSE traffic should grow monotonically —
    the effect Figure 11 quantifies."""
    def traffic(frame_size):
        rse = RegisterStackEngine(RSEConfig(physical_registers=96))
        for _ in range(8):
            rse.call(frame_size)
        for _ in range(8):
            rse.ret()
        return rse.stats.rse_cycles

    assert traffic(10) <= traffic(20) <= traffic(40)


def test_depth_tracking():
    rse = RegisterStackEngine()
    rse.call(5)
    rse.call(5)
    assert rse.depth == 2
    rse.ret()
    assert rse.depth == 1
    assert rse.stats.max_depth == 2
