"""Unit tests for the set-associative caches and hierarchy."""

import pytest

from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.dram import DRAMModel
from repro.hw.params import CacheParams, baseline_machine

#: Trace-record kind codes, as CacheHierarchy.access takes them.
IFETCH = 0


def small_cache(size=1024, ways=2, line=64, cycles=2, name="T"):
    return SetAssociativeCache(CacheParams(name, size, ways, line, cycles))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1004)
        assert cache.lookup(0x103F)

    def test_different_line_misses(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert not cache.lookup(0x1040)

    def test_lru_eviction_order(self):
        cache = small_cache(size=256, ways=2)  # 2 sets
        sets = cache.num_sets
        # Three lines mapping to set 0.
        line = 64
        a, b, c = 0, sets * line, 2 * sets * line
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a)          # a is now MRU
        cache.insert(c)          # evicts b
        assert cache.lookup(a)
        assert not cache.lookup(b)
        assert cache.lookup(c)

    def test_eviction_counted(self):
        cache = small_cache(size=128, ways=1)
        line = 64
        cache.insert(0)
        cache.insert(cache.num_sets * line)
        assert cache.evictions == 1

    def test_dirty_writeback(self):
        cache = small_cache(size=128, ways=1)
        line = 64
        cache.insert(0, is_write=True)
        cache.insert(cache.num_sets * line)
        assert cache.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(size=128, ways=1)
        cache.insert(0, is_write=False)
        cache.insert(cache.num_sets * 64)
        assert cache.writebacks == 0

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(0x2000)
        cache.invalidate(0x2000)
        assert not cache.lookup(0x2000)

    def test_flush(self):
        cache = small_cache()
        for addr in range(0, 512, 64):
            cache.insert(addr)
        cache.flush()
        assert cache.occupancy == 0

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(size=1024, ways=2)
        for addr in range(0, 1 << 16, 64):
            cache.insert(addr)
        assert cache.occupancy <= cache.num_sets * cache.ways

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheParams("bad", 192, 1, 64, 1))

    def test_hit_miss_counters(self):
        cache = small_cache()
        cache.lookup(0)
        cache.insert(0)
        cache.lookup(0)
        assert cache.misses == 1
        assert cache.hits == 1


def served_by(hierarchy, cycles, kind_code=1, skip_l1=False):
    """The level that served an access, read off its cycle count: the
    lookup is sequential, so each level adds its access time in turn
    and only DRAM adds more than L1+L2+L3."""
    l1 = hierarchy.l1i[0] if kind_code == IFETCH else hierarchy.l1d[0]
    total = 0 if skip_l1 else l1.access_cycles
    if cycles == total and not skip_l1:
        return "L1"
    total += hierarchy.l2[0].access_cycles
    if cycles == total:
        return "L2"
    total += hierarchy.l3.access_cycles
    if cycles == total:
        return "L3"
    assert cycles > total
    return "DRAM"


class TestCacheHierarchy:
    """The hierarchy on the reference caches; TestCacheHierarchyFast
    reruns every case on the fast backing."""

    fastpath = False

    def make(self, cores=2):
        machine = baseline_machine(cores=cores)
        return CacheHierarchy(machine, DRAMModel(machine.dram),
                              fastpath=self.fastpath)

    def test_first_access_reaches_dram(self):
        hierarchy = self.make()
        cycles = hierarchy.access(0, 0x123456)
        assert served_by(hierarchy, cycles) == "DRAM"
        assert cycles > 40

    def test_second_access_hits_l1(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x123456)
        cycles = hierarchy.access(0, 0x123456)
        assert served_by(hierarchy, cycles) == "L1"
        assert cycles == hierarchy.l1d[0].params.access_cycles
        assert hierarchy.l1d[0].hits == 1

    def test_cross_core_sharing_through_l3(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x9000)
        cycles = hierarchy.access(1, 0x9000)
        assert served_by(hierarchy, cycles) == "L3"
        assert hierarchy.l3.hits == 1

    def test_skip_l1_for_walker_requests(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x4000, skip_l1=True)
        # The line went to L2 but not L1.
        cycles = hierarchy.access(0, 0x4000, skip_l1=True)
        assert served_by(hierarchy, cycles, skip_l1=True) == "L2"
        cycles = hierarchy.access(0, 0x4000)
        assert served_by(hierarchy, cycles) == "L2"
        assert hierarchy.l1d[0].hits == 0

    def test_ifetch_uses_l1i(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x8000, IFETCH)
        cycles = hierarchy.access(0, 0x8000, IFETCH)
        assert served_by(hierarchy, cycles, IFETCH) == "L1"
        assert hierarchy.l1i[0].hits == 1
        assert hierarchy.l1d[0].hits == 0

    def test_invalidate_line_everywhere(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xA000)
        hierarchy.access(1, 0xA000)
        hierarchy.invalidate_line(0xA000)
        cycles = hierarchy.access(0, 0xA000)
        assert served_by(hierarchy, cycles) == "DRAM"

    def test_stats_keys(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xB000)
        stats = hierarchy.stats()
        for key in ("l1d_hits", "l2_misses", "l3_hits"):
            assert key in stats

    def test_private_l2_isolation(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xC000)
        # Core 1 misses its private L2 and hits shared L3.
        cycles = hierarchy.access(1, 0xC000, skip_l1=True)
        assert served_by(hierarchy, cycles, skip_l1=True) == "L3"


class TestCacheHierarchyFast(TestCacheHierarchy):
    fastpath = True
