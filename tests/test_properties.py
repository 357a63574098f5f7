"""Property-based tests (hypothesis) on core data structures and
invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.mask_page import MaskPage, MaskPageFull, pmd_index_of, region_of
from repro.core.opc import MAX_PRIVATE_COPIES, OPCField
from repro.hw.cache import FastSetAssociativeCache, SetAssociativeCache
from repro.hw.params import CacheParams, TLBParams
from repro.hw.tlb import FastSetAssocTLB, SetAssocTLB, TLBEntry
from repro.hw.types import PageSize
from repro.kernel.aslr_layout import randomized_layout
from repro.kernel.frames import FrameAllocator
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.page_table import (
    PGD,
    PMD,
    PTE,
    PTE_LEVEL,
    PUD,
    AddressSpaceTables,
    TableRef,
    table_index,
)
from repro.kernel.vma import SegmentKind
from repro.sim.stats import percentile
from repro.workloads.zipf import ZipfGenerator

VPN48 = st.integers(min_value=0, max_value=(1 << 36) - 1)

#: Both backings of each structure: every example draws one, so the
#: properties hold for the reference and the fast implementation alike.
CACHES = st.sampled_from([SetAssociativeCache, FastSetAssociativeCache])
TLBS = st.sampled_from([SetAssocTLB, FastSetAssocTLB])


def _cache_state(cache):
    return (cache.hits, cache.misses, cache.evictions, cache.writebacks,
            set(cache._dirty), [list(cset.items()) for cset in cache._sets])


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()),
                    max_size=200), CACHES)
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, ops, cache_cls):
        cache = cache_cls(CacheParams("p", 512, 2, 64, 1))
        capacity = cache.num_sets * cache.ways
        for addr, is_write in ops:
            cache.insert(addr, is_write)
            assert cache.occupancy <= capacity

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100),
           CACHES)
    @settings(max_examples=50)
    def test_insert_then_lookup_hits(self, addrs, cache_cls):
        cache = cache_cls(CacheParams("p", 64 * 1024, 8, 64, 1))
        for addr in addrs:
            cache.insert(addr)
            assert cache.lookup(addr)

    @given(st.lists(st.integers(0, 1 << 16), max_size=100), CACHES)
    @settings(max_examples=30)
    def test_hits_plus_misses_equals_lookups(self, addrs, cache_cls):
        cache = cache_cls(CacheParams("p", 1024, 2, 64, 1))
        for addr in addrs:
            if cache.lookup(addr):
                pass
            else:
                cache.insert(addr)
        assert cache.hits + cache.misses == len(addrs)


    @given(st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans()),
                    max_size=300), CACHES)
    @settings(max_examples=50)
    def test_access_is_lookup_then_insert_on_miss(self, ops, cache_cls):
        # access() (fused on the fast backing) against its two-call twin:
        # same verdicts, counters, dirty lines, and per-set key order
        # with each key's recency stamp (reference) or None (fast).
        params = CacheParams("p", 2048, 4, 64, 1)  # 8 sets, 4 ways
        fused = cache_cls(params)
        twin = cache_cls(params)
        for addr, is_write in ops:
            hit = twin.lookup(addr, is_write)
            if not hit:
                twin.insert(addr, is_write)
            assert fused.access(addr, is_write) == hit
        assert _cache_state(fused) == _cache_state(twin)


class TestTLBProperties:
    @given(st.lists(st.tuples(VPN48, st.integers(1, 7)), max_size=150), TLBS)
    @settings(max_examples=50)
    def test_occupancy_bounded(self, inserts, tlb_cls):
        tlb = tlb_cls(TLBParams("t", 16, 4, PageSize.SIZE_4K, 1))
        for vpn, pcid in inserts:
            tlb.insert(TLBEntry(vpn, 1, pcid=pcid))
            assert tlb.occupancy <= 16

    @given(st.lists(st.tuples(VPN48, st.integers(1, 3)), max_size=80), TLBS)
    @settings(max_examples=50)
    def test_most_recent_insert_always_hits(self, inserts, tlb_cls):
        tlb = tlb_cls(TLBParams("t", 16, 4, PageSize.SIZE_4K, 1))
        for vpn, pcid in inserts:
            tlb.insert(TLBEntry(vpn, 1, pcid=pcid),
                       replace=lambda old, p=pcid: old.pcid == p)
            assert tlb.lookup(vpn, lambda e, p=pcid: e.pcid == p) is not None

    @given(st.lists(VPN48, max_size=60), VPN48, TLBS)
    @settings(max_examples=50)
    def test_invalidate_removes_all_copies(self, vpns, victim, tlb_cls):
        tlb = tlb_cls(TLBParams("t", 32, 4, PageSize.SIZE_4K, 1))
        for i, vpn in enumerate(vpns):
            tlb.insert(TLBEntry(vpn, 1, pcid=i % 5))
        tlb.invalidate(victim)
        assert tlb.lookup(victim, lambda e: True) is None


class TestOPCProperties:
    @given(st.integers(0, (1 << 32) - 1), st.booleans())
    def test_pack_unpack_roundtrip(self, mask, o_bit):
        field = OPCField(o_bit, mask)
        assert OPCField.unpack(field.packed()) == field

    @given(st.sets(st.integers(0, 31), max_size=32))
    def test_orpc_equals_any_bit(self, bits):
        field = OPCField()
        for bit in bits:
            field.set_bit(bit)
        assert field.orpc == bool(bits)
        for bit in bits:
            assert field.test_bit(bit)


class TestMaskPageProperties:
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=100))
    def test_bits_unique_and_stable(self, pids):
        page = MaskPage(1, 0)
        assigned = {}
        for pid in pids:
            try:
                bit = page.assign_bit(pid)
            except MaskPageFull:
                assert len(set(pids[:pids.index(pid)])) >= MAX_PRIVATE_COPIES
                break
            if pid in assigned:
                assert assigned[pid] == bit
            assigned[pid] = bit
        bits = list(assigned.values())
        assert len(bits) == len(set(bits))

    @given(VPN48)
    def test_region_pmd_decomposition(self, vpn):
        assert region_of(vpn) == vpn >> 18
        assert 0 <= pmd_index_of(vpn) < 512
        # Same PTE table -> same region and pmd index.
        assert pmd_index_of(vpn) == pmd_index_of((vpn & ~511) | 17)


class TestFrameProperties:
    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=200))
    @settings(max_examples=50)
    def test_no_double_allocation(self, ops):
        alloc = FrameAllocator()
        live = []
        for op in ops:
            if op == "alloc" or not live:
                live.append(alloc.alloc())
                assert len(set(live)) == len(live)
            else:
                alloc.decref(live.pop())
        assert alloc.allocated == len(live)


class TestPageTableProperties:
    @given(st.lists(VPN48, min_size=1, max_size=60, unique=True))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_leaves_roundtrip(self, vpns):
        tables = AddressSpaceTables(FrameAllocator())
        for i, vpn in enumerate(vpns):
            tables.set_leaf(vpn, PTE(i + 1))
        found = {vpn: pte.ppn
                 for vpn, _l, _t, _i, pte in tables.iter_leaves()}
        assert found == {vpn: i + 1 for i, vpn in enumerate(vpns)}
        for vpn in vpns:
            assert tables.lookup_pte(vpn) is not None

    @given(st.lists(st.tuples(VPN48, st.booleans()), min_size=1,
                    max_size=40),
           st.lists(VPN48, max_size=20))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_single_pass_walks_match_walk(self, leaves, probes):
        tables = AddressSpaceTables(FrameAllocator())
        for i, (vpn, huge) in enumerate(leaves):
            try:
                tables.set_leaf(vpn, PTE(i + 1),
                                leaf_level=PMD if huge else PTE_LEVEL)
            except ValueError:
                pass  # a huge leaf already covers this 4K page
        for vpn in [vpn for vpn, _huge in leaves] + probes:
            path = tables.walk(vpn)
            assert tables.leaf_slot(vpn) == path[-1]
            entry = path[-1][3]
            assert tables.lookup_pte(vpn) is (
                entry if isinstance(entry, PTE) else None)
            levels = [level for level, _t, _i, e in path
                      if isinstance(e, TableRef)]
            assert tables.pte_table(vpn) is (
                path[-1][1] if levels == [PGD, PUD, PMD] else None)

    @given(VPN48)
    def test_table_index_reconstructs_vpn(self, vpn):
        rebuilt = ((table_index(vpn, PGD) << 27)
                   | (table_index(vpn, PUD) << 18)
                   | (table_index(vpn, PMD) << 9)
                   | table_index(vpn, PTE_LEVEL))
        assert rebuilt == vpn & ((1 << 36) - 1)


#: Touchable ranges of a ``TouchScenario`` (segment, first page, pages),
#: each running a little past its VMAs so some ranges fault.
TOUCH_SPANS = [(SegmentKind.HEAP, 0, 1700), (SegmentKind.LIBS, 0, 1100),
               (SegmentKind.MMAP, 0, 1100), (SegmentKind.STACK, 0, 80),
               (SegmentKind.HEAP, 1 << 18, 1100)]


class TestTouchRangeProperties:
    @given(st.sampled_from(["Baseline", "BabelFish"]),
           st.lists(st.tuples(st.sampled_from([None, 0, 1]),
                              st.sampled_from(TOUCH_SPANS),
                              st.integers(0, 1 << 16), st.integers(1, 1200),
                              st.booleans()),
                    min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_touch_range_equals_per_page_touch(self, touch_scenario,
                                               config_name, operations):
        twins = []
        for per_page in (True, False):
            scenario = touch_scenario(config_name)
            outcomes = []
            for child, (segment, first, span), start, pages, is_write \
                    in operations:
                proc = (scenario.zygote if child is None
                        else scenario.children[child])
                offset = first + start % span
                outcomes.append(scenario.run(proc, segment, offset, pages,
                                             is_write, per_page))
            twins.append((outcomes, scenario.state()))
        assert twins[0] == twins[1]


class TestLayoutProperties:
    @given(st.integers(0, 1 << 30), st.integers(0, 1 << 30))
    @settings(max_examples=40)
    def test_layouts_never_collide_across_segments(self, seed_a, seed_b):
        a = randomized_layout(seed_a)
        b = randomized_layout(seed_b)
        # Segment windows are far enough apart that no two segments from
        # any two layouts can overlap within a plausible mapping size
        # (up to 2GB per segment).
        span = 1 << 19
        ranges = []
        for layout in (a, b):
            for segment in SegmentKind:
                base = layout.base(segment)
                ranges.append((segment, base, base + span))
        ranges.sort(key=lambda r: r[1])
        for (seg1, _s1, e1), (seg2, s2, _e2) in zip(ranges, ranges[1:]):
            if seg1 is not seg2:
                assert e1 <= s2

    @given(st.integers(0, 1 << 30))
    def test_diff_is_inverse(self, seed):
        a = randomized_layout(seed)
        b = randomized_layout(seed + 1)
        diff = a.diff(b)
        for segment in SegmentKind:
            assert a.base(segment) + diff[segment] == b.base(segment)


class TestZipfProperties:
    @given(st.integers(1, 5000), st.floats(0.0, 0.99),
           st.integers(0, 1 << 16))
    @settings(max_examples=40)
    def test_output_in_range(self, n, theta, seed):
        gen = ZipfGenerator(n, theta, seed=seed)
        for _ in range(50):
            assert 0 <= gen.next() < n


class TestLRUProperties:
    @given(st.lists(st.integers(1, 20), max_size=200))
    @settings(max_examples=40)
    def test_active_requires_two_touches(self, touches):
        lru = ActiveInactiveLRU()
        seen = set()
        for ppn in touches:
            lru.touch(ppn)
            if ppn not in seen:
                seen.add(ppn)
                if touches.count(ppn) == 1:
                    assert not lru.is_active(ppn)

    @given(st.lists(st.integers(1, 50), max_size=200), st.integers(1, 5))
    @settings(max_examples=40)
    def test_capacity_respected(self, touches, capacity):
        lru = ActiveInactiveLRU(active_capacity=capacity)
        for ppn in touches:
            lru.touch(ppn)
            assert lru.active_count <= capacity


class TestPercentileProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
           st.integers(1, 100))
    def test_percentile_is_member_and_bounded(self, values, pct):
        result = percentile(values, pct)
        assert result in [float(v) for v in values]
        assert min(values) <= result <= max(values)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_monotone_in_pct(self, values):
        results = [percentile(values, p) for p in (25, 50, 75, 95, 100)]
        assert results == sorted(results)
