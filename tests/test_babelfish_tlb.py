"""Tests for the Figure 8 TLB lookup flowchart.

Every lookup case runs twice: on the reference backing (the closure
lookups over :class:`MultiSizeTLB`) and, through the ``*Fast``
subclasses, on the fast backing (the inlined lookups over
:class:`FastMultiSizeTLB`) — the pairs the MMU binds per backing.
"""

import collections

from repro.core.babelfish_tlb import (
    babelfish_fill_fields,
    babelfish_lookup,
    babelfish_lookup_fast,
    conventional_lookup,
    conventional_lookup_fast,
    entry_region,
    make_entry,
)
from repro.hw.params import TLBParams
from repro.hw.tlb import FastMultiSizeTLB, MultiSizeTLB, TLBEntry
from repro.hw.types import PageSize
from repro.kernel.page_table import PTE


class Outcome(collections.namedtuple(
        "Outcome", "entry page_size consulted_bitmask cow_fault")):
    """A lookup's tuple return, named for the assertions below."""

    @property
    def hit(self):
        return self.entry is not None and not self.cow_fault


class ReferenceBacking:
    """The reference structures and the lookup pair bound to them."""

    multi_cls = MultiSizeTLB
    bf_lookup = staticmethod(babelfish_lookup)
    conv_lookup = staticmethod(conventional_lookup)

    def multi(self):
        return self.multi_cls(
            [TLBParams("4k", 16, 4, PageSize.SIZE_4K, 10, 12)])

    def lookup(self, tlb, proc, is_write=False):
        return Outcome(*self.bf_lookup(tlb, 0x10, proc, is_write,
                                       entry_region))

    def conventional(self, tlb, proc, is_write=False):
        entry, size, cow_fault = self.conv_lookup(tlb, 0x10, proc.pcid,
                                                  is_write)
        return Outcome(entry, size, False, cow_fault)


class FastBacking(ReferenceBacking):
    multi_cls = FastMultiSizeTLB
    bf_lookup = staticmethod(babelfish_lookup_fast)
    conv_lookup = staticmethod(conventional_lookup_fast)


class FakeProc:
    def __init__(self, pid=1, pcid=1, ccid=7, pc_bits=None):
        self.pid = pid
        self.pcid = pcid
        self.ccid = ccid
        self.pc_bits = pc_bits or {}


def shared_entry(vpn=0x10, ppn=0x100, ccid=7, orpc=False, pc_mask=0,
                 cow=False, writable=True, inserted_by=99):
    return TLBEntry(vpn, ppn, pcid=12, ccid=ccid, writable=writable,
                    cow=cow, o_bit=False, orpc=orpc, pc_mask=pc_mask,
                    inserted_by=inserted_by)


def owned_entry(vpn=0x10, ppn=0x200, pcid=1, ccid=7):
    return TLBEntry(vpn, ppn, pcid=pcid, ccid=ccid, o_bit=True,
                    inserted_by=1)


class TestFigure8(ReferenceBacking):
    def test_box1_ccid_mismatch_misses(self):
        tlb = self.multi()
        tlb.insert(shared_entry(ccid=8))
        result = self.lookup(tlb, FakeProc(ccid=7))
        assert not result.hit

    def test_shared_hit_any_process(self):
        """Box 4: a shared entry hits for every process in the group."""
        tlb = self.multi()
        tlb.insert(shared_entry())
        for pcid in (1, 2, 3):
            result = self.lookup(tlb, FakeProc(pcid=pcid, ccid=7))
            assert result.hit

    def test_owned_entry_needs_pcid(self):
        """Boxes 2/9: Ownership set means the PCID must also match."""
        tlb = self.multi()
        tlb.insert(owned_entry(pcid=1))
        assert self.lookup(tlb, FakeProc(pcid=1)).hit
        assert not self.lookup(tlb, FakeProc(pcid=2)).hit

    def test_private_copy_holder_misses_shared(self):
        """Box 3: a process whose PC bit is set cannot use the shared
        entry."""
        tlb = self.multi()
        entry = shared_entry(orpc=True, pc_mask=0b100)
        tlb.insert(entry)
        region = entry_region(entry)
        holder = FakeProc(pcid=1, ccid=7, pc_bits={region: 2})
        other = FakeProc(pcid=2, ccid=7, pc_bits={region: 0})
        stranger = FakeProc(pcid=3, ccid=7)
        assert not self.lookup(tlb, holder).hit
        assert self.lookup(tlb, other).hit
        assert self.lookup(tlb, stranger).hit

    def test_bitmask_consultation_flag(self):
        """ORPC clear: the PC bitmask read (and long access) is skipped."""
        tlb = self.multi()
        tlb.insert(shared_entry(orpc=False))
        result = self.lookup(tlb, FakeProc())
        assert result.hit and not result.consulted_bitmask

        tlb2 = self.multi()
        tlb2.insert(shared_entry(orpc=True, pc_mask=1))
        result2 = self.lookup(tlb2, FakeProc(pcid=5))
        assert result2.hit and result2.consulted_bitmask

    def test_owned_hit_skips_bitmask(self):
        tlb = self.multi()
        tlb.insert(owned_entry(pcid=1))
        result = self.lookup(tlb, FakeProc(pcid=1))
        assert result.hit and not result.consulted_bitmask

    def test_write_to_cow_raises_cow_fault(self):
        """Boxes 5/6: a write hit on a CoW entry is a CoW page fault."""
        tlb = self.multi()
        tlb.insert(shared_entry(cow=True, writable=False))
        result = self.lookup(tlb, FakeProc(), is_write=True)
        assert result.cow_fault and not result.hit

    def test_read_of_cow_hits(self):
        tlb = self.multi()
        tlb.insert(shared_entry(cow=True, writable=False))
        result = self.lookup(tlb, FakeProc(), is_write=False)
        assert result.hit and not result.cow_fault

    def test_write_permission_miss(self):
        tlb = self.multi()
        tlb.insert(shared_entry(writable=False))
        result = self.lookup(tlb, FakeProc(), is_write=True)
        assert not result.hit and not result.cow_fault

    def test_miss_on_empty(self):
        result = self.lookup(self.multi(), FakeProc())
        assert not result.hit and result.entry is None

    def test_shared_and_owned_coexist(self):
        """The advanced case: most processes share {VPN0, PPN0}; one has
        its private {VPN0, PPN1} (Section III-A)."""
        tlb = self.multi()
        shared = shared_entry(ppn=0x100, orpc=True, pc_mask=0b1)
        tlb.insert(shared)
        tlb.insert(owned_entry(ppn=0x200, pcid=9))
        region = entry_region(shared)
        owner = FakeProc(pcid=9, ccid=7, pc_bits={region: 0})
        result = self.lookup(tlb, owner)
        assert result.hit and result.entry.ppn == 0x200
        other = FakeProc(pcid=5, ccid=7)
        result2 = self.lookup(tlb, other)
        assert result2.hit and result2.entry.ppn == 0x100


class TestConventionalLookup(ReferenceBacking):
    def test_pcid_match(self):
        tlb = self.multi()
        tlb.insert(TLBEntry(0x10, 0x1, pcid=4, inserted_by=1))
        assert self.conventional(tlb, FakeProc(pcid=4)).hit
        assert not self.conventional(tlb, FakeProc(pcid=5)).hit

    def test_cow_write(self):
        tlb = self.multi()
        tlb.insert(TLBEntry(0x10, 0x1, pcid=4, cow=True, writable=False))
        result = self.conventional(tlb, FakeProc(pcid=4),
                                     is_write=True)
        assert result.cow_fault


class TestFigure8Fast(FastBacking, TestFigure8):
    pass


class TestConventionalLookupFast(FastBacking, TestConventionalLookup):
    pass


class TestFillHelpers:
    def test_fill_fields_skip_rules(self):
        # O set: skip.
        assert babelfish_fill_fields((True, False, 0)) == (True, False, 0, False)
        # O clear, ORPC clear: skip.
        assert babelfish_fill_fields((False, False, 0)) == (False, False, 0, False)
        # O clear, ORPC set: load the mask (long access).
        o, orpc, mask, long_access = babelfish_fill_fields((False, True, 0xF))
        assert not o and orpc and mask == 0xF and long_access

    def test_make_entry(self):
        pte = PTE(0x123, writable=True, cow=False)
        proc = FakeProc(pid=42, pcid=3, ccid=9)
        entry = make_entry(0x10, pte, proc, (False, True, 0b10),
                           PageSize.SIZE_4K)
        assert entry.vpn == 0x10 and entry.ppn == 0x123
        assert entry.ccid == 9 and entry.pcid == 3
        assert entry.orpc and entry.pc_mask == 0b10
        assert entry.inserted_by == 42

    def test_entry_region_by_size(self):
        e4k = TLBEntry(5 << 18, 1, PageSize.SIZE_4K)
        assert entry_region(e4k) == 5
        e2m = TLBEntry(5 << 9, 1, PageSize.SIZE_2M)
        assert entry_region(e2m) == 5
