"""Shared page tables across a CCID group (Sections III-B, IV-B, Appendix).

This is the BabelFish page-table policy plugged into
:class:`repro.kernel.kernel.Kernel`:

- ``fork_tables``: a fork inside the group copies only the upper levels
  (PGD/PUD/PMD) and points them at the *same* PTE tables (Figure 6). PMD
  tables that hold 2MB huge-page leaves are shared whole (Section IV-C).
- ``table_provider``: a fault in a shareable (file-backed) VMA attaches
  the group's existing PTE table for that 2MB range, so a page populated
  by one container is already present for the next one.
- ``cow_break``: a write to a CoW page in a shared table performs the
  paper's sequence — assign a PC-bitmask bit in the MaskPage, copy the
  page of 512 pte_t privately (Ownership set), point the writer's pmd_t at
  the copy, allocate the single written page, and invalidate only the
  shared (O=0) TLB entry for that VPN.
- More than 32 writers in a region reverts the whole PMD table set to
  non-shared translations (Appendix).
"""

from repro.hw.types import ENTRIES_PER_TABLE
from repro.core.mask_page import (
    REGION_SHIFT,
    MaskPageDirectory,
    MaskPageFull,
    pmd_index_of,
    region_of,
)
from repro.kernel.fault import (
    FaultOutcome,
    FaultType,
    InvalidationScope,
    TLBInvalidation,
)
from repro.kernel.frames import FrameKind
from repro.kernel.kernel import PrivatePTPolicy
from repro.kernel.page_table import PMD, PTE, PTE_LEVEL, PageTable, TableRef
from repro.kernel.vma import VMAKind


class SharedPTManager(PrivatePTPolicy):
    """BabelFish page-table sharing policy for a kernel instance."""

    name = "babelfish"
    is_babelfish = True

    def __init__(self, mask_dir=None, share_huge=True):
        self.mask_dir = mask_dir or MaskPageDirectory()
        self.share_huge = share_huge
        #: Attachable shared tables: (ccid, level, table_id) -> PageTable.
        #: Only file-backed ranges are attachable at fault time; anonymous
        #: fork-shared tables are marked via ``shared_key`` but never
        #: handed out to a process that did not inherit them.
        self.registry = {}
        self.attaches = 0
        self.registrations = 0
        self.cow_private_copies = 0
        self.reverts = 0

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _pte_table_key(ccid, vpn):
        return (ccid, PTE_LEVEL, vpn >> 9)

    @staticmethod
    def _pmd_table_key(ccid, vpn):
        return (ccid, PMD, region_of(vpn))

    def _alloc_table(self, kernel, level, owner=None):
        frame = kernel.allocator.alloc(FrameKind.PAGE_TABLE)
        table = PageTable(level, frame)
        table.owned_by = owner
        return table

    def _mark_shared(self, ccid, table, vpn, backing=None):
        """Mark a table as group-shared; ``backing`` (file id, file page)
        makes it attachable at fault time by other group members."""
        if table.shared_key is None:
            key = (self._pte_table_key(ccid, vpn) if table.level == PTE_LEVEL
                   else self._pmd_table_key(ccid, vpn))
            table.shared_key = key
            if backing is not None:
                self.registry[key] = (table, backing)
                self.registrations += 1

    # -- fork-time sharing (Figure 6) --------------------------------------------

    def fork_tables(self, kernel, parent, child):
        ccid = parent.ccid
        copied = 0
        for idx4, pud_ref in parent.tables.pgd.entries.items():
            if not isinstance(pud_ref, TableRef):
                continue
            child_pud = self._alloc_table(kernel, pud_ref.table.level)
            copied += 1
            child.tables.pgd.entries[idx4] = TableRef(child_pud)
            for idx3, pmd_ref in pud_ref.table.entries.items():
                if not isinstance(pmd_ref, TableRef):
                    continue
                pmd_table = pmd_ref.table
                base_vpn = (idx4 << 27) | (idx3 << 18)
                if self.share_huge and self._holds_huge(pmd_table):
                    # 2MB pages: merge the PMD tables themselves (Sec IV-C).
                    pmd_table.sharers += 1
                    self._mark_shared(ccid, pmd_table, base_vpn)
                    child_pud.entries[idx3] = TableRef(pmd_table)
                    continue
                child_pmd = self._alloc_table(kernel, pmd_table.level)
                copied += 1
                child_pud.entries[idx3] = TableRef(child_pmd)
                for idx2, pte_ref in pmd_table.entries.items():
                    if isinstance(pte_ref, TableRef):
                        pte_table = pte_ref.table
                        table_vpn = base_vpn | (idx2 << 9)
                        if pte_table.owned_by is not None:
                            # The parent already privatized this range
                            # (CoW before fork): the child gets its own
                            # owned copy, CoW-protected below.
                            clone = self._clone_table(kernel, pte_table,
                                                      owner=child.pid)
                            copied += 1
                            child_pmd.entries[idx2] = TableRef(clone, o_bit=True)
                            continue
                        pte_table.sharers += 1
                        vma = parent.mm.find(table_vpn)
                        backing = None
                        if (vma is not None and vma.shareable
                                and vma.start_vpn <= table_vpn):
                            backing = (vma.file.fid, vma.file_index(table_vpn))
                        self._mark_shared(ccid, pte_table, table_vpn, backing)
                        child_pmd.entries[idx2] = TableRef(
                            pte_table, orpc=pte_table.orpc)
                    elif isinstance(pte_ref, PTE):
                        # A huge leaf directly in a non-shared PMD copy
                        # (share_huge off): clone it CoW-style.
                        clone = pte_ref.clone()
                        child_pmd.entries[idx2] = clone
                        if clone.present:
                            kernel.allocator.incref(clone.ppn)
        child.tables.tables_allocated += copied
        self._write_protect_cow(parent)
        self._write_protect_cow(child)
        return copied

    @staticmethod
    def _holds_huge(pmd_table):
        return any(isinstance(e, PTE) for e in pmd_table.entries.values())

    @staticmethod
    def _write_protect_cow(parent):
        """Write-protect private-writable leaves for CoW. Shared tables
        make this a single pass covering parent and child together."""
        for vpn, _level, _table, _index, pte in parent.tables.iter_leaves():
            if not pte.present or not pte.writable:
                continue
            vma = parent.mm.find(vpn)
            if vma is None or vma.kind is VMAKind.FILE_SHARED:
                continue
            pte.writable = False
            pte.cow = True

    # -- fault-time attach --------------------------------------------------------

    def table_provider(self, kernel, proc, vma):
        if not vma.shareable:
            return None
        ccid = proc.ccid
        registry = self.registry

        def provide(level, vpn):
            if level != PTE_LEVEL:
                return None
            # The VMA must cover the table base so the registered backing
            # (file id + file page of the base) is well defined. Installs
            # into the table re-verify backing page by page
            # (_backing_matches), so partially-covered tables are safe.
            table_base = vpn & ~(ENTRIES_PER_TABLE - 1)
            if vma.start_vpn > table_base:
                return None
            # Identity of the backing range: a process that maps a
            # *different* file (or offset) at the same group VPN must not
            # attach — it would inherit someone else's translations.
            backing = (vma.file.fid, vma.file_index(table_base))
            key = self._pte_table_key(ccid, vpn)
            found = registry.get(key)
            if found is not None:
                table, reg_backing = found
                if reg_backing != backing:
                    return None
                table.sharers += 1
                self.attaches += 1
                return table
            table = self._alloc_table(kernel, PTE_LEVEL)
            proc.tables.tables_allocated += 1
            table.shared_key = key
            registry[key] = (table, backing)
            self.registrations += 1
            return table

        return provide

    # -- CoW in shared tables (Section III-A) ---------------------------------------

    def cow_break(self, kernel, proc, vma, vpn, table, index, pte):
        if table.owned_by == proc.pid:
            # The writer already holds the private pte-page copy for this
            # 2MB range; break the page privately, but the shared (O=0)
            # entry for this VPN still carries a stale PC bitmask and must
            # be invalidated everywhere (Section III-A).
            outcome = kernel.default_cow_break(proc, vpn, table, index, pte)
            outcome.invalidations.append(TLBInvalidation(
                vpn, InvalidationScope.SHARED_ENTRY, ccid=proc.ccid))
            return outcome
        if table.shared_key is None:
            return None  # plain private table: conventional CoW

        private = self._privatize_table_for(kernel, proc, vpn, table)
        if private is None:
            # MaskPage overflow: the region reverted to non-shared tables.
            return self._revert_and_break(kernel, proc, vpn)

        # Break the written page inside the private copy.
        priv_pte = private.entries[index]
        costs = kernel.costs
        pages = priv_pte.page_size.base_pages
        new_ppn = kernel.allocator.alloc(FrameKind.DATA, pages=pages)
        kernel.allocator.decref(priv_pte.ppn)
        priv_pte.ppn = new_ppn
        priv_pte.cow = False
        priv_pte.writable = True
        priv_pte.dirty = True
        priv_pte.file = None
        priv_pte.file_index = None
        self.cow_private_copies += 1
        cycles = (costs.minor_fault + costs.cow_extra
                  + costs.pte_page_copy + costs.tlb_shootdown)
        invalidations = [
            # Only the single shared (O=0) entry for this VPN needs a
            # remote shootdown (Section III-A)...
            TLBInvalidation(vpn, InvalidationScope.SHARED_ENTRY,
                            ccid=proc.ccid),
            # ...plus the writer's own stale private entry locally.
            TLBInvalidation(vpn, InvalidationScope.PROCESS,
                            pcid=proc.pcid, ccid=proc.ccid),
        ]
        return FaultOutcome(FaultType.COW, cycles, invalidations,
                            ppn=new_ppn, pte_page_copied=True)

    def mask_domain(self, vpn):
        """The scope a process's PC bit covers: the 1GB region (paper
        default), or the 2MB range under the indirection extension."""
        if self.mask_dir.per_range_lists:
            return vpn >> 9
        return region_of(vpn)

    def entry_mask_domain(self, entry):
        """Same scope computed from a TLB entry (used by the lookup)."""
        vpn4k = entry.vpn << (entry.page_size.shift - 12)
        return self.mask_domain(vpn4k)

    def _privatize_table_for(self, kernel, proc, vpn, table):
        """Give ``proc`` a private (owned) copy of a shared table per the
        paper's CoW sequence: assign a PC-bitmask bit in the MaskPage, copy
        the page of 512 pte_t, swap the writer's pmd_t, raise ORPC.

        Returns the private table, or None if the MaskPage is full (the
        caller must revert the region)."""
        mask_page = self.mask_dir.get_or_create(proc.ccid, vpn)
        try:
            bit = mask_page.assign_bit(proc.pid, pmd_index_of(vpn))
        except MaskPageFull:
            return None
        proc.pc_bits[self.mask_domain(vpn)] = bit
        mask_page.set_private(bit, pmd_index_of(vpn))

        private = self._clone_table(kernel, table, owner=proc.pid)
        self._swap_writer_ref(kernel, proc, vpn, table, private)
        # All sharers must now consult the PC bitmask for this range.
        table.orpc = True
        kernel.pte_pages_copied += 1
        return private

    def install_target(self, kernel, proc, vma, vpn, table, index,
                       private_content):
        """Validate an install into a possibly-shared table.

        Private content (anonymous pages; private copies of MAP_PRIVATE
        pages) must never land in a shared table — other group members
        would inherit this process's private frame. Shareable content may
        only land in a shared table whose *registered backing* (file and
        offset of the 2MB range) matches this VMA's; a process that
        remapped the range to a different file gets a private copy
        instead. Returns ``(table, index, extra_cycles)``."""
        if table.shared_key is None or table.owned_by == proc.pid:
            return table, index, 0
        if not private_content and self._backing_matches(vma, vpn, table):
            return table, index, 0
        private = self._privatize_table_for(kernel, proc, vpn, table)
        if private is None:
            self._revert_region_for(kernel, proc, vpn)
            _level, new_table, new_index, _entry = proc.tables.leaf_slot(vpn)
            return new_table, new_index, kernel.costs.pte_page_copy
        return private, index, kernel.costs.pte_page_copy

    def _backing_matches(self, vma, vpn, table):
        """Does this VMA back ``vpn`` with the same file page the shared
        table was registered for?"""
        registered = self.registry.get(table.shared_key)
        if registered is None or registered[0] is not table:
            return False
        if not vma.kind.file_backed:
            return False
        fid, base_index = registered[1]
        table_base = vpn & ~(ENTRIES_PER_TABLE - 1)
        expected_index = base_index + (vpn - table_base)
        return (vma.file.fid == fid
                and vma.file_index(vpn) == expected_index)

    def _clone_table(self, kernel, table, owner):
        """Copy a page of 512 translations; the clone's translations carry
        the Ownership bit (modelled as ``owned_by``)."""
        clone = self._alloc_table(kernel, table.level, owner=owner)
        for index, entry in table.entries.items():
            if isinstance(entry, PTE):
                copy = entry.clone()
                clone.entries[index] = copy
                if copy.present:
                    kernel.allocator.incref(copy.ppn)
            else:  # TableRef inside a shared PMD table (huge-page mode)
                entry.table.sharers += 1
                clone.entries[index] = TableRef(entry.table, entry.o_bit,
                                                entry.orpc)
        return clone

    def _swap_writer_ref(self, kernel, proc, vpn, shared_table, private):
        """Point the writer's parent entry at its private copy."""
        path = proc.tables.walk(vpn)
        for level, parent_table, index, entry in path:
            if isinstance(entry, TableRef) and entry.table is shared_table:
                parent_table.entries[index] = TableRef(private, o_bit=True)
                shared_table.sharers -= 1
                if shared_table.sharers == 0:
                    freed = kernel._teardown(shared_table)
                    self.on_tables_freed(kernel, freed)
                return
        raise RuntimeError("writer pid=%d does not reference the shared table"
                           % proc.pid)

    def _revert_region_for(self, kernel, proc, vpn):
        """Appendix: a 33rd writer forces every group member onto private
        translations for the whole PMD table set. Returns clone count."""
        ccid = proc.ccid
        region = region_of(vpn)
        clones = 0
        for member in list(kernel.processes.values()):
            if member.ccid != ccid or not member.alive:
                continue
            clones += self._privatize_region(kernel, member, region)
        self.mask_dir.drop(ccid, vpn)
        self.reverts += 1
        return clones

    def _revert_and_break(self, kernel, proc, vpn):
        """33rd writer in a region: revert the PMD table set, then the
        faulting write proceeds as a conventional CoW."""
        clones = self._revert_region_for(kernel, proc, vpn)

        _level, table, index, pte = proc.tables.leaf_slot(vpn)
        outcome = kernel.default_cow_break(proc, vpn, table, index, pte)
        outcome.cycles += clones * kernel.costs.pte_page_copy
        outcome.invalidations.append(TLBInvalidation(
            vpn, InvalidationScope.REGION_SHARED, ccid=proc.ccid))
        return outcome

    def _privatize_region(self, kernel, member, region):
        idx4, idx3 = region >> 9, region & (ENTRIES_PER_TABLE - 1)
        pud_ref = member.tables.pgd.entries.get(idx4)
        if not isinstance(pud_ref, TableRef):
            return 0
        pmd_ref = pud_ref.table.entries.get(idx3)
        if not isinstance(pmd_ref, TableRef):
            return 0
        pmd_table = pmd_ref.table
        clones = 0
        if pmd_table.shared_key is not None and pmd_table.owned_by is None:
            private = self._clone_table(kernel, pmd_table, owner=member.pid)
            pud_ref.table.entries[idx3] = TableRef(private, o_bit=True)
            self._release_shared(kernel, pmd_table)
            kernel.pte_pages_copied += 1
            return 1
        for idx2, ref in list(pmd_table.entries.items()):
            if not isinstance(ref, TableRef):
                continue
            pte_table = ref.table
            if pte_table.shared_key is None or pte_table.owned_by is not None:
                continue
            private = self._clone_table(kernel, pte_table, owner=member.pid)
            pmd_table.entries[idx2] = TableRef(private, o_bit=True)
            self._release_shared(kernel, pte_table)
            kernel.pte_pages_copied += 1
            clones += 1
        return clones

    def _release_shared(self, kernel, table):
        table.sharers -= 1
        self.registry.pop(table.shared_key, None)
        if table.sharers == 0:
            freed = kernel._teardown(table)
            self.on_tables_freed(kernel, freed)

    # -- TLB fill metadata (Figure 8's inputs) ----------------------------------------

    def fill_info(self, proc, table, vpn):
        """(o_bit, orpc, pc_mask) for an entry fetched from ``table``."""
        if table.shared_key is None:
            return True, False, 0
        if table.orpc:
            return False, True, self.mask_dir.mask_for(proc.ccid, vpn)
        return False, False, 0

    # -- teardown ------------------------------------------------------------------------

    def on_tables_freed(self, kernel, tables):
        for table in tables:
            if table.shared_key is not None:
                self.registry.pop(table.shared_key, None)

    def on_process_exit(self, kernel, proc):
        """Exit-time O-PC reclamation: free the dead writer's MaskPage
        slots, clear its bits from every PC bitmask, recompute the
        affected tables' ORPC, and drop MaskPages that went empty
        (freeing their frames).

        Without this, ``MaskPage.pid_list`` only ever grows: a group that
        churns more than 32 writers over its lifetime hits ``max_writers``
        on mostly-dead pids and needlessly reverts the region to
        non-shared translations. Returns one REGION_SHARED invalidation
        per touched region — TLB entries there may carry PC-bitmask
        snapshots with the dead writer's bit, and after reclamation that
        bit can be handed to a *new* writer whose private copies the old
        snapshots know nothing about.
        """
        if not proc.pc_bits:
            return []
        regions = {domain >> 9 if self.mask_dir.per_range_lists else domain
                   for domain in proc.pc_bits}
        invalidations = []
        for region in sorted(regions):
            region_vpn = region << REGION_SHIFT
            page = self.mask_dir.get(proc.ccid, region_vpn)
            if page is not None:
                for pmd_index in page.release_pid(proc.pid):
                    self._recompute_orpc(kernel, proc.ccid, region,
                                         pmd_index, page)
                if page.empty:
                    self.mask_dir.drop(proc.ccid, region_vpn)
            invalidations.append(TLBInvalidation(
                region_vpn, InvalidationScope.REGION_SHARED,
                ccid=proc.ccid))
        proc.pc_bits.clear()
        return invalidations

    def _recompute_orpc(self, kernel, ccid, region, pmd_index, page):
        """A range's PC bitmask changed; if it dropped to zero, clear the
        covering shared table's ORPC so future fills stop paying the long
        bitmask access (Figure 5b's saving, restored after churn)."""
        if page.mask(pmd_index) != 0:
            return
        table = self._find_shared_table(
            kernel, ccid, (ccid, PTE_LEVEL, (region << 9) | pmd_index))
        if table is not None:
            table.orpc = False
            return
        # Huge-page mode: the shared table is the PMD itself, whose ORPC
        # flag covers every 2MB range in the region.
        pmd = self._find_shared_table(kernel, ccid, (ccid, PMD, region))
        if pmd is not None and not page.has_private_copies:
            pmd.orpc = False

    def _find_shared_table(self, kernel, ccid, key):
        """The live shared table registered (or fork-shared) under
        ``key``, if any group member still reaches it."""
        found = self.registry.get(key)
        if found is not None:
            return found[0]
        vpn = (key[2] << 9) if key[1] == PTE_LEVEL else (key[2] << REGION_SHIFT)
        for member in kernel.processes.values():
            if not member.alive or member.ccid != ccid:
                continue
            for _level, table, _index, _entry in member.tables.walk(vpn):
                if table.shared_key == key and table.owned_by is None:
                    return table
        return None
