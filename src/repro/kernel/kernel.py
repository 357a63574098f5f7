"""The kernel facade: processes, mmap, fork, and the page-fault handler.

The page-table *sharing policy* is injected: :class:`PrivatePTPolicy`
reproduces conventional Linux (separate per-process page tables, fork
deep-copies the tree), while :class:`repro.core.shared_pt.SharedPTManager`
implements BabelFish's shared tables. The fault handler itself is common —
it asks the policy for shared tables (``table_provider``), notifies it of
installs, and lets it intercept CoW breaks in shared tables.
"""

import dataclasses

from repro.hw.types import ENTRIES_PER_TABLE, PageSize
from repro.kernel.costs import KernelCosts
from repro.kernel.errors import ProtectionFault, SegmentationFault
from repro.kernel.fault import (
    FaultOutcome,
    FaultType,
    InvalidationScope,
    TLBInvalidation,
)
from repro.kernel.frames import FrameAllocator, FrameKind
from repro.kernel.lifecycle import PCID_BITS, PCIDAllocator
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.page_cache import FileObject, PageCache
from repro.kernel.page_table import PMD, PTE, PTE_LEVEL, TableRef, table_index
from repro.kernel.process import Process
from repro.kernel.vma import VMA, VMAKind

HUGE_PAGES = ENTRIES_PER_TABLE  # 512 x 4KB = 2MB


@dataclasses.dataclass
class KernelConfig:
    thp_enabled: bool = True
    costs: KernelCosts = dataclasses.field(default_factory=KernelCosts)
    #: PCID namespace width; tests shrink it to exercise recycling
    #: without spawning 2**12 processes.
    pcid_bits: int = PCID_BITS


class PrivatePTPolicy:
    """Conventional Linux: private page tables, fork replicates the tree."""

    name = "private"
    is_babelfish = False

    def fork_tables(self, kernel, parent, child):
        """Deep-copy the parent's tables into the child, marking CoW.

        Returns the number of table pages the copy allocated (kernel work
        the paper's Section I calls "redundant").
        """
        before = child.tables.tables_allocated
        for vpn, level, _table, _index, pte in list(parent.tables.iter_leaves()):
            if not pte.present:
                continue
            vma = child.mm.find(vpn)
            clone = pte.clone()
            if vma is not None and vma.kind is not VMAKind.FILE_SHARED and pte.writable:
                # Write-protect both sides for CoW (lazy copy).
                pte.writable = False
                pte.cow = True
                clone.writable = False
                clone.cow = True
            child.tables.set_leaf(vpn, clone, leaf_level=level)
            kernel.allocator.incref(pte.ppn)
        return child.tables.tables_allocated - before

    def table_provider(self, kernel, proc, vma):
        """No shared tables in the conventional design."""
        return None

    def on_pte_install(self, kernel, proc, vma, vpn, table, index, pte):
        pass

    def cow_break(self, kernel, proc, vma, vpn, table, index, pte):
        """Return None: use the kernel's default (private) CoW break."""
        return None

    def install_target(self, kernel, proc, vma, vpn, table, index,
                       private_content):
        """Where to install a new translation. Conventional tables are
        always private. Returns (table, index, extra_cycles)."""
        return table, index, 0

    def fill_info(self, proc, table, vpn):
        """(o_bit, orpc, pc_mask) for a TLB fill under the BabelFish-TLB
        ablation (TLB entry sharing over conventional private tables).

        Only translations that are guaranteed group-stable may be tagged
        shared (O=0): file-backed, non-CoW pages, whose frames the page
        cache dedups across the group. Anonymous pages and CoW-armed
        translations map per-process frames (or will, after the break) —
        tagging them shared would serve one container's private frame to
        another, so they carry Ownership.
        """
        index = table_index(vpn, table.level)
        entry = table.entries.get(index)
        if isinstance(entry, PTE) and entry.present \
                and entry.file is not None and not entry.cow:
            return False, False, 0
        return True, False, 0

    def on_tables_freed(self, kernel, tables):
        pass

    def on_process_exit(self, kernel, proc):
        """Reclaim policy-held per-process state (O-PC writer slots under
        BabelFish). Returns the TLB invalidations the reclamation needs;
        conventional tables hold no such state."""
        return []


class Kernel:
    def __init__(self, config=None, policy=None, allocator=None):
        self.config = config or KernelConfig()
        self.costs = self.config.costs
        self.policy = policy or PrivatePTPolicy()
        self.allocator = allocator or FrameAllocator()
        self.page_cache = PageCache(self.allocator)
        self.lru = ActiveInactiveLRU()
        self.processes = {}
        self.files = {}
        self.pcids = PCIDAllocator(self.config.pcid_bits)
        #: Callback applying kernel-initiated TLB invalidations (exit
        #: flushes, PCID-recycle shootdowns) to every core; wired by the
        #: simulator. None (no hardware attached) drops them — there are
        #: no TLBs to go stale.
        self.invalidation_sink = None
        #: Callback receiving the PPNs a teardown actually freed
        #: (refcount hit zero); the sanitizer quarantines them.
        self.on_frames_freed = None
        #: Optional :class:`repro.obs.tracer.Tracer` for lifecycle events.
        self.tracer = None
        # Aggregate counters.
        self.forks = 0
        self.fork_table_pages_copied = 0
        self.pte_pages_copied = 0  # BabelFish CoW pte-page copies
        self.shootdowns = 0

    # -- files ---------------------------------------------------------------

    def create_file(self, name, npages):
        file = FileObject(name, npages)
        self.files[file.fid] = file
        return file

    # -- process lifecycle ----------------------------------------------------

    def spawn(self, ccid, layout_group, layout_proc=None, name=""):
        pcid, recycled = self.pcids.allocate()
        proc = Process(self.allocator, ccid, layout_group, layout_proc,
                       name=name, pcid=pcid)
        self._admit(proc, recycled)
        return proc

    def fork(self, parent, layout_proc=None, name=""):
        """fork(): clone VMAs and page tables per the active policy.

        Returns ``(child, cycles)`` — the cycle cost covers the table
        replication work that BabelFish's sharing avoids.
        """
        pcid, recycled = self.pcids.allocate()
        child = Process(self.allocator, parent.ccid, parent.layout_group,
                        layout_proc or parent.layout_proc, parent=parent,
                        name=name, pcid=pcid)
        self._admit(child, recycled)
        parent.mm.clone_into(child.mm)
        copied = self.policy.fork_tables(self, parent, child)
        self.forks += 1
        self.fork_table_pages_copied += copied
        cycles = self.costs.fork_base + copied * self.costs.fork_per_table_page
        return child, cycles

    def _admit(self, proc, pcid_recycled):
        self.processes[proc.pid] = proc
        if pcid_recycled:
            # The PCID changed hands: flush any straggler entries of its
            # previous holder before the new process can match them
            # (Linux pairs ASID reuse with the same scoped flush).
            self._issue_invalidations(proc, [TLBInvalidation(
                0, InvalidationScope.PCID_FLUSH, pcid=proc.pcid,
                ccid=proc.ccid)])
        if self.tracer is not None:
            self.tracer.process_spawn(0, proc.pid, proc.pcid, proc.ccid,
                                      pcid_recycled)

    def exit_process(self, proc):
        """Tear down a process: shoot its translations out of every TLB,
        then release its frames and PCID.

        The ordering is the point: the PCID flush (the process's own
        entries), the policy's reclamation invalidations (stale PC-bitmask
        snapshots), and a group-wide shared flush for any shared tables
        this exit is about to free all go out *before* a single frame is
        decref'd — so there is no window in which a TLB can still
        translate through a freed (and possibly recycled) frame. Returns
        the freed table pages.
        """
        if proc.pid not in self.processes:
            return []  # already torn down
        proc.alive = False
        invalidations = [TLBInvalidation(
            0, InvalidationScope.PCID_FLUSH, pcid=proc.pcid,
            ccid=proc.ccid)]
        invalidations.extend(self.policy.on_process_exit(self, proc))
        if self._dooms_shared_tables(proc):
            invalidations.append(TLBInvalidation(
                0, InvalidationScope.CCID_SHARED, ccid=proc.ccid))
        self._issue_invalidations(proc, invalidations)
        freed_frames = []
        freed = self._teardown(proc.tables.pgd, freed_frames=freed_frames)
        self.policy.on_tables_freed(self, freed)
        self.processes.pop(proc.pid, None)
        self.pcids.release(proc.pcid)
        if self.on_frames_freed is not None and freed_frames:
            self.on_frames_freed(freed_frames)
        if self.tracer is not None:
            self.tracer.process_exit(0, proc.pid, proc.pcid, proc.ccid,
                                     len(invalidations))
        return freed

    def _dooms_shared_tables(self, proc):
        """Will tearing down ``proc`` free tables whose shared (O=0) TLB
        entries other group members could still translate through?"""
        return any(
            table.shared_key is not None and table.owned_by is None
            and table.sharers == 1
            for table in proc.tables.iter_tables())

    def _issue_invalidations(self, proc, invalidations):
        if not invalidations:
            return
        self.shootdowns += len(invalidations)
        if self.invalidation_sink is not None:
            self.invalidation_sink(proc, invalidations)

    def _teardown(self, table, freed=None, freed_frames=None):
        """Release a table page and, recursively, exclusively-owned
        children. ``freed_frames``, when given, collects the PPNs whose
        refcount actually reached zero (for the sanitizer's freed-frame
        quarantine)."""
        freed = freed if freed is not None else []
        for entry in table.entries.values():
            if isinstance(entry, TableRef):
                child = entry.table
                child.sharers -= 1
                if child.sharers == 0:
                    self._teardown(child, freed, freed_frames)
            elif isinstance(entry, PTE) and entry.present:
                if self.allocator.decref(entry.ppn) == 0 \
                        and freed_frames is not None:
                    freed_frames.append(entry.ppn)
        table.entries.clear()
        if self.allocator.decref(table.frame) == 0 \
                and freed_frames is not None:
            freed_frames.append(table.frame)
        freed.append(table)
        return freed

    # -- memory mapping ---------------------------------------------------------

    def mmap(self, proc, segment, page_offset, npages, kind, file=None,
             file_offset=0, writable=True, executable=False, huge_ok=False,
             name=""):
        """Map ``npages`` at ``segment + page_offset`` (group-space placement).

        Shareable (file-backed) mappings should be 512-page aligned in both
        offset and length so PTE-table sharing lines up; the workload
        builders take care of that.
        """
        start_vpn = proc.vpn_group(segment, page_offset)
        vma = VMA(start_vpn, npages, segment, kind, file, file_offset,
                  writable, executable, huge_ok, name)
        return proc.mm.add(vma)

    def munmap(self, proc, vma):
        """Unmap a VMA.

        Leaves in private tables are zapped and their frames released.
        When a whole shared table falls inside the range, the process
        *detaches*: its upper-level entry stops pointing at the table and
        the sharer counter drops (Section IV-B) — the translations live on
        for the remaining sharers. A partially-covered shared table is
        first privatized (the paper: processes cannot share a table while
        keeping only some of its pages). Returns the TLB invalidations the
        caller must apply.
        """
        proc.mm.remove(vma)
        invalidations = []
        freed_frames = []
        vpn = vma.start_vpn
        end = vma.end_vpn
        while vpn < end:
            path = proc.tables.walk(vpn)
            level, table, index, entry = path[-1]
            if not isinstance(entry, PTE):
                # Nothing mapped at this level: skip its coverage.
                shift = {4: 27, 3: 18, 2: 9, 1: 0}[level]
                vpn = ((vpn >> shift) + 1) << shift
                continue
            shared = table.shared_key is not None and table.owned_by is None
            if shared:
                table_shift = 9 if level == PTE_LEVEL else 18
                table_base = (vpn >> table_shift) << table_shift
                table_end = table_base + (1 << table_shift)
                if vma.start_vpn <= table_base and table_end <= end:
                    # Detach the whole shared table.
                    _plevel, parent, pindex, _ref = path[-2]
                    parent.entries.pop(pindex, None)
                    table.sharers -= 1
                    if table.sharers == 0:
                        # Last sharer: the table's translations die with
                        # it, and so must every shared (O=0) TLB entry
                        # the group still holds for its range.
                        invalidations.append(TLBInvalidation(
                            vpn, InvalidationScope.REGION_SHARED,
                            ccid=proc.ccid))
                        freed = self._teardown(table,
                                               freed_frames=freed_frames)
                        self.policy.on_tables_freed(self, freed)
                    invalidations.append(TLBInvalidation(
                        vpn, InvalidationScope.PROCESS,
                        pcid=proc.pcid, ccid=proc.ccid))
                    vpn = table_end
                    continue
                # Partial coverage: take a private copy, then zap from it.
                table, index, _extra = self.policy.install_target(
                    self, proc, vma, vpn, table, index,
                    private_content=True)
                entry = table.entries.get(index)
                if not isinstance(entry, PTE):
                    # The privatized (or reverted) table has no entry at
                    # this index — there is nothing to zap. Advance past
                    # the page explicitly: the seed code re-walked the
                    # same vpn here, reaching this spot again after one
                    # wasted walk per hole.
                    vpn += 1
                    continue
            # Record the shootdown before the frame can be released: if
            # the walk ever stops early, the batch must already name every
            # page whose frame a recycler could hand out.
            invalidations.append(TLBInvalidation(
                vpn, InvalidationScope.PROCESS,
                pcid=proc.pcid, ccid=proc.ccid))
            if entry.present:
                if self.allocator.decref(entry.ppn) == 0:
                    freed_frames.append(entry.ppn)
            table.entries.pop(index, None)
            vpn += entry.page_size.base_pages
        if self.on_frames_freed is not None and freed_frames:
            self.on_frames_freed(freed_frames)
        return invalidations

    # -- page faults ------------------------------------------------------------

    def handle_fault(self, proc, vpn, is_write=False):
        """Resolve a translation fault at ``vpn`` (group space).

        Mirrors the Linux flow: VMA lookup, path allocation (possibly
        attaching a shared table via the policy), then population or CoW.
        """
        vma = proc.mm.find(vpn)
        if vma is None:
            raise SegmentationFault(proc.pid, vpn)

        use_huge = self._use_huge(vma, vpn)
        lookup_vpn = vpn & ~(HUGE_PAGES - 1) if use_huge else vpn

        # A present, usable leaf may already exist (CoW break needed, or a
        # group member populated the shared table first).
        _level, table, index, entry = proc.tables.leaf_slot(lookup_vpn)
        if isinstance(entry, PTE) and entry.present:
            return self._fault_on_present(proc, vma, lookup_vpn, table, index,
                                          entry, is_write)

        provider = self.policy.table_provider(self, proc, vma)
        leaf_level = PMD if use_huge else PTE_LEVEL
        table, index, allocated = proc.tables.ensure_path(
            lookup_vpn, leaf_level, provider)
        cycles = allocated * self.costs.table_alloc
        entry = table.entries.get(index)
        if isinstance(entry, PTE) and entry.present:
            # Attaching the shared table resolved the fault: the page was
            # populated by another container in the CCID group.
            outcome = self._fault_on_present(proc, vma, lookup_vpn, table,
                                             index, entry, is_write)
            outcome.cycles += cycles
            return outcome

        outcome = self._populate(proc, vma, lookup_vpn, table, index,
                                 is_write, use_huge)
        outcome.cycles += cycles
        return outcome

    def _fault_on_present(self, proc, vma, vpn, table, index, pte, is_write):
        if is_write and pte.cow:
            return self._cow_break(proc, vma, vpn, table, index, pte)
        if is_write and not pte.writable:
            raise ProtectionFault(proc.pid, vpn)
        proc.spurious_faults += 1
        pte.accessed = True
        if is_write:
            pte.dirty = True
        return FaultOutcome(FaultType.SPURIOUS, self.costs.minor_fault // 4,
                            ppn=pte.ppn)

    def _use_huge(self, vma, vpn):
        if not (self.config.thp_enabled and vma.huge_ok):
            return False
        if vma.kind.file_backed:
            return False  # THP supports only anonymous mappings (Sec VII-A)
        block = vpn & ~(HUGE_PAGES - 1)
        return block >= vma.start_vpn and block + HUGE_PAGES <= vma.end_vpn

    def _populate(self, proc, vma, vpn, table, index, is_write, use_huge):
        costs = self.costs
        invalidations = []
        if vma.kind is VMAKind.ANON:
            pages = HUGE_PAGES if use_huge else 1
            ppn = self.allocator.alloc(FrameKind.DATA, pages=pages)
            ftype = FaultType.MINOR
            cycles = costs.minor_fault
            writable, cow = vma.writable, False
            file, file_index = None, None
        else:
            file = vma.file
            file_index = vma.file_index(vpn)
            ppn = self.page_cache.lookup(file, file_index)
            if ppn is None:
                ppn = self.page_cache.fill(file, file_index)
                ftype = FaultType.MAJOR
                cycles = costs.major_fault
            else:
                ftype = FaultType.MINOR
                cycles = costs.minor_fault
            if vma.kind is VMAKind.FILE_SHARED:
                self.allocator.incref(ppn)
                writable, cow = vma.writable, False
            else:  # FILE_PRIVATE
                if is_write:
                    # Write fault on a private mapping: allocate the
                    # private copy immediately.
                    ppn = self.allocator.alloc(FrameKind.DATA)
                    cycles += costs.cow_extra
                    ftype = FaultType.COW
                    writable, cow = True, False
                    file, file_index = None, None
                else:
                    self.allocator.incref(ppn)
                    writable = False
                    cow = vma.writable
        size = PageSize.SIZE_2M if use_huge else PageSize.SIZE_4K
        pte = PTE(ppn, present=True, writable=writable, user=True,
                  executable=vma.executable, cow=cow, page_size=size,
                  file=file, file_index=file_index)
        pte.accessed = True
        pte.dirty = is_write
        # Private content (anonymous pages; private copies of file pages)
        # must never be installed in a table shared with other group
        # members — they would see this process's private frame. Shareable
        # content must additionally match the shared table's registered
        # backing; the policy checks both.
        private_content = (vma.kind is VMAKind.ANON
                           or (vma.kind is VMAKind.FILE_PRIVATE and is_write))
        table, index, extra = self.policy.install_target(
            self, proc, vma, vpn, table, index, private_content)
        cycles += extra
        table.entries[index] = pte
        self.policy.on_pte_install(self, proc, vma, vpn, table, index, pte)
        self._count_fault(proc, ftype)
        return FaultOutcome(ftype, cycles, invalidations, ppn=ppn)

    def _cow_break(self, proc, vma, vpn, table, index, pte):
        """Write to a CoW page: delegate to the policy (shared tables),
        falling back to the conventional private break."""
        outcome = self.policy.cow_break(self, proc, vma, vpn, table, index, pte)
        if outcome is not None:
            self._count_fault(proc, FaultType.COW)
            self.shootdowns += len(outcome.invalidations)
            return outcome
        outcome = self.default_cow_break(proc, vpn, table, index, pte)
        self._count_fault(proc, FaultType.COW)
        return outcome

    def default_cow_break(self, proc, vpn, table, index, pte):
        """Conventional CoW: new private frame, write-protect lifted, own
        TLB entry shot down."""
        costs = self.costs
        pages = pte.page_size.base_pages
        new_ppn = self.allocator.alloc(FrameKind.DATA, pages=pages)
        self.allocator.decref(pte.ppn)
        pte.ppn = new_ppn
        pte.cow = False
        pte.writable = True
        pte.dirty = True
        pte.accessed = True
        pte.file = None
        pte.file_index = None
        copy_cost = costs.cow_extra * (8 if pages > 1 else 1)
        invalidation = TLBInvalidation(vpn, InvalidationScope.PROCESS,
                                       pcid=proc.pcid, ccid=proc.ccid)
        self.shootdowns += 1
        return FaultOutcome(
            FaultType.COW,
            costs.minor_fault + copy_cost + costs.tlb_shootdown,
            [invalidation], ppn=new_ppn)

    def _count_fault(self, proc, ftype):
        if ftype is FaultType.MINOR:
            proc.minor_faults += 1
        elif ftype is FaultType.MAJOR:
            proc.major_faults += 1
        elif ftype is FaultType.COW:
            proc.cow_faults += 1

    # -- software touch (warm-up / tests) ----------------------------------------

    def touch(self, proc, vpn, is_write=False):
        """Resolve ``vpn`` as if the process accessed it, without hardware
        timing: fault as many times as the hardware would retry. Returns
        the final usable PTE.

        The reference for one page: a usable leaf gets its accessed (and
        on a write, dirty) bit set and its frame an LRU reference; any
        other state goes through :meth:`handle_fault` and is looked up
        again. Scattered warm-up touches and tests call it directly;
        consecutive runs of pages go through :meth:`touch_range`.
        """
        for _ in range(4):
            pte = proc.tables.lookup_pte(vpn)
            if pte is not None and pte.present:
                if not is_write or (pte.writable and not pte.cow):
                    pte.accessed = True
                    if is_write:
                        pte.dirty = True
                    self.lru.touch(pte.ppn)
                    return pte
            self.handle_fault(proc, vpn, is_write)
        raise RuntimeError("touch did not converge at vpn %#x" % vpn)

    def touch_range(self, proc, vpn, npages, is_write=False):
        """:meth:`touch` each of ``npages`` pages from ``vpn``, in order,
        one 2MB block at a time.

        Leaves the kernel in exactly the state the per-page calls would:
        the same faults, table allocations, policy calls, frame order and
        LRU order, and the same exception at the same page. Per block the
        VMA, the THP decision and the PTE-level table are resolved once;
        per page the slot is read directly. A usable leaf gets touch's
        accessed/dirty/LRU update. A missing or non-present 4K leaf goes
        straight to :meth:`_populate` -- what :meth:`handle_fault` does
        once the path exists -- and the slot is read again; an empty slot
        then means ``install_target`` installed into another table, so
        the block is resolved again. Everything else takes :meth:`touch`
        unchanged, and the block is resolved again after it: a missing
        path (its first fault is the one that calls ``ensure_path`` and
        the policy's ``table_provider``), a huge leaf or THP-eligible
        block, a CoW or read-only write, and a page outside every VMA.
        """
        end = vpn + npages
        tables = proc.tables
        lru_touch = self.lru.touch
        while vpn < end:
            vma = proc.mm.find(vpn)
            if vma is None:
                self.touch(proc, vpn, is_write)
                vpn += 1
                continue
            stop = min(end, vma.end_vpn, (vpn | (HUGE_PAGES - 1)) + 1)
            if self._use_huge(vma, vpn):
                for page in range(vpn, stop):
                    self.touch(proc, page, is_write)
                vpn = stop
                continue
            table = tables.pte_table(vpn)
            while vpn < stop:
                if table is None:
                    self.touch(proc, vpn, is_write)
                    table = tables.pte_table(vpn)
                    vpn += 1
                    continue
                index = vpn & (HUGE_PAGES - 1)
                pte = table.entries.get(index)
                if pte is None or not pte.present:
                    self._populate(proc, vma, vpn, table, index, is_write,
                                   False)
                    pte = table.entries.get(index)
                    if pte is None or not pte.present:
                        table = tables.pte_table(vpn)
                        pte = table.entries[index]
                if is_write and (pte.cow or not pte.writable):
                    self.touch(proc, vpn, is_write)
                    table = tables.pte_table(vpn)
                else:
                    pte.accessed = True
                    if is_write:
                        pte.dirty = True
                    lru_touch(pte.ppn)
                vpn += 1

    # -- statistics ----------------------------------------------------------------

    @property
    def total_minor_faults(self):
        return sum(p.minor_faults for p in self.processes.values())

    @property
    def total_major_faults(self):
        return sum(p.major_faults for p in self.processes.values())

    @property
    def total_cow_faults(self):
        return sum(p.cow_faults for p in self.processes.values())

    def reset_fault_counters(self):
        for proc in self.processes.values():
            proc.minor_faults = 0
            proc.major_faults = 0
            proc.cow_faults = 0
            proc.spurious_faults = 0

    def clear_accessed_bits(self):
        """Age all pages (kswapd-style); Figure 9's 'active' measurement
        counts pte_ts re-referenced after this."""
        for proc in self.processes.values():
            for _vpn, _lvl, _table, _idx, pte in proc.tables.iter_leaves():
                pte.accessed = False
        self.lru.reset()
