"""Runtime translation-coherence sanitizer: a shadow MMU.

``audit_kernel`` checks the kernel's own bookkeeping (sharer counts,
refcounts, registries) but never sees the TLB side — exactly where
BabelFish's shared entries make staleness subtle. When enabled via
``SimConfig(sanitize=True)``, this sanitizer cross-checks every L1/L2 TLB
fill, hit, and invalidation in :mod:`repro.sim.mmu` against an independent
architectural walk of the kernel page tables (``proc.tables.walk`` — no
TLBs, no PWC, no timing). It catches:

- **stale entries**: a hit on a translation the tables no longer hold
  (munmap or invalidation missed a copy), or whose PPN changed (a CoW
  break that did not shoot the old entry down);
- **O-PC desync**: a fill whose Ownership/ORPC/PC-bitmask snapshot
  disagrees with the page-table and MaskPage state at fill time;
- **CCID leakage**: an entry tagged with one group hit or filled by a
  process of another;
- **invalidation leaks**: entries that survive an invalidation they were
  scoped to cover;
- **freed frames**: a hit or fill that resolves to a physical frame the
  kernel has freed and not reallocated (the container-churn bug class:
  a dead process's translations outliving its frames). Teardown paths
  report freed PPNs through ``kernel.on_frames_freed`` and the sanitizer
  quarantines them until the allocator hands them out again.

Checks run with the simulation's own objects but read-only; violations
are recorded (and optionally raised) as :class:`CoherenceViolation`.
"""

import dataclasses

from repro.core.mask_page import region_of
from repro.hw.types import PageSize
from repro.kernel.fault import InvalidationScope
from repro.kernel.page_table import PTE


class CoherenceError(AssertionError):
    """Raised in ``raise_on_violation`` mode, carrying the violation."""

    def __init__(self, violation):
        super().__init__(violation.format())
        self.violation = violation


@dataclasses.dataclass(frozen=True)
class CoherenceViolation:
    kind: str        # stale-entry | ppn-mismatch | size-mismatch |
                     # perm-mismatch | ccid-leak | opc-desync |
                     # invalidation-leak | freed-frame
    level: str       # L1D | L1I | L2 | L3
    vpn: int         # 4K group-space VPN the check ran at
    pid: int         # process on whose behalf the check ran (or entry owner)
    detail: str

    def format(self):
        return "[%s] %s at vpn=%#x pid=%s: %s" % (
            self.level, self.kind, self.vpn, self.pid, self.detail)


def _entry_vpn4k(entry):
    return entry.vpn << (entry.page_size.shift - PageSize.SIZE_4K.shift)


def _entry_covers(entry, vpn4k):
    base = _entry_vpn4k(entry)
    return base <= vpn4k < base + entry.page_size.base_pages


class TranslationSanitizer:
    """Cross-checks TLB state against the architectural page tables."""

    def __init__(self, kernel, config, raise_on_violation=False):
        self.kernel = kernel
        self.config = config
        self.raise_on_violation = raise_on_violation
        self.violations = []
        self.checks = 0
        #: Freed-and-not-yet-reallocated PPNs (fed by the kernel's
        #: teardown paths through ``kernel.on_frames_freed``).
        self._quarantine = set()

    # -- recording ---------------------------------------------------------

    def _record(self, kind, level, vpn, pid, detail):
        violation = CoherenceViolation(kind, level, vpn, pid, detail)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise CoherenceError(violation)
        return violation

    def report(self):
        return [v.format() for v in self.violations]

    def assert_clean(self):
        if self.violations:
            raise CoherenceError(self.violations[0])

    # -- architectural reference walk -------------------------------------

    @staticmethod
    def _walk_tables(proc, vpn_group):
        _level, table, _index, entry = proc.tables.leaf_slot(vpn_group)
        if isinstance(entry, PTE) and entry.present:
            return entry, table
        return None, None

    def _arch_walk(self, proc, vpn_group):
        """(pte, leaf_table) via the software tables only — the reference
        the TLB state must agree with.

        The process's own tables take precedence: if they resolve, the TLB
        must agree with *them* (this is what catches a shared entry served
        to a process that holds a private copy). Under BabelFish TLB
        sharing a process can legitimately hit a group entry before its
        own tree has attached the range, so when the own walk faults the
        reference falls back to the live CCID-group members' tables.
        """
        pte, table = self._walk_tables(proc, vpn_group)
        if pte is not None or not self.config.shared_tlb_entries:
            return pte, table
        for member in self.kernel.processes.values():
            if member is proc or not member.alive \
                    or member.ccid != proc.ccid:
                continue
            pte, table = self._walk_tables(member, vpn_group)
            if pte is not None:
                return pte, table
        return None, None

    # -- freed-frame quarantine --------------------------------------------

    def quarantine_frames(self, ppns):
        """Teardown freed these PPNs: any TLB traffic resolving to one
        (while it stays free) is a use-after-free translation. Wired as
        ``kernel.on_frames_freed`` by the simulator."""
        self._quarantine.update(ppns)

    @staticmethod
    def _entry_frames(entry, vpn_group, site):
        """The PPNs a check must hold against quarantine. Coalesced
        spans map several frames: a hit resolves exactly one (the
        accessed page's slice), while a fill asserts the whole span."""
        if not entry.page_size.coalesced:
            return (entry.ppn,)
        if site == "hit":
            return (entry.ppn + (vpn_group & entry.page_size.base_mask),)
        return tuple(entry.ppn + off
                     for off in range(entry.page_size.base_pages))

    def _check_freed_frame(self, level, proc, entry, vpn_group, site):
        for ppn in self._entry_frames(entry, vpn_group, site):
            if ppn not in self._quarantine:
                continue
            if self.kernel.allocator.refcount(ppn) > 0:
                # Reallocated since it was freed: no longer quarantined. A
                # stale entry pointing here is caught by the walk-based
                # checks instead (ppn-mismatch / stale-entry).
                self._quarantine.discard(ppn)
                continue
            self._record(
                "freed-frame", level, vpn_group, proc.pid,
                "%s resolves to ppn=%#x, which teardown freed and the "
                "allocator has not reissued — a dead translation outlived "
                "its frame" % (site, ppn))

    # -- fill / hit checks -------------------------------------------------

    def check_hit(self, level, proc, entry, vpn_group):
        """A TLB hit served ``proc`` at ``vpn_group`` from ``entry``."""
        self.checks += 1
        self._check_freed_frame(level, proc, entry, vpn_group, "hit")
        pte, _table = self._arch_walk(proc, vpn_group)
        if pte is None:
            self._record(
                "stale-entry", level, vpn_group, proc.pid,
                "hit on %r but the architectural walk faults — the entry "
                "outlived its translation (missed invalidation after "
                "munmap/CoW?)" % (entry,))
            return
        resolved_ppn = entry.ppn
        expected_size = entry.page_size
        if entry.page_size.coalesced:
            # A span caches several contiguous 4K translations: the hit
            # resolves the accessed slice, and the tables must hold it
            # as a plain 4K pte_t.
            resolved_ppn += vpn_group & entry.page_size.base_mask
            expected_size = PageSize.SIZE_4K
        if resolved_ppn != pte.ppn:
            self._record(
                "ppn-mismatch", level, vpn_group, proc.pid,
                "hit returns ppn=%#x but the tables map ppn=%#x — stale "
                "entry after a CoW break or remap" % (resolved_ppn, pte.ppn))
        if expected_size is not pte.page_size:
            self._record(
                "size-mismatch", level, vpn_group, proc.pid,
                "entry page size %s but the tables hold %s"
                % (entry.page_size.name, pte.page_size.name))
        if entry.ccid != proc.ccid:
            self._record(
                "ccid-leak", level, vpn_group, proc.pid,
                "process in CCID group %d hit an entry tagged CCID %d"
                % (proc.ccid, entry.ccid))
        if entry.writable and not pte.writable:
            self._record(
                "perm-mismatch", level, vpn_group, proc.pid,
                "entry grants write but the pte_t is read-only — a "
                "write-protect (CoW arm) was not propagated")

    def check_fill(self, level, proc, entry, vpn_group):
        """``entry`` was just inserted for ``proc`` at ``vpn_group``."""
        self.checks += 1
        self._check_freed_frame(level, proc, entry, vpn_group, "fill")
        pte, table = self._arch_walk(proc, vpn_group)
        if pte is None:
            self._record(
                "stale-entry", level, vpn_group, proc.pid,
                "fill of %r without a present architectural pte_t" % (entry,))
            return
        resolved_ppn = entry.ppn
        if entry.page_size.coalesced:
            resolved_ppn += vpn_group & entry.page_size.base_mask
        if resolved_ppn != pte.ppn:
            self._record(
                "ppn-mismatch", level, vpn_group, proc.pid,
                "filled ppn=%#x but the tables map ppn=%#x"
                % (resolved_ppn, pte.ppn))
        if entry.ccid != proc.ccid:
            self._record(
                "ccid-leak", level, vpn_group, proc.pid,
                "fill tagged CCID %d on behalf of a CCID-%d process"
                % (entry.ccid, proc.ccid))
        if entry.page_size.coalesced:
            self._check_span_fill(level, proc, entry)
        if self.config.shared_tlb_entries and table is not None:
            self._check_opc(level, proc, entry, vpn_group, table)

    def _check_span_fill(self, level, proc, entry):
        """A coalesced fill asserts the whole aligned block: every
        covered 4K vpn must be present, 4K-mapped, and physically
        contiguous from the span base — re-derived from the tables, not
        from the policy's own block scan."""
        base = _entry_vpn4k(entry)
        for off in range(entry.page_size.base_pages):
            pte, _table = self._arch_walk(proc, base + off)
            if pte is None or pte.page_size is not PageSize.SIZE_4K \
                    or pte.ppn != entry.ppn + off:
                self._record(
                    "ppn-mismatch", level, base + off, proc.pid,
                    "coalesced span %r asserts ppn=%#x for member +%d "
                    "but the tables hold %r"
                    % (entry, entry.ppn + off, off, pte))

    def _check_opc(self, level, proc, entry, vpn_group, table):
        """O-PC snapshot vs the page-table/MaskPage state at fill time.

        The expected fields are re-derived from the policy against the
        leaf table the *independent* walk reached — so a fill that walked
        a stale table, or a ``make_entry`` that miswires the fields, or a
        MaskPage that desynced from the pmd_t ORPC bits, all disagree
        here. Only meaningful where O-PC is actually stored: the L2, and
        the L1 when it holds group-shared entries.
        """
        if level != "L2" and not self.config.share_l1_tlb:
            return
        o_bit, orpc, mask = self.kernel.policy.fill_info(proc, table,
                                                         vpn_group)
        # Figure 5b's storage convention: the bitmask is only loaded when
        # O is clear and ORPC set; otherwise the stored field is zero.
        stored_mask = mask if (not o_bit and orpc) else 0
        if bool(entry.o_bit) != bool(o_bit):
            self._record(
                "opc-desync", level, vpn_group, proc.pid,
                "entry O=%d but the policy derives O=%d from the leaf "
                "table (shared_key=%r, owned_by=%r)"
                % (entry.o_bit, o_bit, table.shared_key, table.owned_by))
        elif bool(entry.orpc) != bool(orpc):
            self._record(
                "opc-desync", level, vpn_group, proc.pid,
                "entry ORPC=%d but the pmd_t-level state says ORPC=%d"
                % (entry.orpc, orpc))
        elif entry.pc_mask != stored_mask:
            self._record(
                "opc-desync", level, vpn_group, proc.pid,
                "entry PC bitmask %#x but the MaskPage derives %#x"
                % (entry.pc_mask, stored_mask))

    # -- invalidation checks -----------------------------------------------

    def check_invalidation(self, mmu, proc, inv):
        """After ``mmu`` applied ``inv``: no matching entry may survive.

        The matching predicate is re-derived from the invalidation
        semantics (not from the MMU's own code), so a wrong set index, a
        bad page-size shift, or an overly narrow predicate in
        ``apply_invalidation`` shows up here.
        """
        self.checks += 1
        for name, multi in mmu.tlb_levels():
            for entry in multi.entries():
                if self._should_be_gone(name, mmu, proc, entry, inv):
                    self._record(
                        "invalidation-leak", name, inv.vpn,
                        getattr(proc, "pid", None),
                        "%r survived %s invalidation of vpn=%#x"
                        % (entry, inv.scope.value, inv.vpn))

    def _should_be_gone(self, level, mmu, proc, entry, inv):
        if inv.scope is InvalidationScope.PROCESS:
            if entry.pcid != inv.pcid:
                return False
            if _entry_covers(entry, inv.vpn):
                return True
            # Under ASLR-HW the L1 caches process-space VPNs.
            vpn_proc = mmu._to_proc_space(proc, inv.vpn)
            return vpn_proc is not None and _entry_covers(entry, vpn_proc)
        if inv.scope is InvalidationScope.SHARED_ENTRY:
            return (not entry.o_bit and entry.ccid == inv.ccid
                    and _entry_covers(entry, inv.vpn))
        if inv.scope is InvalidationScope.REGION_SHARED:
            return (not entry.o_bit and entry.ccid == inv.ccid
                    and region_of(_entry_vpn4k(entry)) == region_of(inv.vpn))
        if inv.scope is InvalidationScope.PCID_FLUSH:
            return entry.pcid == inv.pcid
        if inv.scope is InvalidationScope.CCID_SHARED:
            return not entry.o_bit and entry.ccid == inv.ccid
        return False

    # -- full-state scan ---------------------------------------------------

    def scan(self, mmu):
        """Sweep every live TLB entry on ``mmu`` against the tables.

        Called at end of run (and usable from tests at any point). Private
        (O=1) entries are checked against their inserting process; shared
        entries against any live member of their CCID group. Entries whose
        processes have all exited are skipped — with no possible requester
        they can never produce a wrong translation.
        """
        by_pid = {p.pid: p for p in self.kernel.processes.values() if p.alive}
        by_ccid = {}
        for p in by_pid.values():
            by_ccid.setdefault(p.ccid, p)
        for name, multi in mmu.tlb_levels():
            for entry in multi.entries():
                proc = by_pid.get(entry.inserted_by)
                if proc is None and not entry.o_bit:
                    proc = by_ccid.get(entry.ccid)
                if proc is None:
                    continue
                if entry.page_size.coalesced:
                    # Each covered 4K vpn must still resolve: a partial
                    # remap/unmap of the block has to have dropped the
                    # whole span.
                    base = _entry_vpn4k(entry)
                    for off in range(entry.page_size.base_pages):
                        self.check_hit(name, proc, entry, base + off)
                    continue
                vpn_group = self._group_vpn_for(name, mmu, proc, entry)
                if vpn_group is None:
                    continue
                self.check_hit(name, proc, entry, vpn_group)
        return self.violations

    def _group_vpn_for(self, level, mmu, proc, entry):
        """Group-space 4K VPN of an entry (L1 may cache proc-space VPNs)."""
        vpn4k = _entry_vpn4k(entry)
        if level in ("L2", "L3") or self.config.share_l1_tlb:
            return vpn4k
        # Per-process L1 under ASLR-HW: map back to group space.
        if proc.layout_proc is proc.layout_group:
            return vpn4k
        segment = proc.layout_proc.segment_of(vpn4k)
        if segment is None:
            return None
        offset = vpn4k - proc.layout_proc.base(segment)
        return proc.layout_group.base(segment) + offset
