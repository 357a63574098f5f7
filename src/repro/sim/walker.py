"""The hardware page walker (Section II-B, Figure 2).

Walks a process's software page tables level by level. PGD/PUD/PMD entry
reads probe the page walk cache first; on a PWC miss (and always for the
leaf pte_t) the walker issues a request to the cache hierarchy at the
entry's *physical* address — so walks by different containers over shared
tables hit the same cache lines (Figure 7's BabelFish timeline).
"""

from repro.kernel.page_table import PGD, PMD, PTE, PTE_LEVEL, PUD, TableRef

#: ``(level, VPN shift)`` top down: the bit slices of
#: :func:`repro.kernel.page_table.table_index`, as constants.
_WALK_LEVELS = ((PGD, 27), (PUD, 18), (PMD, 9), (PTE_LEVEL, 0))


class WalkResult:
    """One walk's outcome. Slotted, since every walk builds one."""

    __slots__ = ("pte", "leaf_table", "leaf_level", "cycles", "fault")

    def __init__(self, pte, leaf_table, leaf_level, cycles, fault):
        self.pte = pte                  # PTE or None
        self.leaf_table = leaf_table    # table holding the leaf (None on fault)
        self.leaf_level = leaf_level    # level the walk ended at
        self.cycles = cycles
        self.fault = fault

    @property
    def page_size(self):
        return self.pte.page_size if self.pte is not None else None

    def __repr__(self):
        return ("WalkResult(pte=%r, leaf_level=%r, cycles=%r, fault=%r)"
                % (self.pte, self.leaf_level, self.cycles, self.fault))


class PageWalker:
    def __init__(self, core_id, hierarchy, pwc):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.pwc = pwc
        self.walks = 0
        self.total_cycles = 0
        #: Optional event tracer (:mod:`repro.obs`); set by the simulator
        #: when tracing is enabled.
        self.tracer = None

    def walk(self, proc, vpn):
        """Translate a 4K VPN through ``proc``'s tables with timing.

        The entry at each level sits at ``frame * 4096 + index * 8``
        (:meth:`~repro.kernel.page_table.PageTable.entry_paddr`), computed
        inline."""
        self.walks += 1
        pwc = self.pwc
        pwc_lookup = pwc.lookup
        pwc_insert = pwc.insert
        pwc_cycles = pwc.access_cycles
        access = self.hierarchy.access
        core_id = self.core_id
        # Per-level PWC/memory outcomes, root first ("p"/"m"), collected
        # only when tracing so the hot path stays allocation-free.
        outcomes = None if self.tracer is None else []
        cycles = 0
        table = proc.tables.pgd
        for level, shift in _WALK_LEVELS:
            index = (vpn >> shift) & 511
            entry_paddr = (table.frame << 12) | (index << 3)
            if level > 1 and pwc_lookup(level, entry_paddr):
                cycles += pwc_cycles
                if outcomes is not None:
                    outcomes.append("p")
            else:
                cycles += access(core_id, entry_paddr, 1, True)
                if level > 1:
                    pwc_insert(level, entry_paddr)
                if outcomes is not None:
                    outcomes.append("m")
            entry = table.entries.get(index)
            if entry is None:
                result = WalkResult(None, None, level, cycles, True)
                break
            if isinstance(entry, PTE):
                if entry.present:
                    entry.accessed = True
                    result = WalkResult(entry, table, level, cycles, False)
                else:
                    result = WalkResult(None, table, level, cycles, True)
                break
            if not isinstance(entry, TableRef) or level == PTE_LEVEL:
                raise TypeError("level-%d entry at vpn %#x is neither a leaf "
                                "nor a table to descend into: %r"
                                % (level, vpn, entry))
            table = entry.table
        self.total_cycles += cycles
        if outcomes is not None:
            self.tracer.page_walk(core_id, proc.pid, vpn, cycles,
                                  result.fault, "".join(outcomes))
        return result
