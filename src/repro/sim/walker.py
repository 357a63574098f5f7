"""The hardware page walker (Section II-B, Figure 2).

Walks a process's software page tables level by level. PGD/PUD/PMD entry
reads probe the page walk cache first; on a PWC miss (and always for the
leaf pte_t) the walker issues a request to the cache hierarchy at the
entry's *physical* address — so walks by different containers over shared
tables hit the same cache lines (Figure 7's BabelFish timeline).
"""

import dataclasses

from repro.kernel.page_table import PGD, PTE, TableRef, table_index


@dataclasses.dataclass
class WalkResult:
    pte: object          # PTE or None
    leaf_table: object   # PageTable holding the leaf (None on fault)
    leaf_level: int      # level the walk ended at
    cycles: int
    memory_accesses: int
    fault: bool

    @property
    def page_size(self):
        return self.pte.page_size if self.pte is not None else None


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
        """Translate a 4K VPN through ``proc``'s tables with timing."""
        self.walks += 1
        cycles = 0
        accesses = 0
        table = proc.tables.pgd
        level = PGD
        # Per-level PWC/memory outcomes, root first ("p"/"m"), collected
        # only when tracing so the hot path stays allocation-free.
        outcomes = None if self.tracer is None else []
        while True:
            index = table_index(vpn, level)
            entry_paddr = table.entry_paddr(index)
            if level > 1 and self.pwc.lookup(level, entry_paddr):
                cycles += self.pwc.access_cycles
                if outcomes is not None:
                    outcomes.append("p")
            else:
                cycles += self.hierarchy.access(self.core_id, entry_paddr,
                                                skip_l1=True)
                if level > 1:
                    self.pwc.insert(level, entry_paddr)
                if outcomes is not None:
                    outcomes.append("m")
            entry = table.entries.get(index)
            if entry is None:
                result = WalkResult(None, None, level, cycles, accesses, True)
                break
            if isinstance(entry, PTE):
                if not entry.present:
                    result = WalkResult(None, table, level, cycles, accesses, True)
                else:
                    entry.accessed = True
                    result = WalkResult(entry, table, level, cycles, accesses, False)
                break
            if not isinstance(entry, TableRef):
                raise TypeError("level-%d entry at vpn %#x is neither PTE "
                                "nor TableRef: %r" % (level, vpn, entry))
            table = entry.table
            level -= 1
        self.total_cycles += result.cycles
        if outcomes is not None:
            self.tracer.page_walk(self.core_id, proc.pid, vpn, result.cycles,
                                  result.fault, "".join(outcomes))
        return result
