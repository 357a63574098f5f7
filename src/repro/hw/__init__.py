"""Hardware substrate: caches, DRAM, TLBs, page-walk cache, SRAM modeling.

These are the structures from Table I of the paper. They know nothing about
containers or BabelFish; the BabelFish-specific lookup policy lives in
:mod:`repro.core.babelfish_tlb` and is layered on top of the generic
structures defined here.
"""

from repro.hw.types import AccessKind, PageSize
from repro.hw.params import (
    CacheParams,
    CoreParams,
    DRAMParams,
    MachineParams,
    PWCParams,
    TLBParams,
    baseline_machine,
)
from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.dram import DRAMModel
from repro.hw.tlb import MultiSizeTLB, SetAssocTLB, TLBEntry
from repro.hw.pwc import PageWalkCache
from repro.hw.cacti import SRAMModel, l2_tlb_report

__all__ = [
    "AccessKind",
    "PageSize",
    "CacheParams",
    "CoreParams",
    "DRAMParams",
    "MachineParams",
    "PWCParams",
    "TLBParams",
    "baseline_machine",
    "CacheHierarchy",
    "SetAssociativeCache",
    "DRAMModel",
    "MultiSizeTLB",
    "SetAssocTLB",
    "TLBEntry",
    "PageWalkCache",
    "SRAMModel",
    "l2_tlb_report",
]
