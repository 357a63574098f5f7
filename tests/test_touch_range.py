"""Differential test: ``Kernel.touch_range`` against per-page ``touch``.

Each case builds twin :class:`TouchScenario` kernels for one stock
config, runs the same operations on both, one twin touching page by page
and the other through ``touch_range``, and compares the whole kernel
state: every leaf and table (frame, sharers, ownership, ORPC), allocator
refcounts and free-list order, the LRU lists, fault counters and the
BabelFish policy's registry, MaskPages and counters. A range that faults
must raise the same exception at the same page.
"""

import pytest

from repro.kernel.vma import SegmentKind, VMAKind

STOCK_CONFIGS = ("Baseline", "BabelFish", "BabelFish-PT", "BabelFish-TLB",
                 "BigTLB", "Victima", "Coalesced")

HEAP, LIBS, MMAP = SegmentKind.HEAP, SegmentKind.LIBS, SegmentKind.MMAP
STACK, VDSO = SegmentKind.STACK, SegmentKind.VDSO
#: ``TouchScenario.THP_OFFSET``: the THP-eligible VMA's first page.
THP = 1 << 18

#: case -> operations ``(child, segment, offset, pages, is_write)``; a
#: child of ``None`` is the zygote.
CASES = {
    # Blocks 0-2 of the heap, then across the heap/heap2 VMA boundary.
    "blocks_and_vmas": [(0, HEAP, 300, 1200, True),
                        (1, HEAP, 100, 600, False)],
    # MAP_PRIVATE writes: CoW breaks of the zygote's read-only pages,
    # then private copies of never-mapped ones; a read sweep after.
    "file_private_cow": [(0, LIBS, 200, 700, True),
                         (1, LIBS, 0, 1024, False),
                         (0, LIBS, 0, 1024, False)],
    # A THP-eligible VMA: one huge page inherited, one never populated.
    "thp": [(0, HEAP, THP, 1024, True), (1, HEAP, THP + 52, 900, False)],
    # Writes into tables BabelFish shares: the first write privatizes the
    # table mid-range; reads of the data set attach shared tables.
    "shared_privatize": [(0, HEAP, 350, 300, True),
                         (1, MMAP, 0, 800, False),
                         (1, MMAP, 100, 300, True),
                         (None, MMAP, 150, 700, False)],
    # A non-present PTE in the middle of a range (see PREPARE).
    "non_present": [(0, HEAP, 440, 20, True), (1, HEAP, 440, 20, False)],
    # A THP-eligible block whose 4K table outlived an earlier mapping
    # (see PREPARE): the fault installs a huge page, not a 4K one.
    "thp_over_old_table": [(0, HEAP, 2 * THP, 600, True)],
    # Runs off the end of the stack VMA into the hole behind it.
    "runs_off": [(0, STACK, 10, 100, True)],
    # A write to a read-only anonymous VMA: populated, then refused.
    "readonly_write": [(0, VDSO, 0, 16, True)],
}


def _clear_slot(scenario):
    scenario.clear_slot(scenario.children[0], HEAP, 450)


def _thp_over_old_table(scenario):
    kernel, proc = scenario.kernel, scenario.children[0]
    old = kernel.mmap(proc, HEAP, 2 * THP, 512, VMAKind.ANON, name="old")
    scenario.touch(proc, HEAP, 2 * THP + 7, True)
    kernel.munmap(proc, old)
    kernel.mmap(proc, HEAP, 2 * THP, 1024, VMAKind.ANON, huge_ok=True,
                name="thp2")


#: case -> state set up on each twin before its operations.
PREPARE = {"non_present": _clear_slot,
           "thp_over_old_table": _thp_over_old_table}


def _run_twins(touch_scenario, config_name, operations, children=2,
               prepare=None, **overrides):
    twins = []
    for per_page in (True, False):
        scenario = touch_scenario(config_name, children=children,
                                  **overrides)
        if prepare is not None:
            prepare(scenario)
        outcomes = []
        for child, segment, offset, pages, is_write in operations:
            proc = (scenario.zygote if child is None
                    else scenario.children[child])
            outcomes.append(scenario.run(proc, segment, offset, pages,
                                         is_write, per_page))
        twins.append((outcomes, scenario.state()))
    (page_outcomes, page_state), (range_outcomes, range_state) = twins
    assert range_outcomes == page_outcomes
    assert range_state == page_state
    return page_outcomes


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("config_name", STOCK_CONFIGS)
def test_touch_range_matches_per_page_touch(touch_scenario, config_name,
                                            case):
    assert touch_scenario.THP_OFFSET == THP
    outcomes = _run_twins(touch_scenario, config_name, CASES[case],
                          prepare=PREPARE.get(case))
    if case == "runs_off":
        assert outcomes == [("SegmentationFault", 64)]
    elif case == "readonly_write":
        assert outcomes == [("ProtectionFault", 0)]
    else:
        assert outcomes == [None] * len(CASES[case])


@pytest.mark.parametrize("config_name", ["BabelFish", "BabelFish-PT"])
def test_touch_range_matches_through_region_revert(touch_scenario,
                                                   config_name):
    # Two PC-bitmask bits: the third writer into the shared heap region
    # reverts it to private tables, both on a CoW break (block 0) and on
    # an install into a shared table (the unpopulated rest of block 0).
    operations = [(child, HEAP, 380, 200, True) for child in range(3)]
    _run_twins(touch_scenario, config_name, operations, children=3,
               pc_bitmask_bits=2)
    scenario = touch_scenario(config_name, children=3, pc_bitmask_bits=2)
    for child in scenario.children:
        scenario.run(child, HEAP, 380, 200, True, per_page=False)
    assert scenario.kernel.policy.reverts >= 1
