"""Shared fixtures: miniature kernels, CCID groups, and deployments.

Also wires the opt-in ``sanitize`` marker: tests that run whole
experiments with the translation-coherence sanitizer enabled are skipped
unless ``--sanitize`` (or ``REPRO_SANITIZE=1``) is given, so tier-1 time
stays flat.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run the full-experiment translation-coherence sanitizer "
             "tests (slow; also enabled by REPRO_SANITIZE=1)")


def sanitize_enabled(config):
    return (config.getoption("--sanitize")
            or os.environ.get("REPRO_SANITIZE") == "1")


def pytest_collection_modifyitems(config, items):
    if sanitize_enabled(config):
        return
    skip = pytest.mark.skip(
        reason="sanitizer suite is opt-in: pass --sanitize or set "
               "REPRO_SANITIZE=1")
    for item in items:
        if "sanitize" in item.keywords:
            item.add_marker(skip)

from repro.core.aslr import ASLRMode, group_layout_for, process_layout_for
from repro.core.ccid import CCIDRegistry
from repro.core.mask_page import MaskPageDirectory
from repro.core.shared_pt import SharedPTManager
from repro.hw.params import baseline_machine
from repro.kernel.errors import SimulationError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.page_table import PTE, TableRef
from repro.kernel.vma import SegmentKind, VMAKind


class MiniSystem:
    """A small kernel + one CCID group + a zygote with typical mappings."""

    def __init__(self, babelfish, thp=True, max_writers=32, aslr_mode=None):
        self.aslr_mode = aslr_mode or (
            ASLRMode.HW if babelfish else ASLRMode.INHERITED)
        self.registry = CCIDRegistry()
        self.group = self.registry.group_for("tenant", "miniapp")
        policy = None
        if babelfish:
            policy = SharedPTManager(
                MaskPageDirectory(max_writers=max_writers))
        self.kernel = Kernel(KernelConfig(thp_enabled=thp), policy=policy)
        if babelfish:
            self.kernel.policy.mask_dir.allocator = self.kernel.allocator
        self.policy = self.kernel.policy
        self.layout = group_layout_for(self.group, self.aslr_mode)
        self.lib = self.kernel.create_file("lib", 1024)
        self.data = self.kernel.create_file("data", 1024)
        self.kernel.page_cache.populate(self.lib)
        self.kernel.page_cache.populate(self.data)
        self.zygote = self.kernel.spawn(self.group.ccid, self.layout,
                                        name="zygote")
        self.kernel.mmap(self.zygote, SegmentKind.LIBS, 0, 1024,
                         VMAKind.FILE_PRIVATE, file=self.lib,
                         writable=False, executable=True, name="lib")
        self.kernel.mmap(self.zygote, SegmentKind.MMAP, 0, 1024,
                         VMAKind.FILE_SHARED, file=self.data,
                         writable=True, name="data")
        self.kernel.mmap(self.zygote, SegmentKind.HEAP, 0, 2048,
                         VMAKind.ANON, name="heap")
        self.bindata = self.kernel.create_file("bindata", 8)
        self.kernel.page_cache.populate(self.bindata)
        self.kernel.mmap(self.zygote, SegmentKind.DATA, 0, 8,
                         VMAKind.FILE_PRIVATE, file=self.bindata,
                         writable=True, name="bindata")

    def fork(self, name="child"):
        layout_proc = process_layout_for(self.group, self.aslr_mode,
                                         pid_seed=len(self.group.members) + 1)
        child, _cycles = self.kernel.fork(self.zygote,
                                          layout_proc=layout_proc, name=name)
        self.group.add(child)
        return child

    def vpn(self, proc, segment, off):
        return proc.vpn_group(segment, off)

    def touch(self, proc, segment, off, write=False):
        return self.kernel.touch(proc, self.vpn(proc, segment, off),
                                 is_write=write)


@pytest.fixture
def mini_baseline():
    return MiniSystem(babelfish=False)


@pytest.fixture
def mini_babelfish():
    return MiniSystem(babelfish=True)


@pytest.fixture(params=[False, True], ids=["baseline", "babelfish"])
def mini_any(request):
    return MiniSystem(babelfish=request.param)


@pytest.fixture
def machine2():
    return baseline_machine(cores=2)


class TouchScenario:
    """A fresh kernel built by ``build_environment`` for one stock config,
    with a zygote and forked children whose mappings cover the cases a
    range touch must get right: ranges across 2MB blocks and adjacent
    VMAs, MAP_PRIVATE writes (CoW), a THP-eligible VMA, a MAP_SHARED data
    set whose tables BabelFish shares, a read-only VMA and a VMA followed
    by a hole. Two scenarios built with the same arguments are twins: the
    same operations leave them in equal :meth:`state`.

    Offsets are segment-relative pages in group space (segment bases are
    2MB aligned, so the heap VMA starts 100 pages into a block).
    """

    #: The THP VMA sits in the heap's next 1GB region, so the huge page
    #: the zygote maps before the fork shares that PMD table whole
    #: without pulling the heap's 4K tables into it.
    THP_OFFSET = 1 << 18

    MAPS = (
        # segment, offset, pages, kind, file pages, writable, huge_ok, name
        (SegmentKind.LIBS, 0, 1024, VMAKind.FILE_PRIVATE, 1024, True, False,
         "lib"),
        (SegmentKind.MMAP, 0, 1024, VMAKind.FILE_SHARED, 1024, True, False,
         "data"),
        (SegmentKind.HEAP, 100, 1200, VMAKind.ANON, 0, True, False, "heap"),
        (SegmentKind.HEAP, 1300, 300, VMAKind.ANON, 0, True, False, "heap2"),
        (SegmentKind.HEAP, THP_OFFSET, 1024, VMAKind.ANON, 0, True, True,
         "thp"),
        (SegmentKind.STACK, 0, 64, VMAKind.ANON, 0, True, False, "stack"),
        (SegmentKind.VDSO, 0, 16, VMAKind.ANON, 0, False, False, "vdso"),
    )

    def __init__(self, config_name, children=2, **overrides):
        from repro.experiments.common import build_environment, config_by_name
        env = build_environment(config_by_name(config_name, **overrides),
                                cores=1)
        self.kernel = kernel = env.kernel
        group = env.registry.group_for("tenant", "touch")
        layout = group_layout_for(group, env.config.aslr_mode)
        self.zygote = zygote = kernel.spawn(group.ccid, layout, name="zygote")
        for (segment, offset, pages, kind, file_pages, writable, huge_ok,
             name) in self.MAPS:
            file = None
            if kind.file_backed:
                file = kernel.create_file(name, file_pages)
                # Half the file is cached: the rest takes major faults.
                kernel.page_cache.populate(file, 0, file_pages // 2)
            kernel.mmap(zygote, segment, offset, pages, kind, file=file,
                        writable=writable, huge_ok=huge_ok, name=name)
        # Pre-fork state, touched page by page: partly populated blocks,
        # read-only CoW file pages and one huge page.
        for offset in range(100, 400):
            self.touch(zygote, SegmentKind.HEAP, offset, True)
        for offset in range(300):
            self.touch(zygote, SegmentKind.LIBS, offset, False)
        for offset in range(200):
            self.touch(zygote, SegmentKind.MMAP, offset, False)
        self.touch(zygote, SegmentKind.HEAP, self.THP_OFFSET, True)
        self.children = []
        for index in range(children):
            layout_proc = process_layout_for(group, env.config.aslr_mode,
                                             pid_seed=index + 1)
            child, _cycles = kernel.fork(zygote, layout_proc=layout_proc,
                                         name="child%d" % index)
            group.add(child)
            self.children.append(child)

    def vpn(self, proc, segment, offset):
        return proc.vpn_group(segment, offset)

    def touch(self, proc, segment, offset, is_write):
        self.kernel.touch(proc, self.vpn(proc, segment, offset), is_write)

    def clear_slot(self, proc, segment, offset):
        """Leave a non-present PTE in ``offset``'s slot (the path must
        exist)."""
        vpn = self.vpn(proc, segment, offset)
        proc.tables.pte_table(vpn).entries[vpn & 511] = PTE(0, present=False)

    def run(self, proc, segment, offset, npages, is_write, per_page):
        """Touch a range page by page (``per_page``) or with
        ``touch_range``. Returns ``None``, or the fault that stopped it
        as ``(type, segment-relative page)``."""
        kernel = self.kernel
        vpn = self.vpn(proc, segment, offset)
        try:
            if per_page:
                for page in range(vpn, vpn + npages):
                    kernel.touch(proc, page, is_write)
            else:
                kernel.touch_range(proc, vpn, npages, is_write)
        except SimulationError as exc:
            return type(exc).__name__, exc.vpn - proc.vpn_group(segment, 0)
        return None

    def state(self):
        """The whole kernel state a touch can change, with pids and file
        ids made dense so twins compare equal."""
        kernel = self.kernel
        pids = {pid: index for index, pid in enumerate(kernel.processes)}
        fids = {file.fid: file.name for file in kernel.files.values()}

        def leaf(pte):
            return ("pte", pte.ppn, pte.present, pte.writable, pte.user,
                    pte.executable, pte.cow, pte.accessed, pte.dirty,
                    pte.page_size.name, fids.get(getattr(pte.file, "fid", None)),
                    pte.file_index)

        def table_state(table):
            entries = []
            for index in sorted(table.entries):
                entry = table.entries[index]
                if isinstance(entry, TableRef):
                    entries.append((index, "ref", entry.o_bit, entry.orpc,
                                    table_state(entry.table)))
                else:
                    entries.append((index, leaf(entry)))
            return (table.level, table.frame, table.sharers,
                    pids.get(table.owned_by, table.owned_by),
                    table.shared_key, table.orpc, entries)

        procs = [(proc.name, proc.pcid, proc.minor_faults, proc.major_faults,
                  proc.cow_faults, proc.spurious_faults,
                  proc.tables.tables_allocated, sorted(proc.pc_bits.items()),
                  table_state(proc.tables.pgd))
                 for proc in kernel.processes.values()]
        allocator = kernel.allocator
        frames = (allocator._next, list(allocator._free),
                  sorted(allocator._refcount.items()),
                  sorted((ppn, kind.name)
                         for ppn, kind in allocator._kind.items()),
                  sorted(allocator._block_pages.items()),
                  sorted((kind.name, count) for kind, count
                         in allocator.allocated_by_kind.items()),
                  allocator.allocated, allocator.peak_allocated)
        lru = (list(kernel.lru._active), list(kernel.lru._inactive),
               kernel.lru.promotions, kernel.lru.demotions)
        cache = kernel.page_cache
        page_cache = (sorted((fids[fid], index, ppn) for (fid, index), ppn
                             in cache._pages.items()),
                      cache.lookups, cache.hit_count, cache.fills)
        counters = (kernel.forks, kernel.fork_table_pages_copied,
                    kernel.pte_pages_copied, kernel.shootdowns)
        policy = kernel.policy
        shared = None
        if policy.is_babelfish:
            registry = sorted(
                (key, table.frame, (fids[backing[0]], backing[1]))
                for key, (table, backing) in policy.registry.items())
            masks = sorted(
                (page.ccid, page.region, page.frame,
                 [pids.get(pid, pid) for pid in page.pid_list],
                 sorted((k, [pids.get(pid, pid) for pid in v])
                        for k, v in page._range_pid_lists.items()),
                 sorted(page._masks.items()))
                for page in policy.mask_dir)
            shared = (policy.registrations, policy.attaches, policy.reverts,
                      policy.cow_private_copies, registry, masks)
        return procs, frames, lru, page_cache, counters, shared


@pytest.fixture(scope="session")
def touch_scenario():
    """The :class:`TouchScenario` class (a factory: each call builds a
    fresh kernel)."""
    return TouchScenario
