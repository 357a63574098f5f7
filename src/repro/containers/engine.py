"""A Docker-like container engine.

Launch path (``docker start`` from a pre-created image):

1. The first launch of an image for a user creates the CCID group and a
   *zygote* process that maps the image files (binary, libraries,
   infrastructure) and performs image initialization. This mirrors how
   the paper's containers are "created with forks, which replicate
   translations" (Section I).
2. Every container is a fork of the zygote: under the conventional policy
   the fork deep-copies page tables; under BabelFish it shares them.
3. Bring-up then touches the runtime's working set (infrastructure and
   library pages, a few CoW writes to data pages). Under BabelFish most
   of those touches find translations already installed by earlier
   containers of the group and take no fault.

``launch_timed`` reproduces the paper's bring-up measurement: fixed engine
overhead (the Docker daemon work the paper says dominates what remains)
plus the simulated fork + bring-up trace cycles.
"""

import dataclasses
import itertools
import random

from repro.core.aslr import group_layout_for, process_layout_for
from repro.kernel.vma import SegmentKind, VMAKind
from repro.containers.image import align_pages

#: Trace record kind codes (shared with repro.sim.simulator).
K_IFETCH, K_LOAD, K_STORE = 0, 1, 2

#: Docker daemon / runc overhead outside paging (cycles at 2GHz). The
#: paper notes most remaining bring-up time is engine/kernel interaction.
DEFAULT_ENGINE_OVERHEAD = 9_000_000


@dataclasses.dataclass
class Container:
    proc: object
    image: object
    group: object
    index: int
    name: str

    @property
    def pid(self):
        return self.proc.pid


class _ZygoteState:
    def __init__(self, group, proc, files, layout_group):
        self.group = group
        self.proc = proc
        self.files = files
        self.layout_group = layout_group
        self.launches = 0


class ContainerEngine:
    def __init__(self, kernel, registry, aslr_mode, seed=7,
                 engine_overhead_cycles=DEFAULT_ENGINE_OVERHEAD):
        self.kernel = kernel
        self.registry = registry
        self.aslr_mode = aslr_mode
        self.engine_overhead_cycles = engine_overhead_cycles
        self._zygotes = {}
        #: Image layers are system-wide: two tenants launching the same
        #: image share its files (and page-cache frames), exactly like
        #: Linux dedups file pages — only *translation* sharing is scoped
        #: to the CCID group (Section V).
        self._image_files = {}
        self._rng = random.Random(seed)
        self._ids = itertools.count(1)

    # -- zygote -----------------------------------------------------------------

    def zygote_for(self, image, user="tenant"):
        key = (user, image.name)
        state = self._zygotes.get(key)
        if state is None:
            state = self._create_zygote(image, user)
            self._zygotes[key] = state
        return state

    def _create_zygote(self, image, user):
        kernel = self.kernel
        group = self.registry.group_for(user, image.name)
        layout_group = group_layout_for(group, self.aslr_mode)
        proc = kernel.spawn(group.ccid, layout_group,
                            name="%s-zygote" % image.name)
        files = self._image_files.get(image.name)
        if files is None:
            files = image.materialize(kernel)
            self._image_files[image.name] = files
        kernel.mmap(proc, SegmentKind.CODE, 0, image.binary_pages,
                    VMAKind.FILE_PRIVATE, file=files["binary"],
                    writable=False, executable=True, name="binary")
        kernel.mmap(proc, SegmentKind.DATA, 0,
                    max(1, image.binary_data_pages), VMAKind.FILE_PRIVATE,
                    file=files["binary_data"], writable=True, name="bin-data")
        kernel.mmap(proc, SegmentKind.LIBS, 0, image.lib_pages,
                    VMAKind.FILE_PRIVATE, file=files["libs"],
                    writable=False, executable=True, name="libs")
        lib_data_off = align_pages(image.lib_pages)
        kernel.mmap(proc, SegmentKind.LIBS, lib_data_off,
                    max(1, image.lib_data_pages), VMAKind.FILE_PRIVATE,
                    file=files["lib_data"], writable=True, name="lib-data")
        infra_off = lib_data_off + align_pages(max(1, image.lib_data_pages))
        kernel.mmap(proc, SegmentKind.LIBS, infra_off, image.infra_pages,
                    VMAKind.FILE_PRIVATE, file=files["infra"],
                    writable=False, name="infra")
        kernel.mmap(proc, SegmentKind.HEAP, 0, image.heap_pages,
                    VMAKind.ANON, name="heap")
        kernel.mmap(proc, SegmentKind.STACK, 0, image.stack_pages,
                    VMAKind.ANON, name="stack")
        # Image initialization: the zygote touches the runtime's common
        # working set once, so forked containers inherit warm tables.
        kernel.touch_range(proc, proc.vpn_group(SegmentKind.LIBS, infra_off),
                           min(image.infra_pages, 64))
        kernel.touch_range(proc, proc.vpn_group(SegmentKind.LIBS, 0),
                           min(image.lib_pages, 96))
        kernel.touch_range(proc, proc.vpn_group(SegmentKind.CODE, 0),
                           min(image.binary_pages, 32))
        state = _ZygoteState(group, proc, files, layout_group)
        state.infra_offset = infra_off
        state.lib_data_offset = lib_data_off
        return state

    # -- launch ----------------------------------------------------------------------

    def launch(self, image, user="tenant", name=None):
        """Fork a container off the image zygote. Returns (container,
        fork_cycles)."""
        state = self.zygote_for(image, user)
        index = next(self._ids)
        layout_proc = process_layout_for(state.group, self.aslr_mode,
                                         pid_seed=index * 997)
        child, fork_cycles = self.kernel.fork(
            state.proc, layout_proc=layout_proc,
            name=name or "%s-%d" % (image.name, index))
        state.group.add(child)
        state.launches += 1
        container = Container(child, image, state.group, index,
                              name=child.name)
        return container, fork_cycles

    # -- bring-up -------------------------------------------------------------------

    def bringup_records(self, container):
        """The access trace of container start: runtime init touching
        infrastructure, library, and binary pages, plus a few writes to
        writable data (CoW breaks) and the stack."""
        image = container.image
        state = self.zygote_for(image)
        rng = random.Random(container.index * 31 + 5)
        records = []
        touched = 0
        budget = image.bringup_touch_pages
        infra_off = state.infra_offset
        # Instruction fetches through the runtime code path.
        for page in range(min(image.binary_pages, 32)):
            records.append((K_IFETCH, SegmentKind.CODE, page,
                            rng.randrange(64), 40, None))
        # Infrastructure pages (config, runtime state).
        for page in range(image.infra_pages):
            if touched >= budget:
                break
            records.append((K_LOAD, SegmentKind.LIBS, infra_off + page,
                            rng.randrange(64), 30, None))
            touched += 1
        # Library init: read a window of the middleware.
        for page in range(min(image.lib_pages, budget - touched)):
            records.append((K_IFETCH, SegmentKind.LIBS, page,
                            rng.randrange(64), 25, None))
        # Writable data: GOT/BSS-style CoW writes.
        for page in range(max(1, image.binary_data_pages)):
            records.append((K_STORE, SegmentKind.DATA, page,
                            rng.randrange(64), 20, None))
        for page in range(min(4, max(1, image.lib_data_pages))):
            records.append((K_STORE, SegmentKind.LIBS,
                            state.lib_data_offset + page,
                            rng.randrange(64), 20, None))
        # Stack warm-up.
        for page in range(8):
            records.append((K_STORE, SegmentKind.STACK, page,
                            rng.randrange(64), 15, None))
        return records

    def launch_timed(self, image, sim, core_id=0, user="tenant", name=None):
        """``docker start``: returns (container, bringup_cycles)."""
        container, fork_cycles = self.launch(image, user=user, name=name)
        trace_cycles = sim.run_single(container.proc,
                                      self.bringup_records(container),
                                      core_id=core_id)
        container.bringup_trace_cycles = trace_cycles
        container.fork_cycles = fork_cycles
        total = self.engine_overhead_cycles + fork_cycles + trace_cycles
        return container, total

    def stop(self, container):
        """Stop and remove a container (docker rm)."""
        container.group.remove(container.proc)
        self.kernel.exit_process(container.proc)
