"""Timing wrappers the benchmark installs around ``repro``'s public calls.

The program itself carries no benchmark code: :func:`install` replaces
each named function or method with a wrapper that records a span
(name, layer, start, end, parent, op id) in a :class:`Recorder`, and
rebinds every ``repro`` module that imported the original by name, so
``from repro.experiments.common import run_app`` callers are covered
too. Spans stay in memory until the pass ends.

Two target sets exist. :data:`PROBES` is small and always installed: it
feeds the end-to-end numbers (set-up time, cell results for the digest
gate, operation latency) at a cost of a few microseconds per call on
calls that each take milliseconds or more. :data:`LAYER_TARGETS` is the
traced run's full layer-boundary set. Hot per-access code (TLB lookups,
page faults, trace generators) is never wrapped; its host time shows in
the profiler pass instead.
"""

import functools
import importlib
import inspect
import sys
import time

# (module, attribute path, layer)
PROBES = (
    ("repro.experiments.common", "run_app", "experiments"),
    ("repro.experiments.common", "run_functions", "experiments"),
    ("repro.experiments.common", "build_environment", "experiments"),
    ("repro.experiments.common", "deploy_app", "experiments"),
    ("repro.containers.faas", "FaaSPlatform.start_function", "containers"),
    ("repro.containers.engine", "ContainerEngine.launch_timed",
     "containers"),
    ("repro.sim.simulator", "Simulator.run", "sim"),
    ("repro.sim.simulator", "Simulator.reset_measurement", "sim"),
)

LAYER_TARGETS = PROBES + (
    ("repro.experiments.churn", "run_churn", "experiments"),
    ("repro.report", "main", "experiments"),
    ("repro.experiments.common", "measure_app", "experiments"),
    ("repro.experiments.common", "summarize_app_run", "experiments"),
    ("repro.experiments.common", "summarize_functions_run", "experiments"),
    ("repro.experiments.runcache", "DiskRunCache.load", "experiments"),
    ("repro.experiments.runcache", "DiskRunCache.store", "experiments"),
    ("repro.experiments.fig9", "run_fig9", "experiments"),
    ("repro.experiments.table3", "run_table3", "experiments"),
    ("repro.experiments.resources", "run_resources", "experiments"),
    ("repro.containers.engine", "ContainerEngine.launch", "containers"),
    ("repro.containers.engine", "ContainerEngine.stop", "containers"),
    ("repro.containers.engine", "ContainerEngine.zygote_for", "containers"),
    ("repro.containers.engine", "ContainerEngine.bringup_records",
     "containers"),
    ("repro.kernel.kernel", "Kernel.exit_process", "kernel"),
    ("repro.kernel.kernel", "Kernel.fork", "kernel"),
    ("repro.kernel.kernel", "Kernel.spawn", "kernel"),
    ("repro.kernel.kernel", "Kernel.mmap", "kernel"),
    ("repro.kernel.kernel", "Kernel.munmap", "kernel"),
    ("repro.kernel.kernel", "Kernel.create_file", "kernel"),
    ("repro.kernel.kernel", "Kernel.clear_accessed_bits", "kernel"),
    ("repro.core.shared_pt", "SharedPTManager.fork_tables", "core"),
    ("repro.core.shared_pt", "SharedPTManager.on_process_exit", "core"),
    ("repro.core.shared_pt", "SharedPTManager.on_tables_freed", "core"),
    ("repro.hw.params", "baseline_machine", "hw"),
    ("repro.hw.cacti", "l2_tlb_report", "hw"),
    ("repro.workloads.functions", "function_input_pages", "workloads"),
    ("repro.sim.simulator", "Simulator.__init__", "sim"),
    ("repro.sim.simulator", "Simulator.attach", "sim"),
    ("repro.sim.simulator", "Simulator.detach", "sim"),
    ("repro.sim.stats", "RunResult.as_dict", "sim"),
    ("repro.obs.export", "write_jsonl", "obs"),
    ("repro.obs.export", "write_chrome_trace", "obs"),
    ("repro.obs.tracer", "Tracer.snapshot", "obs"),
    ("repro.analysis.sanitizer", "TranslationSanitizer.scan", "analysis"),
    ("repro.kernel.audit", "audit_kernel", "analysis"),
    ("repro.serve.protocol", "encode_frame", "serve"),
    ("repro.serve.protocol", "decode_payload", "serve"),
)


class Recorder:
    """In-memory span store with a call stack for parent links.

    ``op`` is the id of the cell or request being worked on; spans
    opened while it is set carry it. ``op_of(name, arguments)`` names
    the cell a kept call (``run_app``/``run_functions``) works on.
    Results of kept calls land in ``results`` as ``(span index, name,
    bound arguments, return value)``.
    """

    def __init__(self, clock=time.perf_counter, op_of=None):
        self.clock = clock
        self.op_of = op_of
        self.spans = []
        self.results = []
        self.op = None
        self._stack = []

    def open(self, name, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.clock(), None, parent,
                           self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = self.clock()
        self._stack.pop()

    def add(self, name, layer, start, end, op=None):
        """Record an externally timed root span (the async serve
        client's requests, which overlap each other)."""
        self.spans.append([name, layer, start, end, -1, op])
        return len(self.spans) - 1


def _wrap(recorder, name, layer, fn, keep_result):
    signature = inspect.signature(fn) if keep_result else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        previous = recorder.op
        if keep_result:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = dict(bound.arguments)
            if recorder.op_of is not None:
                recorder.op = recorder.op_of(name, arguments)
        index = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
            recorder.op = previous
        if keep_result:
            recorder.results.append((index, name, arguments, result))
        return result

    wrapper.__wrapped_original__ = fn
    return wrapper


#: Calls whose return values the benchmark inspects: the cells, for the
#: digest gate.
KEEP_RESULTS = frozenset(("run_app", "run_functions"))


def install(recorder, targets):
    """Wrap every target; returns the targets that no longer exist.

    A missing probe is an error (the end-to-end numbers depend on it);
    a missing layer target only loses that span, so it is reported
    rather than fatal.
    """
    missing = []
    for module_name, path, layer in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append("%s:%s" % (module_name, path))
            continue
        owner, attr = module, path
        if "." in path:
            class_name, attr = path.split(".", 1)
            owner = getattr(module, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append("%s:%s" % (module_name, path))
            continue
        if hasattr(original, "__wrapped_original__"):
            continue
        wrapper = _wrap(recorder, path, layer, original,
                        attr in KEEP_RESULTS)
        setattr(owner, attr, wrapper)
        if owner is module:
            _rebind(original, wrapper)
    probe_names = {"%s:%s" % (m, p) for m, p, _ in PROBES}
    fatal = [name for name in missing if name in probe_names]
    if fatal:
        raise RuntimeError("benchmark probes missing from the program: %s"
                           % ", ".join(fatal))
    return missing


def _rebind(original, wrapper):
    """Point every loaded ``repro`` module's by-name import at the
    wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
