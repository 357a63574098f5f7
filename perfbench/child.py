"""One workload pass in a fresh interpreter (started by ``run.py``).

    python3 perfbench/child.py --workload W --seed N \\
        --mode plain|traced|profiled --work DIR --out FILE [--record]

``plain`` installs only the probe wrappers; ``traced`` adds the
layer-boundary wrappers; ``profiled`` runs the pass under cProfile.
Every pass gets an interpreter of its own, so no pass inherits warm
in-process state or the peak memory of an earlier one. On the sim
workloads spans are timed in CPU seconds of this process
(``time.process_time``); serve-mix times its requests in wall seconds,
since they wait on the daemon. The pass record goes to ``--out`` as
JSON.
"""

import argparse
import cProfile
import importlib
import json
import pathlib
import pstats
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import tracing  # noqa: E402

#: Imported before the wrappers go in, so every by-name import of a
#: wrapped function is rebound.
PRELOAD = (
    "repro.report", "repro.experiments.__main__", "repro.experiments.churn",
    "repro.experiments.runner", "repro.experiments.fig9",
    "repro.experiments.fig11", "repro.experiments.bringup",
    "repro.experiments.table3", "repro.experiments.resources",
    "repro.serve.protocol", "repro.analysis.sanitizer",
    "repro.kernel.audit", "repro.obs.export",
)

#: Span names summed into per-layer times (metric -> span names).
SPAN_TOTALS = {
    "experiments.build_environment_s": ("build_environment",),
    "containers.deploy_s": ("deploy_app",),
    "containers.function_start_s": ("FaaSPlatform.start_function",),
    "sim.attach_s": ("Simulator.attach",),
    "kernel.exit_s": ("Kernel.exit_process",),
    "analysis.sanitizer_scan_s": ("TranslationSanitizer.scan",),
    "obs.trace_export_s": ("write_jsonl", "write_chrome_trace"),
    "experiments.summarize_s": ("summarize_app_run",
                                "summarize_functions_run"),
    "experiments.runcache_store_s": ("DiskRunCache.store",),
    "experiments.runcache_load_s": ("DiskRunCache.load",),
}
SPAN_COUNTS = {"containers.launches": ("ContainerEngine.launch",)}


def load_pass(workload):
    import drivers
    if workload == "serve-mix":
        import serveload
        return serveload.serve_mix_pass
    return drivers.PASSES[workload]


def span_metrics(spans):
    """Per-layer times and counts from one traced pass's spans."""
    out = {}
    for metric, names in SPAN_TOTALS.items():
        out[metric] = sum(s[measure.END] - s[measure.START] for s in spans
                          if s[measure.NAME] in names)
    for metric, names in SPAN_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[measure.NAME] in names)
    self_times = measure.layer_self_times(spans)
    for layer in measure.LAYERS:
        out["%s.span_self_s" % layer] = self_times.get(layer, 0.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"),
                        required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    import repro
    source = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit("repro imported from %s, not this checkout" % source)
    for name in PRELOAD:
        importlib.import_module(name)
    import drivers
    from repro.experiments.runcache import code_fingerprint

    clock = time.perf_counter if args.workload == "serve-mix" \
        else time.process_time
    recorder = tracing.Recorder(clock=clock, op_of=drivers.cell_id)
    targets = tracing.LAYER_TARGETS if args.mode == "traced" \
        else tracing.PROBES
    missing = tracing.install(recorder, targets)
    golden = json.loads((HERE / "golden.json").read_text())
    gate = measure.DigestGate(golden, record=args.record)
    run_pass = load_pass(args.workload)
    work = pathlib.Path(args.work)

    fold = None
    ctx = drivers.PassContext(ROOT, work, args.seed, recorder, gate)
    profiler = cProfile.Profile() if args.mode == "profiled" else None
    if profiler is not None:
        profiler.enable()
    record = run_pass(ctx)
    if profiler is not None:
        profiler.disable()
        fold = measure.fold_profile(pstats.Stats(profiler).stats)
    if args.mode == "traced":
        timed = [s for s in recorder.spans
                 if s[measure.START] <= record["timed_end"]]
        record["layer"].update(span_metrics(timed))
        record["spans"] = recorder.spans

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record.setdefault(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out = {
        "record": record,
        "missing_targets": missing,
        "profile_fold": fold,
        "fingerprint": code_fingerprint(),
        "numpy": numpy_version,
        "recorded": gate.recorded,
    }
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
