"""The four workloads, driven only through ``repro``'s public entry points.

Each ``*_pass`` function runs one full pass of its workload inside the
calling (fresh) interpreter and returns a plain dict of what it saw;
:func:`analyze` then turns the recorder's spans and kept results into
the pass record. Inputs come from the seed alone: ``steady-grid`` runs
its cells in a seeded order, ``checked`` seeds the churn storm, and
``serve-mix`` seeds its request mix and arrival times. ``report-quick``
is the fixed ``--quick`` report, whatever the seed.
"""

import contextlib
import dataclasses
import hashlib
import io
import pathlib
import random
import resource
import shutil
import time

import measure

APPS = ("mongodb", "arangodb", "httpd", "graphchi", "fio")

#: steady-grid: the stock apps under four translation policies. One core
#: at scale 1.5 makes the measured slices about half of the wall time in
#: a pass near the run length; at cores=2 the same pass length only
#: fits scale 0.5, where deploy and OS warm-up take two thirds.
GRID_POLICIES = ("Baseline", "BabelFish", "Victima", "Coalesced")
GRID_CORES = 1
GRID_SCALE = 1.5

#: checked: sanitized churn storm length and the traced capture, taken
#: three times so set-up time is a sum of several set-ups.
CHURN_CYCLES = 300
CAPTURE_APP = "mongodb"
CAPTURE_CONFIG = "BabelFish"
CAPTURES = 3


@dataclasses.dataclass
class PassContext:
    root: pathlib.Path
    work: pathlib.Path
    seed: int
    recorder: object
    gate: object

    def now(self):
        """The recorder's clock: host CPU seconds of this interpreter on
        the sim workloads, so span times and phase bounds compare."""
        return self.recorder.clock()

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# -- cells --------------------------------------------------------------------


def config_tag(config):
    from repro.experiments import runcache
    fields = runcache.config_field_dict(config)
    return hashlib.sha256(
        measure.canonical_json(fields).encode()).hexdigest()[:10]


def cell_id(name, args):
    """Stable id of a ``run_app``/``run_functions`` call."""
    config = args["config"]
    if name == "run_app":
        return "app/%s/%s/cores=%d/scale=%g/cpc=%s/%s" % (
            args["app_name"], config.name, args["cores"], args["scale"],
            args["containers_per_core"], config_tag(config))
    return "functions/%s/%s/cores=%d/scale=%g/%s" % (
        config.name, "dense" if args["dense"] else "sparse",
        args["cores"], args["scale"], config_tag(config))


def serve_cell_id(wire):
    return "serve/%s/%s/cores=%d/scale=%g" % (
        wire["app"], wire["config_name"], wire["cores"], wire["scale"])


# -- host time ----------------------------------------------------------------


class Timer:
    """CPU and wall seconds of one stretch of a pass. CPU time includes
    waited-for child processes, should the program start any."""

    def __init__(self):
        self.cpu0, self.wall0 = _cpu(), time.perf_counter()
        self.cpu_s = self.wall_s = None

    def stop(self):
        self.cpu_s = _cpu() - self.cpu0
        self.wall_s = time.perf_counter() - self.wall0
        return self


def _cpu():
    return (measure.cpu_seconds()
            + measure.cpu_seconds(resource.RUSAGE_CHILDREN))


# -- modelled counts ----------------------------------------------------------


class Counts:
    """Sums of the simulator's own counters over a set of results. These
    are modelled (simulated) quantities: a host-speed change must leave
    every one of them unchanged."""

    def __init__(self):
        self.stats = {}
        self.context_switches = 0
        self.pt_frames = 0

    def add(self, stats_dict, context_switches, pt_frames):
        for key, value in stats_dict.items():
            self.stats[key] = self.stats.get(key, 0) + value
        self.context_switches += context_switches
        self.pt_frames += pt_frames

    def metrics(self):
        s = self.stats

        def get(key):
            return s.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        l1_lookups = (get("l1_hits_i") + get("l1_hits_d")
                      + get("l1_misses_i") + get("l1_misses_d"))
        l2_hits = get("l2_hits_i") + get("l2_hits_d")
        return {
            "sim.instructions": get("instructions"),
            "sim.context_switches": self.context_switches,
            "hw.l1_tlb_miss_frac": ratio(
                get("l1_misses_i") + get("l1_misses_d"), l1_lookups),
            "hw.l2_tlb_mpki": ratio(
                1000.0 * (get("l2_misses_i") + get("l2_misses_d")),
                get("instructions")),
            "hw.walks": get("walks"),
            "hw.walk_cycles_per_walk": ratio(get("walk_cycles"),
                                             get("walks")),
            "hw.l3_tlb_hits": get("l3_hits_i") + get("l3_hits_d"),
            "core.l2_shared_hit_frac": ratio(
                get("l2_shared_hits_i") + get("l2_shared_hits_d"), l2_hits),
            "core.l2_long_accesses": get("l2_long_accesses"),
            "kernel.minor_faults": get("minor_faults"),
            "kernel.major_faults": get("major_faults"),
            "kernel.cow_faults": get("cow_faults"),
            "kernel.pt_frames": self.pt_frames,
        }


def _pt_frames(run):
    from repro.kernel.frames import FrameKind
    return run.env.kernel.allocator.count(FrameKind.PAGE_TABLE)


# -- span analysis ------------------------------------------------------------

SETUP_SPANS = ("build_environment", "deploy_app",
               "FaaSPlatform.start_function")
CELL_SPANS = ("run_app", "run_functions")


def analyze(recorder, phase_bounds):
    """Turn one pass's spans and kept results into its record.

    ``phase_bounds`` maps a phase name (e.g. ``"cold"``) to its
    ``(start, end)``; cells are attributed to the phase they ran in.
    Set-up is build_environment + deploy_app + FaaS bring-up + the warm
    slice (every ``Simulator.run`` inside a cell before that cell's
    ``reset_measurement``), each counted once even when nested.
    """
    spans = recorder.spans
    n = len(spans)
    # Cell index for each span, via the nearest enclosing cell span.
    cell_of = [-1] * n
    for i, span in enumerate(spans):
        if span[measure.NAME] in CELL_SPANS:
            cell_of[i] = i
        elif span[measure.PARENT] >= 0:
            cell_of[i] = cell_of[span[measure.PARENT]]
    first_reset = {}
    simulated = set()
    for i, span in enumerate(spans):
        cell = cell_of[i]
        if cell < 0:
            continue
        if span[measure.NAME] == "Simulator.reset_measurement":
            first_reset.setdefault(cell, span[measure.START])
        if span[measure.NAME] == "Simulator.run":
            simulated.add(cell)

    def is_setup(span):
        return span[measure.NAME] in SETUP_SPANS

    def phase_of(span):
        phase = None
        for label, (start, end) in phase_bounds.items():
            if start <= span[measure.START] <= end:
                phase = label
        return phase

    setup = warm = measured = 0.0
    setup_by_phase = dict.fromkeys(phase_bounds, 0.0)
    for i, span in enumerate(spans):
        name = span[measure.NAME]
        duration = span[measure.END] - span[measure.START]
        if name == "Simulator.run" and cell_of[i] >= 0:
            if measure.has_ancestor(spans, i, is_setup):
                continue
            reset = first_reset.get(cell_of[i])
            if reset is not None and span[measure.START] >= reset:
                measured += duration
                continue
            warm += duration
        elif not is_setup(span) or \
                measure.has_ancestor(spans, i, is_setup):
            continue
        setup += duration
        phase = phase_of(span)
        if phase is not None:
            setup_by_phase[phase] += duration

    cells = []
    for index, name, args, result in recorder.results:
        if name not in CELL_SPANS:
            continue
        span = spans[index]
        cells.append({"span": index, "id": cell_id(name, args),
                      "run": result, "phase": phase_of(span),
                      "simulated": index in simulated,
                      "seconds": span[measure.END] - span[measure.START]})
    return {"setup_s": setup, "setup_by_phase": setup_by_phase,
            "warm_run_s": warm, "measured_run_s": measured, "cells": cells}


def check_cells(cells, gate, failures, counts, counted_phase):
    """Digest-gate every cell; sum modelled counts over the distinct
    cells of ``counted_phase``. Returns (attempted, failed, measured
    instructions of simulated cells)."""
    attempted = failed = 0
    seen = set()
    instructions = 0
    for cell in cells:
        result = cell["run"].result
        attempted += 1
        message = gate.check(cell["id"], result.as_dict())
        if message is None and result.coherence_violations:
            message = "%s: %d sanitizer violations" % (
                cell["id"], len(result.coherence_violations))
        if message is not None:
            failed += 1
            failures.append(message)
        if cell["simulated"]:
            instructions += result.stats.instructions
        if cell["phase"] == counted_phase and cell["id"] not in seen:
            seen.add(cell["id"])
            counts.add(result.stats.as_dict(), result.context_switches,
                       _pt_frames(cell["run"]))
    return attempted, failed, instructions


def _quiet():
    return contextlib.redirect_stdout(io.StringIO())


# -- report-quick -------------------------------------------------------------


def report_quick_pass(ctx):
    """``python -m repro.report --quick`` on an empty private run cache,
    then again on the now-warm cache."""
    from repro import report
    cache = ctx.fresh_dir("runcache")
    argv = ["--quick", "--cache-dir", str(cache)]
    bounds = {}
    start = ctx.now()
    timer = Timer()
    with _quiet():
        status = report.main(argv)
    timer.stop()
    cold_end = ctx.now()
    with _quiet():
        status_warm = report.main(argv)
    end = ctx.now()
    bounds["cold"] = (start, cold_end)
    bounds["warm"] = (cold_end, end)
    failures = []
    if status or status_warm:
        failures.append("report exited %r/%r" % (status, status_warm))
    info = analyze(ctx.recorder, bounds)
    counts = Counts()
    attempted, failed, instructions = check_cells(
        info["cells"], ctx.gate, failures, counts, "cold")
    ops = [c["seconds"] for c in info["cells"]
           if c["phase"] == "cold" and c["simulated"]]
    return {
        "cpu_s": timer.cpu_s,
        "wall_s": timer.wall_s,
        "timed_end": end,
        "setup_s": info["setup_s"],
        "instructions": instructions,
        "ops": ops,
        "attempted": attempted,
        "failed": failed + (1 if status else 0) + (1 if status_warm else 0),
        "failures": failures,
        "counts": counts.metrics(),
        "layer": dict(_layer_common(info, cache, instructions),
                      **{"experiments.report_warm_s": end - cold_end}),
    }


# -- steady-grid --------------------------------------------------------------


def grid_cells(seed):
    cells = [(app, policy) for app in APPS for policy in GRID_POLICIES]
    random.Random(seed).shuffle(cells)
    return cells


def steady_grid_pass(ctx):
    """5 stock apps x 4 policies, jobs=1, private run cache, in a
    seeded order."""
    from repro.experiments import common
    from repro.experiments.runcache import DiskRunCache
    cache = ctx.fresh_dir("runcache")
    common.clear_run_cache()
    previous = common.set_disk_cache(DiskRunCache(cache))
    start = ctx.now()
    timer = Timer()
    try:
        for app, policy in grid_cells(ctx.seed):
            common.run_app(app, common.config_by_name(policy),
                           cores=GRID_CORES, scale=GRID_SCALE)
    finally:
        timer.stop()
        end = ctx.now()
        common.set_disk_cache(previous)
        common.clear_run_cache()
    info = analyze(ctx.recorder, {"grid": (start, end)})
    failures = []
    counts = Counts()
    attempted, failed, instructions = check_cells(
        info["cells"], ctx.gate, failures, counts, "grid")
    return {
        "cpu_s": timer.cpu_s,
        "wall_s": timer.wall_s,
        "timed_end": end,
        "setup_s": info["setup_s"],
        "instructions": instructions,
        "ops": [c["seconds"] for c in info["cells"]],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "counts": counts.metrics(),
        "layer": _layer_common(info, cache, instructions),
    }


# -- checked ------------------------------------------------------------------


def checked_pass(ctx):
    """The sanitized churn storm plus fully traced captures. Set-up time
    is that of one capture, the median over the pass's captures."""
    from repro.experiments import churn
    from repro.experiments.__main__ import main as experiments_main
    timer = Timer()
    storm = churn.run_churn(cycles=CHURN_CYCLES, sanitize=True,
                            seed=ctx.seed)
    storm_end = ctx.now()
    status = 0
    bounds = {}
    for index in range(CAPTURES):
        capture = ctx.fresh_dir("capture")
        began = ctx.now()
        with _quiet():
            exit_code = experiments_main(
                ["trace", "--quick", "--app", CAPTURE_APP, "--config",
                 CAPTURE_CONFIG, "--out", str(capture)])
        bounds["capture%d" % index] = (began, ctx.now())
        status = status or exit_code
    timer.stop()
    end = ctx.now()
    info = analyze(ctx.recorder, bounds)
    failures = []
    counts = Counts()
    attempted, failed, instructions = check_cells(
        info["cells"], ctx.gate, failures, counts, "capture0")
    # Every churn cycle is an operation; each sanitizer violation and an
    # unclean teardown (leak or audit finding) each fail one of them.
    attempted += storm.cycles
    storm_failed = len(storm.violations)
    if storm.leaks or storm.audit_findings:
        storm_failed += 1
        failures.append("churn not clean: leaks %s, audit %s"
                        % (storm.leaks, storm.audit_findings[:3]))
    if storm.violations:
        failures.append("churn: %d sanitizer violations"
                        % len(storm.violations))
    failed += min(storm_failed, storm.cycles)
    if status:
        failed += 1
        failures.append("trace capture exited %r" % status)
    layer = _layer_common(info, None, instructions)
    counts.add(storm.stats.as_dict(), 0, storm.final["frames_page_table"])
    instructions += storm.stats.instructions
    capture_cell = [c for c in info["cells"] if c["phase"] == "capture0"]
    obs = capture_cell[0]["run"].result.obs if capture_cell else None
    storm_ops = [
        span[measure.END] - span[measure.START]
        for span in ctx.recorder.spans
        if span[measure.NAME] == "ContainerEngine.launch_timed"
        and span[measure.START] < storm_end]
    layer.update({
        "analysis.violations": len(storm.violations) + sum(
            len(c["run"].result.coherence_violations)
            for c in info["cells"]),
        "obs.trace_events": obs["events_emitted"] if obs else 0,
    })
    return {
        "cpu_s": timer.cpu_s,
        "wall_s": timer.wall_s,
        "timed_end": end,
        # The median capture: a collection of the heap the storm left
        # behind lands in one capture's set-up or another's.
        "setup_s": measure.median(list(info["setup_by_phase"].values())),
        "instructions": instructions,
        "ops": storm_ops,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "counts": counts.metrics(),
        "layer": layer,
    }


def _layer_common(info, cache, cell_instructions):
    """Layer numbers every sim workload reports from the probe spans."""
    measured = info["measured_run_s"]
    layer = {
        "sim.warm_run_s": info["warm_run_s"],
        "sim.measured_run_s": measured,
        "sim.measured_kips": (cell_instructions / 1000.0 / measured
                              if measured else 0.0),
    }
    if cache is not None:
        layer["experiments.runcache_bytes"] = sum(
            path.stat().st_size for path in pathlib.Path(cache).glob("*"))
    return layer


PASSES = {
    "report-quick": report_quick_pass,
    "steady-grid": steady_grid_pass,
    "checked": checked_pass,
}
