"""Host-time benchmark of the BabelFish reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` against the ``repro`` sources
of this checkout (``src/``), each pass in a fresh interpreter with its
own ``PYTHONHASHSEED``. ``--trace 0`` measures the end-to-end metrics
untraced, repeating the pass while another one fits in ``--seconds``
and reporting the median over passes; ``--trace 1`` makes one plain,
one traced (layer-boundary spans) and one cProfile pass (self time
folded by package) and reports the per-layer metrics. Every cell is
checked against ``golden.json``, the churn storm must be
sanitizer-clean and leak-free, and every served summary must match its
direct result; any failure makes the run exit 1.

The last stdout line is the JSON result; the full record (provenance,
every metric, and the spans of a traced run) goes to
``.perfbench_work/results/``.
"""

import argparse
import compileall
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import measure  # noqa: E402

WORKLOADS = ("report-quick", "steady-grid", "checked", "serve-mix")
MODES = ("plain", "traced", "profiled")
#: Every pass of one run must end within this many seconds in total.
RUN_DEADLINE_S = 175.0
WORK_ROOT = ROOT / ".perfbench_work"

#: (name, unit) of the end-to-end metrics, reported by ``--trace 0``.
END_TO_END = (("ref_cpu_s", "s"), ("setup_s", "s"), ("kips", "kinstr/s"),
              ("peak_rss_mb", "MB"))


def hash_seed(seed, mode, index=0):
    """A distinct ``PYTHONHASHSEED`` per seed and pass, so every run
    also checks that results do not depend on string hashing."""
    return str(1 + (seed * 7919 + (1 + MODES.index(mode)) * 104729
                    + index * 1299709) % 4294967294)


def run_child(workload, seed, mode, work, index=0, record=False,
              timeout=RUN_DEADLINE_S):
    """Run one pass in a fresh interpreter, with ``calibrate.py``
    sampling the host's speed beside it; the pass record gets that
    ``speed`` (1.0 at the reference speed, less on a slower host). The
    pass's process group (the serve daemon and its worker included) is
    killed if it outlives ``timeout``."""
    stem = "%s-%d" % (mode, index)
    out = work / ("%s.json" % stem)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed(seed, mode, index)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--work", str(work), "--out", str(out)]
    if record:
        cmd.append("--record")
    # The host-speed sampler runs beside the pass, on the same vCPU.
    chunks = work / ("%s.speed.json" % stem)
    sampler = subprocess.Popen(
        [sys.executable, str(HERE / "calibrate.py"), str(chunks)],
        stdin=subprocess.PIPE)
    with open(work / ("%s.log" % stem), "w") as log:
        try:
            proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        finally:
            sampler.stdin.close()
            sampler.wait()
    if proc.returncode != 0:
        tail = (work / ("%s.log" % stem)).read_text()[-2000:]
        raise RuntimeError("%s pass of %s exited %d:\n%s"
                           % (mode, workload, proc.returncode, tail))
    child = json.loads(out.read_text())
    child["record"]["speed"] = calibrate.REFERENCE_CHUNK_S / \
        measure.harmonic_mean(json.loads(chunks.read_text()))
    return child


def end_to_end(passes):
    """Median over passes of each end-to-end metric."""
    def med(values):
        return measure.median(values)
    return {
        "ref_cpu_s": med([p["cpu_s"] * p["speed"] for p in passes]),
        "setup_s": med([p["setup_s"] * p["speed"] for p in passes]),
        "kips": med([p["instructions"] / 1000.0 / (p["cpu_s"] * p["speed"])
                     for p in passes]),
        "peak_rss_mb": med([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(plain, traced, profiled):
    """Per-layer metrics of a ``--trace 1`` run (name -> value)."""
    record = traced["record"]
    produced = dict(record["layer"])
    produced.update(record["counts"])
    shares = measure.shares(profiled["profile_fold"] or {})
    for layer in measure.LAYERS:
        produced["%s.self_share" % layer] = shares.get(layer, 0.0)
    produced["trace_overhead_frac"] = (
        record["cpu_s"] * record["speed"]
        / (plain["record"]["cpu_s"] * plain["record"]["speed"]) - 1.0)
    names = [name for name, _unit in layer_units()]
    unknown = sorted(set(produced) - set(names))
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: %s"
                         % ", ".join(unknown))
    # A layer a workload never reaches reports 0 (e.g. serve.* on the
    # sim workloads).
    return dict(dict.fromkeys(names, 0.0), **produced)


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return 2

    started = time.time()
    work = WORK_ROOT / ("%s-s%d-t%d-%d" % (args.workload, args.seed,
                                           args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Bytecode is compiled before any pass, so the first pass in a fresh
    # checkout does not pay for it.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=2)
    # Every process of the run, the speed sampler included, shares one
    # vCPU, so the sampler sees the speed the pass gets.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    children = []
    try:
        if args.trace == 0:
            # Plain passes while another fits in --seconds (at least one).
            longest = 0.0
            while not children or (time.time() - started + longest
                                   <= args.seconds):
                began = time.time()
                children.append(("plain", run_child(
                    args.workload, args.seed, "plain", work,
                    index=len(children),
                    timeout=RUN_DEADLINE_S - (time.time() - started))))
                longest = max(longest, time.time() - began)
        else:
            for mode in MODES:
                children.append((mode, run_child(
                    args.workload, args.seed, mode, work,
                    timeout=RUN_DEADLINE_S - (time.time() - started))))
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans = None

    failures = []
    attempted = failed = 0
    for mode, child in children:
        record = child["record"]
        attempted += record["attempted"]
        failed += record["failed"]
        failures.extend("[%s] %s" % (mode, f) for f in record["failures"])
    # Modelled counts repeat exactly across passes and interpreters.
    reference = children[0][1]["record"]["counts"]
    for mode, child in children:
        if child["record"]["counts"] != reference:
            failures.append("[%s] modelled counts differ from the "
                            "first plain pass" % mode)
            failed += 1

    plain = children[0][1]
    passes = [child["record"] for _mode, child in children]
    if args.trace == 0:
        units = list(END_TO_END)
        metrics = end_to_end(passes)
    else:
        by_mode = dict(children)
        units = layer_units()
        metrics = per_layer(plain, by_mode["traced"], by_mode["profiled"])
        spans = by_mode["traced"]["record"].pop("spans", None)
    correct = failed == 0 and not failures

    prov = measure.provenance(str(ROOT), args.seed, len(children),
                              plain["fingerprint"], plain["numpy"],
                              nproc=len(cpus))
    prov["speed"] = [child["record"]["speed"] for _mode, child in children]
    print("perfbench %s seed=%d trace=%d: %d attempted, %d failed"
          % (args.workload, args.seed, args.trace, attempted, failed))
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    for mode, child in children:
        if child["missing_targets"]:
            print("note: %s pass could not wrap %s"
                  % (mode, ", ".join(child["missing_targets"])))
    for failure in failures[:20]:
        print("FAIL %s" % failure)
    _print_table(args, passes, metrics, units)

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (results / (stem + ".json")).write_text(json.dumps({
        "workload": args.workload, "provenance": prov,
        "elapsed_s": time.time() - started, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics,
        "passes": [dict(child["record"], mode=mode)
                   for mode, child in children],
    }, sort_keys=True))
    if spans is not None:
        (results / (stem + ".spans.json")).write_text(json.dumps(spans))

    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if correct else 1


def _print_table(args, passes, metrics, units):
    for name, unit in units:
        print("  %-36s %14.6g %s" % (name, metrics[name], unit))
    if args.trace == 0:
        for name, unit in (("cpu_s", "s"), ("wall_s", "s"),
                           ("speed", "x reference")):
            print("  %-36s %14.6g %s (median of %d passes)"
                  % (name, measure.median([p[name] for p in passes]), unit,
                     len(passes)))
        first = passes[0]
        ops = first["ops"]
        pct, tail = measure.tail(ops)
        print("  %-36s %14.6g s (n=%d)"
              % ("sim_op_p50_s", measure.median(ops) or float("nan"),
                 len(ops)))
        print("  %-36s %14.6g s (p%s)"
              % ("sim_op_tail_s", tail if tail is not None else float("nan"),
                 pct))
        print("  %-36s %14.6g frac"
              % ("failed_frac", first["failed"] / max(1, first["attempted"])))
        for name, value in sorted(first.get("layer", {}).items()):
            if name.startswith("serve."):
                print("  %-36s %14.6g" % (name, value))
        if "tail_percentiles" in first:
            print("  serve tails (percentile per class): %s"
                  % json.dumps(first["tail_percentiles"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
