"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import drivers  # noqa: E402
import measure  # noqa: E402
import serveload  # noqa: E402
import tracing  # noqa: E402


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (50, 80.0), (99, 80.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert measure.samples_beyond(n, expected) >= measure.MIN_BEYOND


def test_tail_reports_the_nearest_rank_value():
    values = list(range(1, 101))  # 1..100
    assert measure.tail(values) == (90.0, 90.0)
    assert measure.tail(values[:19]) == (None, None)
    assert measure.percentile([3, 1, 2], 50) == 2.0
    assert measure.median([4, 1, 3, 2]) == 2.5


# -- host CPU time ------------------------------------------------------------


def test_cpu_seconds_count_work_but_not_waiting():
    import time
    before = measure.cpu_seconds()
    time.sleep(0.3)
    slept = measure.cpu_seconds() - before
    before = measure.cpu_seconds()
    end = time.process_time() + 0.3
    while time.process_time() < end:
        pass
    busy = measure.cpu_seconds() - before
    assert slept < 0.1
    assert busy >= 0.29


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    import run
    # Two passes of the same work, the second on a host half as fast:
    # twice the CPU seconds, half the speed, the same scaled time.
    passes = [
        {"cpu_s": 4.0, "setup_s": 1.0, "speed": 1.0, "instructions": 8000,
         "peak_rss_mb": 50.0},
        {"cpu_s": 8.0, "setup_s": 2.0, "speed": 0.5, "instructions": 8000,
         "peak_rss_mb": 50.0},
    ]
    metrics = run.end_to_end(passes)
    assert metrics["ref_cpu_s"] == 4.0
    assert metrics["setup_s"] == 1.0
    assert metrics["kips"] == 2.0
    assert measure.harmonic_mean([1.0, 4.0, 4.0]) == 2.0


# -- open-loop timing ---------------------------------------------------------


def test_latency_counts_from_the_due_time():
    # Three requests due at 0, 1 and 2 s; a stall holds every reply
    # until t=5. Timed from the send, the late sends would hide the
    # stall; timed from the due time, each request carries it.
    dues = [0.0, 1.0, 2.0]
    sends = [0.0, 3.0, 3.1]
    done = 5.0
    assert [measure.latency_from_due(d, done) for d in dues] == [5.0, 4.0,
                                                                 3.0]
    assert [measure.lateness(d, s) for d, s in zip(dues, sends)] == \
        pytest.approx([0.0, 2.0, 1.1])


def test_lateness_is_never_negative():
    assert measure.lateness(1.0, 0.999) == 0.0


def test_goodput_counts_only_requests_within_the_limit():
    # Two good replies, one too slow; a failed request has no latency.
    assert measure.goodput([0.1, 0.5, 3.0], limit=1.0, duration=4.0) == 0.5


# -- spans --------------------------------------------------------------------


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, None]


def test_span_self_time_subtracts_children():
    spans = [
        _span("run_app", "experiments", 0.0, 10.0, -1),
        _span("deploy_app", "experiments", 1.0, 3.0, 0),
        _span("Simulator.run", "sim", 4.0, 8.0, 0),
        _span("Kernel.exit_process", "kernel", 5.0, 6.0, 2),
    ]
    assert measure.span_self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert measure.layer_self_times(spans) == {
        "experiments": 6.0, "sim": 3.0, "kernel": 1.0}


def test_recorder_links_nested_wrapped_calls():
    recorder = tracing.Recorder(clock=iter(range(100)).__next__)

    def inner():
        return 7

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracing._wrap(recorder, "inner", "sim", inner, False)
    wrapped_outer = tracing._wrap(recorder, "outer", "experiments", outer,
                                  False)
    assert wrapped_outer() == 8
    assert [(s[0], s[2], s[3], s[4]) for s in recorder.spans] == [
        ("outer", 0, 3, -1), ("inner", 1, 2, 0)]


def test_setup_is_build_deploy_bringup_and_the_warm_slice():
    recorder = tracing.Recorder()
    recorder.spans = [
        _span("run_app", "experiments", 0.0, 20.0, -1),
        _span("build_environment", "experiments", 0.0, 1.0, 0),
        _span("deploy_app", "experiments", 1.0, 4.0, 0),
        _span("Simulator.run", "sim", 4.0, 6.0, 0),          # warm
        _span("Simulator.reset_measurement", "sim", 6.0, 6.5, 0),
        _span("FaaSPlatform.start_function", "containers", 7.0, 9.0, 0),
        _span("Simulator.run", "sim", 7.5, 8.5, 5),          # in bring-up
        _span("Simulator.run", "sim", 10.0, 19.0, 0),        # measured
    ]
    info = drivers.analyze(recorder, {"a": (0.0, 6.9), "b": (7.0, 20.0)})
    assert info["setup_s"] == 1.0 + 3.0 + 2.0 + 2.0
    assert info["setup_by_phase"] == {"a": 6.0, "b": 2.0}
    assert info["warm_run_s"] == 2.0
    assert info["measured_run_s"] == 9.0


# -- the profiler fold --------------------------------------------------------


def test_package_of():
    assert measure.package_of("/x/src/repro/sim/mmu.py") == "sim"
    assert measure.package_of("/x/src/repro/report.py") == "experiments"
    assert measure.package_of("/x/src/repro/__init__.py") == "other"
    assert measure.package_of("/usr/lib/python3.11/json/decoder.py") == \
        "other"
    assert measure.package_of("~") == "other"


def test_fold_charges_builtins_to_their_callers():
    sim = ("/x/src/repro/sim/mmu.py", 10, "translate")
    kernel = ("/x/src/repro/kernel/kernel.py", 20, "touch")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stats = {
        sim: (1, 1, 2.0, 3.0, {}),
        kernel: (1, 1, 0.5, 1.0, {}),
        append: (4, 4, 1.0, 1.0, {sim: (3, 3, 0.75, 0.75),
                                  kernel: (1, 1, 0.25, 0.25)}),
        ("/usr/lib/python3.11/json/encoder.py", 1, "encode"):
            (1, 1, 0.5, 0.5, {}),
    }
    totals = measure.fold_profile(stats)
    assert totals == pytest.approx({"sim": 2.75, "kernel": 0.75,
                                    "other": 0.5})
    assert sum(measure.shares(totals).values()) == pytest.approx(1.0)


# -- the digest gate ----------------------------------------------------------


RESULT = {"config_name": "BabelFish",
          "stats": {"instructions": 1000, "walks": 12},
          "core_cycles": [[0, 5000], [1, 4800]],
          "latency": {"p50": 10.0}}


def test_digest_gate_accepts_the_recorded_result_in_any_key_order():
    golden = {"cell": measure.digest(RESULT)}
    reordered = dict(reversed(list(RESULT.items())))
    assert measure.check_digest("cell", reordered, golden) is None


@pytest.mark.parametrize("path, value", [
    (("stats", "walks"), 13),
    (("latency", "p50"), 10.000001),
    (("config_name",), "Baseline"),
])
def test_digest_gate_rejects_a_perturbed_result(path, value):
    golden = {"cell": measure.digest(RESULT)}
    perturbed = {k: (dict(v) if isinstance(v, dict) else v)
                 for k, v in RESULT.items()}
    target = perturbed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    message = measure.check_digest("cell", perturbed, golden)
    assert message is not None and "cell" in message


def test_digest_gate_fails_unknown_cells():
    assert "no golden" in measure.check_digest("new", RESULT, {})


def test_recording_gate_flags_a_cell_that_changes_within_a_run():
    gate = measure.DigestGate({}, record=True)
    assert gate.check("cell", RESULT) is None
    assert gate.check("cell", RESULT) is None
    assert gate.check("cell", dict(RESULT, config_name="x")) is not None
    assert gate.recorded == {"cell": measure.digest(RESULT)}


# -- the serve-mix schedule ---------------------------------------------------


def test_serve_schedule_is_seeded_and_repeats_only_served_keys():
    events = serveload.schedule(7)
    assert events == serveload.schedule(7)
    assert events != serveload.schedule(8)
    misses = [e for e in events if e[1] == "miss"]
    hits = [e for e in events if e[1] == "hit"]
    assert len(misses) == len(serveload.SERVE_CONFIGS) * len(drivers.APPS)
    assert len(hits) == serveload.HITS
    assert len({drivers.serve_cell_id(e[2]) for e in misses}) == len(misses)
    first_due = {drivers.serve_cell_id(e[2]): e[0] for e in misses}
    for offset, _kind, key in hits:
        assert first_due[drivers.serve_cell_id(key)] <= \
            offset - serveload.GUARD_S
    assert all(0.0 <= e[0] <= serveload.LOAD_SECONDS for e in events)


def test_every_serve_key_has_a_golden_digest():
    import json
    golden = json.loads((pathlib.Path(__file__).resolve().parent
                         / "golden.json").read_text())
    for wire in serveload.key_pool():
        assert drivers.serve_cell_id(wire) in golden
