"""serve-mix: a ``repro.serve`` daemon under a seeded open-loop client.

The daemon runs as its own process (``python -m repro.serve daemon
--pool 1``) on a fresh private run cache. One client connection sends
requests on a Poisson schedule fixed in advance by the seed, whatever
the daemon does, and times each request from when it was *due*. The mix
is new keys (each simulated once and stored) plus repeats of keys whose
first request was due at least ``GUARD_S`` earlier, so repeats take the
daemon's cache fast path.

Host time here is the CPU time of the daemon and its pool worker, read
from this process's ``RUSAGE_CHILDREN`` once the daemon has exited (it
waits for its worker, so the worker's time is folded in). The wall time
of a pass is fixed by the schedule, so it would not show a slower
daemon until the worker saturated.
"""

import asyncio
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time

import measure
from drivers import APPS, Counts, serve_cell_id

SERVE_CONFIGS = ("Baseline", "BabelFish", "Victima", "Coalesced")
SERVE_SCALE = 0.05
SERVE_CORES = 1

#: Repeats per run: enough that the p95 of cache hits has 10 samples
#: beyond it.
HITS = 210
#: Length of the arrival schedule. 20 misses in 15 s offer about 40% of
#: the single worker's miss capacity (mean miss service ~0.3 s here).
LOAD_SECONDS = 15.0
GUARD_S = 3.0
#: A request counts toward goodput when answered within this limit.
LATENCY_LIMIT_S = 2.0
#: Idle daemon launches per pass (launch, ready, stop); set-up time is
#: the median of their CPU seconds.
SETUP_LAUNCHES = 5
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


def key_pool():
    """The new keys of every run: each app under each policy once, so
    the mix of miss service times is the same on every seed."""
    return [{"kind": "app", "app": app, "config_name": config,
             "cores": SERVE_CORES, "scale": SERVE_SCALE}
            for app in APPS for config in SERVE_CONFIGS]


def schedule(seed):
    """``[(offset_s, planned_class, wire_request)]`` sorted by offset.

    The seed sets the order of the new keys, every arrival time and
    which served key each repeat asks for. Arrival times are a Poisson
    process conditioned on the request counts (uniform order
    statistics), so every run sends exactly the same number of misses
    and hits.
    """
    rng = random.Random(seed)
    misses = key_pool()
    rng.shuffle(misses)
    miss_times = sorted(rng.uniform(0.0, LOAD_SECONDS) for _ in misses)
    events = [(t, "miss", key) for t, key in zip(miss_times, misses)]
    first = miss_times[0] + GUARD_S
    for t in sorted(rng.uniform(first, LOAD_SECONDS) for _ in range(HITS)):
        eligible = [key for mt, key in zip(miss_times, misses)
                    if mt <= t - GUARD_S]
        events.append((t, "hit", rng.choice(eligible)))
    events.sort(key=lambda event: event[0])
    return events


# -- daemon process -----------------------------------------------------------


class Daemon:
    """One ``repro.serve daemon`` subprocess."""

    def __init__(self, root, socket_path, cache_dir, log):
        self.started = time.perf_counter()
        self.cpu0 = measure.cpu_seconds(resource.RUSAGE_CHILDREN)
        self.cpu_s = None
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon", "--pool", "1",
             "--socket", str(socket_path), "--cache-dir", str(cache_dir)],
            cwd=str(root), stdout=subprocess.PIPE, stderr=log, text=True)

    def wait_ready(self):
        stream = self.process.stdout
        readable, _, _ = select.select([stream], [], [], READY_TIMEOUT_S)
        line = stream.readline() if readable else ""
        if "ready on" not in line:
            raise RuntimeError("daemon did not come up: %r" % line)
        return time.perf_counter() - self.started

    def stop(self):
        """SIGTERM (graceful drain) and wait; kill if it hangs. Sets
        ``cpu_s``, the CPU seconds of the daemon and its worker from
        launch to exit (daemons run one at a time, so the
        ``RUSAGE_CHILDREN`` difference is this daemon's alone)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.cpu_s = measure.cpu_seconds(resource.RUSAGE_CHILDREN) - self.cpu0
        return time.perf_counter()


def vm_hwm_mb(pid):
    """Peak resident set of a live process, in MB (0 if it is gone)."""
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- the open-loop client -----------------------------------------------------


async def drive(socket_path, events, recorder):
    """Send ``events`` on schedule over one connection; returns
    ``(records, stats)`` where ``records[i]`` is ``(due, sent, done,
    reply)`` (``done``/``reply`` None when no reply came)."""
    from repro.serve import protocol
    reader, writer = await asyncio.open_unix_connection(str(socket_path))
    replies = {}

    async def read_replies():
        while len(replies) < len(events):
            frame = await protocol.read_frame(reader)
            if frame is None:
                return
            if frame.get("kind") == "progress":
                continue
            replies[frame.get("id")] = (time.perf_counter(), frame)

    reading = asyncio.ensure_future(read_replies())
    sent = []
    base = time.perf_counter() + 0.05
    try:
        for index, (offset, _planned, wire) in enumerate(events):
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent.append((due, time.perf_counter()))
            writer.write(protocol.encode_frame(
                {"op": "run", "id": index, "request": wire,
                 "use_cache": True}))
            await writer.drain()
        try:
            await asyncio.wait_for(reading, REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        stats = None
        if not reading.cancelled() and reading.done() \
                and reading.exception() is None:
            await protocol.write_frame(writer, {"op": "stats",
                                                "id": "stats"})
            frame = await asyncio.wait_for(protocol.read_frame(reader),
                                           REPLY_TIMEOUT_S)
            stats = (frame or {}).get("stats")
    finally:
        if not reading.done():
            reading.cancel()
            try:
                await reading
            except asyncio.CancelledError:
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    records = []
    for index, (due, when) in enumerate(sent):
        done, reply = replies.get(index, (None, None))
        if done is not None:
            # Requests overlap and mostly wait on the daemon's processes,
            # so their spans sit outside the ten layers' self times.
            recorder.add("request", "request", when, done, op=index)
        records.append((due, when, done, reply))
    return records, stats


# -- the pass -----------------------------------------------------------------


def serve_mix_pass(ctx):
    events = schedule(ctx.seed)
    socket_path = os.path.relpath(ctx.work / "serve.sock", ctx.root)
    log = open(ctx.work / "daemon.log", "a")
    try:
        setups, ready_walls = [], []
        for _ in range(SETUP_LAUNCHES):
            daemon = Daemon(ctx.root, socket_path, ctx.fresh_dir("runcache"),
                            log)
            try:
                ready_walls.append(daemon.wait_ready())
            finally:
                daemon.stop()
            setups.append(daemon.cpu_s)
        cache = ctx.fresh_dir("runcache")
        daemon = Daemon(ctx.root, socket_path, cache, log)
        try:
            ready_walls.append(daemon.wait_ready())
            records, stats = asyncio.run(
                drive(socket_path, events, ctx.recorder))
            pids = [daemon.process.pid] + [
                w["pid"] for w in ((stats or {}).get("pool") or {})
                .get("workers", [])]
            peak_rss = sum(vm_hwm_mb(pid) for pid in pids)
        finally:
            end = daemon.stop()
    finally:
        log.close()
    return _serve_record(ctx, events, records, stats, setups, ready_walls,
                         daemon, end - daemon.started, peak_rss, cache)


def _serve_record(ctx, events, records, stats, setups, ready_walls,
                  daemon, wall, peak_rss, cache):
    failures = []
    counts = Counts()
    instructions = 0
    lat = {"hit": [], "miss": []}
    queue, service, hit_service, wire_s, late = [], [], [], [], []
    for (due, sent, done, reply), (_t, _planned, key) in zip(records,
                                                            events):
        late.append(measure.lateness(due, sent))
        if reply is None or reply.get("kind") != "result":
            failures.append("request %s: %s" % (
                serve_cell_id(key),
                "no reply" if reply is None else reply.get("error")))
            continue
        summary = reply["summary"]
        message = ctx.gate.check(serve_cell_id(key), summary["result"])
        if message is not None:
            failures.append(message)
            continue
        served_class = "hit" if reply["served"] == "cache" else "miss"
        latency = measure.latency_from_due(due, done)
        lat[served_class].append(latency)
        timings = reply["timings"]
        if served_class == "miss":
            queue.append(timings["queue_s"])
            service.append(timings["service_s"])
            instructions += summary["result"]["stats"]["instructions"]
        else:
            hit_service.append(timings["service_s"])
        wire_s.append((done - sent) - timings["queue_s"]
                      - timings["service_s"])
        counts.add(summary["result"]["stats"],
                   summary["result"]["context_switches"],
                   summary["kernel"]["frame_counts"].get("PAGE_TABLE", 0))
    ok = lat["hit"] + lat["miss"]
    prewarm = [w.get("prewarm_seconds") or 0.0
               for w in ((stats or {}).get("pool") or {}).get("workers", [])]
    layer = {
        "serve.hit_p50_s": measure.median(lat["hit"]) or 0.0,
        "serve.hit_tail_s": measure.tail(lat["hit"])[1] or 0.0,
        "serve.miss_p50_s": measure.median(lat["miss"]) or 0.0,
        "serve.miss_tail_s": measure.tail(lat["miss"])[1] or 0.0,
        "serve.goodput_rps": measure.goodput(ok, LATENCY_LIMIT_S,
                                             LOAD_SECONDS),
        "serve.queue_tail_s": measure.tail(queue)[1] or 0.0,
        "serve.service_p50_s": measure.median(service) or 0.0,
        "serve.service_tail_s": measure.tail(service)[1] or 0.0,
        "serve.hit_service_tail_s": measure.tail(hit_service)[1] or 0.0,
        "serve.wire_tail_s": measure.tail(wire_s)[1] or 0.0,
        "serve.late_tail_s": measure.tail(late)[1] or 0.0,
        "serve.prewarm_s": sum(prewarm),
        "experiments.runcache_bytes": sum(
            path.stat().st_size for path in cache.glob("*")),
    }
    percentiles = {
        "hit": measure.tail_percentile(len(lat["hit"])),
        "miss": measure.tail_percentile(len(lat["miss"])),
        "queue/service": measure.tail_percentile(len(service)),
        "hit_service": measure.tail_percentile(len(hit_service)),
        "wire/late": measure.tail_percentile(len(wire_s)),
    }
    return {
        "cpu_s": daemon.cpu_s,
        "wall_s": wall,
        "timed_end": time.perf_counter(),
        "setup_s": measure.median(setups),
        "setups": setups,
        "ready_wall_s": ready_walls,
        "instructions": instructions,
        "ops": lat["miss"],
        "attempted": len(events),
        "failed": len(failures) + len(events) - len(records),
        "failures": failures,
        "counts": counts.metrics(),
        "layer": layer,
        "peak_rss_mb": peak_rss,
        "tail_percentiles": percentiles,
    }
