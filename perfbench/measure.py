"""Pure measurement helpers of the benchmark (no ``repro`` import).

Everything here is deterministic arithmetic over numbers the benchmark
collected: the percentile rule, open-loop latency and lateness, span
self time, the profiler fold by package, the golden-digest gate and the
provenance block. ``test_helpers.py`` pins each of them.
"""

import datetime
import hashlib
import json
import math
import os
import platform
import resource
import subprocess

#: The ten ``repro`` packages the per-layer numbers are reported for.
LAYERS = ("workloads", "kernel", "containers", "core", "hw", "sim",
          "experiments", "serve", "obs", "analysis")

#: Candidate percentiles for a tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


# -- percentiles --------------------------------------------------------------


def _rank(n, pct):
    """1-based nearest rank of ``pct`` among ``n`` samples (the epsilon
    keeps 99.9% of 10000 at rank 9990 despite float rounding)."""
    return max(1, min(n, math.ceil(pct * n / 100.0 - 1e-9)))


def percentile(values, pct):
    """Nearest-rank percentile (``pct`` in [0, 100]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


def samples_beyond(n, pct):
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def tail_percentile(n):
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or None when even the median is not
    supported."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values):
    """``(pct, value)`` at :func:`tail_percentile`, or ``(None, None)``."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None, None
    return pct, percentile(values, pct)


def harmonic_mean(values):
    """Harmonic mean of positive ``values``, None when empty."""
    if not values:
        return None
    return len(values) / sum(1.0 / value for value in values)


def median(values):
    """Median of ``values`` (mean of the middle pair), None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- host CPU time ------------------------------------------------------------


def cpu_seconds(who=resource.RUSAGE_SELF):
    """User + system CPU seconds of this process (``RUSAGE_SELF``) or of
    its waited-for descendants (``RUSAGE_CHILDREN``), at microsecond
    resolution.

    The time metrics are CPU time, not wall time: on a shared host,
    time spent waiting for a core (other tenants, hypervisor steal)
    inflates wall time by tens of percent from one run to the next,
    while the CPU time of the same work stays within about 1%.
    """
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- open-loop timing ---------------------------------------------------------


def latency_from_due(due, done):
    """Open-loop latency: from when a request was *due* to be sent to
    when its reply arrived, so a stall that delays later sends is
    charged to the requests it delayed."""
    return done - due


def lateness(due, sent):
    """How late the generator sent a request (0 when on time)."""
    return max(0.0, sent - due)


def goodput(latencies, limit, duration):
    """Requests completed within ``limit`` seconds, per second of
    ``duration``. ``latencies`` holds successful requests only, so a
    failed or refused request counts as a miss."""
    if duration <= 0:
        return 0.0
    return sum(1 for lat in latencies if lat <= limit) / duration


# -- spans --------------------------------------------------------------------

# A span is a list ``[name, layer, start, end, parent, op]``: ``parent``
# is the index of the enclosing span (-1 at the root) and ``op`` the
# cell/request id the span belongs to.
NAME, LAYER, START, END, PARENT, OP = range(6)


def span_self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children of one span never overlap each other (they nest on one
    call stack), so their durations sum without double counting.
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
    return [span[END] - span[START] - child[i]
            for i, span in enumerate(spans)]


def layer_self_times(spans):
    """Self seconds per layer, summed over that layer's spans."""
    out = {}
    for span, self_s in zip(spans, span_self_times(spans)):
        out[span[LAYER]] = out.get(span[LAYER], 0.0) + self_s
    return out


def has_ancestor(spans, index, predicate):
    """True when some enclosing span of ``spans[index]`` satisfies
    ``predicate``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if predicate(spans[parent]):
            return True
        parent = spans[parent][PARENT]
    return False


# -- the profiler fold --------------------------------------------------------


def package_of(filename):
    """``repro`` package a source file belongs to, else ``"other"``.

    ``repro/report.py`` is the experiments front end and folds into
    ``experiments``; anything outside the ten layers is ``other``.
    """
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    head = rest.split("/", 1)[0]
    if head in LAYERS:
        return head
    if head == "report.py":
        return "experiments"
    return "other"


def fold_profile(stats):
    """Fold ``pstats.Stats.stats`` self time by package.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tottime,
    cumtime, callers)``. A built-in (file ``~``) has no package of its
    own: its self time goes to its callers' packages in proportion to
    the self time each caller charged it, so ``list.append`` inside the
    simulator counts as simulator time.
    """
    totals = {}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        filename = func[0]
        if filename != "~" or not callers:
            layer = package_of(filename)
            totals[layer] = totals.get(layer, 0.0) + tottime
            continue
        charged = sum(entry[2] for entry in callers.values())
        for caller, entry in callers.items():
            share = (entry[2] / charged if charged
                     else 1.0 / len(callers))
            layer = package_of(caller[0])
            totals[layer] = totals.get(layer, 0.0) + tottime * share
    return totals


def shares(totals):
    """Seconds per key -> share of the total (absolute seconds from a
    profiled run are never reported, only these shares)."""
    whole = sum(totals.values())
    if whole <= 0:
        return {key: 0.0 for key in totals}
    return {key: value / whole for key, value in totals.items()}


# -- the digest gate ----------------------------------------------------------


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(result_dict):
    """sha256 of a canonical ``RunResult.as_dict()``."""
    return hashlib.sha256(canonical_json(result_dict).encode()).hexdigest()


def check_digest(cell_id, result_dict, golden):
    """None when ``result_dict`` matches the golden digest of
    ``cell_id``; otherwise the failure message. A cell with no golden
    entry fails too: every cell a workload runs must be locked."""
    expected = golden.get(cell_id)
    if expected is None:
        return "%s: no golden digest recorded" % cell_id
    got = digest(result_dict)
    if got != expected:
        return "%s: digest %s != golden %s" % (cell_id, got[:12],
                                                expected[:12])
    return None


class DigestGate:
    """Checks cells against the golden digests, or (``record=True``)
    collects fresh ones for ``record_golden.py``. Recording still fails
    a cell whose digest changes within one run."""

    def __init__(self, golden, record=False):
        self.golden = golden
        self.record = record
        self.recorded = {}

    def check(self, cell_id, result_dict):
        if not self.record:
            return check_digest(cell_id, result_dict, self.golden)
        got = digest(result_dict)
        if self.recorded.setdefault(cell_id, got) != got:
            return "%s: digest changed within one run" % cell_id
        return None


# -- provenance ---------------------------------------------------------------


def git_state(root):
    """``(sha, dirty)`` of the checkout, or ``(None, None)`` outside a
    git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=20,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, timeout=20,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def provenance(root, seed, runs, fingerprint=None, numpy_version=None,
               nproc=None):
    sha, dirty = git_state(root)
    if nproc is None:
        nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "code_fingerprint": fingerprint,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": nproc,
        "seed": seed,
        "runs": runs,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
