"""Behaviour lock: golden digests of the quick report matrix, the
policy-zoo smoke grid and the Figure 9 rows.

``GOLDEN.json`` at the repo root maps each cell to the sha256 of its
canonical ``RunResult.as_dict()``. The cells are the quick matrix
(``python -m repro.experiments run --quick``: 14 runs at cores=2,
scale=0.25) and the default-tier cells of the zoo smoke grid (every
registered policy on mongodb at cores=2, scale=0.05), so the lock
covers the Victima victim level and the Coalesced span path too.
The Figure 9 rows (``run_fig9(scale=0.25)``: five apps plus the
functions) are digests of ``Fig9Row.as_dict()``; they read the LRU
active list and the page-table leaves the OS warm-up leaves behind,
which no ``RunResult`` shows.
The test recomputes every digest in a fresh interpreter with a fixed,
non-zero ``PYTHONHASHSEED``, so a result that leaks ``hash()`` of a
string or tuple into simulated state (the ASLR-seed bug class) moves a
digest instead of passing silently.

Regenerate only on purpose, when a change is meant to move simulated
results, and name every moved cell and the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "GOLDEN.json"
HASH_SEED = "20200530"
QUICK = dict(cores=2, scale=0.25)
FIG9_SCALE = 0.25


def golden_requests():
    """The locked cells: the quick matrix, then the zoo smoke grid's
    default-tier requests (the ``fastpath=False`` twins are dropped)."""
    from repro.experiments import runner, zoo
    zoo_cells = [request for request in zoo.zoo_matrix(**zoo.SCALES["smoke"])
                 if not request.overrides]
    return runner.report_matrix(**QUICK) + zoo_cells


def cell_digest(request):
    """sha256 of one locked cell, simulated here with every cache
    bypassed."""
    from repro.experiments import runcache, runner
    run = runner.run_request(request, use_cache=False)
    result = runner.request_summary(request, run)["result"]
    return hashlib.sha256(runcache.canonical_json(result).encode()).hexdigest()


def compute_digests():
    """``{request label: sha256}`` for every locked cell."""
    from repro.experiments import runcache
    digests = {request.label(): cell_digest(request)
               for request in golden_requests()}
    from repro.experiments import fig9
    for row in fig9.run_fig9(scale=FIG9_SCALE):
        blob = runcache.canonical_json(row.as_dict()).encode()
        digests["fig9 %s scale=%s" % (row.app, FIG9_SCALE)] = (
            hashlib.sha256(blob).hexdigest())
    return digests


def render(digests):
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


def test_quick_matrix_matches_golden():
    # Covers the zoo smoke cells and Figure 9 rows too; the test id is
    # kept stable.
    golden = json.loads(GOLDEN_PATH.read_text())
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert sorted(fresh) == sorted(golden)
    moved = sorted(cell for cell in golden if fresh[cell] != golden[cell])
    assert not moved, "cells moved off GOLDEN.json: %s" % moved


if __name__ == "__main__":
    text = render(compute_digests())
    if sys.argv[1:] == ["--write"]:
        GOLDEN_PATH.write_text(text)
    else:
        sys.stdout.write(text)
