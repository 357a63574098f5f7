"""Regenerate ``golden.json``: the sha256 of every cell's canonical
``RunResult.as_dict()`` at the current sources.

    python3 perfbench/record_golden.py

Run it only on purpose, when a change is meant to move simulated
results, and say in the change which cells moved and why. The sim
workloads record the cells they actually run (one plain pass each, in
a fresh interpreter); the serve-mix key pool is simulated directly
here, which is also the direct result every served summary must match.
"""

import json
import os
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402


def serve_pool_digests():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import runner
    from repro.serve import protocol
    from drivers import serve_cell_id
    from serveload import key_pool
    out = {}
    for wire in key_pool():
        request = protocol.wire_to_request(wire)
        run_ = runner.run_request(request, use_cache=False)
        summary = runner.request_summary(request, run_)
        out[serve_cell_id(wire)] = measure.digest(summary["result"])
    return out


def main():
    golden = {}
    work = run.WORK_ROOT / ("record-%d" % os.getpid())
    for workload in ("report-quick", "steady-grid", "checked"):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        child = run.run_child(workload, 1, "plain", work, record=True)
        if child["record"]["failures"]:
            raise SystemExit("%s: %s" % (workload,
                                         child["record"]["failures"]))
        golden.update(child["recorded"])
        print("%s: %d cells" % (workload, len(child["recorded"])))
    shutil.rmtree(work, ignore_errors=True)
    pool = serve_pool_digests()
    print("serve-mix pool: %d keys" % len(pool))
    golden.update(pool)
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
