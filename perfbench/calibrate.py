"""Host-speed sampler, run beside every timed pass by ``run.py``.

    python3 perfbench/calibrate.py OUT

Every ``PERIOD_S`` it times one fixed :func:`chunk` of pure-Python work
in CPU seconds of its own process, until its standard input closes;
then it writes the chunk times to ``OUT`` as a JSON list.

The host's CPU speed is not fixed: on a shared 2-vCPU VM the same pass
took from 8.4 to 18.9 CPU seconds within one hour, while steal time
stayed near zero. ``run.py`` pins the pass and this sampler to the same
vCPU, so the chunk times measure the speed that vCPU gave the pass,
moment by moment, and scales the pass's CPU seconds to the reference
speed (:data:`REFERENCE_CHUNK_S`).
"""

import json
import select
import sys
import time

PERIOD_S = 0.05
#: CPU seconds one :func:`chunk` takes at the reference host speed. The
#: scaled times read as seconds on a host where the chunk takes this
#: long beside a pass.
REFERENCE_CHUNK_S = 0.002
#: Scattered reads over a table much larger than the last-level cache
#: miss on every access, whatever the pass beside the sampler evicted,
#: so the chunk time does not depend on the program's memory use.
TABLE_BYTES = 1 << 25


def chunk(table, iterations=4000):
    """Dictionary updates (interpreter-bound) interleaved with scattered
    byte reads (memory-bound): the two kinds of work the simulator
    does."""
    counts = {}
    index = total = 0
    mask = len(table) - 1
    for i in range(iterations):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        index = (index * 1103515245 + 12345) & mask
        total += table[index]
    return total


def main(argv=None):
    out = (argv if argv is not None else sys.argv[1:])[0]
    table = bytearray(TABLE_BYTES)
    samples = []
    while True:
        began = time.process_time()
        chunk(table)
        samples.append(time.process_time() - began)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:
            break
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
