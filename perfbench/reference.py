"""A fixed pure-Python workload that gauges how fast one CPU runs right now.

    python3 perfbench/reference.py CPU

Pins itself to CPU, then for each line read from stdin runs the workload
once and prints its CPU time in seconds.  run.py starts one per worker,
on the worker's CPU, and asks for a timing before and after every pass:
on a shared host the speed of a CPU drifts by tens of percent over tens
of seconds, and the pass's time is scaled by how the reference's time
moved.  It imports nothing from pgsemi, runs in a process of its own and
keeps no state between requests, so no change to pgsemi can move it.
"""

import os
import sys
import time

ENTRIES = 120_000


def work():
    # a dict keyed by tuples that hold small lists, built and then probed:
    # the hashing and allocation that pgsemi's closure and chain code do
    table = {}
    for i in range(ENTRIES):
        table[(i * 7919) % 100_003, i & 255] = [i]
    total = 0
    for k in range(ENTRIES):
        total += len(table.get(((k * 7919) % 100_003, k & 255), ()))
    return total


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _ in sys.stdin:
        start = time.thread_time()
        work()
        print(time.thread_time() - start, flush=True)


if __name__ == "__main__":
    main()
