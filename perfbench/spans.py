"""Spans and counters recorded by the benchmark around calls into pgsemi.

A span is (name, start_ns, end_ns, parent, task): ``name`` is
``<module>.<what>``, ``parent`` the index of the enclosing span or None,
``task`` the label of the task that issued the call.  Start and end are
read from the thread's CPU-time clock, like every time the benchmark
reports.  Spans stay in memory and are written out once, when the run
ends.  With ``enabled=False`` a call goes straight through and nothing is
recorded.
"""

import json
import math
import resource
import time


def cpu_s():
    """CPU seconds used so far by this process and its reaped children, so
    that work moved into a subprocess still counts."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.task = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.thread_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.thread_time_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.task)

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def durations_ns(self, name):
        return [end - start for (n, start, end, _, _) in self.spans
                if n == name]

    def total_s(self, name):
        return sum(self.durations_ns(name)) / 1e9

    def percentile_us(self, name, q):
        durations = self.durations_ns(name)
        return percentile(durations, q) / 1e3 if durations else 0.0

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start_ns": s, "end_ns": e, "parent": p,
                     "task": t}
                    for (n, s, e, p, t) in self.spans],
                "counts": self.counts,
            }, fh)
