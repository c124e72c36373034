"""pgsemi benchmark: one workload per process, answers checked, metrics out.

    python3 perfbench/run.py --workload chain_queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; pgsemi is imported from ``src/`` beside this
directory.  Every time measured is CPU time: of the process and its
children for set-up and tasks (the fresh-interpreter import is such a
child), of the thread for single queries and spans.  Each client is a
single-threaded closed loop, so on an idle machine this equals the wall
time; on a shared VM it leaves out the time the host takes the CPU away.

The speed of each CPU of a shared host still drifts, by up to about 1.9x
over tens of seconds to minutes, so with ``--trace 0`` the timings are
also scaled: before and after each pass, ``reference.py`` (a fixed
workload that imports nothing from pgsemi, in its own process on the
same CPU) is timed, and the pass's times are multiplied by REFERENCE_S
over the mean of the two.  The ``scaled_*`` metrics and setup_s read as
CPU time on the host at the speed REFERENCE_S was taken at.
The raw CPU times, the scale factors and the wall times are kept in the
result record.

With ``--trace 0`` one worker process per CPU (two at most, each pinned
to its CPU, each a closed loop with one client) repeats set-up and a pass
over the workload until ``--seconds`` of wall time have gone by, and the
run prints the end-to-end metrics over the passes of both: scaled_cpu_s
is the sum of each task's median time over passes, and setup_s is the
median of IMPORTS fresh-interpreter imports of pgsemi per worker (each
scaled by the references timed around it) plus the median in-process
set-up over passes.  A query is one query of the stream on
chain_queries (figures are medians over 5k-query chunks) and one
verb-level task on the batch workloads; there each task's time is its
median over passes, and p50 and p99 are nearest-rank percentiles of
those per-task medians (on finite_closure the cheaper and the dearer of
its two verbs, on infinite_structure a seeded graph and the slowest
task).  peak_rss_mb is the larger of the two workers' own peaks.

With ``--trace 1`` it makes a warm-up pass, alternates three untraced
passes with three passes that record spans around every call into pgsemi,
replays the handle-build stages, runs the workload's one-off extra (size
tl:7 on finite_closure) and prints the per-layer metrics, taken from the
first traced pass, plus the tracing overhead (median over the three
pairs; on a host whose speed drifts it is a rough figure).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Spans and a record of each result (with nproc, interpreter and
library versions and the git commit) go to ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from spans import Tracer, cpu_s, percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("finite_closure", "infinite_structure", "chain_queries")
# fresh-interpreter imports of pgsemi per worker
IMPORTS = 4
QUERY_CHUNK = 5000
TRACE_PAIRS = 3
WORKERS = 2
# reference.py's CPU time per request in a fast period on a 2-vCPU Intel
# Xeon VM with Python 3.11; scaled times read as CPU time at that speed
REFERENCE_S = 0.15
CHILD_TIMEOUT_S = 175
STOP_GRACE_S = 10

# name -> (unit, kind, source); kind "time" sums span durations, "count"
# reads a counter, "p50"/"p99" are span-duration percentiles in us
PER_LAYER = {
    "diagrams.monoid_s": ("s", "time", "diagrams.monoid"),
    "diagrams.elements": ("count", "count", "diagrams.elements"),
    "semigroups.extract_s": ("s", "time", "semigroups.extract"),
    "semigroups.adjacency_s": ("s", "time", "semigroups.adjacency"),
    "semigroups.projections": ("count", "count", "semigroups.projections"),
    "projections.axioms_s": ("s", "time", "projections.axioms"),
    "projections.derived_s": ("s", "time", "projections.derived"),
    "projections.relations_s": ("s", "time", "projections.relations"),
    "chains.linked_pairs_s": ("s", "time", "chains.linked_pairs"),
    "chains.linked_pairs": ("count", "count", "chains.linked_pairs"),
    "topology.complex_s": ("s", "time", "topology.complex"),
    "topology.cells": ("count", "count", "topology.cells"),
    "topology.components": ("count", "count", "topology.components"),
    "topology.pi1_s": ("s", "time", "topology.pi1"),
    "topology.tietze_s": ("s", "time", "topology.tietze"),
    "topology.generators_raw": ("count", "count", "topology.generators_raw"),
    "topology.generators_kept": ("count", "count",
                                 "topology.generators_kept"),
    "cosets.group_s": ("s", "time", "cosets.group"),
    "cosets.group_classes": ("count", "count", "cosets.group_classes"),
    "cosets.monoid_s": ("s", "time", "cosets.monoid"),
    "cosets.monoid_classes": ("count", "count", "cosets.monoid_classes"),
    "chainsemigroup.init_s": ("s", "time", "chainsemigroup.init"),
    "chainsemigroup.size_s": ("s", "time", "chainsemigroup.size"),
    "chainsemigroup.enumerate_s": ("s", "time", "chainsemigroup.enumerate"),
    "chainsemigroup.elements": ("count", "count", "chainsemigroup.elements"),
    "chainsemigroup.morphism_s": ("s", "time", "chainsemigroup.morphism"),
    "chainsemigroup.product_us.p50": ("us", "p50", "chainsemigroup.product"),
    "chainsemigroup.product_us.p99": ("us", "p99", "chainsemigroup.product"),
    "chainsemigroup.star_us.p50": ("us", "p50", "chainsemigroup.star"),
    "chainsemigroup.normalize_us.p50": ("us", "p50",
                                        "chainsemigroup.normalize"),
    "chainsemigroup.normalize_us.p99": ("us", "p99",
                                        "chainsemigroup.normalize"),
    "chainsemigroup.products": ("count", "count", "chainsemigroup.products"),
    "chainsemigroup.undecided": ("count", "count",
                                 "chainsemigroup.undecided"),
    "presentations.build_s": ("s", "time", "presentations.build"),
    "presentations.verify_normal_form_s": (
        "s", "time", "presentations.verify_normal_form"),
    "presentations.words_checked": ("count", "count",
                                    "presentations.words_checked"),
    "presentations.verify_size_s": ("s", "time",
                                    "presentations.verify_size"),
    "boset.build_s": ("s", "time", "boset.build"),
    "boset.roundtrip_s": ("s", "time", "boset.roundtrip"),
    "serialize.load_s": ("s", "time", "serialize.load"),
}
# chain_queries sources whose product-cache miss share is reported apart
REPEAT_SOURCES = ("tl6", "motzkin4", "brauer5", "band8")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_pgsemi():
    """Import pgsemi from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pgsemi", "__init__.py")):
        fail(f"no pgsemi sources under {SRC}")
    sys.path.insert(0, SRC)
    import pgsemi
    if not os.path.abspath(pgsemi.__file__).startswith(SRC + os.sep):
        fail(f"pgsemi imported from {pgsemi.__file__}, not {SRC}")
    import workloads
    return workloads


def import_seconds():
    """CPU time a fresh interpreter takes to import pgsemi."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import pgsemi"
    before = cpu_s()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return cpu_s() - before


def git_commit():
    """The commit of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment():
    import numpy
    import sympy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "commit": git_commit()}


def timed_setup(setup, ctx, seed):
    start = cpu_s()
    inputs = setup(ctx, seed)
    return inputs, cpu_s() - start


def run_pass(wl, name, seed, tracer):
    """Set up and run one pass; returns the context, the query latencies
    (None on a batch workload) and the set-up time."""
    setup, run = wl.WORKLOADS[name]
    ctx = wl.Context(tracer)
    inputs, setup_s = timed_setup(setup, ctx, seed)
    return ctx, run(ctx, inputs, seed), setup_s


def reference_s(ref):
    ref.stdin.write("\n")
    ref.stdin.flush()
    return float(ref.stdout.readline())


def stop(procs):
    """Let each process end, ask those still running after a grace period
    to stop, and wait until every one has ended."""
    for proc in procs:
        try:
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def child_command(name, seed, seconds, *extra):
    return [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            *map(str, extra)]


def run_children(cmds):
    """Run the commands at once, each in a process of its own, and return
    what each printed.  Every child has ended when this returns, on every
    path out of it."""
    procs = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        for cmd in cmds:
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          text=True))
        outs = [proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))[0]
                for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        stop(procs)
    for cmd, proc, out in zip(cmds, procs, outs):
        if proc.returncode != 0 or not out.strip():
            fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return [out.strip().splitlines() for out in outs]


def measure(name, seed, seconds, cpu):
    """Run passes of a workload on one CPU for about ``seconds``; returns
    the figures, each time scaled by REFERENCE_S over the reference's time
    around its pass.  Runs in a worker process of its own."""
    os.sched_setaffinity(0, {cpu})
    wl = load_pgsemi()
    raw = {"imports": [], "setups": [], "task_cpu_s": [], "pass_wall_s": [], "scales": [],
           "by_task": {}, "rates": [], "p50s": [], "p99s": [], "samples": 0,
           "attempted": 0, "failed": 0, "failures": []}
    ref = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "reference.py"), str(cpu)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        reference_s(ref)    # warm-up
        # each import is scaled by the mean of the references around it
        refs = [reference_s(ref)]
        for _ in range(IMPORTS):
            imported = import_seconds()
            refs.append(reference_s(ref))
            raw["imports"].append(
                imported * REFERENCE_S / ((refs[-2] + refs[-1]) / 2))
        start = time.perf_counter()
        while True:
            before = reference_s(ref)
            pass_start = time.perf_counter()
            ctx, latencies, setup_s = run_pass(wl, name, seed, Tracer(False))
            raw["pass_wall_s"].append(time.perf_counter() - pass_start)
            scale = REFERENCE_S / ((before + reference_s(ref)) / 2)
            raw["scales"].append(scale)
            raw["setups"].append(setup_s * scale)
            raw["task_cpu_s"].append(sum(ctx.task_s))
            for label, s in zip(ctx.task_labels, ctx.task_s):
                raw["by_task"].setdefault(label, []).append(s * scale)
            if latencies is None:
                raw["samples"] += len(ctx.task_s)
            else:
                raw["samples"] += len(latencies)
                # a long query stream is cut into chunks, so that a burst
                # of machine noise moves one chunk's figures, not the medians
                chunks = [latencies[i:i + QUERY_CHUNK]
                          for i in range(0, len(latencies), QUERY_CHUNK)]
                for chunk in [c for c in chunks if len(c) == QUERY_CHUNK] \
                        or chunks:
                    raw["rates"].append(
                        len(chunk) / (sum(chunk) / 1e9 * scale))
                    raw["p50s"].append(percentile(chunk, 50) / 1e3 * scale)
                    raw["p99s"].append(percentile(chunk, 99) / 1e3 * scale)
            raw["attempted"] += ctx.attempted
            raw["failed"] += ctx.failed
            raw["failures"].extend(ctx.failures)
            del ctx, latencies
            # stop before a further pass would overrun the measuring time
            passes = len(raw["task_cpu_s"])
            if (time.perf_counter() - start) * (passes + 1) / passes \
                    > seconds:
                break
    finally:
        ref.stdin.close()
        stop([ref])
    raw["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return raw


def run_untraced(name, seed, seconds):
    """Measure in one worker per CPU (at most WORKERS) at once and pool
    their passes: the speed of a shared host's CPUs drifts over tens of
    seconds, each CPU apart from the other, so two CPUs' passes give a
    steadier median than one CPU's."""
    median = statistics.median
    cpus = sorted(os.sched_getaffinity(0))[:WORKERS]
    raws = [json.loads(lines[-1]) for lines in run_children(
        [child_command(name, seed, seconds, "--worker", cpu)
         for cpu in cpus])]
    by_task = {}
    for raw in raws:
        for label, times in raw["by_task"].items():
            by_task.setdefault(label, []).extend(times)
    imports = [s for raw in raws for s in raw["imports"]]
    setups = [s for raw in raws for s in raw["setups"]]
    rates, p50s, p99s = ([x for raw in raws for x in raw[key]]
                         for key in ("rates", "p50s", "p99s"))
    # each task's median over passes, so that a burst of machine noise in
    # one task of a pass does not move the pass's total
    tasks = [median(v) for v in by_task.values()]
    cpu = sum(tasks)
    if not rates:
        # batch workload: a query is a task, one kind per label
        rates = [len(tasks) / cpu]
        p50s = [percentile(tasks, 50) * 1e6]
        p99s = [percentile(tasks, 99) * 1e6]
    metrics = {
        "setup_s": (median(imports) + median(setups), "s"),
        "scaled_cpu_s": (cpu, "s"),
        "peak_rss_mb": (max(raw["peak_rss_mb"] for raw in raws), "MB"),
        "scaled_queries_per_s": (median(rates), "1/s"),
        "scaled_query_p50_us": (median(p50s), "us"),
        "scaled_query_p99_us": (median(p99s), "us"),
    }
    info = {"cpus": cpus,
            "passes": [len(raw["task_cpu_s"]) for raw in raws],
            "query_samples": sum(raw["samples"] for raw in raws),
            "task_cpu_s": [raw["task_cpu_s"] for raw in raws],
            "scales": [raw["scales"] for raw in raws],
            "pass_wall_s": [raw["pass_wall_s"] for raw in raws],
            "task_median_s": dict(zip(by_task, tasks)),
            "setups_s": setups, "imports_s": imports}
    return (metrics, sum(raw["attempted"] for raw in raws),
            sum(raw["failed"] for raw in raws),
            [why for raw in raws for why in raw["failures"]], info)


def run_traced(wl, name, seed, trace_path):
    # a warm-up pass first: the process's first pass runs slower, and the
    # overhead figure is to compare warm passes only
    runs = [run_pass(wl, name, seed, Tracer(False))[0]]
    overheads, cpus = [], []
    for _ in range(TRACE_PAIRS):
        ref = run_pass(wl, name, seed, Tracer(False))[0]
        ctx = run_pass(wl, name, seed, Tracer(True))[0]
        runs += [ref, ctx]
        untraced, traced = sum(ref.task_s), sum(ctx.task_s)
        cpus.append((untraced, traced))
        overheads.append(100 * (traced - untraced) / untraced)
    ctx = runs[2]
    wl.replay(ctx)
    tr = ctx.tr
    extra = wl.Context(Tracer(True))
    if name in wl.EXTRAS:
        wl.EXTRAS[name](extra)
        runs.append(extra)
    metrics = {}
    for metric, (unit, kind, source) in PER_LAYER.items():
        if kind == "time":
            value = tr.total_s(source)
        elif kind == "count":
            value = tr.counts.get(source, 0)
        else:
            value = tr.percentile_us(source, 50 if kind == "p50" else 99)
        metrics[metric] = (value, unit)
    for suffix in ("",) + tuple("." + s for s in REPEAT_SOURCES):
        products = tr.counts.get("chainsemigroup.products" + suffix, 0)
        pairs = tr.counts.get("chainsemigroup.product_pairs" + suffix, 0)
        metrics["chainsemigroup.product_repeat_ratio" + suffix] = (
            pairs / products if products else 0.0, "ratio")
    for metric, source in (("diagrams.monoid_tl7_s", "diagrams.monoid"),
                           ("chainsemigroup.size_tl7_s",
                            "chainsemigroup.size")):
        metrics[metric] = (extra.tr.total_s(source), "s")
    metrics["trace.overhead_pct"] = (statistics.median(overheads), "%")
    metrics["trace.spans"] = (len(tr.spans), "count")
    tr.dump(trace_path)
    info = {"untraced_traced_cpu_s": cpus, "overhead_pct": overheads,
            "trace_file": os.path.relpath(trace_path, ROOT)}
    return (metrics, sum(r.attempted for r in runs),
            sum(r.failed for r in runs),
            [why for r in runs for why in r.failures], info)


def run_one(args):
    wl = load_pgsemi()
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        metrics, attempted, failed, failures, info = run_traced(
            wl, args.workload, args.seed, path)
    else:
        metrics, attempted, failed, failures, info = run_untraced(
            args.workload, args.seed, args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "info": info, "failures": failures,
              **result}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for why in failures:
        print(f"FAIL {why}", file=sys.stderr)
    print("# " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "env", "info")}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}.{name} {value:.6g} {unit}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, = run_children([child_command(
            name, args.seed, args.seconds, "--trace", args.trace)])
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))


def main():
    # a SIGTERM unwinds like an error, so the finally clauses stop and wait
    # for every process this one started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: measure on this CPU and print the raw figures as JSON
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker is not None:
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 args.worker)))
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
