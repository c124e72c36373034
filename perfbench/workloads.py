"""The three pgsemi benchmark workloads, their inputs and answer oracles.

Every workload is a closed loop: one client, one process, one thread, each
call issued after the previous one returned.  A workload is a list of
tasks, each mirroring the public calls one CLI verb makes.  A task's time
covers those calls only; the benchmark's own answer checks run afterwards,
outside the timed region, and take nothing from the code under test as
the expected value.

Every time is CPU time: of the process and its children for a task, of
the thread for a single query (one thread, so on a machine that does not
take the CPU away either equals the wall time).  The query metrics time
one request each: on chain_queries a query of the stream, on the batch
workloads one verb-level task (a pass returns None there, and the tasks'
labels name their kinds).

finite_closure
    ``verify tl --n 6`` (which runs the closure through ``size()``) and
    ``verify boset --source tl:6``.  Loads ``diagrams`` (monoid builds) and the
    ``chainsemigroup`` closure and product cache; bypasses ``serialize``,
    ``presentations`` and ``cosets`` (every group is trivial).  Takes no
    seed.  ``size --source tl:7 --allow-large`` (15-25 s, longer than a
    measuring window) runs once, in the traced run only.
infinite_structure
    ``validate`` + ``size`` + ``pi1`` + ``subgroup`` on stored motzkin:4,
    partition:3 and brauer:5 tables, band:8 and a seeded fleet of
    adjacency graphs, plus ``validate --max-chain 1`` on band:160.  Loads
    ``projections``, ``chains``, ``topology``, ``cosets``, ``serialize``
    and ``semigroups``; every size is Infinite, so the closure never runs
    and ``diagrams`` is never called.  Predicted no change from a closure
    or diagram change.
chain_queries
    A seeded stream of product, star and normalize queries on warm handles
    over tl:6 (trivial groups, operands repeat, products hit the cache),
    motzkin:4, brauer:5 and band:8 (free rank 21, words grow, products
    miss the cache), then ``verify presentation`` on tl:5 (RP in
    normal-form mode from fixed start words, RE2 in size mode).  Loads
    the chain-product hot path, ``presentations`` and the ``cosets``
    monoid enumerator.
    ``diagrams`` runs only in set-up: predicted no change in the timed
    phase from a diagram change.
"""

import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from pgsemi import (
    INFINITE,
    ChainSemigroupHandle,
    boset_of,
    check_derived_laws,
    compare_with_semigroup_boset,
    complex_KP_prime,
    components,
    enumerate_linked_pairs,
    pi1_presentation,
    presentation_RE2,
    presentation_RP,
    projection_algebra_of,
    projection_algebra_of_boset,
    relations,
    square_band_algebra,
    tietze_simplify,
    validate_axioms,
    verify_presentation,
    word_to_friendly_path,
)
from pgsemi.catalog import random_adjacency_graph
from pgsemi.cosets import enumerate_group, enumerate_monoid
from pgsemi.diagrams import tl_monoid
from pgsemi.errors import UndecidedEquality
from pgsemi.semigroups import adjacency_semigroup
from pgsemi.serialize import load_algebra
from spans import cpu_s

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

# infinite_structure: graphs in the seeded fleet and their vertex range
GRAPHS = 22
GRAPH_VERTICES = (16, 20)

# chain_queries: stream length, operation mix, and the caps that keep the
# operand pools (and so the cost per query) in a narrow band across seeds
QUERIES = 25_000
PRODUCT_SHARE, STAR_SHARE = 0.5, 0.1
POOL = 32
POOL_MAX_WORD = 6
NORMALIZE_MAX_LETTERS = 8
# share of infinite-source answers also checked by the costlier laws
CHECK_SAMPLE = 0.1
# words the RP normal-form check starts from (the CLI default is 200), and
# their seed (the CLI default).  Its cost differs by up to half between
# seeds, by the lengths of the words it rewrites, so it does not take the
# workload seed: that would move cpu_s with the seed.
NORMAL_FORM_WORDS = 40
NORMAL_FORM_SEED = 0


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


@dataclass
class Context:
    """One pass's tracer, timings and answer bookkeeping."""

    tr: object
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    task_s: list = field(default_factory=list)
    task_labels: list = field(default_factory=list)
    handles: list = field(default_factory=list)      # algebras to replay
    monoids: list = field(default_factory=list)      # presentations to replay

    def fail(self, label, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def handle(self, P):
        self.handles.append(P)
        return self.tr.call("chainsemigroup.init", ChainSemigroupHandle, P)

    def task(self, label, work, check):
        """Time work(), then check its result outside the timed region."""
        self.attempted += 1
        self.tr.task = label
        start = cpu_s()
        try:
            out = work()
        except Exception:
            self.fail(label, traceback.format_exc(limit=3))
            return
        finally:
            self.task_s.append(cpu_s() - start)
            self.task_labels.append(label)
            self.tr.task = None
        try:
            problems = check(out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.fail(label, "; ".join(problems))


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


# -- finite_closure -----------------------------------------------------------

def _diagram_source(ctx, n):
    tr = ctx.tr
    S, elements = tr.call("diagrams.monoid", tl_monoid, n, allow_large=True)
    tr.count("diagrams.elements", len(elements))
    P, embed = tr.call("semigroups.extract", projection_algebra_of, S)
    tr.count("semigroups.projections", P.size)
    return S, P, embed


def _verify_tl(ctx, n):
    tr = ctx.tr
    S, P, embed = _diagram_source(ctx, n)
    h = ctx.handle(P)
    trivial = all(c.classification.kind == "trivial" for c in h.components)
    size = tr.call("chainsemigroup.size", h.size)
    phi = tr.call("chainsemigroup.morphism", h.extend_morphism, S, embed)
    elems = tr.call("chainsemigroup.enumerate", h.enumerate)
    tr.count("chainsemigroup.elements", len(elems))
    images = tr.call("chainsemigroup.morphism",
                     lambda: [phi(c) for c in elems])
    index = dict(zip(elems, images))
    products_ok = all(
        index[tr.call("chainsemigroup.product", h.product, c, d)]
        == S.product(index[c], index[d])
        for c in elems for d in elems)
    tr.count("chainsemigroup.products", len(elems) ** 2)
    tr.count("chainsemigroup.product_pairs", len(elems) ** 2)
    stars_ok = all(
        index[tr.call("chainsemigroup.star", h.star, c)]
        == S.star_of(index[c])
        for c in elems)
    return trivial, size, images, products_ok, stars_ok


def _check_verify_tl(n):
    def check(out):
        trivial, size, images, products_ok, stars_ok = out
        want = catalan(n)
        problems = []
        _expect(problems, trivial, "a component group is not trivial")
        _expect(problems, size == want, f"size {size} != Catalan {want}")
        _expect(problems, len(set(images)) == len(images) == want,
                "the extended morphism is not a bijection")
        _expect(problems, products_ok, "a product is not preserved")
        _expect(problems, stars_ok, "a star is not preserved")
        return problems
    return check


def _verify_boset(ctx, n):
    tr = ctx.tr
    S, P, _ = _diagram_source(ctx, n)
    h = ctx.handle(P)
    b = tr.call("boset.build", boset_of, P, handle=h)
    back = tr.call("boset.roundtrip", projection_algebra_of_boset, b)
    cmp = tr.call("boset.roundtrip", compare_with_semigroup_boset, P, S,
                  boset=b)
    return P, b, back, cmp


def _check_boset(out):
    P, b, back, cmp = out
    problems = []
    _expect(problems, back == P, "projection algebra roundtrip differs")
    _expect(problems, all(b.star_of(b.star_of(e)) == e for e in b.elements),
            "boset star is not involutory")
    _expect(problems, cmp.ok, f"semigroup boset differs: {cmp.failures[:3]}")
    return problems


def finite_closure_setup(ctx, seed):
    return None


def finite_closure_pass(ctx, inputs, seed):
    ctx.task("verify tl:6", lambda: _verify_tl(ctx, 6), _check_verify_tl(6))
    ctx.task("verify boset tl:6", lambda: _verify_boset(ctx, 6),
             _check_boset)


def _size_tl(ctx, n):
    _, P, _ = _diagram_source(ctx, n)
    h = ctx.handle(P)
    return ctx.tr.call("chainsemigroup.size", h.size)


def finite_closure_extra(ctx):
    """size tl:7, the closure's large case: traced run only."""
    want = catalan(7)
    ctx.task("size tl:7", lambda: _size_tl(ctx, 7),
             lambda size: [] if size == want
             else [f"size {size} != Catalan {want}"])


# -- infinite_structure -------------------------------------------------------

STORED = ("motzkin:4", "partition:3", "brauer:5")


def fixture_path(spec):
    return os.path.join(FIXTURES, spec.replace(":", "_") + ".json")


def h1_rank(cx, comp):
    """Rank of H1 of one component: E - V + 1 - rank(boundary map d2)."""
    vs = set(comp)
    edges = [e for e in cx.edges if e[0] in vs]
    column = {e: i for i, e in enumerate(edges)}
    cells = [c for c in cx.cells if c.boundary[0] in vs]
    d2 = np.zeros((len(cells), len(edges)))
    for r, cell in enumerate(cells):
        for a, b in zip(cell.boundary, cell.boundary[1:]):
            d2[r, column[(min(a, b), max(a, b))]] += 1 if a < b else -1
    rank = int(np.linalg.matrix_rank(d2)) if cells else 0
    return len(edges) - len(comp) + 1 - rank


def _analyse(ctx, P):
    """validate (max chain 3), size, pi1 per component, and the maximal
    subgroup at a non-base vertex of the largest component."""
    tr = ctx.tr
    axioms = tr.call("projections.axioms", validate_axioms, P)
    derived = tr.call("projections.derived", check_derived_laws, P,
                      max_chain=3)
    h = ctx.handle(P)
    size = tr.call("chainsemigroup.size", h.size)
    groups = []
    for i in range(len(h.comps)):
        raw = tr.call("topology.pi1", pi1_presentation, h.complex, i)
        simplified, cls = tr.call("topology.tietze", tietze_simplify, raw)
        tr.count("topology.generators_raw", raw.ngens)
        tr.count("topology.generators_kept", simplified.ngens)
        groups.append(cls)
    big = max(range(len(h.comps)), key=lambda i: (len(h.comps[i]), -i))
    vertex = h.comps[big][1]
    _, sub = tr.call("chainsemigroup.maximal_subgroup", h.maximal_subgroup,
                     vertex)
    return axioms, derived, h, size, groups, big, sub


def _same_group(a, b):
    return (a.kind, a.order, a.rank, a.abelian) == \
        (b.kind, b.order, b.rank, b.abelian)


def _check_structure(extra=None):
    def check(out):
        axioms, derived, h, size, groups, big, sub = out
        problems = []
        _expect(problems, not axioms, f"axioms fail: {axioms[:1]}")
        _expect(problems, not derived, f"derived laws fail: {derived[:1]}")
        _expect(problems, size is INFINITE, f"size {size} is not Infinite")
        for i, cls in enumerate(groups):
            _expect(problems, _same_group(cls, h.components[i].classification),
                    f"pi1 of component {i} disagrees with the handle")
            want = h1_rank(h.complex, h.comps[i])
            _expect(problems, cls.abelian[0] == want,
                    f"component {i}: abelian rank {cls.abelian[0]} != {want}")
        _expect(problems, _same_group(sub, groups[big]),
                "maximal subgroup disagrees with its component")
        if extra is not None:
            extra(problems, h, groups)
        return problems
    return check


def _motzkin4(problems, h, groups):
    _expect(problems, len(h.comps) == 11, "motzkin:4 has not 11 components")
    twelve = [g for c, g in zip(h.comps, groups) if len(c) == 12]
    _expect(problems, len(twelve) == 1 and twelve[0].kind == "free"
            and twelve[0].rank == 1,
            "motzkin:4 12-vertex component is not free of rank 1")


def _brauer5(problems, h, groups):
    got = sorted(str(g) for g in groups)
    _expect(problems,
            got == sorted(["trivial", "free(rank 21)", "finite(order 2)"]),
            f"brauer:5 groups {got}")


def _band(k):
    def extra(problems, h, groups):
        rank = (k - 1) * (k - 2) // 2
        _expect(problems,
                [(g.kind, g.rank) for g in groups] == [("free", rank)],
                f"band:{k} group is not free of rank {rank}")
    return extra


_STORED_CHECKS = {"motzkin:4": _motzkin4, "partition:3": None,
                  "brauer:5": _brauer5}


def _stored(ctx, spec):
    P = ctx.tr.call("serialize.load", load_algebra, fixture_path(spec))
    return _analyse(ctx, P)


def _graph(ctx, G):
    tr = ctx.tr
    S = tr.call("semigroups.adjacency", adjacency_semigroup, G)
    P, _ = tr.call("semigroups.extract", projection_algebra_of, S)
    tr.count("semigroups.projections", P.size)
    return _analyse(ctx, P)


def _validate_only(ctx, P):
    axioms = ctx.tr.call("projections.axioms", validate_axioms, P)
    derived = ctx.tr.call("projections.derived", check_derived_laws, P,
                          max_chain=1)
    return axioms + derived


def infinite_structure_setup(ctx, seed):
    rng = np.random.default_rng(seed)
    # vertex counts cycle through the range, so the spread of graph sizes
    # (and cost, which grows about as n^3) is the same for every seed
    lo, hi = GRAPH_VERTICES
    sizes = [lo + i % (hi - lo + 1) for i in range(GRAPHS)]
    return [random_adjacency_graph(rng, max_vertices=n, min_vertices=n)
            for n in sizes]


def infinite_structure_pass(ctx, graphs, seed):
    for spec in STORED:
        ctx.task(f"validate+pi1 {spec}", lambda: _stored(ctx, spec),
                 _check_structure(_STORED_CHECKS[spec]))
    ctx.task("validate+pi1 band:8",
             lambda: _analyse(ctx, square_band_algebra(8)),
             _check_structure(_band(8)))
    for i, G in enumerate(graphs):
        ctx.task(f"validate+pi1 graph {i}", lambda: _graph(ctx, G),
                 _check_structure())
    ctx.task("validate band:160",
             lambda: _validate_only(ctx, square_band_algebra(160)),
             lambda bad: [f"violations: {bad[:1]}"] if bad else [])


# -- chain_queries ------------------------------------------------------------

class QuerySource:
    """A warm handle plus the operand pool its queries draw from."""

    def __init__(self, name, handle, semigroup=None, embed=None):
        self.name = name
        self.key = name.replace(":", "")     # tl:6 -> tl6, for metric names
        self.handle = handle
        self.semigroup = semigroup
        self.embed = embed
        self.pool = []

    def offer(self, chain, rng):
        """Grow the pool with a query result; past the cap, replace a
        random slot.  Long words are not kept, so operands stay bounded."""
        if len(chain.word) > POOL_MAX_WORD:
            return
        if len(self.pool) < POOL:
            self.pool.append(chain)
        else:
            self.pool[rng.randrange(POOL)] = chain


def _load_checked(ctx, spec):
    P = ctx.tr.call("serialize.load", load_algebra, fixture_path(spec))
    bad = ctx.tr.call("projections.axioms", validate_axioms, P)
    if bad:
        raise ValueError(f"fixture {spec} fails the axioms: {bad[0]}")
    return P


def chain_queries_setup(ctx, seed):
    """Warm handles on tl:6, motzkin:4, brauer:5 and band:8, and the tl:5
    algebra the presentation checks run on."""
    S, P, embed = _diagram_source(ctx, 6)
    sources = [QuerySource("tl:6", ctx.handle(P), S, embed)]
    for spec in ("motzkin:4", "brauer:5"):
        sources.append(QuerySource(spec, ctx.handle(_load_checked(ctx, spec))))
    sources.append(QuerySource("band:8", ctx.handle(square_band_algebra(8))))
    _, tl5, _ = _diagram_source(ctx, 5)
    return sources, tl5


@dataclass
class Query:
    kind: str
    source: QuerySource
    args: tuple
    result: object


def query_stream(ctx, sources, seed, latencies_ns):
    """Run the seeded query stream; returns the answered queries."""
    tr = ctx.tr
    rng = random.Random(seed)
    for src in sources:
        n = src.handle.algebra.size
        picks = rng.sample(range(n), min(n, POOL))
        src.pool = [src.handle.projection_chain(p) for p in picks]
    answered = []
    clock = time.thread_time_ns
    for _ in range(QUERIES):
        src = sources[rng.randrange(len(sources))]
        h = src.handle
        roll = rng.random()
        if roll < PRODUCT_SHARE:
            kind = "product"
            args = (src.pool[rng.randrange(len(src.pool))],
                    src.pool[rng.randrange(len(src.pool))])
        elif roll < PRODUCT_SHARE + STAR_SHARE:
            kind = "star"
            args = (src.pool[rng.randrange(len(src.pool))],)
        else:
            kind = "normalize"
            n = h.algebra.size
            args = tuple(rng.randrange(n) for _ in
                         range(rng.randint(1, NORMALIZE_MAX_LETTERS)))
        ctx.attempted += 1
        start = clock()
        try:
            if kind == "product":
                out = tr.call("chainsemigroup.product", h.product, *args)
            elif kind == "star":
                out = tr.call("chainsemigroup.star", h.star, *args)
            else:
                path = tr.call("presentations.word_to_path",
                               word_to_friendly_path, h.algebra, args)
                out = tr.call("chainsemigroup.normalize", h.normalize, path)
        except UndecidedEquality:
            latencies_ns.append(clock() - start)
            tr.count("chainsemigroup.undecided")
            ctx.fail(f"{kind} on {src.name}", "UndecidedEquality")
            continue
        except Exception:
            latencies_ns.append(clock() - start)
            ctx.fail(f"{kind} on {src.name}", traceback.format_exc(limit=3))
            continue
        latencies_ns.append(clock() - start)
        answered.append(Query(kind, src, args, out))
        if kind != "star":
            src.offer(out, rng)
    if tr.enabled:
        # the handle caches products by operand pair, so distinct pairs over
        # products issued is the share that misses the cache, per source
        for src in sources:
            args = [q.args for q in answered
                    if q.kind == "product" and q.source is src]
            for suffix in ("", "." + src.key):
                tr.count("chainsemigroup.products" + suffix, len(args))
                tr.count("chainsemigroup.product_pairs" + suffix,
                         len(set(args)))
    return answered


def check_queries(answered, seed):
    """Oracles for the answered queries: every tl:6 answer is mapped into
    TL_6 through the StarMorphism; on the infinite sources every product
    is checked against (cd)* = d*c* and every star against c** = c, and a
    seeded sample against associativity and (for normalize) the product
    of the word's letters."""
    rng = random.Random(seed + 1)
    images = {}
    wrong = []

    def phi(src, c):
        key = (src.name, c)
        if key not in images:
            if src.name not in images:
                images[src.name] = src.handle.extend_morphism(
                    src.semigroup, src.embed)
            images[key] = images[src.name](c)
        return images[key]

    for q in answered:
        src, h = q.source, q.source.handle
        if src.semigroup is not None:
            S = src.semigroup
            got = phi(src, q.result)
            if q.kind == "product":
                ok = got == S.product(phi(src, q.args[0]),
                                      phi(src, q.args[1]))
            elif q.kind == "star":
                ok = got == S.star_of(phi(src, q.args[0]))
            else:
                ok = got == S.product_of(int(src.embed[p]) for p in q.args)
        elif q.kind == "product":
            c, d = q.args
            ok = h.star(q.result) == h.product(h.star(d), h.star(c))
            if ok and rng.random() < CHECK_SAMPLE:
                e = src.pool[rng.randrange(len(src.pool))]
                ok = h.product(q.result, e) == h.product(c, h.product(d, e))
        elif q.kind == "star":
            ok = h.star(q.result) == q.args[0]
        elif rng.random() < CHECK_SAMPLE:
            acc = h.projection_chain(q.args[0])
            for p in q.args[1:]:
                acc = h.product(acc, h.projection_chain(p))
            ok = acc == q.result
        else:
            ok = True
        if not ok:
            wrong.append(f"{q.kind} on {src.name}: {q.args!r}")
    return wrong


def _verify_presentations(ctx, P):
    tr = ctx.tr
    h = ctx.handle(P)
    rp = tr.call("presentations.build", presentation_RP, P)
    normal = tr.call("presentations.verify_normal_form", verify_presentation,
                     P, rp, "normal-form", handle=h, seed=NORMAL_FORM_SEED,
                     samples=NORMAL_FORM_WORDS)
    re2 = tr.call("presentations.build", presentation_RE2, P, handle=h)
    ctx.monoids.append(re2)
    size = tr.call("presentations.verify_size", verify_presentation,
                   P, re2, "size", handle=h)
    tr.count("presentations.words_checked", normal.details.get("checked", 0))
    return normal, size


def _check_presentations(out):
    normal, size = out
    problems = []
    _expect(problems, bool(normal) and normal.details["checked"] > 0,
            f"RP {normal.summary()}")
    _expect(problems, bool(size) and size.details["classes"] == catalan(5),
            f"RE2 {size.summary()}")
    return problems


def chain_queries_pass(ctx, inputs, seed):
    """Returns the query latencies (ns); answers are checked afterwards."""
    sources, tl5 = inputs
    latencies = []
    ctx.tr.task = "queries"
    start = cpu_s()
    answered = query_stream(ctx, sources, seed, latencies)
    ctx.task_s.append(cpu_s() - start)
    ctx.task_labels.append("queries")
    ctx.tr.task = None
    for why in check_queries(answered, seed):
        ctx.fail("query", why)
    ctx.task("verify presentation tl:5",
             lambda: _verify_presentations(ctx, tl5),
             _check_presentations)
    return latencies


# -- handle-stage replay (traced run only) -----------------------------------

def replay(ctx):
    """Re-run, through public functions, the stages that a handle build and
    the size verifier run inside one call, so their time splits by module."""
    tr = ctx.tr
    tr.task = "replay"
    for P in ctx.handles:
        rel = tr.call("projections.relations", relations, P)
        pairs = tr.call("chains.linked_pairs", enumerate_linked_pairs, P, rel)
        tr.count("chains.linked_pairs", len(pairs))
        cx = tr.call("topology.complex", complex_KP_prime, P, rel, pairs)
        comps = tr.call("topology.complex", components, cx)
        tr.count("topology.cells", len(cx.cells))
        tr.count("topology.components", len(comps))
        for i in range(len(comps)):
            raw = tr.call("topology.pi1", pi1_presentation, cx, i)
            simplified, cls = tr.call("topology.tietze", tietze_simplify, raw)
            tr.count("topology.generators_raw", raw.ngens)
            tr.count("topology.generators_kept", simplified.ngens)
            if cls.enumeration is not None:
                enum = tr.call("cosets.group", enumerate_group,
                               simplified.ngens, simplified.relators)
                tr.count("cosets.group_classes", enum.size)
    for pres in ctx.monoids:
        enum = tr.call("cosets.monoid", enumerate_monoid, len(pres.letters),
                       pres.word_pairs())
        tr.count("cosets.monoid_classes", enum.size)
    tr.task = None


# name -> (setup(ctx, seed), run_pass(ctx, inputs, seed) -> query latencies
# in ns, or None when the queries are the pass's tasks)
WORKLOADS = {
    "finite_closure": (finite_closure_setup, finite_closure_pass),
    "infinite_structure": (infinite_structure_setup, infinite_structure_pass),
    "chain_queries": (chain_queries_setup, chain_queries_pass),
}

# name -> extra(ctx): work too long to repeat, run once in the traced run
EXTRAS = {"finite_closure": finite_closure_extra}
