"""Command line front door.

Every verb builds a projection algebra from one --source spec

    kinyon | band:<k> | tl:<n> | motzkin:<n> | brauer:<n> |
    partial_brauer:<n> | partition:<n> | adjacency:<graph.json> |
    <algebra.json>

then runs a single analysis and prints text or writes artifacts.  Output
is canonical: rerunning a command reproduces it byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 inconclusive (undecided equality or a blown budget).
"""

import argparse
from collections import Counter
import sys

import numpy as np

from .boset import boset_of, compare_with_semigroup_boset, \
    projection_algebra_of_boset
from .catalog import parse_source
from .chainsemigroup import ChainSemigroupHandle, INFINITE, UNKNOWN
from .cosets import BUDGET
from .errors import BudgetExceeded, CapExceeded, PgsemiError, \
    UndecidedEquality
from .presentations import presentation_RE, presentation_RE2, \
    presentation_RP, tl_presentation, verify_presentation
from .projections import _chunks, _gather, check_derived_laws, relations, \
    require_algebra, validate_axioms
from .semigroups import CAP, subsemigroup_closure
from .serialize import algebra_to_dict, chain_to_dict, complex_to_dict, \
    complex_to_dot, dumps, presentation_to_dict
from .topology import complex_KP, complex_KP_prime, components, \
    friendliness_graph

__all__ = ["main"]

_COMPLEXES = {
    "GP": friendliness_graph,
    "KP": complex_KP,
    "KP'": complex_KP_prime,
}

_FAMILIES = {
    "RP": presentation_RP,
    "RE": presentation_RE,
    "RE2": presentation_RE2,
}


def _source(args):
    if not getattr(args, "source", None):
        raise PgsemiError("this command needs --source")
    return parse_source(args.source, allow_large=args.allow_large)


def _bundle(args):
    """The --source bundle, refused unless it is a projection algebra."""
    bundle = _source(args)
    require_algebra(bundle.algebra)
    return bundle


def _lines(lines):
    """Text lines as one string, each line ended by a newline."""
    return "".join(line + "\n" for line in lines)


def _emit(args, text):
    """Write text, ended by a newline, to --out when given, else stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _group_text(pres, cls):
    lines = [f"generators: {pres.ngens}"]
    for rel in pres.relators:
        word = " ".join(
            f"g{abs(l)}" + ("'" if l < 0 else "") for l in rel) or "1"
        lines.append(f"relator: {word}")
    lines.append(f"classification: {cls}")
    rank, torsion = cls.abelian
    lines.append(f"abelianization: free rank {rank}, torsion {list(torsion)}")
    return "\n".join(lines)


class _Suite:
    """Collects named pass/fail lines; exit 1 if anything failed."""

    def __init__(self):
        self.lines = []
        self.failed = 0

    def check(self, ok, desc):
        self.lines.append(("ok - " if ok else "FAIL - ") + desc)
        if not ok:
            self.failed += 1

    def finish(self):
        print("\n".join(self.lines))
        if self.failed:
            print(f"{self.failed} check(s) failed")
            return 1
        return 0


# -- verbs ----------------------------------------------------------------

def cmd_validate(args):
    bundle = _source(args)
    P = bundle.algebra
    axioms = validate_axioms(P)
    derived = check_derived_laws(P, max_chain=args.max_chain)
    failed = {v.law: v for v in axioms}
    for law in ("P1", "P2", "P3", "P4", "P5"):
        print(f"FAIL {failed[law]}" if law in failed else f"{law}: ok")
    if derived:
        for v in derived:
            print(str(v))
    else:
        print("derived laws (chain length <= %d): ok" % args.max_chain)
    print(f"{bundle.name}: {P.size} projections")
    return 0 if not axioms and not derived else 1


def cmd_build(args):
    bundle = _source(args)
    _emit(args, dumps(algebra_to_dict(bundle.algebra)))
    return 0


def cmd_relations(args):
    bundle = _bundle(args)
    P = bundle.algebra
    rel = relations(P)
    comps = components(friendliness_graph(P, rel))
    if args.format == "json":
        _emit(args, dumps({
            "leq": rel.leq.astype(int).tolist(),
            "leqf": rel.leqf.astype(int).tolist(),
            "friendly": rel.friendly.astype(int).tolist(),
            "components": comps,
        }))
        return 0
    lines = []
    for name, M in (("leq", rel.leq), ("leqF", rel.leqf),
                    ("friendly", rel.friendly)):
        lines.append(name + ":")
        for row in M.astype(int):
            lines.append("  " + "".join(str(x) for x in row))
    lines.append("components: " + " | ".join(
        "{" + ",".join(P.label(v) for v in comp) + "}" for comp in comps))
    _emit(args, "\n".join(lines))
    return 0


def _built_complex(args):
    """The --source bundle, its --which complex and the components; in
    JSON format the complex is written out with its components."""
    bundle = _bundle(args)
    c = _COMPLEXES[args.which](bundle.algebra, relations(bundle.algebra))
    comps = components(c)
    if args.format == "json":
        _emit(args, dumps({**complex_to_dict(c), "components": comps}))
    return bundle, c, comps


def cmd_complex(args):
    bundle, c, comps = _built_complex(args)
    if args.format == "json":
        return 0
    lines = [f"{bundle.name} {args.which}: {c.n} vertices, "
             f"{len(c.edges)} edges, {len(c.cells)} cells, "
             f"{len(comps)} components"]
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    cells = Counter(where[cell.boundary[0]] for cell in c.cells)
    for i, comp in enumerate(comps):
        lines.append(f"component {i}: vertices {comp}, {cells[i]} cells")
    _emit(args, _lines(lines))
    return 0


def cmd_pi1(args):
    bundle = _bundle(args)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    comps = handle.comps
    picked = range(len(comps)) if args.component is None else [args.component]
    out = []
    for i in picked:
        if not 0 <= i < len(comps):
            raise PgsemiError(f"no component {i}; have {len(comps)}")
        pres = handle.components[i].simplified
        cls = handle.components[i].classification
        if args.format == "json":
            out.append(presentation_to_dict(pres, cls))
        else:
            out.append(f"component {i}: vertices {comps[i]}")
            out.append("  " + _group_text(pres, cls).replace("\n", "\n  "))
    _emit(args, dumps(out) if args.format == "json" else _lines(out))
    kinds = [handle.components[i].classification.kind for i in picked]
    return 3 if "unknown" in kinds else 0


def cmd_enumerate(args):
    bundle = _bundle(args)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    elems = handle.enumerate(cap=args.cap)
    if args.format == "json":
        _emit(args, dumps([chain_to_dict(c) for c in elems]))
        return 0
    _emit(args, _lines([f"{len(elems)} elements"] + list(map(repr, elems))))
    return 0


def cmd_size(args):
    bundle = _bundle(args)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    val = handle.size()
    print(val)
    for comp in handle.components:
        print(f"component {comp.index}: {len(comp.vertices)} vertices, "
              f"group {comp.classification}")
    return 3 if val is UNKNOWN else 0


def cmd_subgroup(args):
    bundle = _bundle(args)
    P = bundle.algebra
    if not 0 <= args.projection < P.size:
        raise PgsemiError(f"no projection {args.projection}")
    handle = ChainSemigroupHandle(P, budget=args.budget)
    pres, cls = handle.maximal_subgroup(args.projection)
    code = 3 if cls.kind == "unknown" else 0
    if args.format == "json":
        _emit(args, dumps(presentation_to_dict(pres, cls)))
        return code
    _emit(args, _lines([f"maximal subgroup at {P.label(args.projection)}:",
                        _group_text(pres, cls)]))
    return code


def _presentation_for(args, bundle, handle=None):
    if args.family == "tl":
        head, _, arg = (args.source or "").partition(":")
        if head != "tl" or not arg:
            raise PgsemiError("family tl needs --source tl:<n>")
        return tl_presentation(int(arg))
    if args.family == "RP":
        return presentation_RP(bundle.algebra)
    if handle is None:
        handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    return _FAMILIES[args.family](bundle.algebra, handle=handle)


def cmd_presentations(args):
    bundle = _bundle(args)
    pres = _presentation_for(args, bundle)
    if args.format == "json":
        _emit(args, dumps(pres.to_dict()))
    else:
        _emit(args, pres.render())
    return 0


def cmd_export(args):
    bundle, c, comps = _built_complex(args)
    if args.format == "dot":
        _emit(args, complex_to_dot(c, comps, labeler=bundle.algebra.label))
        if args.out:
            sidecar = args.out + ".cells.json"
            with open(sidecar, "w") as fh:
                fh.write(dumps([list(cell.boundary) for cell in c.cells]))
            print(f"wrote {sidecar}")
    print(f"{bundle.name} {args.which}: {c.n} vertices, "
          f"{len(c.edges)} edges, {len(c.cells)} cells")
    return 0


# -- verify suites --------------------------------------------------------

def _verify_kinyon(args, suite):
    bundle = parse_source("kinyon")
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    suite.check(handle.size() == 10, "size is 10")
    elems = handle.enumerate()
    projs = [c for c in elems if c.dom == c.cod and not c.word]
    idems = set(handle.idempotents())
    suite.check(len(projs) == 4, "4 projections")
    suite.check(len(idems) == 10 and set(elems) == idems,
                "all 10 elements are idempotent pairs")
    r, e = handle.projection_chain(2), handle.projection_chain(3)
    suite.check(handle.product(r, e) == handle.idempotent_chain(2, 1),
                "r (*) e = [[r, q]]")
    cells = handle.complex.cells
    suite.check(len(cells) == 1 and set(cells[0].boundary) == {0, 1, 2},
                "single triangle cell on {p, q, r}")


def _verify_band(args, suite):
    bundle = parse_source(f"band:{args.k}")
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    k = args.k
    want_rank = (k - 1) * (k - 2) // 2
    cls = handle.components[0].classification
    got_rank = {"trivial": 0, "free": cls.rank}.get(cls.kind)
    suite.check(got_rank == want_rank,
                f"component group free of rank {want_rank}")
    if k <= 2:
        suite.check(handle.size() == k * k, f"size is {k * k}")
    else:
        suite.check(handle.size() is INFINITE, "size is Infinite")


def _verify_tl(args, suite):
    bundle = parse_source(f"tl:{args.n}", allow_large=args.allow_large)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    for comp in handle.components:
        suite.check(comp.classification.kind == "trivial",
                    f"component {comp.index} trivial")
    S = bundle.semigroup
    expected = S.size
    suite.check(handle.size() == expected, f"size is {expected}")
    phi = handle.extend_morphism(S, bundle.embed)
    elems = handle.enumerate()
    images = np.array([phi(c) for c in elems], dtype=np.intp)
    suite.check(len(set(images.tolist())) == len(images) == expected,
                "identity extension is a bijection")
    # with every group trivial a chain is its (dom, cod): every product is
    # read off the batch in _chunks slices of rows and compared with one
    # S.mult gather (a nontrivial group has failed above, and the batch
    # refuses it)
    trivial = handle.trivial_at.all()
    n = bundle.algebra.size
    dom = np.array([c.dom for c in elems], dtype=np.intp)
    cod = np.array([c.cod for c in elems], dtype=np.intp)
    image_at = np.full((n, n), -1, dtype=np.intp)
    image_at[dom, cod] = images
    ok_prod = trivial and all(
        (_gather(image_at, *handle.product_batch(
            (dom[lo:hi, None], cod[lo:hi, None]), (dom, cod)))
         == _gather(S.mult, images[lo:hi, None], images)).all()
        for lo, hi in _chunks(len(elems), len(elems)))
    stars = [image_at[s.dom, s.cod] for s in map(handle.star, elems)]
    ok_star = trivial and (stars == S.star[images]).all()
    suite.check(ok_prod, "products preserved on all pairs")
    suite.check(ok_star, "star preserved")


def _verify_motzkin(args, suite):
    bundle = parse_source(f"motzkin:{args.n}", allow_large=args.allow_large)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    if args.n == 3:
        for comp in handle.components:
            suite.check(comp.classification.kind == "trivial",
                        f"component {comp.index} trivial")
        S = bundle.semigroup
        phi = handle.extend_morphism(S, bundle.embed)
        elems = handle.enumerate()
        images = [phi(c) for c in elems]
        suite.check(len(set(images)) == len(images),
                    "identity extension is injective")
        gen = subsemigroup_closure(S, S.idempotents())
        suite.check(sorted(set(images)) == gen,
                    "image is the idempotent-generated subsemigroup")
        return
    suite.check(handle.complex.n == 35, "35 vertices")  # --n 4 (choices 3, 4)
    suite.check(len(handle.comps) == 11, "11 components")
    twelve = [c for c in handle.components if len(c.vertices) == 12]
    suite.check(len(twelve) == 1, "a single 12-vertex component")
    if twelve:
        cls = twelve[0].classification
        suite.check(cls.abelian == (1, ()), "its abelianization is Z")
        suite.check(cls.kind == "free" and cls.rank == 1,
                    "it simplifies to free of rank 1")
    suite.check(handle.size() is INFINITE, "size is Infinite")


def _verify_boset(args, suite):
    bundle = _bundle(args)
    P = bundle.algebra
    handle = ChainSemigroupHandle(P, budget=args.budget)
    b = boset_of(P, handle=handle)
    S = bundle.semigroup
    matches = None if S is None else \
        compare_with_semigroup_boset(P, S, boset=b).ok
    del bundle, S                  # the table is not needed past this point
    back = projection_algebra_of_boset(b)
    suite.check(back == P, "projection algebra roundtrip is exact")
    star, table = b.star, b.table
    e, f = (table >= 0).nonzero()
    suite.check((star[star] == range(len(b))).all(), "star is involutory")
    suite.check((table[star[f], star[e]] == star[table[e, f]]).all(),
                "star maps basic pairs to basic pairs, (ef)* = f*e*")
    if matches is not None:
        suite.check(matches, "matches the semigroup boset")


def _verify_presentation(args, suite):
    bundle = _bundle(args)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    pres = _presentation_for(args, bundle, handle)
    report = verify_presentation(
        bundle.algebra, pres, args.mode, handle=handle, seed=args.seed,
        budget=args.budget)
    if report.inconclusive:
        raise BudgetExceeded(report.details.get("reason", "inconclusive"))
    suite.check(report.ok, f"{pres.name} {report.summary()}")


def cmd_verify(args):
    suite = _Suite()
    args.run(args, suite)
    return suite.finish()


# -- wiring ---------------------------------------------------------------

def count(text):
    """An integer of at least 0; argparse refuses a negative one."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _add_common(sp, source=True):
    if source:
        sp.add_argument("--source", help="algebra source spec")
    sp.add_argument("--allow-large", action="store_true",
                    help="lift the diagram degree guards")


def _add_budget(sp):
    sp.add_argument("--budget", type=count, default=BUDGET,
                    help="class/search budget")


def _add_out(sp):
    sp.add_argument("--out", help="write the artifact to this path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pgsemi",
        description="projection algebras and their chain semigroups")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("validate", help="axioms and derived laws")
    _add_common(sp)
    sp.add_argument("--max-chain", type=count, default=3)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("build", help="emit the algebra as JSON")
    _add_common(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("relations", help="orders and friendliness")
    _add_common(sp)
    _add_out(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("complex", help="cell structure summary")
    _add_common(sp)
    _add_out(sp)
    sp.add_argument("--which", choices=sorted(_COMPLEXES), default="KP'")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_complex)

    sp = sub.add_parser("pi1", help="fundamental groups per component")
    _add_common(sp)
    _add_budget(sp)
    _add_out(sp)
    sp.add_argument("--component", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_pi1)

    sp = sub.add_parser("enumerate", help="list the chain semigroup")
    _add_common(sp)
    _add_budget(sp)
    _add_out(sp)
    sp.add_argument("--cap", type=int, default=CAP)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("size", help="order of the chain semigroup")
    _add_common(sp)
    _add_budget(sp)
    sp.set_defaults(func=cmd_size)

    sp = sub.add_parser("subgroup", help="maximal subgroup at a projection")
    _add_common(sp)
    _add_budget(sp)
    _add_out(sp)
    sp.add_argument("--projection", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_subgroup)

    sp = sub.add_parser("presentations", help="emit a presentation")
    _add_common(sp)
    _add_budget(sp)
    _add_out(sp)
    sp.add_argument("--family", choices=("RP", "RE", "RE2", "tl"),
                    required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_presentations)

    suites = sub.add_parser("verify", help="named example suites") \
        .add_subparsers(dest="suite", required=True)

    def add_suite(name, run, about):
        sp = suites.add_parser(name, help=about)
        _add_budget(sp)
        sp.set_defaults(func=cmd_verify, run=run)
        return sp

    add_suite("kinyon", _verify_kinyon, "the 10-element example")
    sp = add_suite("band", _verify_band, "square bands")
    sp.add_argument("--k", type=int, required=True, help="side")
    sp = add_suite("tl", _verify_tl, "TL_n rebuilt from its projections")
    sp.add_argument("--n", type=int, required=True, help="degree")
    _add_common(sp, source=False)
    sp = add_suite("motzkin", _verify_motzkin, "the Motzkin embedding")
    sp.add_argument("--n", type=int, choices=(3, 4), required=True)
    _add_common(sp, source=False)
    _add_common(add_suite("boset", _verify_boset, "the boset roundtrip"))
    sp = add_suite("presentation", _verify_presentation, "RP, RE or RE2")
    _add_common(sp)
    sp.add_argument("--family", choices=("RP", "RE", "RE2", "tl"),
                    default="RP")
    sp.add_argument("--mode", choices=("soundness", "size", "normal-form"),
                    default="soundness")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("export", help="write a complex as DOT or JSON")
    _add_common(sp)
    _add_out(sp)
    sp.add_argument("--which", choices=sorted(_COMPLEXES), default="KP'")
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.set_defaults(func=cmd_export)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UndecidedEquality, BudgetExceeded, CapExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except PgsemiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
