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
import sys

from .boset import boset_of, compare_with_semigroup_boset, \
    projection_algebra_of_boset
from .catalog import parse_source
from .chainsemigroup import ChainSemigroupHandle, INFINITE, UNKNOWN
from .errors import BudgetExceeded, CapExceeded, PgsemiError, \
    UndecidedEquality
from .presentations import presentation_RE, presentation_RE2, \
    presentation_RP, tl_presentation, verify_presentation
from .projections import check_derived_laws, relations, validate_axioms
from .semigroups import subsemigroup_closure
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


def _bundle(args):
    if not getattr(args, "source", None):
        raise PgsemiError("this command needs --source")
    return parse_source(args.source, allow_large=args.allow_large)


def _lines(lines):
    """Text lines as one string, each line ended by a newline."""
    return "".join(line + "\n" for line in lines)


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


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
    bundle = _bundle(args)
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
    bundle = _bundle(args)
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


def _built_complex(args, bundle):
    P = bundle.algebra
    rel = relations(P)
    c = _COMPLEXES[args.which](P, rel)
    return c, components(c)


def cmd_complex(args):
    bundle = _bundle(args)
    c, comps = _built_complex(args, bundle)
    if args.format == "json":
        d = complex_to_dict(c)
        d["components"] = comps
        _emit(args, dumps(d))
        return 0
    lines = [f"{bundle.name} {args.which}: {c.n} vertices, "
             f"{len(c.edges)} edges, {len(c.cells)} cells, "
             f"{len(comps)} components"]
    for i, comp in enumerate(comps):
        cells = [cell.boundary for cell in c.cells
                 if cell.boundary[0] in comp]
        lines.append(f"component {i}: vertices {comp}, {len(cells)} cells")
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
    return 0


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


def _presentation_for(args, bundle):
    if args.family == "tl":
        head, _, arg = (args.source or "").partition(":")
        if head != "tl" or not arg:
            raise PgsemiError("family tl needs --source tl:<n>")
        return tl_presentation(int(arg))
    if args.family == "RP":
        return presentation_RP(bundle.algebra)
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
    bundle = _bundle(args)
    c, comps = _built_complex(args, bundle)
    P = bundle.algebra
    if args.format == "json":
        d = complex_to_dict(c)
        d["components"] = comps
        _emit(args, dumps(d))
    else:
        dot = complex_to_dot(c, comps, labeler=P.label)
        _emit(args, dot)
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
    if args.k is None:
        raise PgsemiError("verify band needs --k")
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
    if args.n is None:
        raise PgsemiError("verify tl needs --n")
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
    images = [phi(c) for c in elems]
    suite.check(len(set(images)) == len(images) == expected,
                "identity extension is a bijection")
    index = dict(zip(elems, images))
    ok_prod = all(
        index[handle.product(c, d)] == S.product(index[c], index[d])
        for c in elems for d in elems)
    ok_star = all(index[handle.star(c)] == S.star_of(index[c])
                  for c in elems)
    suite.check(ok_prod, "products preserved on all pairs")
    suite.check(ok_star, "star preserved")


def _verify_motzkin(args, suite):
    if args.n is None:
        raise PgsemiError("verify motzkin needs --n")
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
    if args.n == 4:
        suite.check(handle.complex.n == 35, "35 vertices")
        suite.check(len(handle.comps) == 11, "11 components")
        twelve = [c for c in handle.components if len(c.vertices) == 12]
        suite.check(len(twelve) == 1, "a single 12-vertex component")
        if twelve:
            cls = twelve[0].classification
            suite.check(cls.abelian == (1, ()),
                        "its abelianization is Z")
            suite.check(cls.kind == "free" and cls.rank == 1,
                        "it simplifies to free of rank 1")
        suite.check(handle.size() is INFINITE, "size is Infinite")
        return
    raise PgsemiError("verify motzkin supports --n 3 or 4")


def _verify_boset(args, suite):
    bundle = _bundle(args)
    P = bundle.algebra
    handle = ChainSemigroupHandle(P, budget=args.budget)
    b = boset_of(P, handle=handle)
    back = projection_algebra_of_boset(b)
    suite.check(back == P, "projection algebra roundtrip is exact")
    stars_ok = all(b.star_of(b.star_of(e)) == e for e in b.elements)
    sb2 = all(
        b.is_basic(b.star_of(f), b.star_of(e))
        and b.product(b.star_of(f), b.star_of(e)) == b.star_of(val)
        for (e, f), val in b.basic_items())
    suite.check(stars_ok, "star is involutory")
    suite.check(sb2, "star maps basic pairs to basic pairs, (ef)* = f*e*")
    if bundle.semigroup is not None:
        cmp = compare_with_semigroup_boset(P, bundle.semigroup, boset=b)
        suite.check(cmp.ok, "matches the semigroup boset")


def _verify_presentation(args, suite):
    bundle = _bundle(args)
    pres = _presentation_for(args, bundle)
    handle = ChainSemigroupHandle(bundle.algebra, budget=args.budget)
    report = verify_presentation(
        bundle.algebra, pres, args.mode, handle=handle, seed=args.seed,
        budget=args.budget)
    if report.inconclusive:
        raise BudgetExceeded(report.details.get("reason", "inconclusive"))
    suite.check(report.ok, f"{pres.name} {report.summary()}")


_SUITES = {
    "kinyon": _verify_kinyon,
    "band": _verify_band,
    "tl": _verify_tl,
    "motzkin": _verify_motzkin,
    "boset": _verify_boset,
    "presentation": _verify_presentation,
}


def cmd_verify(args):
    suite = _Suite()
    _SUITES[args.suite](args, suite)
    return suite.finish()


# -- wiring ---------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--source", help="algebra source spec")
    sp.add_argument("--allow-large", action="store_true",
                    help="lift the diagram degree guards")


def _add_budget(sp):
    sp.add_argument("--budget", type=int, default=50_000,
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
    sp.add_argument("--max-chain", type=int, default=3)
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
    sp.add_argument("--cap", type=int, default=100_000)
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

    sp = sub.add_parser("verify", help="named example suites")
    sp.add_argument("suite", choices=sorted(_SUITES))
    _add_common(sp)
    _add_budget(sp)
    sp.add_argument("--n", type=int, help="degree for tl/motzkin")
    sp.add_argument("--k", type=int, help="side for band")
    sp.add_argument("--family", choices=("RP", "RE", "RE2", "tl"),
                    default="RP")
    sp.add_argument("--mode", choices=("soundness", "size", "normal-form"),
                    default="soundness")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

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
