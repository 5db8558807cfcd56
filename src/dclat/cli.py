"""Command-line surface: every library operation behind one subcommand.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails (witness on stdout), 2 for usage, parse,
or validation errors and for input over a size or enumeration cap
(diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import sys

from . import birkhoff, dcp, generators, lattice, paths, substructure
from .errors import DclatError, EnumerationCapExceeded, ParseError, SizeCapExceeded, ValidationError
from .structures import (
    EdgeColoredPoset,
    VertexColoredPoset,
    cartesian_product,
    disjoint_sum,
    dual,
    recolor,
)

# Which operations each subcommand reaches; every public operation appears
# exactly once (enforced by the test suite).
COMMAND_OPERATIONS = {
    "parse": ["dcp.parse", "dcp.emit"],
    "render": ["dcp.render_dot"],
    "gen": ["generators.generate", "generators.random_poset"],
    "check": [
        "paths.compute_rank",
        "paths.check_diamond_colored",
        "paths.check_topographically_balanced",
        "lattice.as_lattice",
        "lattice.is_modular",
        "lattice.is_distributive",
        "lattice.is_boolean",
        "LatticeView.join_all",
        "LatticeView.meet_all",
    ],
    "dist": [
        "paths.distance",
        "paths.distance_modular",
        "EdgeColoredPoset.leq",
    ],
    "birkhoff": [
        "birkhoff.build_J",
        "birkhoff.build_M",
        "birkhoff.extract_j",
        "birkhoff.extract_m",
    ],
    "components": [
        "substructure.j_components",
        "EdgeColoredPoset.descendants",
        "EdgeColoredPoset.ancestors",
    ],
    "subordinates": [
        "substructure.subordinate_of",
        "substructure.enumerate_subordinates",
    ],
    "transform": [
        "structures.dual",
        "structures.recolor",
        "structures.disjoint_sum",
        "structures.cartesian_product",
    ],
    "verify": [
        "isomorphism.find_isomorphism",
        "isomorphism.isomorphic",
        "birkhoff.verify_fundamental",
        "birkhoff.verify_fundamental_poset",
        "birkhoff.is_birkhoff_representable",
        "birkhoff.verify_transform_identities",
        "birkhoff.cover_color_profile",
        "birkhoff.principal_ideal",
        "birkhoff.descendant_interval_boolean",
        "birkhoff.ancestor_interval_boolean",
        "LatticeView.interval",
        "paths.rank_via_path",
        "paths.ascent_descent_counts",
        "paths.mountainize",
        "paths.valleyize",
        "paths.verify_path_colors",
        "substructure.check_sublattice",
        "substructure.verify_full_length_agreement",
        "substructure.weak_subposet",
        "substructure.sublattice_from_weak_subposet",
        "substructure.weak_subposet_from_sublattice",
        "substructure.verify_product_closure",
        "substructure.verify_component_structure",
        "substructure.subordinates_by_definition",
        "substructure.verify_subordinate_correspondence",
    ],
}

THEOREMS = ("ft", "cor7", "cor8", "prop1", "prop3", "prop10", "prop12", "prop13", "thm11", "subord")
PROPS = ("ranked", "diamond", "balanced", "lattice", "modular", "distributive", "boolean")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


_KIND_NAMES = {EdgeColoredPoset: "an edge-lattice", VertexColoredPoset: "a vertex-poset"}


def _load(path: str, kind: type | None = None):
    s = dcp.parse(_read(path))
    if kind is not None and not isinstance(s, kind):
        raise ValidationError(f"{path}: expected {_KIND_NAMES[kind]} document")
    return s


def _parse_sigma(text: str) -> dict[int, int]:
    sigma = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"bad recoloring entry {part!r}, expected OLD=NEW")
        old, new = part.split("=", 1)
        if not old.strip().isdecimal() or not new.strip().isdecimal():
            raise ValidationError(f"recoloring entries must be integers, got {part!r}")
        sigma[int(old)] = int(new)
    return sigma


def _parse_colors(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        if not part.strip().isdecimal():
            raise ValidationError(f"colors must be integers, got {part!r}")
        out.append(int(part))
    return out


def _cmd_parse(args) -> int:
    structure = _load(args.file)
    sys.stdout.write(dcp.emit(structure))
    return 0


def _cmd_render(args) -> int:
    structure = _load(args.file)
    if args.format != "dot":
        raise ValidationError(f"unknown render format {args.format!r}")
    sys.stdout.write(dcp.render_dot(structure))
    return 0


def _cmd_gen(args) -> int:
    spec = generators.GeneratorSpec(
        kind=args.kind,
        n=args.n,
        colors=tuple(_parse_colors(args.colors)) if args.colors else (1,),
        p=args.p,
        seed=args.seed,
    )
    sys.stdout.write(dcp.emit(generators.generate(spec)))
    return 0


def _cmd_check(args) -> int:
    structure = _load(args.file, EdgeColoredPoset)
    prop = args.prop
    if prop == "ranked":
        try:
            rf = paths.compute_rank(structure)
        except DclatError as e:
            print(f"not ranked: {e}")
            return 1
        print(f"ranked with length {rf.length}")
        return 0
    if prop == "diamond":
        res = paths.check_diamond_colored(structure)
        if not res.ok:
            print(f"diamond coloring fails at {res.witness}")
            return 1
        print("diamond-colored")
        return 0
    if prop == "balanced":
        res = paths.check_topographically_balanced(structure)
        if not res.ok:
            print(f"not topographically balanced: {res.witness}")
            return 1
        print("topographically balanced")
        return 0
    try:
        view = lattice.as_lattice(structure)
    except DclatError as e:
        print(f"not a lattice: {e}")
        return 1
    if prop == "lattice":
        print(f"lattice with minimum {view.minimum} and maximum {view.maximum}")
        # exercise the n-ary bounds as a self-check
        assert view.join_all(structure.vertices) == view.maximum
        assert view.meet_all(structure.vertices) == view.minimum
        return 0
    if prop == "modular":
        if not lattice.is_modular(view):
            bal = paths.check_topographically_balanced(structure)
            print(f"not modular; balance witness: {bal.witness}")
            return 1
        print("modular")
        return 0
    if prop == "distributive":
        if not lattice.is_distributive_fast(view) and not (res := lattice.is_distributive(view)).ok:
            print(f"not distributive: witness triple {res.witness}")
            return 1
        print("distributive")
        return 0
    if prop == "boolean":
        if not lattice.is_boolean(view):
            print("not a Boolean lattice")
            return 1
        print("Boolean lattice")
        return 0
    raise ValidationError(f"unknown property {prop!r}")


def _cmd_dist(args) -> int:
    structure = _load(args.file, EdgeColoredPoset)
    d = paths.distance(structure, getattr(args, "from"), args.to)
    comparable = structure.leq(getattr(args, "from"), args.to) or structure.leq(
        args.to, getattr(args, "from")
    )
    print(f"distance {d} ({'comparable' if comparable else 'incomparable'})")
    try:
        view = lattice.as_lattice(structure)
        dm = paths.distance_modular(view, getattr(args, "from"), args.to)
        print(f"rank formula {dm}")
        if dm != d:
            print("rank formula disagrees with the graph distance")
            return 1
    except DclatError:
        pass
    return 0


def _cmd_birkhoff(args) -> int:
    if args.op in ("J", "M"):
        poset = _load(args.file, VertexColoredPoset)
        build = birkhoff.build_J if args.op == "J" else birkhoff.build_M
        sys.stdout.write(dcp.emit(build(poset).lattice))
        return 0
    structure = _load(args.file, EdgeColoredPoset)
    extract = birkhoff.extract_j if args.op == "j" else birkhoff.extract_m
    sys.stdout.write(dcp.emit(extract(structure).poset))
    return 0


def _cmd_components(args) -> int:
    structure = _load(args.file, EdgeColoredPoset)
    colors = _parse_colors(args.colors)
    try:
        view = lattice.as_lattice(structure)
        decomp = substructure.j_components(view, colors)
    except DclatError as e:
        print(f"components unavailable: {e}")
        return 1
    for idx, comp in enumerate(decomp.components, start=1):
        print(
            f"component {idx}: size {len(comp.labels)}, minimum {comp.minimum}, "
            f"maximum {comp.maximum}: {' '.join(comp.labels)}"
        )
    return 0


def _cmd_subordinates(args) -> int:
    poset = _load(args.file, VertexColoredPoset)
    colors = _parse_colors(args.colors)
    subs = substructure.enumerate_subordinates(poset, colors)
    for idx, sub in enumerate(subs, start=1):
        members = " ".join(sorted(sub.vertex_set, key=poset.index_of)) or "(empty)"
        witness = " ".join(sorted(sub.witness_ideal, key=poset.index_of)) or "(empty)"
        print(f"subordinate {idx}: {{{members}}} with witness ideal {{{witness}}}")
    return 0


def _cmd_transform(args) -> int:
    structure = _load(args.file)
    op = args.op
    if op == "dual":
        out = dual(structure)
    elif op.startswith("recolor:"):
        out = recolor(structure, _parse_sigma(op.split(":", 1)[1]))
    elif op.startswith("product:"):
        other = _load(op.split(":", 1)[1], EdgeColoredPoset)
        if not isinstance(structure, EdgeColoredPoset):
            raise ValidationError("product requires edge-lattice inputs")
        out = cartesian_product(structure, other)
    elif op.startswith("sum:"):
        other = _load(op.split(":", 1)[1])
        out = disjoint_sum(structure, other)
    else:
        raise ValidationError(f"unknown transform {op!r}")
    sys.stdout.write(dcp.emit(out))
    return 0


def _report_exit(report) -> int:
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    theorem = args.theorem
    if theorem == "ft":
        structure = _load(args.file)
        if isinstance(structure, VertexColoredPoset):
            return _report_exit(birkhoff.verify_fundamental_poset(structure))
        return _report_exit(birkhoff.verify_fundamental(structure))
    if theorem == "cor7":
        structure = _load(args.file, EdgeColoredPoset)
        ok, witness = birkhoff.is_birkhoff_representable(structure)
        if ok:
            print("diamond-colored: representable; witness poset follows")
            sys.stdout.write(dcp.emit(witness))
            return 0
        print("not diamond-colored: not representable")
        return 1
    if theorem == "cor8":
        P = _load(args.file, VertexColoredPoset)
        Q = _load(getattr(args, "with"), VertexColoredPoset) if getattr(args, "with") else P
        used = sorted(P.colors_used | Q.colors_used)
        sigma = _parse_sigma(args.sigma) if args.sigma else {c: c for c in used}
        return _report_exit(birkhoff.verify_transform_identities(P, Q, sigma))
    if theorem == "prop1":
        structure = _load(args.file, EdgeColoredPoset)
        return _report_exit(_verify_distance_laws(structure, args.seed))
    if theorem == "prop3":
        structure = _load(args.file, EdgeColoredPoset)
        view = lattice.as_lattice(structure)
        reports = paths.verify_path_colors_all(view)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} paths {r.s} -> {r.t}: {r.path_count} paths, colors {list(r.color_multiset)}")
        return 0 if all(r.passed for r in reports) else 1
    if theorem == "prop10":
        left = _load(args.file, EdgeColoredPoset)
        right = _load(getattr(args, "with"), EdgeColoredPoset) if getattr(args, "with") else left
        pv = substructure.ProductView([left, right])
        return _report_exit(substructure.verify_product_closure([left, right], pv.poset.vertices))
    if theorem == "prop12":
        structure = _load(args.file, EdgeColoredPoset)
        return _report_exit(_verify_interval_booleans(structure))
    if theorem == "prop13":
        structure = _load(args.file, EdgeColoredPoset)
        return _report_exit(substructure.verify_component_structure(structure))
    if theorem == "thm11":
        P = _load(args.file, VertexColoredPoset)
        Q = _load(getattr(args, "with"), VertexColoredPoset) if getattr(args, "with") else P
        emb = substructure.sublattice_from_weak_subposet(P, Q)
        report = substructure.verify_full_length_agreement(emb.embedding)
        recovery = substructure.weak_subposet_from_sublattice(
            emb.embedding.parent_view, emb.embedding.sub_view
        )
        for r in (report, recovery.report):
            for line in r.lines():
                print(line)
        return 0 if report.passed and recovery.report.passed else 1
    if theorem == "subord":
        P = _load(args.file, VertexColoredPoset)
        palette = sorted(P.colors_used)
        ok = True
        for mask in range(1 << len(palette)):
            J = [palette[i] for i in range(len(palette)) if (mask >> i) & 1]
            report = substructure.verify_subordinate_correspondence(P, J)
            for line in report.lines():
                print(line)
            ok = ok and report.passed
        return 0 if ok else 1
    raise ValidationError(f"unknown theorem {theorem!r}")


def _rank_identity_holds(view) -> bool:
    """2r(x v y) - r(x) - r(y) = r(x) + r(y) - 2r(x ^ y) for all pairs; NotRanked if unranked."""
    rank = view.rank_function.rank
    verts = view.poset.vertices
    return all(
        2 * rank[view.join(x, y)] - rank[x] - rank[y] == rank[x] + rank[y] - 2 * rank[view.meet(x, y)]
        for i, x in enumerate(verts)
        for y in verts[i + 1 :]
    )


def _verify_distance_laws(structure: EdgeColoredPoset, seed: int | None):
    """Balance, the rank identity, graph distances, and path rewriting."""
    import random

    from .report import Report

    report = Report("distance and balance laws")
    balanced = paths.check_topographically_balanced(structure).ok
    try:
        view = lattice.as_lattice(structure)
        modular = _rank_identity_holds(view)
    except DclatError:
        view = None
        modular = False
    report.record("balance agrees with the modular rank identity", balanced == modular)
    if not modular or view is None:
        return report
    rank = view.rank_function.rank
    length = view.length
    verts = structure.vertices
    ok_dist = True
    ok_bound = True
    for i, s in enumerate(verts):
        dist = paths._bfs(structure, i, range(i, len(verts)))
        for j in range(i, len(verts)):
            if dist[j] != paths.distance_modular(view, s, verts[j]):
                ok_dist = False
            if dist[j] > length:
                ok_bound = False
    report.record("rank formula equals graph distance on all pairs", ok_dist)
    report.record("distances never exceed the length", ok_bound)
    report.record(
        "bottom-to-top distance equals the length",
        paths.distance(structure, view.minimum, view.maximum) == length,
    )
    rng = random.Random(seed if seed is not None else 0)
    samples = min(20, len(verts) * 2)
    ok_rewrite = True
    for _ in range(samples):
        s = rng.choice(verts)
        t = rng.choice(verts)
        walk = _random_shortest_path(structure, s, t, rng)
        mt = paths.mountainize(view, walk)
        vl = paths.valleyize(view, walk)
        if mt.length != walk.length or mt.apex() != view.join(s, t):
            ok_rewrite = False
        if vl.length != walk.length or vl.nadir() != view.meet(s, t):
            ok_rewrite = False
        counts = paths.ascent_descent_counts(walk)
        if sum(a + d for a, d in counts.values()) != walk.length:
            ok_rewrite = False
        if paths.rank_via_path(structure, walk) != rank[walk.end]:
            ok_rewrite = False
    report.record("shortest paths rewrite to extremal mountain and valley paths", ok_rewrite)
    return report


def _random_shortest_path(structure: EdgeColoredPoset, s: str, t: str, rng) -> paths.Path:
    # the BFS from t completes s's level, so every vertex closer to t is labelled
    v, index = structure.vertices, structure.index_of
    dist = paths._bfs(structure, index(t), (index(s),))
    seq = [s]
    cur = index(s)
    while dist[cur]:
        nbrs = [v[w] for adj in (structure._up_adj[cur], structure._down_adj[cur]) for w in adj
                if dist.get(w) == dist[cur] - 1]
        seq.append(rng.choice(sorted(nbrs)))
        cur = index(seq[-1])
    return paths.Path.from_vertices(structure, seq)


def _verify_interval_booleans(structure: EdgeColoredPoset):
    """Exhaustive small descendant/ancestor interval checks."""
    from itertools import combinations

    from .report import Report

    report = Report("descendant and ancestor intervals are Boolean at the bounds")
    view = lattice.as_lattice(structure)
    ok = True
    for t in structure.vertices:
        desc = structure.descendants(t)
        for size in (1, 2, 3):
            for D in combinations(desc, size):
                res = birkhoff.descendant_interval_boolean(view, t, list(D))
                if not res.verdict:
                    ok = False
        anc = structure.ancestors(t)
        for size in (1, 2, 3):
            for A in combinations(anc, size):
                res = birkhoff.ancestor_interval_boolean(view, t, list(A))
                if not res.verdict:
                    ok = False
    report.record("every interval at the computed bound matches and is Boolean", ok)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dclat",
        description="Construct, verify, and transform diamond-colored modular and distributive lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a DCP file and print its canonical form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check", help="check a property of an edge-lattice")
    p.add_argument("file")
    p.add_argument("--prop", required=True, choices=PROPS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("birkhoff", help="ideal/filter lattices and irreducible posets")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=("J", "j", "M", "m"))
    p.set_defaults(func=_cmd_birkhoff)

    p = sub.add_parser("verify", help="run a verification suite on the input")
    p.add_argument("file")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--with", dest="with", default=None, help="second input file where applicable")
    p.add_argument("--sigma", default=None, help="recoloring map OLD=NEW[,OLD=NEW]*")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("components", help="split an edge-lattice along a color subset")
    p.add_argument("file")
    p.add_argument("--colors", required=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("subordinates", help="enumerate subordinates of a vertex-poset")
    p.add_argument("file")
    p.add_argument("--colors", required=True)
    p.set_defaults(func=_cmd_subordinates)

    p = sub.add_parser("transform", help="dual | recolor:MAP | product:FILE | sum:FILE")
    p.add_argument("file")
    p.add_argument("--op", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("dist", help="distance between two vertices")
    p.add_argument("file")
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("gen", help="generate an instance as DCP text")
    p.add_argument("--kind", required=True, choices=("chain", "antichain", "boolean", "random"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--colors", default=None)
    p.add_argument("-p", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="render a structure")
    p.add_argument("file")
    p.add_argument("--format", default="dot")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError, SizeCapExceeded, EnumerationCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DclatError as e:
        print(f"property failure: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
