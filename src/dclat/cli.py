"""Command-line surface: every library operation behind one subcommand.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails (witness on stdout), 2 for usage, parse,
or validation errors and for input over a size or enumeration cap
(diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from typing import NamedTuple

from . import birkhoff, dcp, generators, lattice, paths, substructure
from .errors import (
    DclatError,
    EnumerationCapExceeded,
    InvalidSpec,
    MissingColorMapping,
    ParseError,
    SizeCapExceeded,
    UnknownVertex,
    ValidationError,
)
from .structures import (
    EdgeColoredPoset,
    ProductView,
    VertexColoredPoset,
    cartesian_product,
    disjoint_sum,
    dual,
    recolor,
)

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


def _ranked(S) -> tuple[bool, str]:
    try:
        return True, f"ranked with length {paths.compute_rank(S).length}"
    except DclatError as e:
        return False, f"not ranked: {e}"


def _said(res: paths.CheckResult, holds: str, fails: str) -> tuple[bool, str]:
    """``res``'s verdict, with the line ``holds``, or else ``fails`` followed by the witness."""
    return res.ok, holds if res.ok else f"{fails}{res.witness}"


# property -> (whether the test takes the lattice view, which as_lattice gives
# first, in place of FILE, and the test, which returns (holds, line printed))
CHECKS = {
    "ranked": (False, _ranked),
    "diamond": (False, lambda S: _said(paths.check_diamond_colored(S), "diamond-colored",
                                       "diamond coloring fails at ")),
    "balanced": (False, lambda S: _said(paths.check_topographically_balanced(S), "topographically balanced",
                                        "not topographically balanced: ")),
    "lattice": (True, lambda L: (True, f"lattice with minimum {L.minimum} and maximum {L.maximum}")),
    "modular": (True, lambda L: (True, "modular") if lattice.is_modular(L) else (
        False, f"not modular; balance witness: {paths.check_topographically_balanced(L.poset).witness}")),
    "distributive": (True, lambda L: _said(lattice.is_distributive(L), "distributive",
                                            "not distributive: witness triple ")),
    "boolean": (True, lambda L: (True, "Boolean lattice") if lattice.is_boolean(L) else (
        False, "not a Boolean lattice")),
}


def _cmd_check(args) -> int:
    on_view, test = CHECKS[args.prop]
    subject = _load(args.file, EdgeColoredPoset)
    if on_view:
        try:
            subject = lattice.as_lattice(subject)
        except DclatError as e:
            print(f"not a lattice: {e}")
            return 1
    holds, line = test(subject)
    print(line)
    return 0 if holds else 1


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


class _Text(NamedTuple):
    """Preformatted output that a suite yields in place of a Report."""
    text: tuple[str, ...]
    passed: bool

    def lines(self) -> tuple[str, ...]:
        return self.text


def _cor7(L, _, __):
    """Corollary 7, with the witness poset printed as DCP text."""
    ok, witness = birkhoff.is_birkhoff_representable(L)
    if not ok:
        return [_Text(("not diamond-colored: not representable",), False)]
    return [_Text(("diamond-colored: representable; witness poset follows", dcp.emit(witness)[:-1]), True)]


# theorem -> (kind of FILE, kind of --with or None where it is not read, the
# other options it reads, suite); a suite takes (FILE, --with or else FILE,
# args) and yields Reports
VERIFY = {
    "ft": (None, None, (), lambda S, _, __: [
        birkhoff.verify_fundamental_poset(S) if isinstance(S, VertexColoredPoset)
        else birkhoff.verify_fundamental(S)
    ]),
    "cor7": (EdgeColoredPoset, None, (), _cor7),
    "cor8": (VertexColoredPoset, VertexColoredPoset, ("sigma",), lambda P, Q, args: [
        birkhoff.verify_transform_identities(
            P, Q, _parse_sigma(args.sigma) if args.sigma else {c: c for c in sorted(P.colors_used | Q.colors_used)}
        )
    ]),
    "prop1": (EdgeColoredPoset, None, ("seed",), lambda L, _, args: [lattice.verify_distance_laws(L, args.seed)]),
    "prop3": (EdgeColoredPoset, None, (), lambda L, _, __: paths.verify_path_colors_all(lattice.as_lattice(L))),
    "prop10": (EdgeColoredPoset, EdgeColoredPoset, (), lambda L, K, _: [
        substructure.verify_product_closure([L, K], map(ProductView.label_of, product(L.vertices, K.vertices)))
    ]),
    "prop12": (EdgeColoredPoset, None, (), lambda L, _, __: [birkhoff.verify_interval_booleans(L)]),
    "prop13": (EdgeColoredPoset, None, (), lambda L, _, __: [substructure.verify_component_structure(L)]),
    "thm11": (VertexColoredPoset, VertexColoredPoset, (), lambda P, Q, _: substructure.verify_weakening(P, Q)),
    "subord": (VertexColoredPoset, None, (), lambda P, _, __: (
        substructure.verify_subordinate_correspondence(P, J)
        for J in substructure.color_subsets(P.colors_used)
    )),
}


def _cmd_verify(args) -> int:
    kind, with_kind, options, suite = VERIFY[args.theorem]
    reads = options + (("with",) if with_kind else ())
    if unread := [o for o in ("with", "sigma", "seed") if o not in reads and getattr(args, o) is not None]:
        raise ValidationError(f"--{unread[0]} is not read by --theorem {args.theorem}")
    first = _load(args.file, kind)
    second = _load(getattr(args, "with"), with_kind) if with_kind and getattr(args, "with") else first
    passed = True
    for report in suite(first, second, args):
        for line in report.lines():
            print(line)
        passed = passed and report.passed
    return 0 if passed else 1


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
    p.add_argument("--prop", required=True, choices=CHECKS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("birkhoff", help="ideal/filter lattices and irreducible posets")
    p.add_argument("file")
    p.add_argument("--op", required=True, choices=("J", "j", "M", "m"))
    p.set_defaults(func=_cmd_birkhoff)

    p = sub.add_parser("verify", help="run a verification suite on the input")
    p.add_argument("file")
    p.add_argument("--theorem", required=True, choices=VERIFY)
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
    except (ParseError, ValidationError, UnknownVertex, InvalidSpec, MissingColorMapping,
            SizeCapExceeded, EnumerationCapExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DclatError as e:
        print(f"property failure: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
