"""The DCP text format: a line-oriented description of colored posets.

Grammar (one declaration per line, ``#`` starts a comment):

    type vertex-poset | edge-lattice
    vertex NAME [color INT]
    edge NAME NAME [color INT]

Names match ``[A-Za-z0-9_.]+``.  A vertex-poset colors every vertex and no
edge; an edge-lattice colors every edge and no vertex.  ``emit`` writes the
canonical form (vertices in declaration order, edges sorted), so parsing an
emitted document reproduces the structure exactly whenever its labels fit
the name alphabet; labels that do not (products, duals) are rewritten
deterministically on output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import NotConnected, NotRanked, ParseError, ValidationError
from .paths import compute_rank
from .structures import EdgeColoredPoset, Structure, VertexColoredPoset

NAME_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
KINDS = ("vertex-poset", "edge-lattice")
# A vertex or edge line as ``emit`` writes it; every other line goes through the tokenizer.
CANONICAL_RE = re.compile(r"(?:vertex|edge ([A-Za-z0-9_.]+)) ([A-Za-z0-9_.]+)(?: color ([0-9]+))?\Z")


@dataclass
class DcpDocument:
    """Parsed declarations with their source lines, before semantic checks."""

    kind: str
    vertices: list[tuple[str, int | None, int]] = field(default_factory=list)
    edges: list[tuple[str, str, int | None, int]] = field(default_factory=list)


def _tokens(line: str) -> list[str]:
    """The space- or tab-separated tokens of a line."""
    parts = line.replace("\t", " ").split(" ")
    return [t for t in parts if t] if "" in parts else parts


def _col(line: str, k: int) -> int:
    """1-based column of token ``k`` of ``line``; worked out only to report an error."""
    return [m.start() + 1 for m in re.finditer(r"[^ \t]+", line)][k]


def parse_document(text: str) -> DcpDocument:
    doc: DcpDocument | None = None
    lines = text.splitlines()
    for lineno, (raw, m) in enumerate(zip(lines, map(CANONICAL_RE.match, lines)), start=1):
        if m and doc is not None:
            lower, name, color = m.groups()
            color = None if color is None else int(color)
            if lower is None:
                doc.vertices.append((name, color, lineno))
            else:
                doc.edges.append((lower, name, color, lineno))
            continue
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        toks = _tokens(line)
        word = toks[0]
        if doc is None:
            if word != "type":
                raise ParseError("expected 'type vertex-poset' or 'type edge-lattice'", lineno, _col(line, 0))
            if len(toks) != 2 or toks[1] not in KINDS:
                raise ParseError(f"unknown structure kind (expected one of {', '.join(KINDS)})",
                                 lineno, _col(line, 1 if len(toks) > 1 else 0))
            doc = DcpDocument(kind=toks[1])
            continue
        if word == "edge":
            if len(toks) not in (3, 5):
                raise ParseError("expected 'edge NAME NAME [color INT]'", lineno, _col(line, 0))
            a, b = toks[1], toks[2]
            if not (NAME_RE.match(a) and NAME_RE.match(b)):
                k = 2 if NAME_RE.match(a) else 1
                raise ParseError(f"invalid name {toks[k]!r}", lineno, _col(line, k))
            doc.edges.append((a, b, _color(toks, 3, line, lineno), lineno))
        elif word == "vertex":
            if len(toks) not in (2, 4):
                raise ParseError("expected 'vertex NAME [color INT]'", lineno, _col(line, 0))
            name = toks[1]
            if not NAME_RE.match(name):
                raise ParseError(f"invalid name {name!r}", lineno, _col(line, 1))
            doc.vertices.append((name, _color(toks, 2, line, lineno), lineno))
        elif word == "type":
            raise ParseError("duplicate 'type' declaration", lineno, _col(line, 0))
        else:
            raise ParseError(f"unknown declaration {word!r}", lineno, _col(line, 0))
    if doc is None:
        raise ParseError("empty document: missing 'type' line", 1)
    return doc


def _color(toks: list[str], k: int, line: str, lineno: int) -> int | None:
    """The value of an optional ``color INT`` clause at token ``k``, or None without one."""
    if len(toks) == k:
        return None
    if toks[k] != "color":
        raise ParseError("expected 'color'", lineno, _col(line, k))
    val = toks[k + 1]
    if not val.isdecimal():
        raise ParseError(f"color must be a non-negative integer, got {val!r}", lineno, _col(line, k + 1))
    return int(val)


def document_to_structure(doc: DcpDocument) -> Structure:
    """The structure a document declares; its covers, as ids, get the constructors' own checks last."""
    index: dict[str, int] = {}
    for name, _, line in doc.vertices:
        if name in index:
            raise ValidationError(f"duplicate vertex {name!r}", line)
        index[name] = len(index)
    vertices = tuple(index)
    try:
        covers = [(index[a], index[b], color) for a, b, color, _ in doc.edges]
    except KeyError:
        for a, b, _, line in doc.edges:
            for nm in (a, b):
                if nm not in index:
                    raise ValidationError(f"edge references undeclared vertex {nm!r}", line) from None
    if doc.kind == "vertex-poset":
        for name, color, line in doc.vertices:
            if color is None:
                raise ValidationError(f"vertex {name!r} needs a color in a vertex-poset", line)
        for a, b, color, line in doc.edges:
            if color is not None:
                raise ValidationError("edges are uncolored in a vertex-poset", line)
        structure = VertexColoredPoset.__new__(VertexColoredPoset)
        structure._init_checked(vertices, index, [(a, b) for a, b, _ in covers])
        structure.colors = {name: color for name, color, _ in doc.vertices}
        return structure
    for name, color, line in doc.vertices:
        if color is not None:
            raise ValidationError("vertices are uncolored in an edge-lattice", line)
    for a, b, color, line in doc.edges:
        if color is None:
            raise ValidationError(f"edge {a!r} -> {b!r} needs a color in an edge-lattice", line)
    structure = EdgeColoredPoset.__new__(EdgeColoredPoset)
    structure._init_checked(vertices, index, covers)
    return structure


def parse(text: str) -> Structure:
    """Parse DCP text into a validated structure."""
    return document_to_structure(parse_document(text))


def _safe_labels(structure: Structure) -> dict[str, str]:
    """Deterministic mapping of labels into the DCP name alphabet.

    Labels produced by the product and dual operations carry parentheses,
    commas, or stars; those are rewritten and collisions get numeric
    suffixes.  Labels already in the alphabet pass through unchanged.
    """
    mapping = {}
    used = set()
    for v in structure.vertices:
        if NAME_RE.match(v):
            cand = v
        else:
            cand = v.replace("(", "").replace(")", "").replace(",", ".").replace("*", ".d").replace(" ", "")
            cand = re.sub(r"[^A-Za-z0-9_.]", "_", cand) or "v"
        base = cand
        k = 2
        while cand in used:
            cand = f"{base}_{k}"
            k += 1
        used.add(cand)
        mapping[v] = cand
    return mapping


def _colored(structure: Structure) -> tuple[str, list, list]:
    """Kind, (name, color) per vertex and (lower, upper, color) per cover, in id order.

    Names are DCP-safe; the side a kind leaves uncolored has color None.
    """
    names = list(map(_safe_labels(structure).__getitem__, structure.vertices))
    if isinstance(structure, VertexColoredPoset):
        kind, vertex_color, edge_color = KINDS[0], structure.colors, {}
    else:
        kind, vertex_color, edge_color = KINDS[1], {}, structure._edge_color
    vertices = [(name, vertex_color.get(v)) for name, v in zip(names, structure.vertices)]
    covers = [(names[a], names[b], edge_color.get((a, b))) for a, b in sorted(structure._cover_pairs)]
    return kind, vertices, covers


def emit(structure: Structure) -> str:
    """Canonical DCP text: vertices in id order, edges sorted."""
    kind, vertices, covers = _colored(structure)
    lines = [f"type {kind}"]
    lines += [f"vertex {v}" if c is None else f"vertex {v} color {c}" for v, c in vertices]
    lines += [f"edge {a} {b}" if c is None else f"edge {a} {b} color {c}" for a, b, c in covers]
    return "\n".join(lines) + "\n"


def render_dot(structure: Structure) -> str:
    """Deterministic Graphviz digraph; rank levels are grouped when ranked."""
    _, vertices, covers = _colored(structure)
    lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=ellipse, fontsize=10];']
    lines += [f'  "{v}" [label="{v}"];' if c is None else f'  "{v}" [label="{v}:{c}"];' for v, c in vertices]
    try:
        ranks = compute_rank(structure)
    except (NotConnected, NotRanked):
        pass  # no rank groups without a rank function
    else:
        by_level: dict[int, list[str]] = {}
        for v, (name, _) in zip(structure.vertices, vertices):
            by_level.setdefault(ranks.rank[v], []).append(name)
        for level in sorted(by_level):
            row = "; ".join(f'"{name}"' for name in by_level[level])
            lines.append(f"  {{ rank=same; {row}; }}")
    lines += [f'  "{a}" -> "{b}";' if c is None else f'  "{a}" -> "{b}" [label="{c}"];' for a, b, c in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"
