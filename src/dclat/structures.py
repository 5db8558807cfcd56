"""Finite vertex- and edge-colored posets presented by their Hasse diagrams.

A structure is built from an ordered list of vertex labels plus a set of
cover edges.  Constructors reject inputs whose edge set is not the
transitive reduction of an acyclic relation: surfacing modeling errors
beats silent repair.  Vertices receive dense integer ids in declaration
order; reachability is kept as bitsets over a topological relabeling so
order queries are single mask operations.

All values are immutable after construction and every operation here is
pure, so structures can be shared freely across threads.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import MissingColorMapping, UnknownVertex, ValidationError

Color = int


def _bits(mask: int):
    """Yield the positions of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _HasseCore:
    """Validation and reachability machinery shared by both poset kinds.

    Internal bitsets are indexed by *topological position*; ``_pos`` maps a
    vertex id to its position and ``_at`` inverts that.  The lowest set bit
    of an up-set intersection is therefore always a minimal element, which
    lattice computations rely on.
    """

    vertices: tuple[str, ...]

    def _init_core(self, vertices: Sequence[str], pairs: Iterable[tuple[int, int]]):
        self.vertices = tuple(vertices)
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise ValidationError(f"vertex label must be a non-empty string, got {v!r}")
        self._index = {}
        for i, v in enumerate(self.vertices):
            if v in self._index:
                raise ValidationError(f"duplicate vertex label {v!r}")
            self._index[v] = i
        n = len(self.vertices)
        up_adj = [[] for _ in range(n)]
        down_adj = [[] for _ in range(n)]
        seen_pairs = set()
        for a, b in pairs:
            if a == b:
                raise ValidationError(f"loop edge on {self.vertices[a]!r}")
            if (a, b) in seen_pairs:
                raise ValidationError(
                    f"duplicate cover {self.vertices[a]!r} -> {self.vertices[b]!r}"
                )
            seen_pairs.add((a, b))
            up_adj[a].append(b)
            down_adj[b].append(a)
        for adj in (up_adj, down_adj):
            for lst in adj:
                lst.sort()
        self._up_adj = up_adj
        self._down_adj = down_adj

        # Kahn topological sort; leftovers mean a cycle.
        indeg = [len(down_adj[i]) for i in range(n)]
        queue = [i for i in range(n) if indeg[i] == 0]
        topo = []
        while queue:
            nxt = []
            for i in queue:
                topo.append(i)
                for j in up_adj[i]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        nxt.append(j)
            queue = nxt
        if len(topo) != n:
            raise ValidationError("cover relation contains a cycle")
        self._at = topo
        pos = [0] * n
        for p, i in enumerate(topo):
            pos[i] = p
        self._pos = pos

        up = [0] * n
        down = [0] * n
        for i in reversed(topo):
            m = 1 << pos[i]
            for j in up_adj[i]:
                m |= up[j]
            up[i] = m
        for i in topo:
            m = 1 << pos[i]
            for j in down_adj[i]:
                m |= down[j]
            down[i] = m
        self._up = up
        self._down = down

        # Transitive reduction: a cover must have nothing strictly between.
        for a, b in seen_pairs:
            between = up[a] & down[b]
            if between != (1 << pos[a]) | (1 << pos[b]):
                raise ValidationError(
                    f"cover {self.vertices[a]!r} -> {self.vertices[b]!r} is implied "
                    "by a longer chain (edge set is not transitively reduced)"
                )
        self._cover_pairs = frozenset(seen_pairs)

    # -- vertex lookup ------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    # -- order queries -------------------------------------------------

    def leq(self, x: str, y: str) -> bool:
        """True iff x <= y in the reflexive-transitive closure of the covers."""
        ix, iy = self.index_of(x), self.index_of(y)
        return bool(self._down[iy] >> self._pos[ix] & 1)

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def has_cover(self, x: str, y: str) -> bool:
        return (self.index_of(x), self.index_of(y)) in self._cover_pairs

    def descendants(self, x: str) -> tuple[str, ...]:
        """Vertices covered by x (immediate lower neighbours), in id order."""
        return tuple(self.vertices[j] for j in self._down_adj[self.index_of(x)])

    def ancestors(self, x: str) -> tuple[str, ...]:
        """Vertices covering x (immediate upper neighbours), in id order."""
        return tuple(self.vertices[j] for j in self._up_adj[self.index_of(x)])

    def down_set(self, x: str) -> frozenset[str]:
        """All w with w <= x."""
        return frozenset(self.vertices[self._at[p]] for p in _bits(self._down[self.index_of(x)]))

    def up_set(self, x: str) -> frozenset[str]:
        """All w with x <= w."""
        return frozenset(self.vertices[self._at[p]] for p in _bits(self._up[self.index_of(x)]))

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.vertices) if not self._down_adj[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.vertices) if not self._up_adj[i])

    # -- connectivity ----------------------------------------------------

    def _cover_masks(self) -> tuple[list[int], list[int]]:
        """Per vertex id, the masks over vertex ids of its lower and of its upper covers."""
        return (
            [sum(1 << j for j in adj) for adj in self._down_adj],
            [sum(1 << j for j in adj) for adj in self._up_adj],
        )

    def _induced_ids(self, labels: Iterable[str]) -> tuple[list[int], list[tuple[int, int]]]:
        """Sorted ids of ``labels`` and the id pairs that are covers in the induced order."""
        ids = sorted(self.index_of(v) for v in set(labels))
        sub_mask = 0
        for i in ids:
            sub_mask |= 1 << self._pos[i]
        pairs = []
        for a in ids:
            for b in ids:
                if a == b or not (self._down[b] >> self._pos[a] & 1):
                    continue
                between = self._up[a] & self._down[b] & sub_mask
                if between == (1 << self._pos[a]) | (1 << self._pos[b]):
                    pairs.append((a, b))
        return ids, pairs

    def induced_cover_pairs(self, labels: Iterable[str]) -> list[tuple[str, str]]:
        """Cover pairs of the subposet on ``labels`` in the induced order.

        Unlike ``induced`` on edge-colored posets, a returned cover need not
        be an edge of the parent.
        """
        _, pairs = self._induced_ids(labels)
        return [(self.vertices[a], self.vertices[b]) for a, b in pairs]

    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Components of the underlying undirected Hasse graph, by min id."""
        n = len(self.vertices)
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in self._up_adj[i] + self._down_adj[i]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            out.append(tuple(self.vertices[i] for i in sorted(comp)))
        return tuple(out)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- operations shared by both kinds -----------------------------------
    # Each kind's ``_mapped(label, color=None, flip=False)`` returns its
    # constructor arguments with every label v replaced by ``label[v]``, every
    # color c by ``color[c]`` unless ``color`` is None, and each cover
    # reversed when ``flip`` is set; its ``_key()`` returns what equality
    # compares.

    def relabel(self, mapping: Mapping[str, str]) -> "Structure":
        return type(self)(*self._mapped(mapping))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((self.vertices, self.covers))

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} vertices, {len(self.covers)} covers)"


class VertexColoredPoset(_HasseCore):
    """Poset with a color attached to every vertex."""

    def __init__(
        self,
        vertices: Sequence[str],
        covers: Iterable[tuple[str, str]],
        colors: Mapping[str, Color],
    ):
        cover_list = [tuple(c) for c in covers]
        for c in cover_list:
            if len(c) != 2:
                raise ValidationError(f"vertex-colored cover must be a pair, got {c!r}")
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        pairs = []
        for a, b in cover_list:
            if a not in index:
                raise UnknownVertex(f"cover references undeclared vertex {a!r}")
            if b not in index:
                raise UnknownVertex(f"cover references undeclared vertex {b!r}")
            pairs.append((index[a], index[b]))
        self._init_core(vertices, pairs)
        col = {}
        for v in vertices:
            if v not in colors:
                raise ValidationError(f"vertex {v!r} has no color")
            c = colors[v]
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"color of {v!r} must be a non-negative integer")
            col[v] = c
        self.colors = col
        self.covers = frozenset((a, b) for a, b in cover_list)

    def color_of(self, v: str) -> Color:
        self.index_of(v)
        return self.colors[v]

    @property
    def colors_used(self) -> frozenset[Color]:
        return frozenset(self.colors.values())

    def induced(self, labels: Iterable[str]) -> "VertexColoredPoset":
        """Subposet on the given vertices in the induced order."""
        ids, pairs = self._induced_ids(labels)
        keep = [self.vertices[i] for i in ids]
        covers = [(self.vertices[a], self.vertices[b]) for a, b in pairs]
        return VertexColoredPoset(keep, covers, {v: self.colors[v] for v in keep})

    def _mapped(self, label, color=None, flip=False):
        covers = [(label[a], label[b]) for a, b in self.covers]
        return (
            [label[v] for v in self.vertices],
            [(b, a) for a, b in covers] if flip else covers,
            {label[v]: c if color is None else color[c] for v, c in self.colors.items()},
        )

    def _key(self):
        return self.vertices, self.covers, self.colors


class EdgeColoredPoset(_HasseCore):
    """Poset with a color attached to every cover edge."""

    def __init__(self, vertices: Sequence[str], covers: Iterable[tuple[str, str, Color]]):
        cover_list = [tuple(c) for c in covers]
        for c in cover_list:
            if len(c) != 3:
                raise ValidationError(f"edge-colored cover must be a (lower, upper, color) triple, got {c!r}")
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        pairs = []
        for a, b, c in cover_list:
            if a not in index:
                raise UnknownVertex(f"cover references undeclared vertex {a!r}")
            if b not in index:
                raise UnknownVertex(f"cover references undeclared vertex {b!r}")
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"color of edge {a!r} -> {b!r} must be a non-negative integer")
            pairs.append((index[a], index[b]))
        self._init_core(vertices, pairs)
        self._edge_color = {}
        for a, b, c in cover_list:
            self._edge_color[(index[a], index[b])] = c
        self.covers = frozenset((a, b, c) for a, b, c in cover_list)
        up_steps = [[] for _ in vertices]
        down_steps = [[] for _ in vertices]
        for (ia, ib), c in self._edge_color.items():
            up_steps[ia].append((ib, c))
            down_steps[ib].append((ia, c))
        self._up_steps = [tuple(sorted(s)) for s in up_steps]
        self._down_steps = [tuple(sorted(s)) for s in down_steps]

    def edge_color(self, x: str, y: str) -> Color:
        key = (self.index_of(x), self.index_of(y))
        try:
            return self._edge_color[key]
        except KeyError:
            raise ValidationError(f"no cover edge {x!r} -> {y!r}") from None

    def up_steps(self, x: str) -> tuple[tuple[str, Color], ...]:
        """(upper neighbour, edge color) pairs for ascending steps from x."""
        return tuple((self.vertices[j], c) for j, c in self._up_steps[self.index_of(x)])

    def down_steps(self, x: str) -> tuple[tuple[str, Color], ...]:
        return tuple((self.vertices[j], c) for j, c in self._down_steps[self.index_of(x)])

    @property
    def colors_used(self) -> frozenset[Color]:
        return frozenset(self._edge_color.values())

    def edges_of_color(self, color: Color) -> tuple[tuple[str, str], ...]:
        return tuple(
            sorted(
                (self.vertices[a], self.vertices[b])
                for (a, b), c in self._edge_color.items()
                if c == color
            )
        )

    def induced(self, labels: Iterable[str]) -> "EdgeColoredPoset":
        """Subposet on the given vertices in the induced order.

        Every induced cover must already be an edge of the parent (otherwise
        it would have no color); violations raise ValidationError.
        """
        ids, pairs = self._induced_ids(labels)
        covers = []
        for a, b in pairs:
            if (a, b) not in self._edge_color:
                raise ValidationError(
                    f"induced cover {self.vertices[a]!r} -> {self.vertices[b]!r} "
                    "is not an edge of the parent, so it has no color"
                )
            covers.append((self.vertices[a], self.vertices[b], self._edge_color[(a, b)]))
        return EdgeColoredPoset([self.vertices[i] for i in ids], covers)

    def _mapped(self, label, color=None, flip=False):
        covers = [(label[a], label[b], c if color is None else color[c]) for a, b, c in self.covers]
        return (
            [label[v] for v in self.vertices],
            [(b, a, c) for a, b, c in covers] if flip else covers,
        )

    def _key(self):
        return self.vertices, self.covers


Structure = VertexColoredPoset | EdgeColoredPoset


def reduce_relation(
    vertices: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> list[tuple[str, str]]:
    """Cover pairs of the partial order generated by an acyclic relation.

    Takes arbitrary relation pairs, closes them transitively, and returns
    the transitive reduction; raises ValidationError on a cycle.
    """
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj = [set() for _ in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            raise UnknownVertex(f"relation references undeclared vertex in ({a!r}, {b!r})")
        if a != b:
            adj[index[a]].add(index[b])
    indeg = [0] * n
    for i in range(n):
        for j in adj[i]:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) != n:
        raise ValidationError("relation contains a cycle")
    # i covers j iff j is in i's strict reach but in no other element's
    # strict reach within it; i's successors' strict reaches cover those
    reach = [0] * n
    cover_mask = [0] * n
    for i in reversed(topo):
        strict = beyond = 0
        for j in adj[i]:
            strict |= reach[j] | 1 << j
            beyond |= reach[j]
        reach[i] = strict
        cover_mask[i] = strict & ~beyond
    return [(vertices[i], vertices[j]) for i in range(n) for j in _bits(cover_mask[i])]


def _star(label: str) -> str:
    # Starring is an involution so dual(dual(p)) restores the original labels.
    return label[:-1] if label.endswith("*") else label + "*"


def dual(p: Structure) -> Structure:
    """Order-reverse p; every edge s -> t of color i becomes t* -> s* of color i."""
    return type(p)(*p._mapped({v: _star(v) for v in p.vertices}, flip=True))


def recolor(p: Structure, sigma: Mapping[Color, Color]) -> Structure:
    """Apply a color map to every edge (or vertex) color of p."""
    missing = sorted(p.colors_used - set(sigma))
    if missing:
        raise MissingColorMapping(f"recoloring undefined on colors {missing}")
    for c in p.colors_used:
        t = sigma[c]
        if not isinstance(t, int) or t < 0:
            raise ValidationError(f"recoloring must map to non-negative integers, got {t!r}")
    return type(p)(*p._mapped(dict(zip(p.vertices, p.vertices)), sigma))


def disjoint_sum(a: Structure, b: Structure) -> Structure:
    """Disjoint union, with labels prefixed "L." / "R." to keep the sum total."""
    if type(a) is not type(b):
        raise ValidationError("disjoint_sum requires two structures of the same kind")
    left = a._mapped({v: "L." + v for v in a.vertices})
    right = b._mapped({v: "R." + v for v in b.vertices})
    # vertices and covers are lists; the vertex colors of a vertex poset are a dict
    return type(a)(*(x | y if isinstance(x, dict) else x + y for x, y in zip(left, right)))


def cartesian_product(a: EdgeColoredPoset, b: EdgeColoredPoset) -> EdgeColoredPoset:
    """Componentwise-order product; one coordinate steps along an edge, the other is fixed."""
    if not isinstance(a, EdgeColoredPoset) or not isinstance(b, EdgeColoredPoset):
        raise ValidationError("cartesian_product is defined for edge-colored posets")
    return ProductView([a, b]).poset


class ProductView:
    """An n-ary product with flat tuple labels and coordinate bookkeeping.

    Elements ``"(s,t,...)"`` run in lexicographic order of the factors'
    vertices; a cover steps one coordinate along a colored factor cover.
    """

    def __init__(self, factors: Sequence[EdgeColoredPoset]):
        if not factors:
            raise ValidationError("product of zero factors is not supported")
        self.factors = tuple(factors)
        label_of = {parts: self.label_of(parts) for parts in product(*(f.vertices for f in factors))}
        covers = []
        for parts, lab in label_of.items():
            for k, f in enumerate(factors):
                for j, c in f._up_steps[f._index[parts[k]]]:
                    covers.append((lab, label_of[parts[:k] + (f.vertices[j],) + parts[k + 1 :]], c))
        self.poset = EdgeColoredPoset(list(label_of.values()), covers)
        self.coords = {lab: parts for parts, lab in label_of.items()}

    def label_of(self, parts: Sequence[str]) -> str:
        return "(" + ",".join(parts) + ")"
