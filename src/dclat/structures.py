"""Finite vertex- and edge-colored posets presented by their Hasse diagrams.

A structure is built from an ordered list of vertex labels plus a set of
cover edges.  Constructors reject inputs whose edge set is not the
transitive reduction of an acyclic relation: surfacing modeling errors
beats silent repair.  Vertices receive dense integer ids in declaration
order; reachability is kept as bitsets over a topological relabeling so
order queries are single mask operations.

The order tables (the topological order and the reachability bitsets)
are built when first read.  The public constructors and the DCP reader
read them at once, to check the covers; a structure the library derives
from validated ones pays for them only when a query needs them.

Structures are immutable after construction apart from the order tables,
written on first read, and one private store of verdicts (``_verdicts``),
which starts empty.  A check records in the store what it proved about
the structure, so a fact is proved once however many views ask for it.
Each key of the store, like each order table, gets a value that does not
depend on which caller got there first, so structures can still be
shared freely across threads.  The store holds plain values only, never
anything that refers back to the structure.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product, starmap
from operator import eq
from typing import Iterable, Mapping, Sequence

from .errors import MissingColorMapping, UnknownVertex, ValidationError

Color = int


def _bits(mask: int):
    """Yield the positions of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_labels(vertices: tuple[str, ...], index: dict[str, int]) -> None:
    """Raise on a label that is not a non-empty string, then on the first repeated label."""
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise ValidationError(f"vertex label must be a non-empty string, got {v!r}")
    if len(index) != len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                raise ValidationError(f"duplicate vertex label {v!r}")
            seen.add(v)


def _check_pairs(vertices: tuple[str, ...], pairs: list[tuple[int, int]]) -> None:
    """Raise on the first loop or repeated cover among the id pairs, in input order."""
    if len(set(pairs)) == len(pairs) and not any(starmap(eq, pairs)):
        return
    seen = set()
    for a, b in pairs:
        if a == b:
            raise ValidationError(f"loop edge on {vertices[a]!r}")
        if (a, b) in seen:
            raise ValidationError(f"duplicate cover {vertices[a]!r} -> {vertices[b]!r}")
        seen.add((a, b))


class _HasseCore:
    """Reachability machinery shared by both poset kinds.

    Internal bitsets are indexed by *topological position*; ``_pos`` maps a
    vertex id to its position and ``_at`` inverts that.  The lowest set bit
    of an up-set intersection is therefore always a minimal element, which
    lattice computations rely on.  ``_at``, ``_pos``, ``_up``, ``_down``
    and ``_cover_masks`` are built on first read; the adjacency lists are
    built with the structure.

    Each kind has two ways in.  The public constructor checks labels, maps
    covers to ids (``_init_labeled``), then ``_init_checked`` checks every
    cover, which reads the order tables at once; the DCP reader, which
    checks its own labels, calls ``_init_checked`` directly.  ``_from_ids``
    checks only the labels: the library calls it on structures it derives
    from validated ones, whose covers are known to be a transitive
    reduction, and their order tables wait for a query.
    """

    vertices: tuple[str, ...]

    @classmethod
    def _from_ids(cls, vertices: Sequence[str], covers: Iterable[tuple]):
        """A structure from covers given as (lower id, upper id[, color]); only labels are checked.

        No order table is built here.  Covers that form a cycle therefore
        raise ``ValidationError`` only at the first order query.
        """
        self = cls.__new__(cls)
        vertices = tuple(vertices)
        index = dict(zip(vertices, range(len(vertices))))
        _check_labels(vertices, index)
        self._build(vertices, index, covers)
        return self

    def _init_labeled(self, vertices: Sequence[str], covers: Iterable[tuple], width: int, shape: str) -> None:
        """Check label covers of ``width`` items (a third is a color) in input order, then build from ids."""
        cover_list = [tuple(c) for c in covers]
        for c in cover_list:
            if len(c) != width:
                raise ValidationError(f"{shape}, got {c!r}")
        vertices = tuple(vertices)
        index = dict(zip(vertices, range(len(vertices))))
        ids = []
        for a, b, *color in cover_list:
            for x in (a, b):
                if x not in index:
                    raise UnknownVertex(f"cover references undeclared vertex {x!r}")
            if color and (not isinstance(color[0], int) or color[0] < 0):
                raise ValidationError(f"color of edge {a!r} -> {b!r} must be a non-negative integer")
            ids.append((index[a], index[b], *color))
        _check_labels(vertices, index)
        self._init_checked(vertices, index, ids)

    def _init_checked(self, vertices: tuple[str, ...], index: dict[str, int], covers: Sequence[tuple]):
        """Build from id covers over distinct labels, raising on the first bad cover.

        A loop or a repeated cover is named in input order, then a cycle,
        then the first cover in input order implied by a longer chain.  The
        reduction check reads the order tables, so they are built here.
        """
        pairs = [c[:2] for c in covers]
        _check_pairs(vertices, pairs)
        self._build(vertices, index, covers)
        self._check_reduced(pairs)

    def _build(self, vertices, index, pairs: Iterable[tuple[int, int]]):
        """Labels, index, an empty verdict store and sorted adjacency from (lower id, upper id) covers.

        The order tables are not built here: each is built on first read.
        """
        self.vertices = vertices
        self._index = index
        self._verdicts: dict[str, object] = {}
        n = len(vertices)
        up_adj = [[] for _ in range(n)]
        down_adj = [[] for _ in range(n)]
        for a, b in pairs:
            up_adj[a].append(b)
            down_adj[b].append(a)
        for adj in up_adj:
            adj.sort()
        for adj in down_adj:
            adj.sort()
        self._up_adj = up_adj
        self._down_adj = down_adj

    @cached_property
    def _at(self) -> list[int]:
        """The ids in Kahn's level order, a linear extension; raises if the covers form a cycle."""
        up_adj = self._up_adj
        indeg = [len(adj) for adj in self._down_adj]
        queue = [i for i, d in enumerate(indeg) if d == 0]
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
        if len(topo) != len(indeg):
            raise ValidationError("cover relation contains a cycle")
        return topo

    @cached_property
    def _pos(self) -> list[int]:
        """Per id, its position in ``_at``."""
        pos = [0] * len(self.vertices)
        for p, i in enumerate(self._at):
            pos[i] = p
        return pos

    @cached_property
    def _up(self) -> list[int]:
        """Per id, the positions of its up-set (itself included) as a bitset."""
        return self._closure(reversed(self._at), self._up_adj)

    @cached_property
    def _down(self) -> list[int]:
        """Per id, the positions of its down-set (itself included) as a bitset."""
        return self._closure(self._at, self._down_adj)

    def _closure(self, order: Iterable[int], adj: Sequence[list[int]]) -> list[int]:
        """Per id, the bitset over positions of all it reaches through ``adj``, visited in ``order``."""
        pos = self._pos
        reach = [0] * len(pos)
        for i in order:
            m = 1 << pos[i]
            for j in adj[i]:
                m |= reach[j]
            reach[i] = m
        return reach

    def _check_reduced(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Transitive reduction: a cover must have nothing strictly between."""
        up, down, pos = self._up, self._down, self._pos
        for a, b in pairs:
            if up[a] & down[b] != (1 << pos[a]) | (1 << pos[b]):
                raise ValidationError(
                    f"cover {self.vertices[a]!r} -> {self.vertices[b]!r} is implied "
                    "by a longer chain (edge set is not transitively reduced)"
                )

    def _verdict(self, key: str, compute):
        """The verdict stored under ``key``; on first read ``compute()`` proves it and it is stored."""
        verdicts = self._verdicts
        if key not in verdicts:
            verdicts[key] = compute()
        return verdicts[key]

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

    @cached_property
    def _cover_masks(self) -> tuple[list[int], list[int]]:
        """Per vertex id, the masks over vertex ids of its lower and of its upper covers."""
        return (
            [sum(1 << j for j in adj) for adj in self._down_adj],
            [sum(1 << j for j in adj) for adj in self._up_adj],
        )

    def _induced_ids(self, labels: Iterable[str]) -> tuple[list[int], list[tuple[int, int]]]:
        """Sorted ids of ``labels`` and the id pairs that are covers in the induced order, by id."""
        ids = sorted(self.index_of(v) for v in set(labels))
        up, pos, at = self._up, self._pos, self._at
        sub_mask = sum(1 << pos[i] for i in ids)
        pairs = []
        for a in ids:
            # a's covers are the minimal labels strictly above it: the lowest position
            # left is one, and dropping its up-set leaves the labels above none found yet
            above, covers = (up[a] & sub_mask) ^ (1 << pos[a]), []
            while above:
                b = at[(above & -above).bit_length() - 1]
                covers.append(b)
                above &= ~up[b]
            pairs.extend((a, b) for b in sorted(covers))
        return ids, pairs

    # -- operations shared by both kinds -----------------------------------
    # Each kind's ``_args(color=None, flip=False, shift=0)`` returns the
    # arguments of its ``_from_ids`` after the vertices: covers as ids moved
    # by ``shift`` and reversed when ``flip`` is set, and every color c
    # replaced by ``color[c]`` unless ``color`` is None.  Its ``_key()``
    # returns what equality compares.

    def relabel(self, mapping: Mapping[str, str]) -> "Structure":
        return type(self)._from_ids([mapping[v] for v in self.vertices], *self._args())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((self.vertices, len(self._cover_pairs)))

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} vertices, {len(self._cover_pairs)} covers)"


class VertexColoredPoset(_HasseCore):
    """Poset with a color attached to every vertex.

    The per-id adjacency lists are the cover store; ``covers`` is built from
    them on first read.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        covers: Iterable[tuple[str, str]],
        colors: Mapping[str, Color],
    ):
        self._init_labeled(vertices, covers, 2, "vertex-colored cover must be a pair")
        for v in self.vertices:
            if v not in colors:
                raise ValidationError(f"vertex {v!r} has no color")
            if not isinstance(colors[v], int) or colors[v] < 0:
                raise ValidationError(f"color of {v!r} must be a non-negative integer")
        self.colors = {v: colors[v] for v in self.vertices}

    @classmethod
    def _from_ids(cls, vertices: Sequence[str], pairs: Iterable[tuple[int, int]], colors: Sequence[Color]):
        """A poset from (lower id, upper id) covers and per-id colors; only labels are checked."""
        self = super()._from_ids(vertices, pairs)
        self.colors = dict(zip(self.vertices, colors))
        return self

    @cached_property
    def _cover_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, adj in enumerate(self._up_adj) for b in adj)

    @cached_property
    def covers(self) -> frozenset[tuple[str, str]]:
        v = self.vertices
        return frozenset((v[a], v[b]) for a, b in self._cover_pairs)

    @property
    def colors_used(self) -> frozenset[Color]:
        return frozenset(self.colors.values())

    def induced(self, labels: Iterable[str]) -> "VertexColoredPoset":
        """Subposet on the given vertices in the induced order."""
        ids, pairs = self._induced_ids(labels)
        new = {i: k for k, i in enumerate(ids)}
        keep = [self.vertices[i] for i in ids]
        return VertexColoredPoset._from_ids(
            keep, [(new[a], new[b]) for a, b in pairs], [self.colors[v] for v in keep]
        )

    def _args(self, color=None, flip=False, shift=0):
        pairs = [(a + shift, b + shift) for a, adj in enumerate(self._up_adj) for b in adj]
        colors = [self.colors[v] for v in self.vertices]
        return (
            [(b, a) for a, b in pairs] if flip else pairs,
            colors if color is None else [color[c] for c in colors],
        )

    def _key(self):
        return self.vertices, self._up_adj, self.colors


class EdgeColoredPoset(_HasseCore):
    """Poset with a color attached to every cover edge.

    The cover store is ``_edge_color``, which maps (lower id, upper id) to
    the color.  The adjacency lists are read off its keys; the per-id
    (neighbour, color) step tables and ``covers`` are built from it on
    first read.
    """

    def __init__(self, vertices: Sequence[str], covers: Iterable[tuple[str, str, Color]]):
        self._init_labeled(vertices, covers, 3, "edge-colored cover must be a (lower, upper, color) triple")

    def _build(self, vertices, index, edges):
        self._edge_color = {(a, b): c for a, b, c in edges}
        super()._build(vertices, index, self._edge_color)

    @cached_property
    def _up_steps(self) -> list[tuple[tuple[int, Color], ...]]:
        """Per id, its (upper cover id, edge color) pairs by id."""
        return [tuple((j, self._edge_color[i, j]) for j in adj) for i, adj in enumerate(self._up_adj)]

    @cached_property
    def _down_steps(self) -> list[tuple[tuple[int, Color], ...]]:
        """Per id, its (lower cover id, edge color) pairs by id."""
        return [tuple((j, self._edge_color[j, i]) for j in adj) for i, adj in enumerate(self._down_adj)]

    @property
    def _cover_pairs(self):
        return self._edge_color.keys()

    @cached_property
    def covers(self) -> frozenset[tuple[str, str, Color]]:
        v = self.vertices
        return frozenset((v[a], v[b], c) for (a, b), c in self._edge_color.items())

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

    def induced(self, labels: Iterable[str]) -> "EdgeColoredPoset":
        """Subposet on the given vertices in the induced order.

        Every induced cover must already be an edge of the parent (otherwise
        it would have no color); violations raise ValidationError.
        """
        ids, pairs = self._induced_ids(labels)
        new = {i: k for k, i in enumerate(ids)}
        edges = []
        for a, b in pairs:
            if (a, b) not in self._edge_color:
                raise ValidationError(
                    f"induced cover {self.vertices[a]!r} -> {self.vertices[b]!r} "
                    "is not an edge of the parent, so it has no color"
                )
            edges.append((new[a], new[b], self._edge_color[a, b]))
        return EdgeColoredPoset._from_ids([self.vertices[i] for i in ids], edges)

    def _args(self, color=None, flip=False, shift=0):
        edges = [
            (a + shift, b + shift, c if color is None else color[c]) for (a, b), c in self._edge_color.items()
        ]
        return ([(b, a, c) for a, b, c in edges] if flip else edges,)

    def _key(self):
        return self.vertices, self._edge_color


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
    cover_mask = _reduced_ids(adj, topo)
    return [(vertices[i], vertices[j]) for i in range(n) for j in _bits(cover_mask[i])]


def _reduced_ids(adj: Sequence[Iterable[int]], topo: Sequence[int]) -> list[int]:
    """Per id, the mask over ids of its upper covers in the order ``adj`` generates.

    ``adj[i]`` holds the ids that i relates to directly, and ``topo`` lists
    every id in a linear extension of the relation.
    """
    # i covers j iff j is in i's strict reach but in no other element's
    # strict reach within it; i's successors' strict reaches cover those
    reach = [0] * len(adj)
    cover_mask = [0] * len(adj)
    for i in reversed(topo):
        strict = beyond = 0
        for j in adj[i]:
            strict |= reach[j] | 1 << j
            beyond |= reach[j]
        reach[i] = strict
        cover_mask[i] = strict & ~beyond
    return cover_mask


def _star(label: str) -> str:
    # Starring is an involution so dual(dual(p)) restores the original labels.
    return label[:-1] if label.endswith("*") else label + "*"


def dual(p: Structure) -> Structure:
    """Order-reverse p; every edge s -> t of color i becomes t* -> s* of color i."""
    return type(p)._from_ids([_star(v) for v in p.vertices], *p._args(flip=True))


def recolor(p: Structure, sigma: Mapping[Color, Color]) -> Structure:
    """Apply a color map to every edge (or vertex) color of p."""
    missing = sorted(p.colors_used - set(sigma))
    if missing:
        raise MissingColorMapping(f"recoloring undefined on colors {missing}")
    for c in p.colors_used:
        t = sigma[c]
        if not isinstance(t, int) or t < 0:
            raise ValidationError(f"recoloring must map to non-negative integers, got {t!r}")
    return type(p)._from_ids(p.vertices, *p._args(color=sigma))


def disjoint_sum(a: Structure, b: Structure) -> Structure:
    """Disjoint union, with labels prefixed "L." / "R." to keep the sum total."""
    if type(a) is not type(b):
        raise ValidationError("disjoint_sum requires two structures of the same kind")
    # the prefixes keep the two label sets apart, and b's ids follow a's
    vertices = ["L." + v for v in a.vertices] + ["R." + v for v in b.vertices]
    return type(a)._from_ids(vertices, *(x + y for x, y in zip(a._args(), b._args(shift=len(a)))))


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
        # element ids count in mixed radix, the last factor fastest
        strides = [1] * len(factors)
        for k in range(len(factors) - 1, 0, -1):
            strides[k - 1] = strides[k] * len(factors[k])
        self._coord_ids = list(product(*(range(len(f)) for f in factors)))  # per element, its factors' ids
        edges = []
        for e, ids in enumerate(self._coord_ids):
            for f, i, stride in zip(factors, ids, strides):
                for j, c in f._up_steps[i]:
                    edges.append((e, e + (j - i) * stride, c))
        coords = list(product(*(f.vertices for f in factors)))
        labels = list(map(self.label_of, coords))
        self.poset = EdgeColoredPoset._from_ids(labels, edges)
        self.coords = dict(zip(labels, coords))

    @staticmethod
    def label_of(parts: Sequence[str]) -> str:
        return "(" + ",".join(parts) + ")"
