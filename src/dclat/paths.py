"""Paths, rank functions, and the coloring predicates of Hasse diagrams.

Distances are taken in the underlying undirected Hasse graph, since paths
may use ascending and descending steps.  ``distance_modular`` evaluates the
rank identity 2*rank(s v t) - rank(s) - rank(t), which equals the graph
distance exactly when the lattice is modular; ``mountainize`` and
``valleyize`` rewrite a simple path into a single-peak (single-dip) path of
no greater length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EnumerationCapExceeded,
    IncomparableEndpoints,
    NotConnected,
    NotConnectedPair,
    NotDiamondColored,
    NotRanked,
    ValidationError,
)
from .structures import Color, EdgeColoredPoset, _HasseCore, _bits

PATH_CAP = 100_000  # most ascending paths verify_path_colors lists between two elements
PATH_PAIR_CAP = 4_000_000  # most ordered pairs of those paths it compares
# Most pairs s <= t that verify_path_colors_all checks.  On the ideal lattice
# of a 2-chain beside an m-chain it took 1.0 s at 4,134 pairs (104 elements)
# and 4.9 s at 9,009 pairs (154 elements), growing about as pairs^2
# (Python 3.11, one core of a 2-vCPU VM).
COMPARABLE_PAIR_CAP = 5_000


class Step(NamedTuple):
    target: str
    ascending: bool
    color: Color


class Path:
    """Walk in an edge-colored poset: a start vertex plus directed colored steps."""

    def __init__(self, poset: EdgeColoredPoset, start: str, steps: Iterable[Step] = ()):
        poset.index_of(start)
        self.poset = poset
        self.start = start
        steps = tuple(Step(*s) for s in steps)
        prev = start
        for s in steps:
            lower, upper = (prev, s.target) if s.ascending else (s.target, prev)
            if not poset.has_cover(lower, upper):
                raise ValidationError(f"no cover edge {lower!r} -> {upper!r} along path")
            if poset.edge_color(lower, upper) != s.color:
                raise ValidationError(
                    f"step {prev!r} -> {s.target!r} declares color {s.color}, "
                    f"edge has color {poset.edge_color(lower, upper)}"
                )
            prev = s.target
        self.steps = steps

    @classmethod
    def from_vertices(cls, poset: EdgeColoredPoset, vertices: Sequence[str]) -> "Path":
        """Build a path through consecutive cover-adjacent vertices."""
        if not vertices:
            raise ValidationError("a path needs at least one vertex")
        steps = []
        for a, b in zip(vertices, vertices[1:]):
            if poset.has_cover(a, b):
                steps.append(Step(b, True, poset.edge_color(a, b)))
            elif poset.has_cover(b, a):
                steps.append(Step(b, False, poset.edge_color(b, a)))
            else:
                raise ValidationError(f"{a!r} and {b!r} are not cover-adjacent")
        return cls(poset, vertices[0], steps)

    @property
    def end(self) -> str:
        return self.steps[-1].target if self.steps else self.start

    @property
    def length(self) -> int:
        return len(self.steps)

    def vertex_sequence(self) -> tuple[str, ...]:
        return (self.start,) + tuple(s.target for s in self.steps)

    def _turn(self, ascending: bool) -> str | None:
        """The vertex where the path turns, when it steps ``ascending`` then the other way, else None."""
        first = [s.ascending == ascending for s in self.steps]
        k = first.index(False) if False in first else len(first)
        return None if any(first[k:]) else self.vertex_sequence()[k]

    def apex(self) -> str | None:
        """The peak vertex when the path ascends then descends, else None."""
        return self._turn(True)

    def nadir(self) -> str | None:
        """The dip vertex when the path descends then ascends, else None."""
        return self._turn(False)

    def __repr__(self):
        return f"Path({' -> '.join(self.vertex_sequence())})"


@dataclass(frozen=True)
class RankFunction:
    """Total rank map; covers raise rank by exactly one, image is 0..length."""

    rank: dict[str, int]
    length: int


def ascent_descent_counts(path: Path) -> dict[Color, tuple[int, int]]:
    """Per color: (ascending step count, descending step count)."""
    up: Counter = Counter()
    down: Counter = Counter()
    for s in path.steps:
        (up if s.ascending else down)[s.color] += 1
    return {c: (up.get(c, 0), down.get(c, 0)) for c in set(up) | set(down)}


def compute_rank(p: _HasseCore) -> RankFunction:
    """The unique rank function of a connected poset, or NotRanked."""
    if len(p) == 0:
        raise NotConnected("empty poset has no rank function")
    # BFS on ids from vertex 0; appending to `order` while iterating it is
    # the queue.  A cover gets consistent levels, or is recorded as the
    # first inconsistent one, when its first endpoint is dequeued, and
    # levels never change after, so no second pass over the covers is
    # needed.  The search leaves a vertex unlevelled exactly when p is
    # disconnected, which takes precedence over an inconsistency.
    up, down, v = p._up_adj, p._down_adj, p.vertices
    level: list[int | None] = [None] * len(p)
    level[0] = 0
    order = [0]
    bad = None  # (lower id, upper id) of the first inconsistent cover
    for i in order:
        li = level[i]
        for j in up[i]:
            if level[j] is None:
                level[j] = li + 1
                order.append(j)
            elif level[j] != li + 1:
                bad = bad or (i, j)
        for j in down[i]:
            if level[j] is None:
                level[j] = li - 1
                order.append(j)
            elif level[j] != li - 1:
                bad = bad or (j, i)
    if len(order) != len(p):
        raise NotConnected("rank functions are only unique on connected posets")
    if bad:
        raise NotRanked(f"inconsistent levels at cover {v[bad[0]]!r} -> {v[bad[1]]!r}")
    low = min(level)
    rank = {v[i]: level[i] - low for i in order}
    return RankFunction(rank, max(rank.values()))


def rank_via_path(p: EdgeColoredPoset, path: Path) -> int:
    """rank(start) plus the signed color-step sum; equals rank(end) when ranked."""
    if path.poset is not p and path.poset != p:
        raise ValidationError("path does not belong to the given poset")
    rank = p._verdict("rank", lambda: compute_rank(p)).rank
    counts = ascent_descent_counts(path)
    return rank[path.start] + sum(a - d for a, d in counts.values())


class DiamondWitness(NamedTuple):
    bottom: str
    left: str
    right: str
    top: str


class CheckResult(NamedTuple):
    ok: bool
    witness: object

    def __bool__(self) -> bool:
        return self.ok


def check_diamond_colored(p: EdgeColoredPoset) -> CheckResult:
    """Within every diamond of covers, parallel edges must share a color.

    The witness is the first failing diamond by top, lower covers, bottom id.
    The result is recorded in p's verdict store and scanned only once.
    """
    return p._verdict("diamond", lambda: _diamond_scan(p))


def _diamond_scan(p: EdgeColoredPoset) -> CheckResult:
    down = p._down_steps  # per id, (lower cover id, edge color) by id
    below = [dict(steps) for steps in down]
    for u, lowers in enumerate(down):
        for a, (s, color_su) in enumerate(lowers):
            below_s = below[s]
            for t, color_tu in lowers[a + 1 :]:
                for bot, color_bt in down[t]:
                    color_bs = below_s.get(bot)
                    if color_bs is not None and (color_bs != color_tu or color_bt != color_su):
                        v = p.vertices
                        return CheckResult(False, DiamondWitness(v[bot], v[s], v[t], v[u]))
    return CheckResult(True, None)


class VeeWitness(NamedTuple):
    kind: str  # "open-up" or "open-down"
    base: str
    left: str
    right: str
    closers: int


def check_topographically_balanced(p: _HasseCore) -> CheckResult:
    """Every non-chain length-two mountain is balanced by a unique valley, and dually.

    The result is recorded in p's verdict store and scanned only once.
    """
    return p._verdict("balanced", lambda: _balance_scan(p))


def _balance_scan(p: _HasseCore) -> CheckResult:
    for kind, adj in (("open-up", p._up_adj), ("open-down", p._down_adj)):
        near = [set(a) for a in adj]
        for i, nbrs in enumerate(adj):  # adjacency lists are sorted by id
            for a in range(len(nbrs)):
                for b in range(a + 1, len(nbrs)):
                    closers = len(near[nbrs[a]] & near[nbrs[b]])
                    if closers != 1:
                        v = p.vertices
                        return CheckResult(False, VeeWitness(kind, v[i], v[nbrs[a]], v[nbrs[b]], closers))
    return CheckResult(True, None)


def _bfs(p: _HasseCore, source: int, targets: Iterable[int]) -> dict[int, int]:
    """Hasse-graph distances by id from ``source``, level by level.

    Stops when the level of the last of ``targets`` is complete, so every
    vertex as close as that target is labelled; a missing target lies in
    another component.
    """
    dist = {source: 0}
    pending = set(targets) - {source}
    frontier = [source]
    while pending and frontier:
        nxt = []
        for i in frontier:
            for j in p._up_adj[i] + p._down_adj[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        pending.difference_update(nxt)
        frontier = nxt
    return dist


def distance(p: _HasseCore, s: str, t: str) -> int:
    """Graph distance in the undirected Hasse diagram."""
    si, ti = p.index_of(s), p.index_of(t)
    d = _bfs(p, si, (ti,)).get(ti)
    if d is None:
        raise NotConnectedPair(f"{s!r} and {t!r} lie in different components")
    return d


def distance_modular(L, s: str, t: str) -> int:
    """Distance via ranks in a modular lattice: 2*rank(s v t) - rank(s) - rank(t)."""
    L.ensure_modular()
    rank = L.rank_function.rank
    via_join = 2 * rank[L.join(s, t)] - rank[s] - rank[t]
    via_meet = rank[s] + rank[t] - 2 * rank[L.meet(s, t)]
    if via_join != via_meet:
        raise NotRanked("rank identity failed; lattice is not modular")
    return via_join


def _erase_loops(vs: list[str]) -> list[str]:
    out: list[str] = []
    pos: dict[str, int] = {}
    for v in vs:
        if v in pos:
            for w in out[pos[v] + 1 :]:
                del pos[w]
            del out[pos[v] + 1 :]
        else:
            out.append(v)
            pos[v] = len(out) - 1
    return out


def _rewrite_path(L, path: Path, to_mountain: bool) -> Path:
    p = L.poset
    if path.poset is not p and path.poset != p:
        raise ValidationError("path does not belong to the given lattice")
    L.ensure_modular()
    rank = L.rank_function.rank
    vs = list(path.vertex_sequence())
    covers = p.ancestors if to_mountain else p.descendants

    while True:
        vs = _erase_loops(vs)
        k = len(vs) - 1
        j = None
        for m in range(1, k):
            before_up = rank[vs[m]] > rank[vs[m - 1]]
            after_up = rank[vs[m + 1]] > rank[vs[m]]
            if to_mountain and (not before_up) and after_up:
                j = m
                break
            if not to_mountain and before_up and not after_up:
                j = m
                break
        if j is None:
            break
        closers = set(covers(vs[j - 1])) & set(covers(vs[j + 1]))
        if len(closers) != 1:
            raise NotRanked("balance failed mid-rewrite; lattice is not modular")
        (u,) = closers
        if j >= 2 and vs[j - 2] == u:
            del vs[j - 1 : j + 1]
        elif j + 2 <= k and vs[j + 2] == u:
            del vs[j : j + 2]
        else:
            vs[j] = u
    return Path.from_vertices(p, vs)


def mountainize(L, path: Path) -> Path:
    """Rewrite a simple path into a mountain path with the same endpoints.

    Never lengthens the path; on a shortest path the result keeps its length
    and peaks at the join of the endpoints.
    """
    return _rewrite_path(L, path, to_mountain=True)


def valleyize(L, path: Path) -> Path:
    """Dual of mountainize: the result dips at the meet of the endpoints."""
    return _rewrite_path(L, path, to_mountain=False)


@dataclass
class PathColorReport:
    """Exhaustive comparison of the ascending paths between two elements."""

    s: str
    t: str
    path_count: int
    color_multiset: tuple[Color, ...]
    multiset_ok: bool = True
    incomparable_pairs: int = 0
    incomparable_ok: bool = True
    comparable_pairs: int = 0
    comparable_with_equal_ends: int = 0

    @property
    def passed(self) -> bool:
        return self.multiset_ok and self.incomparable_ok

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        return [f"{status} paths {self.s} -> {self.t}: {self.path_count} paths, colors {list(self.color_multiset)}"]


def _ascending_paths(L, s: str, t: str) -> list[tuple[tuple[str, ...], tuple[Color, ...]]]:
    p = L.poset
    if not p.leq(s, t):
        raise IncomparableEndpoints(f"{s!r} is not below {t!r}")
    # paths from each id of [s, t] up to t, counted in reverse topological order
    si, ti = p.index_of(s), p.index_of(t)
    counts: dict[int, int] = {}
    for pos in reversed(list(_bits(p._up[si] & p._down[ti]))):
        i = p._at[pos]
        counts[i] = 1 if i == ti else sum(counts.get(j, 0) for j in p._up_adj[i])
    _require_path_caps(counts[si])
    out: list[tuple[tuple[str, ...], tuple[Color, ...]]] = []
    stack = [(si, (s,), ())]
    while stack:
        i, verts, colors = stack.pop()
        if i == ti:
            out.append((verts, colors))
            continue
        for j, c in reversed(p._up_steps[i]):
            if j in counts:  # j lies in [s, t]
                stack.append((j, verts + (p.vertices[j],), colors + (c,)))
    out.sort()
    return out


def _require_path_caps(count: int) -> None:
    """Raise if ``count`` ascending paths pass ``PATH_CAP``, or their ordered pairs ``PATH_PAIR_CAP``."""
    if count > PATH_CAP:
        raise EnumerationCapExceeded(f"{count} ascending paths exceed cap {PATH_CAP}")
    if count**2 > PATH_PAIR_CAP:
        raise EnumerationCapExceeded(f"{count}^2 ordered path pairs exceed cap {PATH_PAIR_CAP}")


def _require_diamond_modular(L) -> None:
    if not L.diamond.ok:
        raise NotDiamondColored(f"diamond violation at {L.diamond.witness}")
    L.ensure_modular()


def verify_path_colors(L, s: str, t: str) -> PathColorReport:
    """Check that all ascending paths s -> t agree in length and color multiset.

    Additionally, whenever the second vertex of one path is incomparable to
    the second-to-last vertex of another, their first and last colors must
    coincide; comparable configurations are recorded, not asserted.
    """
    _require_diamond_modular(L)
    paths = _ascending_paths(L, s, t)
    report = PathColorReport(s, t, len(paths), tuple(sorted(paths[0][1])) if paths else ())
    for _, colors in paths:
        if tuple(sorted(colors)) != report.color_multiset:
            report.multiset_ok = False
            return report
    p = L.poset
    for verts_a, colors_a in paths:
        if len(colors_a) < 2:
            continue
        for verts_b, colors_b in paths:
            r1, r_last = verts_a[1], verts_b[-2]
            if p.leq(r1, r_last) or p.leq(r_last, r1):
                report.comparable_pairs += 1
                if colors_a[0] == colors_b[-1]:
                    report.comparable_with_equal_ends += 1
            else:
                report.incomparable_pairs += 1
                if colors_a[0] != colors_b[-1]:
                    report.incomparable_ok = False
                    return report
    return report


def verify_path_colors_all(L) -> list[PathColorReport]:
    """Run verify_path_colors over every ordered pair s <= t.

    Past ``COMPARABLE_PAIR_CAP`` such pairs, or at the first pair in (s, t)
    order with more paths than ``PATH_CAP`` or ``PATH_PAIR_CAP`` allow, it
    raises EnumerationCapExceeded before listing any path.
    """
    p = L.poset
    pairs = sum(m.bit_count() for m in p._up)
    if pairs > COMPARABLE_PAIR_CAP:
        raise EnumerationCapExceeded(f"{pairs} comparable pairs exceed cap {COMPARABLE_PAIR_CAP}")
    _require_diamond_modular(L)
    v, ordered = p.vertices, []
    for si in range(len(p)):
        counts = {}  # paths from si up to each id, filled in topological order
        for pos in _bits(p._up[si]):
            i = p._at[pos]
            counts[i] = 1 if i == si else sum(counts.get(j, 0) for j in p._down_adj[i])
        for ti in sorted(counts):
            _require_path_caps(counts[ti])
            ordered.append((v[si], v[ti]))
    return [verify_path_colors(L, s, t) for s, t in ordered]
