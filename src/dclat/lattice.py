"""Meet/join computation and the lattice classification predicates.

A ``LatticeView`` stores nothing per pair.  Reachability bitsets are kept
in a topological relabeling, so the join of two elements is the lowest set
bit of the intersection of their up-sets and the meet is the highest set
bit of the intersection of their down-sets.  ``as_lattice`` makes both
probes exact by checking only the joins of sibling upper covers: in a
finite poset with a least element, those joins alone imply every join,
so the poset is a lattice.

The predicates are local.  A lattice is modular iff it is topographically
balanced, and a modular lattice is distributive iff it has exactly
``length`` join irreducibles.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple

from . import paths
from .errors import DclatError, IncomparableEndpoints, NotALattice, NotModular
from .paths import CheckResult, RankFunction, check_diamond_colored, check_topographically_balanced, compute_rank
from .report import Report
from .structures import EdgeColoredPoset, _bits


class LatticeView:
    """Immutable lattice wrapper around an edge-colored poset.

    Construct via :func:`as_lattice`, which has proved the bound probes
    exact, or take the ``view`` that an ideal or filter lattice carries
    by construction; joins and meets are computed on demand from the poset's
    reachability bitsets and no per-pair table is kept.  Classification
    results are recorded in the poset's verdict store, so every view of one
    poset, and every check run on the poset itself, shares them.
    """

    def __init__(self, poset: EdgeColoredPoset):
        self.poset = poset
        self.minimum = poset.minimal_elements()[0]
        self.maximum = poset.maximal_elements()[0]

    def __len__(self) -> int:
        return len(self.poset)

    def __repr__(self):
        return f"LatticeView({len(self)} elements)"

    # -- order and bounds ----------------------------------------------

    def leq(self, x: str, y: str) -> bool:
        return self.poset.leq(x, y)

    def _join_id(self, i: int, k: int) -> int:
        p = self.poset
        m = p._up[i] & p._up[k]
        return p._at[(m & -m).bit_length() - 1]

    def _meet_id(self, i: int, k: int) -> int:
        p = self.poset
        return p._at[(p._down[i] & p._down[k]).bit_length() - 1]

    def join(self, x: str, y: str) -> str:
        p = self.poset
        return p.vertices[self._join_id(p.index_of(x), p.index_of(y))]

    def meet(self, x: str, y: str) -> str:
        p = self.poset
        return p.vertices[self._meet_id(p.index_of(x), p.index_of(y))]

    # -- rank ------------------------------------------------------------

    @property
    def rank_function(self):
        return self.poset._verdict("rank", lambda: compute_rank(self.poset))

    @property
    def length(self) -> int:
        return self.rank_function.length

    @property
    def diamond(self) -> CheckResult:
        """``check_diamond_colored`` of the poset, scanned once per poset."""
        return check_diamond_colored(self.poset)

    def ensure_modular(self) -> None:
        if not is_modular(self):
            raise NotModular("lattice is not modular")

    # -- substructures ----------------------------------------------------

    def interval(self, s: str, t: str) -> EdgeColoredPoset:
        """Induced subposet on {x : s <= x <= t}."""
        if not self.leq(s, t):
            raise IncomparableEndpoints(f"{s!r} is not below {t!r}")
        p = self.poset
        members = p._up[p.index_of(s)] & p._down[p.index_of(t)]
        return p.induced(p.vertices[p._at[pos]] for pos in _bits(members))

    def join_irreducibles(self) -> tuple[str, ...]:
        """Elements covering exactly one other element, in id order."""
        p = self.poset
        return tuple(v for v, adj in zip(p.vertices, p._down_adj) if len(adj) == 1)

    def meet_irreducibles(self) -> tuple[str, ...]:
        """Elements covered by exactly one other element, in id order."""
        p = self.poset
        return tuple(v for v, adj in zip(p.vertices, p._up_adj) if len(adj) == 1)


def as_lattice(p: EdgeColoredPoset) -> LatticeView:
    """Validate unique pairwise bounds and return a lattice view.

    Only a least element and the joins of sibling upper covers are
    checked, once per poset: the verdict is recorded in its store.  If it
    fails, the full join-then-meet scan reports the first offending pair
    in id order.
    """
    if len(p) == 0:
        raise NotALattice("the empty poset is not a lattice")
    if not p._verdict("lattice", lambda: len(p.minimal_elements()) == 1 and _joins_exact(p)):
        _raise_first_missing_bound(p)
    return LatticeView(p)


def _joins_exact(p: EdgeColoredPoset) -> bool:
    """Every two upper covers of one element have a least upper bound.

    Given a least element, this makes p a lattice.  Let Q(w) say "all x,
    y >= w have a join" and induct downward on w.  If x or y is w, the
    other is the join.  Otherwise take upper covers a <= x and b <= y of
    w; if a = b, Q(a) gives x v y.  If not, c = a v b exists by this
    check, d = x v c by Q(a), and e = d v y by Q(b).  e lies above x and
    y, and a common upper bound of x and y lies above a and b, so above
    c, d and e in turn; hence e = x v y, and Q(minimum) gives every join.
    """
    up = p._up
    up_at = [up[i] for i in p._at]
    for covers in p._up_adj:
        for j, a in enumerate(covers):
            ua = up[a]
            for b in covers[j + 1 :]:
                m = ua & up[b]
                # an empty m probes position -1, whose non-empty up-set differs
                if up_at[(m & -m).bit_length() - 1] != m:
                    return False
    return True


def _raise_first_missing_bound(p: EdgeColoredPoset) -> None:
    """Raise ``NotALattice`` at the first pair in id order without a join, then a meet."""
    up, down, at, v = p._up, p._down, p._at, p.vertices
    n = len(p)
    for i in range(n):
        for k in range(i + 1, n):
            m = up[i] & up[k]
            if not m:
                reason, side = "no common upper bound", "join"
            elif up[at[(m & -m).bit_length() - 1]] != m:
                reason, side = "no unique least upper bound", "join"
            elif not (m := down[i] & down[k]):
                reason, side = "no common lower bound", "meet"
            elif down[at[m.bit_length() - 1]] != m:
                reason, side = "no unique greatest lower bound", "meet"
            else:
                continue
            raise NotALattice(f"{v[i]!r} and {v[k]!r} have {reason}", witness=(v[i], v[k], side))


def is_modular(L: LatticeView) -> bool:
    """Topographically balanced, the paper's local criterion for modularity.

    In a lattice a vee has at most one closer, so balance is exactly upper
    plus lower semimodularity, which a finite lattice has iff it is modular.
    So the verdict is the poset's recorded balance verdict.
    """
    return check_topographically_balanced(L.poset).ok


class DistributivityWitness(NamedTuple):
    r: str
    s: str
    t: str
    identity: str


def is_distributive(L: LatticeView) -> CheckResult:
    """Both distributive identities, with the first failing triple as witness.

    The count of ``_count_holds`` proves a distributive lattice so, and
    the scan below runs only when the count fails.  The witness is the
    first (r, s, t) in id order, r-major, at which r v (s ^ t) =
    (r v s) ^ (r v t) (join-over-meet) or, at the same triple,
    r ^ (s v t) = (r ^ s) v (r ^ t) (meet-over-join) fails.  Each identity
    implies the other in a lattice; scanning both is a deliberate
    self-check of the bound probes.

    Fix r and f(x) = r v x.  Call s *r-meet-preserving* when f(s ^ t) =
    f(s) ^ f(t) for every t (one comparison of table rows), r
    *join-distributive* when every s is, and dually for r ^ x.

    Closure lemma.  If s1 and s2 are r-meet-preserving, f(s1 ^ s2 ^ t) =
    f(s1) ^ f(s2 ^ t) = f(s1) ^ f(s2) ^ f(t) = f(s1 ^ s2) ^ f(t), so s1 ^
    s2 is.  If r1 and r2 are join-distributive, (r1 v r2) v (s ^ t) = r1 v
    ((r2 v s) ^ (r2 v t)) = (r1 v r2 v s) ^ (r1 v r2 v t), so r1 v r2 is.
    Dually for the duals.  An element is the meet of any two of its upper
    covers and the join of any two of its lower covers, so a property
    closed under ^ (v) holds wherever it holds at two upper (lower) covers.

    Irreducible lemma.  The maximum is r-meet-preserving and every other
    element is a meet of meet-irreducibles, so r is join-distributive iff
    every meet-irreducible is r-meet-preserving; dually for joins.

    The scan takes r, then s, in id order, settling each property by two
    covers where it can and testing it directly otherwise, memoised.  The
    witness is the first r that is not both join- and meet-distributive,
    the first s that fails to preserve meets or joins for it, and the
    first t at which the rows of s differ.  A distributive lattice tests
    only its minimum, maximum and irreducibles directly.  Table rows are
    built from the reachability bitsets on first read and live only while
    the scan runs; the result is recorded in the poset's verdict store.
    """

    def scan() -> CheckResult:
        witness = None if _count_holds(L) else _first_distributivity_failure(L)
        return CheckResult(witness is None, witness)

    return L.poset._verdict("distributive", scan)


class _Rows(dict):
    """Rows of the join table (from up-sets, ``join``) or the meet table, each built on first read."""

    def __init__(self, p: EdgeColoredPoset, join: bool):
        super().__init__()
        self._sets, self._at, self._join = p._up if join else p._down, p._at, join

    def __missing__(self, i: int) -> list[int]:
        at, bounds = self._at, map(self._sets[i].__and__, self._sets)
        row = self[i] = ([at[(m & -m).bit_length() - 1] for m in bounds] if self._join
                         else [at[m.bit_length() - 1] for m in bounds])
        return row


def _distributes(A: _Rows, B: _Rows, r: int, t: int) -> bool:
    """r A (s B t) = (r A s) B (r A t) for every s, compared as whole rows."""
    Ar = A[r]
    return list(map(Ar.__getitem__, B[t])) == list(map(B[Ar[t]].__getitem__, Ar))


def _closed_test(covers: list[list[int]], direct: Callable[[int], bool]) -> Callable[[int], bool]:
    """Memoised ``direct``, which holds at an id once it holds at two of its ``covers``.

    Covers are decided depth first on a stack (chains may outrun the recursion
    limit) until one fails; the id likely fails with it and is tested directly.
    """
    known: dict[int, bool] = {}

    def test(r: int) -> bool:
        stack = [] if r in known else [r]
        while stack:
            x = stack[-1]
            got = [known.get(c) for c in covers[x]]
            passed = got.count(True)
            if passed < 2 <= passed + got.count(None) and False not in got:
                stack.append(covers[x][got.index(None)])
            else:
                known[stack.pop()] = passed >= 2 or direct(x)
        return known[r]

    return test


def _first_distributivity_failure(L: LatticeView) -> DistributivityWitness | None:
    p, n = L.poset, len(L)
    J, M = _Rows(p, True), _Rows(p, False)
    join_irr = [t for t, adj in enumerate(p._down_adj) if len(adj) == 1]
    meet_irr = [t for t, adj in enumerate(p._up_adj) if len(adj) == 1]
    join_distributive = _closed_test(p._down_adj, lambda r: all(_distributes(J, M, r, t) for t in meet_irr))
    meet_distributive = _closed_test(p._up_adj, lambda r: all(_distributes(M, J, r, t) for t in join_irr))
    r = next((r for r in range(n) if not (join_distributive(r) and meet_distributive(r))), None)
    if r is None:
        return None
    meet_preserving = _closed_test(p._up_adj, partial(_distributes, J, M, r))
    join_preserving = _closed_test(p._down_adj, partial(_distributes, M, J, r))
    s = next(s for s in range(n) if not (meet_preserving(s) and join_preserving(s)))
    Jr, Mr, Ms, Js, v = J[r], M[r], M[s], J[s], p.vertices
    MJrs, JMrs = M[Jr[s]], J[Mr[s]]
    for t in range(n):
        if Jr[Ms[t]] != MJrs[Jr[t]]:
            return DistributivityWitness(v[r], v[s], v[t], "join-over-meet")
        if Mr[Js[t]] != JMrs[Mr[t]]:
            return DistributivityWitness(v[r], v[s], v[t], "meet-over-join")


def _count_holds(L: LatticeView) -> bool:
    """A finite modular lattice has at least ``length`` join irreducibles, with equality iff distributive."""
    return is_modular(L) and len(L.join_irreducibles()) == L.length


def is_distributive_fast(L: LatticeView) -> bool:
    """The recorded ``distributive`` verdict, or else the count of ``_count_holds``.

    A passing count is recorded; a failing one names no witness triple and
    records nothing.  Agrees with the triple scan everywhere (tested).
    """
    if "distributive" not in L.poset._verdicts and not _count_holds(L):
        return False
    return L.poset._verdict("distributive", lambda: CheckResult(True, None)).ok


def is_boolean(L: LatticeView) -> bool:
    """True iff the uncolored order is the subset order on the atoms.

    Colors are deliberately ignored: the intervals produced by the interval
    results are Boolean as lattices while carrying mixed edge colors.

    The test is 2**k elements for k atoms, plus distributivity; a Boolean
    lattice passes both.  Conversely, in a distributive lattice an atom a
    lies below the join of a set S of atoms iff a is in S: if a <= v S
    then a = a ^ (v S) = v {a ^ s : s in S}, and a ^ s is the minimum for
    s != a.  So S -> v S is monotone, injective and reflects inclusion;
    with 2**k elements it is an order isomorphism from the subsets of the
    atoms onto the lattice.
    """

    def scan() -> bool:
        atoms = L.poset._up_adj[L.poset.index_of(L.minimum)]
        return len(L) == 1 << len(atoms) and is_distributive_fast(L)

    return L.poset._verdict("boolean", scan)


def _record_proved(p: EdgeColoredPoset, rank: dict[str, int], length: int, distributive: bool) -> None:
    """Record in p's verdict store what a theorem has proved of it: a diamond-colored
    modular lattice ranked by ``rank``, of ``length``, and distributive when so proved."""
    holds = CheckResult(True, None)
    p._verdicts.update(lattice=True, diamond=holds, balanced=holds, rank=RankFunction(rank, length))
    if distributive:
        p._verdicts["distributive"] = holds


def verify_distance_laws(L: EdgeColoredPoset, seed: int | None = None) -> Report:
    """Proposition 1: balance agrees with the pairwise rank identity; where both hold,
    the rank formula is the graph distance and sampled shortest paths (seeded by
    ``seed``, 0 when None) rewrite to extremal mountain and valley paths.

    One pass over the id pairs, source-major, evaluates each pair's identity
    2r(x v y) - r(x) - r(y) = r(x) + r(y) - 2r(x ^ y) and stops at the first
    pair where it fails.  A source whose pairs all hold keeps that row of rank
    formulas and compares it with one breadth-first search from the source.
    """
    report = Report("distance and balance laws")
    balanced = paths.check_topographically_balanced(L).ok
    verts, n = L.vertices, len(L)
    try:
        view = as_lattice(L)
        rank, length = view.rank_function.rank, view.length
    except DclatError:
        rank = None
    modular = rank is not None
    r = [rank[x] for x in verts] if modular else []
    ok_dist = ok_bound = True
    for i in range(n if modular else 0):
        row = []  # the rank formula of (i, k) for k = i, ..., n - 1
        for k in range(i, n):
            row.append(2 * r[view._join_id(i, k)] - r[i] - r[k])
            if row[-1] != r[i] + r[k] - 2 * r[view._meet_id(i, k)]:
                modular = False
                break
        if not modular:
            break
        dist = paths._bfs(L, i, range(i, n))
        ok_dist = ok_dist and all(dist[k] == d for k, d in enumerate(row, i))
        ok_bound = ok_bound and max(dist[k] for k in range(i, n)) <= length
    report.record("balance agrees with the modular rank identity", balanced == modular)
    if not modular:
        return report
    report.record("rank formula equals graph distance on all pairs", ok_dist)
    report.record("distances never exceed the length", ok_bound)
    report.record(
        "bottom-to-top distance equals the length",
        paths.distance(L, view.minimum, view.maximum) == length,
    )
    rng = random.Random(seed if seed is not None else 0)
    samples = min(20, len(verts) * 2)
    ok_rewrite = True
    for _ in range(samples):
        s = rng.choice(verts)
        t = rng.choice(verts)
        walk = _random_shortest_path(L, s, t, rng)
        mt = paths.mountainize(view, walk)
        vl = paths.valleyize(view, walk)
        if mt.length != walk.length or mt.apex() != view.join(s, t):
            ok_rewrite = False
        if vl.length != walk.length or vl.nadir() != view.meet(s, t):
            ok_rewrite = False
        counts = paths.ascent_descent_counts(walk)
        if sum(a + d for a, d in counts.values()) != walk.length:
            ok_rewrite = False
        if paths.rank_via_path(L, walk) != rank[walk.end]:
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
