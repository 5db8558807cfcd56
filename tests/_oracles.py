"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: closures by repeated squaring over
dicts, isomorphism by permutation search, component counts by union-find,
ideal counts by a delete-a-minimal recursion.  None of it shares code with
the library paths it checks.  Two bitset cross-checks sit here as well:
the pairwise join check, the reference for the sibling-cover check in
``as_lattice``, and the postconditions of ``build_J`` / ``build_M``.  So
do the label-level bodies the library replaced with id-level ones: the
diamond scan, the per-pair BFS distance, the atom-support Boolean test
the cubic transitive reduction, the two-factor product built pair by
pair, the triple-by-triple distributivity scan, the r-by-r witness scan
that the closure-pruned one replaced, the label-level rank BFS, the
induced cover pairs found by testing every ordered pair of labels, which
``_induced_ids`` finds as each label's minimal labels above it, and the
subordinate peeling that restarts its scan after every change, which
``subordinate_of`` does in one pass each way along a linear extension,
and the search over every subset of designated-color vertices outside
each ideal, which ``subordinates_by_definition`` replaces by one closure.
Last, the checks of the trusted paths: every structure the library
builds through ``_from_ids`` is rebuilt through the validating public
constructor and must come out with the same tables.  The search-based
bodies of ``verify_fundamental``, ``verify_fundamental_poset``,
``verify_transform_identities``, the interval check of Proposition 12,
``weak_subposet_from_sublattice`` and ``verify_subordinate_correspondence``
are the references for the map checks the library makes; the per-mask
label join is the reference for its memoised labels, and the extraction
that tests every pair of irreducibles for a cover, coloring them from the
step tables, is the reference for the one-walk extraction.
``check_sublattice`` and ``j_components`` prove their facts locally;
their references compare every pair's join and meet, and every pair's
distances by a search per pair.  ``verify_distance_laws`` computes each
pair's bounds once, and ``verify_product_closure`` proves the product's
bounds componentwise on sibling covers; their references are the
two-pass bodies they replaced.
"""

import random
from collections import deque
from contextlib import contextmanager
from functools import reduce
from itertools import permutations

from dclat import (
    DclatError,
    EdgeColoredPoset,
    EnumerationCapExceeded,
    HypothesisViolated,
    NotALattice,
    NotASublattice,
    NotConnected,
    NotConnectedPair,
    NotDiamondColored,
    NotDistributive,
    NotModular,
    NotRanked,
    UnknownVertex,
    ValidationError,
    VertexColoredPoset,
    as_lattice,
    check_diamond_colored,
    compute_rank,
    is_distributive_fast,
    is_modular,
)
from dclat import birkhoff, lattice, paths, substructure
from dclat.isomorphism import find_isomorphism
from dclat.lattice import DistributivityWitness
from dclat.paths import CheckResult, DiamondWitness, RankFunction
from dclat.report import Report
from dclat.structures import _HasseCore, _bits


def closure_pairs(vertices, cover_pairs):
    """Reflexive-transitive closure of the covers, Floyd-Warshall style."""
    reach = {v: {v} for v in vertices}
    for a, b in cover_pairs:
        reach[a].add(b)
    for k in vertices:
        for a in vertices:
            if k in reach[a]:
                reach[a] |= reach[k]
    return {(a, b) for a in vertices for b in reach[a]}


def brute_isomorphism(a, b):
    """Permutation-search isomorphism witness, or None.  Keep inputs tiny."""
    if len(a.vertices) != len(b.vertices):
        return None
    if isinstance(a, EdgeColoredPoset):
        ea = set(a.covers)
        for perm in permutations(b.vertices):
            m = dict(zip(a.vertices, perm))
            if {(m[x], m[y], c) for x, y, c in ea} == set(b.covers):
                return m
        return None
    ea = set(a.covers)
    for perm in permutations(b.vertices):
        m = dict(zip(a.vertices, perm))
        if all(a.colors[v] == b.colors[m[v]] for v in a.vertices) and {
            (m[x], m[y]) for x, y in ea
        } == set(b.covers):
            return m
    return None


def components(vertices, edges):
    """Union-find over undirected edges; members in ``vertices`` order, components by first member."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return [tuple(g) for g in groups.values()]


def component_count(vertices, edges):
    return len(components(vertices, edges))


def count_ideals(vertices, cover_pairs):
    """Delete-a-minimal-vertex recursion: ideals(P) = ideals(P - up(v)) + ideals(P - v)."""
    verts = frozenset(vertices)
    above = {v: set() for v in verts}
    reach = closure_pairs(list(verts), cover_pairs)
    for a, b in reach:
        if a != b:
            above[a].add(b)
    below = {v: {a for a, b in reach if b == v and a != v} for v in verts}

    def rec(remaining):
        if not remaining:
            return 1
        v = next(w for w in sorted(remaining) if not (below[w] & remaining))
        without_v = frozenset(remaining - {v})
        without_up = frozenset(remaining - ({v} | above[v]))
        return rec(without_v) + rec(without_up)

    return rec(verts)


def rank_assignments(vertices, cover_pairs, max_level):
    """All surjective level assignments raising by one along covers (brute force)."""
    verts = list(vertices)
    out = []

    def rec(i, levels):
        if i == len(verts):
            values = set(levels.values())
            top = max(values)
            if values == set(range(top + 1)):
                out.append(dict(levels))
            return
        v = verts[i]
        for lv in range(max_level + 1):
            levels[v] = lv
            ok = all(
                levels[b] == levels[a] + 1
                for a, b in cover_pairs
                if a in levels and b in levels
            )
            if ok:
                rec(i + 1, levels)
            del levels[v]

    rec(0, {})
    return out


def bounds_by_scan(vertices, leq):
    """Unique lub/glb for every pair by scanning the full order, or None entries."""
    lub = {}
    glb = {}
    for x in vertices:
        for y in vertices:
            uppers = [z for z in vertices if leq(x, z) and leq(y, z)]
            least = [z for z in uppers if all(leq(z, w) for w in uppers if leq(w, z))]
            minimal = [z for z in uppers if not any(w != z and leq(w, z) for w in uppers)]
            lub[(x, y)] = minimal[0] if len(minimal) == 1 else None
            lowers = [z for z in vertices if leq(z, x) and leq(z, y)]
            maximal = [z for z in lowers if not any(w != z and leq(z, w) for w in lowers)]
            glb[(x, y)] = maximal[0] if len(maximal) == 1 else None
    return lub, glb


def modular_by_rank_identity(view):
    """Ranked, with 2r(x v y) - r(x) - r(y) = r(x) + r(y) - 2r(x ^ y) for all pairs."""
    try:
        rank = view.rank_function.rank
    except NotRanked:
        return False
    verts = view.poset.vertices
    return all(
        2 * rank[view.join(x, y)] - rank[x] - rank[y] == rank[x] + rank[y] - 2 * rank[view.meet(x, y)]
        for x in verts
        for y in verts
    )


def distributive_by_supports(view):
    """The join irreducibles below x v y are those below x together with those below y."""
    p = view.poset
    irr = [v for v in p.vertices if len(p.descendants(v)) == 1]
    support = {x: frozenset(j for j in irr if p.leq(j, x)) for x in p.vertices}
    return all(
        support[view.join(x, y)] == support[x] | support[y] for x in p.vertices for y in p.vertices
    )


def joins_exact_pairwise(p):
    """Every pair's common up-set is the up-set of its lowest element."""
    up = p._up
    up_at = [up[i] for i in p._at]
    n = len(p)
    for i in range(n):
        for k in range(i + 1, n):
            m = up[i] & up[k]
            # an empty m probes position -1, whose non-empty up-set differs
            if up_at[(m & -m).bit_length() - 1] != m:
                return False
    return True


def subset_lattice_postconditions(il):
    """Postconditions of build_J / build_M, checked on the built object.

    The reachability order must coincide with (reverse) containment and the
    family must be closed under union and intersection; together these prove
    the lattice distributive with join/meet given by the set operations.
    Diamond coloring, the rank formula, and the extremes are checked
    directly.  Raises ``ValidationError`` on the first failure.
    """
    P, lat, masks = il.source, il.lattice, il.masks
    mask_set = set(masks)
    n = len(masks)
    down, pos = lat._down, lat._pos
    reverse = il.mode == "filter"
    for i in range(n):  # element i of the lattice is masks[i]
        mi, di, pi = masks[i], down[i], pos[i]
        for k in range(i + 1, n):
            mk = masks[k]
            if (mi | mk) not in mask_set or (mi & mk) not in mask_set:
                raise ValidationError("element family is not closed under union/intersection")
            contained = mi & mk == mi
            contains = mi & mk == mk
            if reverse:
                contained, contains = contains, contained
            if (down[k] >> pi & 1) != contained or (di >> pos[k] & 1) != contains:
                raise ValidationError("lattice order does not match containment")
    diamond = check_diamond_colored(lat)
    if not diamond.ok:
        raise ValidationError(f"ideal lattice is not diamond-colored: {diamond.witness}")
    rf = compute_rank(lat)
    full = (1 << len(P)) - 1
    for lab, m in il.mask_of_label.items():
        expect = m.bit_count() if not reverse else len(P) - m.bit_count()
        if rf.rank[lab] != expect:
            raise ValidationError(f"rank of {lab!r} is {rf.rank[lab]}, expected {expect}")
    lo, hi = (0, full) if not reverse else (full, 0)
    if il.mask_of_label[lat.minimal_elements()[0]] != lo or il.mask_of_label[lat.maximal_elements()[0]] != hi:
        raise ValidationError("extremes of the subset lattice are wrong")


def diamond_by_labels(p):
    """Diamond scan on labels: tops, pairs of lower covers, common bottoms, all by id."""
    for u in p.vertices:
        lowers = p.descendants(u)
        for a in range(len(lowers)):
            for b in range(a + 1, len(lowers)):
                s, t = lowers[a], lowers[b]
                common = sorted(set(p.descendants(s)) & set(p.descendants(t)), key=p.index_of)
                for bot in common:
                    if (
                        p.edge_color(bot, s) != p.edge_color(t, u)
                        or p.edge_color(bot, t) != p.edge_color(s, u)
                    ):
                        return CheckResult(False, DiamondWitness(bot, s, t, u))
    return CheckResult(True, None)


def distance_by_pair_bfs(p, s, t):
    """One breadth-first search on labels per pair, stopping at t."""
    if s == t:
        p.index_of(s)
        return 0
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in p.ancestors(v) + p.descendants(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == t:
                    return dist[w]
                queue.append(w)
    raise NotConnectedPair(f"{s!r} and {t!r} lie in different components")


def boolean_by_supports(view):
    """2**k elements, distinct atom supports, and order equal to support inclusion."""
    p = view.poset
    n = len(p)
    atoms = [p.index_of(a) for a in p.ancestors(view.minimum)]
    if n != 1 << len(atoms):
        return False
    support = [
        sum(1 << bit for bit, a in enumerate(atoms) if p._down[x] >> p._pos[a] & 1) for x in range(n)
    ]
    if len(set(support)) != n:
        return False
    return all(
        (support[i] | support[j] == support[j]) == bool(p._down[j] >> p._pos[i] & 1)
        for i in range(n)
        for j in range(n)
    )


def reduce_relation_by_scan(vertices, pairs):
    """Close the relation, then keep (i, j) with no k strictly between: cubic."""
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
    reach = [0] * n
    for i in reversed(topo):
        m = 1 << i
        for j in adj[i]:
            m |= reach[j]
        reach[i] = m
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not (reach[i] >> j) & 1:
                continue
            if not any(
                k != i and k != j and (reach[i] >> k) & 1 and (reach[k] >> j) & 1
                for k in range(n)
            ):
                covers.append((vertices[i], vertices[j]))
    return covers


def product_by_pairs(a, b):
    """Two-factor product: vertices "(s,t)" with t fastest, one coordinate steps along an edge."""
    vertices = [f"({s},{t})" for s in a.vertices for t in b.vertices]
    covers = [(f"({s},{t1})", f"({s},{t2})", c) for s in a.vertices for t1, t2, c in b.covers]
    covers += [(f"({s1},{t})", f"({s2},{t})", c) for s1, s2, c in a.covers for t in b.vertices]
    return EdgeColoredPoset(vertices, covers)


def distributivity_failure_by_triples(view):
    """First (r, s, t), r-major in id order, failing join-over-meet then meet-over-join."""
    n = len(view)
    J = [[view._join_id(r, s) for s in range(n)] for r in range(n)]
    M = [[view._meet_id(r, s) for s in range(n)] for r in range(n)]
    v = view.poset.vertices
    for r in range(n):
        Jr, Mr = J[r], M[r]
        for s in range(n):
            Ms, Js = M[s], J[s]
            MJrs, JMrs = M[Jr[s]], J[Mr[s]]
            for t in range(n):
                if Jr[Ms[t]] != MJrs[Jr[t]]:
                    return DistributivityWitness(v[r], v[s], v[t], "join-over-meet")
                if Mr[Js[t]] != JMrs[Mr[t]]:
                    return DistributivityWitness(v[r], v[s], v[t], "meet-over-join")
    return None


def distributivity_failure_r_by_r(view):
    """The witness scan from before the closure pruning: every r in id order gets the irreducible test.

    The first r failing it gets the full (s, t) scan; table rows are probed
    one cell at a time on first read.
    """
    p = view.poset
    n = len(view)

    class Rows(dict):
        def __init__(self, probe):
            super().__init__()
            self.probe = probe

        def __missing__(self, i):
            row = self[i] = [self.probe(i, k) for k in range(n)]
            return row

    def distributes(A, B, r, irreducibles):
        Ar = A[r]
        return all([Ar[x] for x in B[t]] == [B[Ar[t]][x] for x in Ar] for t in irreducibles)

    J, M = Rows(view._join_id), Rows(view._meet_id)
    join_irr = [t for t, adj in enumerate(p._down_adj) if len(adj) == 1]
    meet_irr = [t for t, adj in enumerate(p._up_adj) if len(adj) == 1]
    v = p.vertices
    for r in range(n):
        if distributes(J, M, r, meet_irr) and distributes(M, J, r, join_irr):
            continue
        Jr, Mr = J[r], M[r]
        for s in range(n):
            Ms, Js = M[s], J[s]
            MJrs, JMrs = M[Jr[s]], J[Mr[s]]
            for t in range(n):
                if Jr[Ms[t]] != MJrs[Jr[t]]:
                    return DistributivityWitness(v[r], v[s], v[t], "join-over-meet")
                if Mr[Js[t]] != JMrs[Mr[t]]:
                    return DistributivityWitness(v[r], v[s], v[t], "meet-over-join")
    return None


def rank_by_labels(p):
    """Rank by a label-level BFS from the first vertex, then a pass over every cover."""
    if len(p) == 0:
        raise NotConnected("empty poset has no rank function")
    if component_count(p.vertices, [c[:2] for c in p.covers]) > 1:
        raise NotConnected("rank functions are only unique on connected posets")
    level = {p.vertices[0]: 0}
    queue = deque([p.vertices[0]])
    while queue:
        v = queue.popleft()
        for w in p.ancestors(v):
            if w in level:
                if level[w] != level[v] + 1:
                    raise NotRanked(f"inconsistent levels at cover {v!r} -> {w!r}")
            else:
                level[w] = level[v] + 1
                queue.append(w)
        for w in p.descendants(v):
            if w in level:
                if level[w] != level[v] - 1:
                    raise NotRanked(f"inconsistent levels at cover {w!r} -> {v!r}")
            else:
                level[w] = level[v] - 1
                queue.append(w)
    for a, b in ((x, y) for x in p.vertices for y in p.ancestors(x)):
        if level[b] != level[a] + 1:
            raise NotRanked(f"inconsistent levels at cover {a!r} -> {b!r}")
    low = min(level.values())
    rank = {v: l - low for v, l in level.items()}
    return RankFunction(rank, max(rank.values()))


@contextmanager
def trusted_builds():
    """Collect every structure that ``_from_ids`` builds inside the block."""
    built = []
    original = _HasseCore.__dict__["_from_ids"]

    def recording(cls, *args):
        built.append(original.__func__(cls, *args))
        return built[-1]

    _HasseCore._from_ids = classmethod(recording)
    try:
        yield built
    finally:
        _HasseCore._from_ids = original


# what the public constructor and _from_ids must agree on, beyond _key()
CORE_TABLES = ("vertices", "_index", "_up_adj", "_down_adj", "_at", "_pos", "_up", "_down")
KIND_TABLES = {
    EdgeColoredPoset: ("_up_steps", "_down_steps", "_edge_color"),
    VertexColoredPoset: ("colors",),
}


def assert_matches_constructor(s):
    """Rebuild ``s`` from its labels through the public constructor; every id table must agree."""
    if isinstance(s, EdgeColoredPoset):
        t = EdgeColoredPoset(list(s.vertices), list(s.covers))
    else:
        t = VertexColoredPoset(list(s.vertices), list(s.covers), dict(s.colors))
    assert s._key() == t._key()
    for name in CORE_TABLES + KIND_TABLES[type(s)]:
        assert getattr(s, name) == getattr(t, name), name
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)


def subset_label_by_join(P, mask):
    """A subset lattice element's label: its members' names joined by "." in declaration order."""
    if mask == 0:
        return "empty"
    return ".".join(P.vertices[i] for i in _bits(mask))


def induced_cover_pairs(p, labels):
    """Cover pairs of the subposet of ``p`` on ``labels`` in the induced order, by testing every pair.

    Pairs come in (lower id, upper id) order, as ``_induced_ids`` gives
    them.  Unlike ``induced`` on edge-colored posets, a returned cover need
    not be an edge of the parent.
    """
    ids = sorted(p.index_of(v) for v in set(labels))
    up, down, pos = p._up, p._down, p._pos
    sub_mask = 0
    for i in ids:
        sub_mask |= 1 << pos[i]
    pairs = []
    for a in ids:
        for b in ids:
            if a == b or not (down[b] >> pos[a] & 1):
                continue
            if up[a] & down[b] & sub_mask == (1 << pos[a]) | (1 << pos[b]):
                pairs.append((p.vertices[a], p.vertices[b]))
    return pairs


def extract_by_induced_pairs(L, side):
    """Irreducibles of one side, colored from the step tables and ordered by the induced cover pairs."""
    view = birkhoff._coerce_view(L)
    birkhoff._require_dcdl(view)
    p = view.poset
    irr = view.join_irreducibles() if side == "join" else view.meet_irreducibles()
    if len(irr) != view.length:
        raise NotDistributive(
            f"{len(irr)} {side} irreducibles for length {view.length}; lattice cannot be distributive"
        )
    steps = p.down_steps if side == "join" else p.up_steps
    colors = {x: steps(x)[0][1] for x in irr}
    covers = induced_cover_pairs(p, irr)
    return birkhoff.IrreduciblePoset(VertexColoredPoset(irr, covers, colors), side)


# The suites below are the library's bodies from before it checked the
# theorems' maps: every identity is a search for some isomorphism.  They call
# the constructions through ``birkhoff``'s (or ``substructure``'s) module
# attributes, so a test that patches one there changes what both the library
# and its oracle see.


def verify_fundamental_by_search(L):
    """Search-based lattice roundtrips through the irreducible posets."""
    view = birkhoff._coerce_view(L)
    report = Report("lattice roundtrips through irreducibles")
    jp = birkhoff.extract_j(view)
    mp = birkhoff.extract_m(view)
    report.record("join and meet irreducible counts equal the length",
                  len(jp.poset) == view.length == len(mp.poset))
    wit_j = find_isomorphism(view.poset, birkhoff.build_J(jp.poset).lattice)
    report.record("lattice rebuilt from join irreducibles", wit_j is not None)
    wit_m = find_isomorphism(view.poset, birkhoff.build_M(mp.poset).lattice)
    report.record("lattice rebuilt from meet irreducibles", wit_m is not None)
    report.details["join_witness"] = wit_j
    report.details["meet_witness"] = wit_m
    return report


def verify_fundamental_poset_by_search(P):
    """Search-based poset roundtrips through the subset lattices."""
    b = birkhoff
    report = Report("poset roundtrips through subset lattices")
    jl = b.build_J(P)
    wit_j = find_isomorphism(P, b.extract_j(jl).poset)
    report.record("poset recovered from its ideal lattice", wit_j is not None)
    ml = b.build_M(P)
    wit_m = find_isomorphism(P, b.extract_m(ml).poset)
    report.record("poset recovered from its filter lattice", wit_m is not None)
    principal = {frozenset(b.principal_ideal(P, v)) for v in P.vertices}
    irreducible = {jl.members(x) for x in jl.view.join_irreducibles()}
    report.record("join irreducibles are the principal ideals", principal == irreducible)
    profile_ok = True
    try:
        for il in (jl, ml):
            for lab in il.lattice.vertices:
                b.cover_color_profile(il, lab)
    except ValidationError:
        profile_ok = False
    report.record("cover color profiles match incident edges", profile_ok)
    report.details["join_witness"] = wit_j
    report.details["meet_witness"] = wit_m
    return report


def verify_transform_identities_by_search(P, Q, sigma):
    """Search-based transform identities, the twelve checks in the library's order."""
    b = birkhoff
    report = Report("transform identities for the subset-lattice constructions")

    def iso(x, y):
        return find_isomorphism(x, y) is not None

    def irreducibles_after(label, ideals, K):
        report.record(label, iso(ideals, K))
        view = b.as_lattice(K)
        return b.extract_j(view).poset, b.extract_m(view).poset

    JP, JQ, MP = b.build_J(P), b.build_J(Q), b.build_M(P)
    L = JP.lattice
    j_dual, m_dual = irreducibles_after(
        "ideals of the dual = dual of the ideals", b.build_J(dP := b.dual(P)).lattice, b.dual(L))
    j_recolor, m_recolor = irreducibles_after(
        "ideals of a recoloring = recoloring of the ideals",
        b.build_J(rP := b.recolor(P, sigma)).lattice, b.recolor(L, sigma))
    j_product, m_product = irreducibles_after(
        "ideals of a disjoint sum = product of the ideals",
        b.build_J(PQ := b.disjoint_sum(P, Q)).lattice, b.cartesian_product(L, JQ.lattice))
    report.record("filters of the dual = dual of the filters",
                  iso(b.build_M(dP).lattice, b.dual(MP.lattice)))
    report.record("filters of a recoloring = recoloring of the filters",
                  iso(b.build_M(rP).lattice, b.recolor(MP.lattice, sigma)))
    report.record("filters of a disjoint sum = product of the filters",
                  iso(b.build_M(PQ).lattice, b.cartesian_product(MP.lattice, b.build_M(Q).lattice)))

    jL, jK = b.extract_j(JP).poset, b.extract_j(JQ).poset
    mL, mK = b.extract_m(JP).poset, b.extract_m(JQ).poset
    report.record("join irreducibles of the dual = dual of the join irreducibles",
                  iso(j_dual, b.dual(jL)))
    report.record("join irreducibles of a recoloring = recoloring of join irreducibles",
                  iso(j_recolor, b.recolor(jL, sigma)))
    report.record("join irreducibles of a product = disjoint sum of join irreducibles",
                  iso(j_product, b.disjoint_sum(jL, jK)))
    report.record("meet irreducibles of the dual = dual of meet irreducibles",
                  iso(m_dual, b.dual(mL)))
    report.record("meet irreducibles of a recoloring = recoloring of meet irreducibles",
                  iso(m_recolor, b.recolor(mL, sigma)))
    report.record("meet irreducibles of a product = disjoint sum of meet irreducibles",
                  iso(m_product, b.disjoint_sum(mL, mK)))
    return report


def check_sublattice_by_pairs(K, L):
    """``check_sublattice`` with the joins and meets of every pair compared, in id order."""
    try:
        kv = birkhoff._coerce_view(K)
    except NotALattice as e:
        raise NotASublattice(f"candidate is not a lattice in its own order: {e}", witness=e.witness) from None
    lv = birkhoff._coerce_view(L)
    kp, lp = kv.poset, lv.poset
    missing = [v for v in kp.vertices if v not in lp]
    if missing:
        raise ValidationError(f"sublattice candidate has foreign vertices {missing[:3]}")
    verts = kp.vertices
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            for side, inner, outer in (("join", kv.join, lv.join), ("meet", kv.meet, lv.meet)):
                if inner(x, y) != outer(x, y):
                    raise NotASublattice(
                        f"{side} of {x!r}, {y!r} is {inner(x, y)!r} inside, {outer(x, y)!r} in the parent",
                        witness=(x, y, side),
                    )
    try:
        full_length = kv.length == lv.length
    except NotRanked:
        full_length = False
    edge_colored = all(b in lp.ancestors(a) and lp.edge_color(a, b) == c for a, b, c in kp.covers)
    return substructure.SublatticeEmbedding(kp, lp, kv, lv, full_length, edge_colored)


def j_components_by_pair_bfs(L, colors):
    """``j_components(L, colors)`` with every pair of a component searched for its distance on both sides.

    Components are induced from the J-restricted order, checked with
    ``check_sublattice_by_pairs``, and the first pair in label order whose
    distances differ is reported.
    """
    lv = birkhoff._coerce_view(L)
    p = lv.poset
    J = frozenset(colors)
    substructure._diamond_modular(lv, "lattice")
    restricted = EdgeColoredPoset(p.vertices, [(a, b, c) for a, b, c in p.covers if c in J])
    infos = []
    distributive_parent = is_distributive_fast(lv)
    for labels in components(restricted.vertices, [c[:2] for c in restricted.covers]):
        sub = restricted.induced(labels)
        mins, maxs = sub.minimal_elements(), sub.maximal_elements()
        if len(mins) != 1 or len(maxs) != 1:
            raise ValidationError("color-restricted component is not bounded")
        infos.append(substructure.ComponentInfo(labels, sub, mins[0], maxs[0]))
        sv = as_lattice(sub)
        check_sublattice_by_pairs(sv, lv)
        if not sv.diamond.ok:
            raise ValidationError("component is not diamond-colored")
        if not is_modular(sv):
            raise ValidationError("component is not modular")
        if distributive_parent and not is_distributive_fast(sv):
            raise ValidationError("component of a distributive lattice is not distributive")
        for k, x in enumerate(labels):
            for y in labels[k + 1 :]:
                if distance_by_pair_bfs(sub, x, y) != distance_by_pair_bfs(p, x, y):
                    raise ValidationError(f"inner distance differs from parent distance at ({x!r}, {y!r})")
    return substructure.JComponentDecomposition(J, tuple(infos))


def interval_boolean_by_search(L, t, S, side):
    """``_interval_boolean`` with the interval searched against the subset lattice, and always scanned."""
    b = birkhoff
    view = b._coerce_view(L)
    b._require_dcdl(view)
    p = view.poset
    S = list(dict.fromkeys(S))
    below = side == "descendant"
    colors = {s: p.edge_color(s, t) if below else p.edge_color(t, s) for s in S}
    antichain = VertexColoredPoset(sorted(S, key=p.index_of), [], colors)
    if below:
        bound = reduce(view.meet, S, view.maximum)
        inner, subset_lattice = view.interval(bound, t), b.build_M(antichain)
    else:
        bound = reduce(view.join, S, view.minimum)
        inner, subset_lattice = view.interval(t, bound), b.build_J(antichain)
    matches = find_isomorphism(inner, subset_lattice.lattice) is not None
    contains = set(S) <= set(inner.vertices)
    return b.IntervalBooleanResult(bound, contains, matches, b.is_boolean(as_lattice(inner)))


def weak_subposet_from_sublattice_by_search(L, K):
    """Search-based recovery of a weak subposet from a full-length sublattice."""
    s = substructure
    lv, kv = birkhoff._coerce_view(L), birkhoff._coerce_view(K)
    emb = s.check_sublattice(kv, lv)
    if not emb.full_length:
        raise ValidationError("sublattice is not full-length")
    if not emb.edge_colored:
        raise ValidationError("sublattice is not edge-colored")
    Q, Pp = s.extract_j(lv).poset, s.extract_j(kv).poset
    report = Report("weak subposet recovered from a full-length sublattice")
    phi = {}
    ok_unique = ok_irr = True
    for x in Q.vertices:
        above = [y for y in kv.poset.vertices if lv.leq(x, y)]
        minimal = [y for y in above if not any(z != y and lv.leq(z, y) for z in above)]
        if len(minimal) != 1:
            ok_unique = False
            break
        if minimal[0] not in Pp._index:
            ok_irr = False
            break
        phi[x] = minimal[0]
    report.record("each filter of sublattice elements has a unique minimum", ok_unique)
    report.record("those minima are join irreducible in the sublattice", ok_unique and ok_irr)
    if not (ok_unique and ok_irr):
        return s.SubposetRecovery(phi, Pp, report)
    report.record("the map is a bijection onto the sublattice irreducibles", sorted(phi.values()) == sorted(Pp.vertices))
    report.record("the map preserves vertex colors", all(Q.colors[x] == Pp.colors[w] for x, w in phi.items()))
    report.record("the map is monotone into the recovered order",
                  all(Pp.leq(phi[u], phi[v]) for u in Q.vertices for v in Q.vertices if Q.leq(u, v)))
    relation = [(phi[u], phi[v]) for u in Q.vertices for v in Q.vertices if u != v and Q.leq(u, v)]
    recovered = s.weak_subposet(Pp, relation)
    transported = Q.relabel(phi)
    report.record("transported order equals the recovered order",
                  set(transported.covers) == set(recovered.covers) and transported.colors == recovered.colors)
    report.record("recovered order is isomorphic to the original irreducibles",
                  find_isomorphism(Q, recovered) is not None)
    report.record("recovered order is a weak subposet of the sublattice irreducibles",
                  all(Pp.leq(a, b) for a, b in recovered.covers))
    return s.SubposetRecovery(phi, recovered, report)


def verify_weakening_by_search(P, Q):
    """``verify_weakening`` with the recovery checked by ``weak_subposet_from_sublattice_by_search``."""
    emb = substructure.sublattice_from_weak_subposet(P, Q).embedding
    agreement = substructure.verify_full_length_agreement(emb)
    recovery = weak_subposet_from_sublattice_by_search(emb.parent_view, emb.sub_view)
    recovery.report.details["recovered"] = recovery.recovered
    return [agreement, recovery.report]


def subordinate_by_restarts(il, t, colors):
    """``subordinate_of`` with the peeling and the adding each restarting its scan after every change."""
    if il.mode != "ideal":
        raise ValidationError("subordinates are computed on ideal lattices")
    P = il.source
    J = frozenset(colors)
    t_mask = il._mask(t)
    down, up = P._cover_masks
    color_of = [P.colors[v] for v in P.vertices]
    r_mask = t_mask
    changed = True
    while changed:
        changed = False
        for i in _bits(r_mask):
            if color_of[i] in J and up[i] & r_mask == 0:
                r_mask ^= 1 << i
                changed = True
                break
    top_mask = t_mask
    changed = True
    while changed:
        changed = False
        for i in range(len(P)):
            if not (top_mask >> i) & 1 and color_of[i] in J and down[i] & top_mask == down[i]:
                top_mask |= 1 << i
                changed = True
    q_labels = frozenset(P.vertices[i] for i in _bits(top_mask ^ r_mask))
    r_labels = frozenset(P.vertices[i] for i in _bits(r_mask))
    return substructure.JSubordinate(q_labels, P.induced(q_labels), r_labels)


def subordinates_by_subset_search(P, colors):
    """Deliberately naive search straight from the definition.

    Enumerates pairs (ideal r, candidate vertex set Q) and keeps Q when: all
    its colors are designated, it is disjoint from r, r unioned with Q is an
    ideal, and the boundary (maximal vertices of r, minimal vertices outside
    the union) avoids the designated colors.  Exponential; capped at
    ``DEFINITION_SEARCH_CAP`` vertices.
    """
    if len(P) > substructure.DEFINITION_SEARCH_CAP:
        raise EnumerationCapExceeded(f"definition search is capped at {substructure.DEFINITION_SEARCH_CAP} vertices")
    J = frozenset(colors)
    n = len(P)
    down, up = P._cover_masks
    color_of = [P.colors[v] for v in P.vertices]
    found = set()
    for r_mask in birkhoff.enumerate_ideal_masks(P):
        if any(
            up[i] & r_mask == 0 and color_of[i] in J for i in _bits(r_mask)
        ):
            continue  # a maximal vertex of r carries a designated color
        pool = [i for i in range(n) if not (r_mask >> i) & 1 and color_of[i] in J]
        for sub_mask in range(1 << len(pool)):
            q_mask = 0
            for b in range(len(pool)):
                if (sub_mask >> b) & 1:
                    q_mask |= 1 << pool[b]
            union = r_mask | q_mask
            if any(down[i] & union != down[i] for i in _bits(q_mask)):
                continue  # union is not downward closed
            boundary_ok = True
            for i in range(n):
                if not (union >> i) & 1 and down[i] & union == down[i] and color_of[i] in J:
                    boundary_ok = False
                    break
            if boundary_ok:
                found.add(frozenset(P.vertices[i] for i in _bits(q_mask)))
    return found


def verify_subordinate_correspondence_by_search(P, colors):
    """Search-based subordinate correspondence: each component compared three ways."""
    s = substructure
    J = frozenset(colors)
    report = Report(f"subordinate correspondence for colors {sorted(J)}")
    from_definition = subordinates_by_subset_search(P, J)
    il = s.build_J(P)
    decomp = s.j_components(il, J, verify=True)
    from_components = {s.subordinate_of(il, lab, J).vertex_set for lab in il.lattice.vertices}
    report.record("component subordinates match the definition search", from_components == from_definition)
    for comp in decomp.components:
        sub = s.subordinate_of(il, comp.minimum, J)
        r_labels = sub.witness_ideal
        jq = s.build_J(sub.poset)
        expected_elements = {frozenset(jq.members(lab)) | r_labels for lab in jq.lattice.vertices}
        actual_elements = {frozenset(il.members(lab)) for lab in comp.labels}
        elements_ok = expected_elements == actual_elements
        edges_ok = True
        if elements_ok:
            lift = {lab: il.label_for(frozenset(jq.members(lab)) | r_labels) for lab in jq.lattice.vertices}
            edges_ok = {(lift[a], lift[b], c) for a, b, c in jq.lattice.covers} == set(comp.poset.covers)
        report.record(f"component at {comp.minimum!r}: union map is an edge-color bijection", elements_ok and edges_ok)
        report.record(f"component at {comp.minimum!r}: generic isomorphism with the subordinate's ideals",
                      find_isomorphism(comp.poset, jq.lattice) is not None)
        report.record(f"component at {comp.minimum!r}: irreducibles give back the subordinate",
                      find_isomorphism(s.extract_j(comp.poset).poset, sub.poset) is not None)
    return report


# The pair-by-pair bodies of Propositions 1 and 10 from before each fact was
# computed once: prop1 checks the rank identity on labels, then compares a
# search per source with ``distance_modular`` per pair; prop10 checks K's
# closure, then compares every pair of the product with the componentwise
# bounds again.


def verify_distance_laws_by_pairs(L, seed=None):
    """``verify_distance_laws`` with the identity and each pair's distance checked on labels, in two passes."""
    report = Report("distance and balance laws")
    balanced = paths.check_topographically_balanced(L).ok
    try:
        view = as_lattice(L)
        rank = view.rank_function.rank
        verts = view.poset.vertices
        modular = all(
            2 * rank[view.join(x, y)] - rank[x] - rank[y] == rank[x] + rank[y] - 2 * rank[view.meet(x, y)]
            for i, x in enumerate(verts)
            for y in verts[i + 1 :]
        )
    except DclatError:
        modular = False
    report.record("balance agrees with the modular rank identity", balanced == modular)
    if not modular:
        return report
    length = view.length
    ok_dist = ok_bound = True
    for i, s in enumerate(verts):
        dist = paths._bfs(L, i, range(i, len(verts)))
        for j in range(i, len(verts)):
            if dist[j] != paths.distance_modular(view, s, verts[j]):
                ok_dist = False
            if dist[j] > length:
                ok_bound = False
    report.record("rank formula equals graph distance on all pairs", ok_dist)
    report.record("distances never exceed the length", ok_bound)
    report.record("bottom-to-top distance equals the length",
                  paths.distance(L, view.minimum, view.maximum) == length)
    rng = random.Random(seed if seed is not None else 0)
    ok_rewrite = True
    for _ in range(min(20, len(verts) * 2)):
        s, t = rng.choice(verts), rng.choice(verts)
        walk = lattice._random_shortest_path(L, s, t, rng)
        mt, vl = paths.mountainize(view, walk), paths.valleyize(view, walk)
        if mt.length != walk.length or mt.apex() != view.join(s, t):
            ok_rewrite = False
        if vl.length != walk.length or vl.nadir() != view.meet(s, t):
            ok_rewrite = False
        if sum(a + d for a, d in paths.ascent_descent_counts(walk).values()) != walk.length:
            ok_rewrite = False
        if paths.rank_via_path(L, walk) != rank[walk.end]:
            ok_rewrite = False
    report.record("shortest paths rewrite to extremal mountain and valley paths", ok_rewrite)
    return report


def verify_product_closure_two_pass(factors, K_labels):
    """``verify_product_closure`` with K's closure and the product's bounds checked in separate pair loops."""
    s = substructure
    views = []
    for idx, f in enumerate(factors):
        v = as_lattice(f)
        try:
            s._diamond_modular(v, f"factor {idx}")
        except (NotDiamondColored, NotModular) as e:
            raise HypothesisViolated(str(e)) from None
        views.append(v)
    all_distributive = all(is_distributive_fast(v) for v in views)
    pv = s.ProductView(factors)
    L = pv.poset
    lv = as_lattice(L)
    coords, verts = pv._coord_ids, L.vertices
    id_of = {c: e for e, c in enumerate(coords)}
    joins = [[[v._join_id(a, b) for b in range(len(v))] for a in range(len(v))] for v in views]
    meets = [[[v._meet_id(a, b) for b in range(len(v))] for a in range(len(v))] for v in views]

    def componentwise(tables, x, y):
        return id_of[tuple([t[a][b] for t, a, b in zip(tables, coords[x], coords[y])])]

    K = sorted({L.index_of(x) for x in K_labels})
    kset = set(K)
    if L.index_of(lv.minimum) not in kset or L.index_of(lv.maximum) not in kset:
        raise HypothesisViolated("subset must contain the product's extremes")
    for i, x in enumerate(K):
        for y in K[i + 1 :]:
            if componentwise(joins, x, y) not in kset or componentwise(meets, x, y) not in kset:
                raise HypothesisViolated(
                    f"subset not closed under componentwise bounds at ({verts[x]!r}, {verts[y]!r})"
                )
    inside = EdgeColoredPoset._from_ids(verts, [(a, b, c) for (a, b), c in L._edge_color.items() if {a, b} <= kset])
    bottom, top = L.index_of(lv.minimum), L.index_of(lv.maximum)
    if top not in paths._bfs(inside, bottom, (top,)):
        raise HypothesisViolated("no bottom-to-top path inside the subset")
    report = Report("product closure yields a full-length sublattice")
    rank = lv.rank_function.rank
    report.record("product length is the sum of factor lengths", lv.length == sum(v.length for v in views))
    report.record("product rank is the sum of coordinate ranks", all(
        rank[lab] == sum(views[q].rank_function.rank[c] for q, c in enumerate(pv.coords[lab])) for lab in verts))
    report.record("product extremes are the coordinate extremes",
                  lv.minimum == pv.label_of([v.minimum for v in views])
                  and lv.maximum == pv.label_of([v.maximum for v in views]))
    report.record("product joins and meets are componentwise", all(
        lv._join_id(x, y) == componentwise(joins, x, y) and lv._meet_id(x, y) == componentwise(meets, x, y)
        for x in range(len(L)) for y in range(x + 1, len(L))))
    report.record("product is modular", is_modular(lv))
    report.record("product is diamond-colored", lv.diamond.ok)
    if all_distributive:
        report.record("product is distributive", is_distributive_fast(lv))
    emb = s.check_sublattice(as_lattice(L.induced(verts[i] for i in K)), lv)
    report.record("subset is a sublattice", True)
    report.record("subset sublattice is full-length", emb.full_length)
    report.record("subset sublattice is edge-colored", emb.edge_colored)
    report.record("subset sublattice is modular", is_modular(emb.sub_view))
    report.record("subset sublattice is diamond-colored", emb.sub_view.diamond.ok)
    if all_distributive:
        report.record("subset sublattice is distributive", is_distributive_fast(emb.sub_view))
    report.record("rank and cover agreement", s.verify_full_length_agreement(emb).passed)
    return report
