"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: closures by repeated squaring over
dicts, isomorphism by permutation search, component counts by union-find,
ideal counts by a delete-a-minimal recursion.  None of it shares code with
the library paths it checks.  Two bitset cross-checks sit here as well:
the pairwise join check, the reference for the sibling-cover check in
``as_lattice``, and the postconditions of ``build_J`` / ``build_M``.
"""

from itertools import permutations

from dclat import (
    EdgeColoredPoset,
    NotRanked,
    ValidationError,
    VertexColoredPoset,
    check_diamond_colored,
    compute_rank,
)


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


def component_count(vertices, edges):
    """Union-find over undirected edges."""
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
    return len({find(v) for v in vertices})


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
