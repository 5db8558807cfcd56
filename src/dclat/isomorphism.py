"""Color-preserving isomorphism testing for colored posets.

Both structures are refined jointly by iterated neighbourhood signatures
(vertex color, then multisets of (direction, edge color, class) over
incident covers).  The stable classes seed a backtracking search with
forward candidate pruning; the worst case is exponential, which is fine at
desk scale.
"""

from __future__ import annotations

from .errors import ValidationError
from .structures import Structure, VertexColoredPoset


class _Graph:
    """Uniform adjacency view: keys are ('u'|'d', color)."""

    def __init__(self, p: Structure):
        n = len(p)
        self.n = n
        self.adj = [[] for _ in range(n)]  # list of (other, key)
        # (lower id, upper id) -> color; the covers of a vertex poset get color 0
        if isinstance(p, VertexColoredPoset):
            self.init_label = [("v", p.colors[v]) for v in p.vertices]
            edges = dict.fromkeys(p._cover_pairs, 0)
        else:
            self.init_label = [0] * n
            edges = p._edge_color
        self.cover_colors = sorted(edges.values())
        for (ia, ib), c in edges.items():
            self.adj[ia].append((ib, ("u", c)))
            self.adj[ib].append((ia, ("d", c)))
        self.nbrs = []  # per node: key -> frozenset of node ids
        for adj in self.adj:
            buckets = {}
            for j, key in adj:
                buckets.setdefault(key, set()).add(j)
            self.nbrs.append({k: frozenset(v) for k, v in buckets.items()})


def _joint_refine(ga: _Graph, gb: _Graph):
    """Refine both graphs with a shared signature table until stable.

    Returns (classes_a, classes_b) as lists of class ids, or None when the
    class histograms ever disagree (certificate of non-isomorphism).
    """
    la = list(ga.init_label)
    lb = list(gb.init_label)
    canon = {}

    def norm(labels, g):
        out = []
        for i in range(g.n):
            sig = (labels[i], tuple(sorted((key, labels[j]) for j, key in g.adj[i])))
            if sig not in canon:
                canon[sig] = len(canon)
            out.append(canon[sig])
        return out

    for _ in range(max(ga.n, 1)):
        canon.clear()
        na = norm(la, ga)
        nb = norm(lb, gb)
        if sorted(na) != sorted(nb):  # class histograms differ
            return None
        stable = len(set(na)) == len(set(la)) and len(set(nb)) == len(set(lb))
        la, lb = na, nb
        if stable:
            break
    return la, lb


def find_isomorphism(a: Structure, b: Structure) -> dict[str, str] | None:
    """A color- and edge-preserving bijection from a to b, or None.

    The witness maps vertex labels of ``a`` to vertex labels of ``b``.
    """
    if type(a) is not type(b):
        raise ValidationError("isomorphism requires two structures of the same kind")
    if len(a) != len(b):
        return None
    if len(a) == 0:
        return {}

    ga, gb = _Graph(a), _Graph(b)
    if ga.cover_colors != gb.cover_colors:
        return None
    refined = _joint_refine(ga, gb)
    if refined is None:
        return None
    la, lb = refined

    by_class = {}
    for j, cls in enumerate(lb):
        by_class.setdefault(cls, set()).add(j)

    n = ga.n
    mapping = [-1] * n
    used = set()
    live = [set(by_class[la[i]]) for i in range(n)]
    trail: list[list[tuple[int, set]]] = []

    def pick() -> int:
        best, best_size = -1, None
        for i in range(n):
            if mapping[i] != -1:
                continue
            size = len(live[i])
            if best_size is None or size < best_size:
                best, best_size = i, size
        return best

    def prune(i: int, j: int) -> bool:
        # forward-check: shrink unmapped neighbours of i to neighbours of j
        changes = []
        ok = True
        for other, key in ga.adj[i]:
            if mapping[other] != -1:
                continue
            allowed = gb.nbrs[j].get(key, frozenset())
            cur = live[other]
            new = cur & allowed
            if len(new) != len(cur):
                changes.append((other, cur))
                live[other] = new
                if not new - used:
                    ok = False
                    break
        trail.append(changes)
        return ok

    def undo():
        for other, old in trail.pop():
            live[other] = old

    # depth-first search; a frame holds a vertex and its untried candidates
    i = pick()
    stack = [(i, iter(sorted(live[i] - used)))]
    while stack:
        i, candidates = stack[-1]
        if mapping[i] != -1:  # the candidate tried last led nowhere
            undo()
            used.discard(mapping[i])
            mapping[i] = -1
        # no candidate needs a check against i's mapped neighbours: each of them
        # pruned live[i], which the candidates came from, to its image's neighbours
        j = next(candidates, -1)
        if j == -1:
            stack.pop()
            continue
        mapping[i] = j
        used.add(j)
        if prune(i, j):
            i = pick()
            if i == -1:
                break
            stack.append((i, iter(sorted(live[i] - used))))
    else:
        return None

    witness = {a.vertices[i]: b.vertices[mapping[i]] for i in range(n)}
    if not _verify_witness(a, b, witness):
        raise AssertionError("internal error: search produced an invalid witness")
    return witness


def _verify_witness(a: Structure, b: Structure, witness: dict[str, str]) -> bool:
    if sorted(witness) != sorted(a.vertices) or sorted(witness.values()) != sorted(b.vertices):
        return False
    return _map_holds(a, b, [b._index[witness[v]] for v in a.vertices])


def _map_holds(a: Structure, b: Structure, to_b: list[int]) -> bool:
    """Whether ``to_b``, b's id for each id of a, is an isomorphism from a to b.

    It must be a bijection onto b's ids that carries a's covers, with their
    colors, exactly onto b's and keeps every vertex color.  An id of -1 (or
    any id b does not have) makes it fail.
    """
    if len(a) != len(b) or sorted(to_b) != list(range(len(b))):
        return False
    # a's covers and vertex colors, carried to b's ids; the vertex order may differ
    covers_a, *colors_a = a._args()
    covers_b, *colors_b = b._args()
    if {(to_b[x], to_b[y], *rest) for x, y, *rest in covers_a} != set(covers_b):
        return False
    return all(cb[to_b[i]] == c for ca, cb in zip(colors_a, colors_b) for i, c in enumerate(ca))


def isomorphic(a: Structure, b: Structure) -> bool:
    """True iff a color- and edge-preserving bijection exists."""
    return find_isomorphism(a, b) is not None
