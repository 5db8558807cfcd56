"""Full-length sublattices, color-restricted components, and subordinates.

The constructions here relate substructures of a lattice to substructures
of its poset of join irreducibles: weakening a poset's order embeds its
ideal lattice as a full-length sublattice, deleting all edges outside a
color set J splits the lattice into components that are themselves ideal
lattices of induced "J-subordinate" subposets, and both directions are
verified instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .birkhoff import (
    IdealLattice,
    _coerce_view,
    build_J,
    enumerate_ideal_masks,
    extract_j,
)
from .errors import (
    DclatError,
    EnumerationCapExceeded,
    HypothesisViolated,
    NotALattice,
    NotASublattice,
    NotDiamondColored,
    NotModular,
    NotRanked,
    NotWeakSubposet,
    ValidationError,
)
from .isomorphism import _map_holds, _verify_witness
from .lattice import LatticeView, _record_proved, as_lattice, is_distributive_fast, is_modular
from .paths import _bfs
from .report import Report
from .structures import (
    EdgeColoredPoset,
    ProductView,
    VertexColoredPoset,
    _bits,
    reduce_relation,
)

DEFINITION_SEARCH_CAP = 12  # most vertices subordinates_by_definition searches


@dataclass
class SublatticeEmbedding:
    """A verified lattice inclusion with meet/join agreement."""

    sub: EdgeColoredPoset
    parent: EdgeColoredPoset
    sub_view: LatticeView
    parent_view: LatticeView
    full_length: bool
    edge_colored: bool


def check_sublattice(K, L) -> SublatticeEmbedding:
    """Verify that K's meets and joins agree pairwise with L's.

    K's vertex labels must be a subset of L's; K carries its own lattice
    order.  Flags record whether the embedding is full-length and whether
    every K-edge is an L-edge of the same color.

    Agreement is proved locally: every cover of K is <= in L, and K's join
    and meet of two upper, or two lower, covers of one element are L's.
    Then the inclusion f keeps every join, by the downward induction of
    ``lattice._joins_exact``: with upper covers a <= x, b <= y of w, x v y
    = (x v (a v b)) v y in K; f keeps a v b by the second condition, the
    outer joins by induction at a and at b, and f(a) <= f(x), f(b) <= f(y)
    by the first.  Meets follow dually.  Pairwise agreement implies both
    conditions, so the pairwise scan runs only when they fail, to report
    the first disagreeing pair in id order.
    """
    try:
        kv = _coerce_view(K)
    except NotALattice as e:
        raise NotASublattice(f"candidate is not a lattice in its own order: {e}",
                             witness=e.witness) from None
    lv = _coerce_view(L)
    kp, lp = kv.poset, lv.poset
    missing = [v for v in kp.vertices if v not in lp]
    if missing:
        raise ValidationError(f"sublattice candidate has foreign vertices {missing[:3]}")
    verts, to_l = kp.vertices, [lp._index[v] for v in kp.vertices]  # K's ids to L's
    sides = (("join", kv._join_id, lv._join_id), ("meet", kv._meet_id, lv._meet_id))

    def first_disagreement(pairs) -> NotASublattice | None:
        for i, k in pairs:
            for side, inner, outer in sides:
                mine, theirs = inner(i, k), outer(to_l[i], to_l[k])
                if to_l[mine] != theirs:
                    x, y, inside, parent = verts[i], verts[k], verts[mine], lp.vertices[theirs]
                    return NotASublattice(
                        f"{side} of {x!r}, {y!r} is {inside!r} inside, {parent!r} in the parent", witness=(x, y, side)
                    )
        return None

    down, pos = lp._down, lp._pos
    monotone = all(down[to_l[b]] >> pos[to_l[a]] & 1 for a, ups in enumerate(kp._up_adj) for b in ups)
    siblings = ((a, b) for adj in (kp._up_adj, kp._down_adj) for near in adj
                for j, a in enumerate(near) for b in near[j + 1 :])
    if not monotone or first_disagreement(siblings):
        raise first_disagreement((i, k) for i in range(len(verts)) for k in range(i + 1, len(verts)))
    try:
        full_length = kv.length == lv.length
    except NotRanked:
        full_length = False
    edge_colored = all(lp._edge_color.get((to_l[a], to_l[b])) == c for (a, b), c in kp._edge_color.items())
    return SublatticeEmbedding(kp, lp, kv, lv, full_length, edge_colored)


def verify_full_length_agreement(emb: SublatticeEmbedding) -> Report:
    """Ranks and covers of a full-length sublattice coincide with the parent's.

    On a non-full-length embedding the report simply fails its first check;
    nothing is asserted.
    """
    report = Report("full-length sublattice rank and cover agreement")
    if not report.record("embedding is full-length", emb.full_length):
        return report
    kr = emb.sub_view.rank_function.rank
    lr = emb.parent_view.rank_function.rank
    report.record("ranks agree on every element", all(kr[x] == lr[x] for x in emb.sub.vertices))
    sub_pairs = {(a, b) for a, b, _ in emb.sub.covers}
    parent_pairs = {
        (a, b)
        for a, b, _ in emb.parent.covers
        if a in emb.sub._index and b in emb.sub._index
    }
    report.record("covers agree in both directions", sub_pairs == parent_pairs)
    return report


def _diamond_modular(view: LatticeView, what: str) -> None:
    if not view.diamond.ok:
        raise NotDiamondColored(f"{what} is not diamond-colored")
    if not is_modular(view):
        raise NotModular(f"{what} is not modular")


def verify_product_closure(factors: Sequence[EdgeColoredPoset], K_labels: Iterable[str]) -> Report:
    """A componentwise-closed spanning subset of a product is a full-length sublattice.

    Hypotheses: every factor is a diamond-colored modular lattice, K contains
    the product's extremes, K is closed under componentwise joins and meets,
    and some Hasse path joins bottom to top inside K.  The conclusions are
    then verified: K is a full-length diamond-colored modular (distributive
    when all factors are) sublattice, and the product itself has additive
    ranks and componentwise bounds.
    """
    views = []
    for idx, f in enumerate(factors):
        v = as_lattice(f)
        try:
            _diamond_modular(v, f"factor {idx}")
        except (NotDiamondColored, NotModular) as e:
            raise HypothesisViolated(str(e)) from None
        views.append(v)
    all_distributive = all(is_distributive_fast(v) for v in views)
    pv = ProductView(factors)
    L = pv.poset
    lv = as_lattice(L)

    coords, verts = pv._coord_ids, L.vertices
    id_of = {c: e for e, c in enumerate(coords)}
    joins, meets = [v._join_id for v in views], [v._meet_id for v in views]

    def componentwise(probes, x: int, y: int) -> int:
        """The product id whose coordinates are the factors' joins (or meets) of x's and y's."""
        return id_of[tuple([probe(a, b) for probe, a, b in zip(probes, coords[x], coords[y])])]

    kset = {L.index_of(x) for x in K_labels}
    bottom, top = L.index_of(lv.minimum), L.index_of(lv.maximum)
    if bottom not in kset or top not in kset:
        raise HypothesisViolated("subset must contain the product's extremes")
    # The componentwise bounds form a lattice whose covers are L's, so by the lemma of
    # ``check_sublattice`` they are L's bounds once they agree on sibling upper covers
    # (joins) and lower covers (meets); then K is closed iff it is a sublattice of L.
    agree = all(
        bound(a, b) == componentwise(probes, a, b)
        for adj, bound, probes in ((L._up_adj, lv._join_id, joins), (L._down_adj, lv._meet_id, meets))
        for near in adj for j, a in enumerate(near) for b in near[j + 1 :]
    )
    K = sorted(kset)
    try:
        emb = check_sublattice(as_lattice(L.induced(verts[i] for i in K)), lv) if agree else None
    except DclatError:  # raised again below, after the closure and path errors
        emb = None
    if emb is None:
        for i, x in enumerate(K):
            for y in K[i + 1 :]:
                if componentwise(joins, x, y) not in kset or componentwise(meets, x, y) not in kset:
                    raise HypothesisViolated(
                        f"subset not closed under componentwise bounds at ({verts[x]!r}, {verts[y]!r})"
                    )
    # a bottom-to-top Hasse path inside K, along L's edges between elements of K
    inside = EdgeColoredPoset._from_ids(verts, [(a, b, c) for (a, b), c in L._edge_color.items() if {a, b} <= kset])
    if top not in _bfs(inside, bottom, (top,)):
        raise HypothesisViolated("no bottom-to-top path inside the subset")

    report = Report("product closure yields a full-length sublattice")
    rank = lv.rank_function.rank
    report.record("product length is the sum of factor lengths",
                  lv.length == sum(v.length for v in views))
    report.record(
        "product rank is the sum of coordinate ranks",
        all(
            rank[lab] == sum(views[q].rank_function.rank[c] for q, c in enumerate(pv.coords[lab]))
            for lab in L.vertices
        ),
    )
    report.record(
        "product extremes are the coordinate extremes",
        lv.minimum == pv.label_of([v.minimum for v in views])
        and lv.maximum == pv.label_of([v.maximum for v in views]),
    )
    report.record("product joins and meets are componentwise", agree)
    report.record("product is modular", is_modular(lv))
    report.record("product is diamond-colored", lv.diamond.ok)
    if all_distributive:
        report.record("product is distributive", is_distributive_fast(lv))

    if emb is None:  # raises what it raises on a subset that is not a sublattice
        emb = check_sublattice(as_lattice(L.induced(verts[i] for i in K)), lv)
    report.record("subset is a sublattice", True)  # check_sublattice would have raised
    report.record("subset sublattice is full-length", emb.full_length)
    report.record("subset sublattice is edge-colored", emb.edge_colored)
    report.record("subset sublattice is modular", is_modular(emb.sub_view))
    report.record("subset sublattice is diamond-colored", emb.sub_view.diamond.ok)
    if all_distributive:
        report.record("subset sublattice is distributive", is_distributive_fast(emb.sub_view))
    agreement = verify_full_length_agreement(emb)
    report.record("rank and cover agreement", agreement.passed)
    return report


@dataclass
class WeakeningEmbedding:
    """Ideal lattice of a poset inside the ideal lattice of a weakening."""

    embedding: SublatticeEmbedding
    sub_ideals: IdealLattice  # ideals of the stronger order
    parent_ideals: IdealLattice  # ideals of the weak subposet


def _require_weak_subposet(P: VertexColoredPoset, Q: VertexColoredPoset) -> None:
    if set(P.vertices) != set(Q.vertices):
        raise NotWeakSubposet("orders must share one vertex set")
    for v in P.vertices:
        if P.colors[v] != Q.colors[v]:
            raise NotWeakSubposet(f"vertex {v!r} changes color between the orders")
    for a, b in Q.covers:
        if not P.leq(a, b):
            raise NotWeakSubposet(f"relation {a!r} <= {b!r} does not hold in the parent order")


def weak_subposet(P: VertexColoredPoset, relation) -> VertexColoredPoset:
    """Normalize a relation list over P's vertices into a poset with P's colors.

    The relation need not be transitively reduced; it is closed and reduced
    here, then validated against P's order by the caller.
    """
    covers = reduce_relation(P.vertices, relation)
    return VertexColoredPoset(P.vertices, covers, dict(P.colors))


def sublattice_from_weak_subposet(P: VertexColoredPoset, Q) -> WeakeningEmbedding:
    """Ideals of P form a full-length edge-colored sublattice of ideals of Q.

    Q is a weak subposet of P on the same colored vertex set, given either
    as a poset or as a raw relation list (normalized first); fewer relations
    mean more ideals, so the inclusion runs from the ideal lattice of P into
    that of Q.  The embedding is fully verified before returning.
    """
    if not isinstance(Q, VertexColoredPoset):
        Q = weak_subposet(P, Q)
    _require_weak_subposet(P, Q)
    K = build_J(P)
    # realign Q to P's declaration order so identical ideals get identical
    # masks and labels in both lattices
    Lp = build_J(weak_subposet(P, Q.covers))
    if not set(K.masks) <= set(Lp.masks):
        raise ValidationError("an ideal of the stronger order is not an ideal of the weaker one")
    emb = check_sublattice(K, Lp)
    if not emb.full_length or not emb.edge_colored:
        raise ValidationError("weakening did not produce a full-length edge-colored sublattice")
    return WeakeningEmbedding(emb, K, Lp)


@dataclass
class SubposetRecovery:
    """Inverse direction: the weak subposet recovered from a sublattice."""

    phi: dict[str, str]
    recovered: VertexColoredPoset
    report: Report


def weak_subposet_from_sublattice(L, K) -> SubposetRecovery:
    """Recover, from a full-length edge-colored sublattice K of L, a weak
    subposet presentation of K's irreducibles inside L's.

    For each join irreducible x of L, the elements of K above x have a
    unique minimal element, itself join irreducible in K; that map is a
    color-preserving monotone bijection between the irreducible posets, and
    transporting the sub-order along it lands inside the parent order.
    When the map is found, the report's ``details["recovered"]`` is the recovered order.

    The element of K above x that comes first in L's topological order is
    minimal there, so the minimum is unique iff it lies below all the
    others.  Monotonicity and the transported relation are taken on Q's
    covers only: the order is their transitive closure.
    """
    lv = _coerce_view(L)
    kv = _coerce_view(K)
    emb = check_sublattice(kv, lv)
    if not emb.full_length:
        raise ValidationError("sublattice is not full-length")
    if not emb.edge_colored:
        raise ValidationError("sublattice is not edge-colored")
    Q = extract_j(lv).poset
    Pp = extract_j(kv).poset

    report = Report("weak subposet recovered from a full-length sublattice")
    phi: dict[str, str] = {}
    ok_unique = True
    ok_irr = True
    lp = lv.poset
    down, pos = lp._down, lp._pos
    k_ids = sorted((lp._index[y] for y in kv.poset.vertices), key=pos.__getitem__)  # in L's topological order
    for x in Q.vertices:
        x_bit = pos[lp._index[x]]
        above = [y for y in k_ids if down[y] >> x_bit & 1]
        if not above or not all(down[y] >> pos[above[0]] & 1 for y in above):
            ok_unique = False
            break
        w = lp.vertices[above[0]]
        if w not in Pp._index:
            ok_irr = False
            break
        phi[x] = w
    report.record("each filter of sublattice elements has a unique minimum", ok_unique)
    report.record("those minima are join irreducible in the sublattice", ok_unique and ok_irr)
    if not (ok_unique and ok_irr):
        return SubposetRecovery(phi, Pp, report)
    report.record("the map is a bijection onto the sublattice irreducibles",
                  sorted(phi.values()) == sorted(Pp.vertices))
    report.record("the map preserves vertex colors",
                  all(Q.colors[x] == Pp.colors[w] for x, w in phi.items()))
    relation = [(phi[u], phi[v]) for u, v in Q.covers]
    report.record("the map is monotone into the recovered order", all(Pp.leq(a, b) for a, b in relation))
    recovered = weak_subposet(Pp, relation)
    # on a bijective phi, carrying Q's order onto the recovered one is what makes phi an isomorphism
    transported = _verify_witness(Q, recovered, phi)
    report.record("transported order equals the recovered order", transported)
    report.record("recovered order is isomorphic to the original irreducibles", transported)
    weak = all(Pp.leq(a, b) for a, b in recovered.covers)
    report.record("recovered order is a weak subposet of the sublattice irreducibles", weak)
    report.details["recovered"] = recovered
    return SubposetRecovery(phi, recovered, report)


def verify_weakening(P: VertexColoredPoset, Q) -> list[Report]:
    """Theorem 11 both ways: the rank and cover agreement of the full-length
    sublattice that the ideals of P form among those of a weakening Q, then
    the recovery of a weak subposet from it.
    """
    emb = sublattice_from_weak_subposet(P, Q).embedding
    agreement = verify_full_length_agreement(emb)
    return [agreement, weak_subposet_from_sublattice(emb.parent_view, emb.sub_view).report]


class ComponentInfo:
    """One J-component: its labels in id order, its extremes, and ``poset``, its J-colored order.

    ``poset`` may be given as a function of no arguments, called on first
    read.  Equality compares all four fields, as a dataclass's would.
    """

    def __init__(self, labels: tuple[str, ...], poset: EdgeColoredPoset | Callable[[], EdgeColoredPoset],
                 minimum: str, maximum: str):
        self.labels, self._poset, self.minimum, self.maximum = labels, poset, minimum, maximum

    @property
    def poset(self) -> EdgeColoredPoset:
        if not isinstance(self._poset, EdgeColoredPoset):
            self._poset = self._poset()
        return self._poset

    def __eq__(self, other):
        if type(other) is not ComponentInfo:
            return NotImplemented
        return (self.labels, self.poset, self.minimum, self.maximum) == (
            other.labels, other.poset, other.minimum, other.maximum)

    def __repr__(self):
        return f"ComponentInfo({self.labels!r}, minimum={self.minimum!r}, maximum={self.maximum!r})"


@dataclass
class JComponentDecomposition:
    colors: frozenset[int]
    components: tuple[ComponentInfo, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c.labels) for c in self.components)


def _component_poset(p: EdgeColoredPoset, ids: list[int], J: frozenset[int]) -> EdgeColoredPoset:
    """The component on p's sorted ``ids``, whose covers are its J-colored edges."""
    new = dict(zip(ids, range(len(ids))))
    edges = [(new[a], new[b], c) for a in ids for b, c in p._up_steps[a] if c in J]
    return EdgeColoredPoset._from_ids([p.vertices[i] for i in ids], edges)


def _proved_component(lv: LatticeView, ids: list[int], J: frozenset[int]) -> EdgeColoredPoset:
    """The component's poset, carrying what the lemma of ``j_components`` proves: a diamond-colored
    modular lattice, distributive when L is recorded to be, ranked by L's rank minus r(min)."""
    sub = _component_poset(lv.poset, ids, J)
    rank = lv.rank_function.rank
    low = min(rank[x] for x in sub.vertices)
    shifted = {x: rank[x] - low for x in sub.vertices}
    _record_proved(sub, shifted, max(shifted.values()), bool(lv.poset._verdicts.get("distributive")))
    return sub


def j_components(L, colors: Iterable[int], verify: bool = True) -> JComponentDecomposition:
    """Split a diamond-colored modular lattice along edges with colors in J.

    One search over L's J-colored edges finds the components, in min-id
    order.  No component is built as a lattice: its extremes are its
    elements with no J-colored edge down, and up, and its ``poset`` is
    built on first read, carrying the verdicts the lemma below proves.

    Lemma.  Let L be a diamond-colored modular lattice (``_diamond_modular``
    checks it) and C a component.  (1) If w is covered by a != b along
    J-colored edges, a v b covers a and b by modularity, and diamond
    coloring gives a -> a v b the color of w -> b and b -> a v b that of
    w -> a.  Dually a ^ b is covered by a and b along J-colored edges.
    (2) Peak to valley: in a J-zigzag, a peak a <. w >. b becomes the
    valley a >. a ^ b <. b through the meet of its two ends, by (1).  The
    rank sum drops each time, so any u, v in C are joined by a J-chain down
    from u to some m and a J-chain m = c0 <. c1 <. ... <. ck = v.  (3)
    Ladder: for x >= ci, x v c(i+1) is x v ci or covers it, by modularity.
    If it covers, take a maximal chain ci = y0 <. ... <. yt = x v ci; each
    yj v c(i+1) covers yj, and two consecutive rungs yj -> yj v c(i+1) are
    opposite edges of a diamond, so every rung keeps the color of ci ->
    c(i+1).  With x = u, u climbs to u v v along J-colored edges; dually
    u ^ v is reached from u.  So C is closed under L's joins and meets,
    and u <= v in L puts v on a J-chain up from u: C's J-order is L's
    order on C, and C's covers are its J-colored edges.  Hence C is
    bounded, with the extremes above as its only elements with no
    J-colored edge down, or up.  A diamond of C is one of L, so C is
    diamond-colored; it is modular, and distributive when L is, as a
    sublattice; every cover of C is one of L, so C is ranked by L's rank
    minus r(min C); and d(x, y) = r(x) + r(y) - 2 r(x ^ y) gives the same
    distances in C as in L, as meets agree.

    Every split is checked: the bounds; step (1), for every J-colored
    sibling pair, through L's own ``_join_id`` and ``_meet_id``; and that
    L's recorded rank minus the depth from min C along J-colored edges is
    constant, so a wrong probe or a wrong recorded rank of L is caught.  A
    sibling pair that fails builds its component and lets
    ``check_sublattice`` name the first pair whose bound differs; if none
    differs, L's recorded verdicts were wrong, and the pair is named.  The
    tests check the extremes against ``subordinate_of``.  ``verify`` is
    ignored; it stays for callers that pass ``verify=True``.
    """
    lv = _coerce_view(L)
    p = lv.poset
    J = frozenset(colors)
    _diamond_modular(lv, "lattice")
    v, n = p.vertices, len(p)
    ups = [[j for j, c in steps if c in J] for steps in p._up_steps]
    downs = [[j for j, c in steps if c in J] for steps in p._down_steps]
    rank = lv.rank_function.rank
    seen, depth = [False] * n, [None] * n
    infos = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        ids = [start]
        for i in ids:  # the list grows while it is read: a search queue
            for j in ups[i] + downs[i]:
                if not seen[j]:
                    seen[j] = True
                    ids.append(j)
        ids.sort()
        lows, highs = [i for i in ids if not downs[i]], [i for i in ids if not ups[i]]
        if len(lows) != 1 or len(highs) != 1:
            raise ValidationError("color-restricted component is not bounded")
        info = ComponentInfo(tuple(v[i] for i in ids), partial(_proved_component, lv, ids, J), v[lows[0]], v[highs[0]])
        infos.append(info)
        if len(ids) == 1:
            continue
        for side, near, bound in (("join", ups, lv._join_id), ("meet", downs, lv._meet_id)):
            for i in ids:
                for k, a in enumerate(near[i]):
                    for b in near[i][k + 1 :]:
                        if (z := bound(a, b)) not in near[a] or z not in near[b]:
                            # the pairwise scan names the first pair whose bound differs
                            check_sublattice(as_lattice(_component_poset(p, ids, J)), lv)
                            raise ValidationError(f"{side} of {v[a]!r}, {v[b]!r} in the parent is {v[z]!r}, "
                                                  "not one J-colored edge from each")
        depth[lows[0]] = 0
        for i in (order := [lows[0]]):
            for j in ups[i]:
                if depth[j] is None:
                    depth[j] = depth[i] + 1
                    order.append(j)
        if off := [i for i in ids if rank[v[i]] - depth[i] != rank[info.minimum]]:
            raise ValidationError(f"inner distance differs from parent distance at ({info.minimum!r}, {v[off[0]]!r})")
    return JComponentDecomposition(J, tuple(infos))


def color_subsets(colors: Iterable[int]) -> Iterator[list[int]]:
    """Every subset of ``colors``, each sorted, counting in binary over the sorted palette."""
    palette = sorted(colors)
    return ([c for i, c in enumerate(palette) if mask >> i & 1] for mask in range(1 << len(palette)))


def verify_component_structure(L) -> Report:
    """Run the verified component decomposition for every subset of L's colors."""
    lv = _coerce_view(L)
    report = Report("color-restricted components are verified sublattices")
    for J in color_subsets(lv.poset.colors_used):
        decomp = j_components(lv, J)
        total = sum(decomp.sizes())
        report.record(
            f"colors {sorted(J)}: {len(decomp.components)} components partition the lattice",
            total == len(lv.poset),
        )
    return report


@dataclass(frozen=True)
class JSubordinate:
    """Induced subposet sandwiched between an ideal and a larger ideal.

    ``vertex_set`` determines the subordinate; ``witness_ideal`` is the
    ideal below it whose boundary avoids the designated colors.
    """

    vertex_set: frozenset[str]
    poset: VertexColoredPoset
    witness_ideal: frozenset[str]


def subordinate_of(il: IdealLattice, t: str, colors: Iterable[int]) -> JSubordinate:
    """The subordinate attached to the component of the element labelled t.

    Greedy peeling removes designated-color maximal vertices from t, giving
    the witness ideal, and adds addable designated-color vertices, giving
    the component's top.  The tests compare both ends with the minimum and
    maximum of t's color-restricted component in the ideal lattice.

    Lemma.  Peeling drops exactly the designated-color vertices of t whose
    up-set within t is all designated-color, and adding gives the closure
    of t under designated-color vertices whose lower covers it holds.
    Dropping a vertex frees only vertices below it, and adding one frees
    only vertices above it, so a vertex is decided once its upper (lower)
    covers are: one pass down P's linear extension ``_at`` peels, and one
    pass up it adds, with nothing left to re-check.
    """
    if il.mode != "ideal":
        raise ValidationError("subordinates are computed on ideal lattices")
    P = il.source
    J = frozenset(colors)
    r_mask = top_mask = il._mask(t)
    down, up = P._cover_masks
    in_J = [P.colors[v] in J for v in P.vertices]
    for i in reversed(P._at):
        if r_mask >> i & 1 and in_J[i] and up[i] & r_mask == 0:
            r_mask ^= 1 << i
    for i in P._at:
        if in_J[i] and down[i] & ~top_mask == 0:
            top_mask |= 1 << i
    q_labels = frozenset(P.vertices[i] for i in _bits(top_mask ^ r_mask))
    r_labels = frozenset(P.vertices[i] for i in _bits(r_mask))
    return JSubordinate(q_labels, P.induced(q_labels), r_labels)


def enumerate_subordinates(P: VertexColoredPoset, colors: Iterable[int]) -> list[JSubordinate]:
    """Distinct subordinates arising from elements of the ideal lattice."""
    il = build_J(P)
    J = frozenset(colors)
    seen: dict[frozenset[str], JSubordinate] = {}
    for lab in il.lattice.vertices:
        sub = subordinate_of(il, lab, J)
        seen.setdefault(sub.vertex_set, sub)
    return sorted(
        seen.values(), key=lambda s: (len(s.vertex_set), sorted(P.index_of(v) for v in s.vertex_set))
    )


def subordinates_by_definition(P: VertexColoredPoset, colors: Iterable[int]) -> set[frozenset[str]]:
    """Deliberately naive search straight from the definition.

    Enumerates pairs (ideal r, candidate vertex set Q) and keeps Q when: all
    its colors are designated, it is disjoint from r, r unioned with Q is an
    ideal, and the boundary (maximal vertices of r, minimal vertices outside
    the union) avoids the designated colors.  Exponential; capped at
    ``DEFINITION_SEARCH_CAP`` vertices.
    """
    if len(P) > DEFINITION_SEARCH_CAP:
        raise EnumerationCapExceeded(f"definition search is capped at {DEFINITION_SEARCH_CAP} vertices")
    J = frozenset(colors)
    n = len(P)
    down, up = P._cover_masks
    color_of = [P.colors[v] for v in P.vertices]
    found: set[frozenset[str]] = set()
    for r_mask in enumerate_ideal_masks(P):
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


def verify_subordinate_correspondence(P: VertexColoredPoset, colors: Iterable[int]) -> Report:
    """Subordinates attached to components are exactly the definable ones,
    and each component is the ideal lattice of its subordinate.

    The union map, an ideal x of the subordinate to x united with the
    witness ideal, must be an isomorphism onto the component, and the generic
    isomorphism check records that verdict too.  The irreducibles check sends
    v to the union map's image of its principal ideal.
    """
    J = frozenset(colors)
    report = Report(f"subordinate correspondence for colors {sorted(J)}")
    # the capped definition search first, so input past its cap fails fast
    from_definition = subordinates_by_definition(P, J)
    il = build_J(P)
    decomp = j_components(il, J)
    from_components = {subordinate_of(il, lab, J).vertex_set for lab in il.lattice.vertices}
    report.record("component subordinates match the definition search",
                  from_components == from_definition)

    for comp in decomp.components:
        sub = subordinate_of(il, comp.minimum, J)
        jq = build_J(sub.poset)
        # each element's image as a label of il, or None where the union is no ideal of P
        lift = {x: il.label_of_mask.get(sum(1 << P.index_of(v) for v in jq.members(x) | sub.witness_ideal))
                for x in jq.lattice.vertices}
        to_comp = [comp.poset._index.get(lift[x], -1) for x in jq.lattice.vertices]
        union_map = _map_holds(jq.lattice, comp.poset, to_comp)
        report.record(f"component at {comp.minimum!r}: union map is an edge-color bijection", union_map)
        report.record(f"component at {comp.minimum!r}: generic isomorphism with the subordinate's ideals", union_map)
        irr = extract_j(comp.poset).poset
        to_irr = [irr._index.get(lift[jq.label_for(sub.poset.down_set(v))], -1) for v in sub.poset.vertices]
        report.record(f"component at {comp.minimum!r}: irreducibles give back the subordinate",
                      _map_holds(sub.poset, irr, to_irr))
    return report
