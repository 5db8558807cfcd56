"""The colored correspondence between posets and distributive lattices.

``build_J`` sends a vertex-colored poset to its lattice of order ideals
(edges colored by the added vertex); ``build_M`` is the filter-side dual.
``extract_j`` / ``extract_m`` recover the vertex-colored posets of join and
meet irreducibles.  The verification suites here confirm, instance by
instance, that these constructions invert each other and commute with
dual, recoloring, disjoint sum, and product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidDescendantSet,
    NotDiamondColored,
    NotDistributive,
    SizeCapExceeded,
    UnknownVertex,
    ValidationError,
)
from .isomorphism import _map_holds, _verify_witness
from .lattice import LatticeView, _record_proved, as_lattice, is_boolean, is_distributive_fast
from .report import Report
from .structures import (
    Color,
    EdgeColoredPoset,
    ProductView,
    VertexColoredPoset,
    cartesian_product,
    disjoint_sum,
    dual,
    recolor,
    _bits,
    _reduced_ids,
    _star,
)

# Memory roughly doubles per doubling: build_J on an antichain peaks at 48 MB
# at 2^14 elements, 88 MB at 2^15 and 165 MB at 2^16, and the round trip
# through extract_j, build_M and extract_m at 72, 134 and 261 MB (process peak
# RSS, one process taking the three sizes in turn).  A query that reads the
# reachability bitsets adds two n-bit masks per element, n^2/4 bytes: 1 GiB
# at 2^16.
ELEMENT_CAP = 1 << 16


def _unique_labels(raw: list[str]) -> list[str]:
    """``raw`` with each repeat of a label suffixed ``_2``, ``_3``, ...

    A suffix skips every label already given out or still to come, so that
    names containing ``_`` and ``.`` cannot collide with it.
    """
    taken = set(raw)
    last: dict[str, int] = {}
    out = []
    for lab in raw:
        if lab not in last:
            last[lab] = 1
            out.append(lab)
            continue
        k = last[lab] + 1
        while (suffixed := f"{lab}_{k}") in taken:
            k += 1
        last[lab] = k
        taken.add(suffixed)
        out.append(suffixed)
    return out


class IdealLattice:
    """Lattice of order ideals (or filters) of a source poset.

    Elements are vertex subsets encoded as bitmasks over the source's
    declaration order; element order is ascending bitmask value, which is a
    linear extension of containment.

    Construct via :func:`build_J` or :func:`build_M`, which record what
    Birkhoff's theorem proves in the lattice's verdict store (see
    :func:`_subset_lattice`); ``view`` is a ``LatticeView`` taken without
    validation, and it reads that store.  This class records nothing: an
    ``IdealLattice`` built by hand has every verdict scanned on demand.
    """

    def __init__(self, source: VertexColoredPoset, mode: str, masks: list[int], lattice: EdgeColoredPoset):
        self.source = source
        self.mode = mode  # "ideal" | "filter"
        self.masks = tuple(masks)
        self.lattice = lattice
        self.view = LatticeView(lattice)
        self.mask_of_label = dict(zip(lattice.vertices, masks))
        self.label_of_mask = {m: v for v, m in self.mask_of_label.items()}

    def members(self, label: str) -> frozenset[str]:
        return frozenset(self.source.vertices[i] for i in _bits(self._mask(label)))

    def _mask(self, label: str) -> int:
        if label not in self.mask_of_label:
            raise UnknownVertex(f"unknown element {label!r}")
        return self.mask_of_label[label]

    def label_for(self, subset: Iterable[str]) -> str:
        subset = list(subset)  # read twice, once by the error message
        m = 0
        for v in subset:
            m |= 1 << self.source.index_of(v)
        if m not in self.label_of_mask:
            raise UnknownVertex(f"{sorted(subset)} is not an element of the {self.mode} lattice")
        return self.label_of_mask[m]

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self):
        return f"IdealLattice(mode={self.mode!r}, {len(self)} elements)"


def _subset_labels(P: VertexColoredPoset, masks: Iterable[int]) -> list[str]:
    """Each mask's member names joined by "." in declaration order, or "empty".

    A mask's label is the label of the mask without its highest bit plus
    one name, or one name plus the label without its lowest bit, when that
    smaller mask came earlier in ``masks``; otherwise the names are joined.
    In a declaration order that is a linear extension, ascending ideals
    always find the first and ascending filters the second.
    """
    names = P.vertices
    seen = {0: ""}
    out = []
    for m in masks:
        if m not in seen:
            top, low = m.bit_length() - 1, (m & -m).bit_length() - 1
            if (rest := seen.get(m ^ (1 << top))) is not None:
                seen[m] = f"{rest}.{names[top]}" if rest else names[top]
            elif (rest := seen.get(m ^ (1 << low))) is not None:
                seen[m] = f"{names[low]}.{rest}" if rest else names[low]
            else:
                seen[m] = ".".join(names[i] for i in _bits(m))
        out.append(seen[m] or "empty")
    return out


def enumerate_ideal_masks(P: VertexColoredPoset) -> list[int]:
    """All order ideals of P as bitmasks, ascending.

    Extends the ideals of a growing prefix of a linear extension; a vertex
    may enter only once its lower covers are present.  The family never
    shrinks, so the extension stops as soon as it passes ``ELEMENT_CAP``.
    """
    down, _ = P._cover_masks
    out = [0]
    for v in P._at:  # topological ids
        need, bit = down[v], 1 << v
        out += [m | bit for m in out if m & need == need]
        if len(out) > ELEMENT_CAP:
            raise SizeCapExceeded(f"ideal count exceeds cap {ELEMENT_CAP}")
    out.sort()
    return out


def _subset_lattice(P: VertexColoredPoset, mode: str) -> IdealLattice:
    """Ideal (mode "ideal") or filter (mode "filter") lattice of P.

    A filter is the complement of an ideal, so both families step upward by
    adding a vertex to the ideal side whose lower covers are already there:
    the ideal grows by it, the filter loses it.

    Birkhoff's theorem proves the rest, and it is recorded in the lattice's
    verdict store: the subsets form a distributive lattice of length |P|,
    hence a modular, topographically balanced one, diamond-colored by the
    added vertex, and an element's rank is the size of its ideal side (|I|
    for an ideal, |P| - |F| for a filter).
    """
    flip = 0 if mode == "ideal" else (1 << len(P)) - 1
    masks = sorted(m ^ flip for m in enumerate_ideal_masks(P))
    labels = _unique_labels(_subset_labels(P, masks))
    id_of = {m: k for k, m in enumerate(masks)}
    down, _ = P._cover_masks
    # (vertex bit, bits of its lower covers, its color) per source vertex
    steps = [(1 << i, need, P.colors[v]) for i, (v, need) in enumerate(zip(P.vertices, down))]
    edges = []
    for k, m in enumerate(masks):
        ideal = m ^ flip
        for bit, need, color in steps:
            if not ideal & bit and ideal & need == need:
                edges.append((k, id_of[m ^ bit], color))
    # Birkhoff's theorem makes these covers a lattice's transitive reduction
    lattice = EdgeColoredPoset._from_ids(labels, edges)
    _record_proved(lattice, dict(zip(labels, [(m ^ flip).bit_count() for m in masks])), len(P), True)
    return IdealLattice(P, mode, masks, lattice)


def build_J(P: VertexColoredPoset) -> IdealLattice:
    """The diamond-colored distributive lattice of order ideals of P.

    Ideals are ordered by containment; x -> y exactly when y adds one
    vertex, maximal in y, and the edge takes that vertex's color.  Nothing
    is validated: see :class:`IdealLattice`.
    """
    return _subset_lattice(P, "ideal")


def build_M(P: VertexColoredPoset) -> IdealLattice:
    """The diamond-colored distributive lattice of filters of P.

    Filters are ordered by reverse containment; x -> y exactly when x drops
    one of its minimal vertices, and the edge takes that vertex's color.
    As for :func:`build_J`, nothing is validated again.
    """
    return _subset_lattice(P, "filter")


def principal_ideal(P: VertexColoredPoset, v: str) -> frozenset[str]:
    """All vertices below v, inclusive; the ideal generated by v."""
    return P.down_set(v)


@dataclass
class IrreduciblePoset:
    """Vertex-colored poset of the join (or meet) irreducibles of a lattice."""

    poset: VertexColoredPoset
    provenance: str  # "join" | "meet"


def _require_dcdl(view: LatticeView) -> None:
    if not view.diamond.ok:
        raise NotDiamondColored(f"diamond violation at {view.diamond.witness}")
    if not is_distributive_fast(view):
        raise NotDistributive("lattice is not distributive")


def _coerce_view(L) -> LatticeView:
    """The view of a public ``L``/``K`` argument; only other input goes through ``as_lattice``."""
    if isinstance(L, LatticeView):
        return L
    if isinstance(L, IdealLattice):
        return L.view
    return as_lattice(L)


def _extract(L, side: str) -> tuple[IrreduciblePoset, list[int]]:
    """Irreducibles of one side ("join" or "meet"), colored by their single cover edge, and phi.

    Join side: walk up a linear extension of L and give each element x
    the mask phi(x) of the join irreducibles at or below it.  y <= x holds
    iff y = x or y lies at or below a lower cover of x, and the walk has
    visited every lower cover of x before x; so phi(x) is the union of
    phi over x's lower covers, plus x's own bit when x is irreducible.  A
    join irreducible j has a single lower cover j_*, and the irreducibles
    strictly below j are exactly phi(j_*).  The irreducible poset's
    covers are the transitive reduction of that strict order, and j's
    color is the color of the edge j_* -> j.  The meet side is the same
    walk down, through upper covers.  Of L's tables only the topological
    order, the adjacency and the edge colors are read.  phi is returned per
    id of L, its bit k standing for the poset's k-th vertex.
    """
    view = _coerce_view(L)
    _require_dcdl(view)
    p = view.poset
    join = side == "join"
    irr = view.join_irreducibles() if join else view.meet_irreducibles()
    if len(irr) != view.length:
        raise NotDistributive(
            f"{len(irr)} {side} irreducibles for length {view.length}; lattice cannot be distributive"
        )
    near, walk = (p._down_adj, p._at) if join else (p._up_adj, reversed(p._at))
    ids = [p._index[x] for x in irr]
    k_of = dict(zip(ids, range(len(ids))))
    phi = [0] * len(p)
    strict = [0] * len(ids)  # per irreducible, the irreducibles strictly below it (above, meet side)
    order = []  # the irreducibles in walk order
    for i in walk:
        k = k_of.get(i)
        if k is None:
            m = 0
            for j in near[i]:
                m |= phi[j]
            phi[i] = m
        else:
            strict[k] = phi[near[i][0]]
            phi[i] = strict[k] | 1 << k
            order.append(k)
    # a relation from each irreducible to those before it in the walk, so the
    # reversed walk is a linear extension of it
    cover_mask = _reduced_ids([list(_bits(m)) for m in strict], order[::-1])
    pairs = [(j, k) if join else (k, j) for k, m in enumerate(cover_mask) for j in _bits(m)]
    colors = [p._edge_color[(near[i][0], i) if join else (i, near[i][0])] for i in ids]
    return IrreduciblePoset(VertexColoredPoset._from_ids(irr, pairs, colors), side), phi


def extract_j(L) -> IrreduciblePoset:
    """Poset of elements covering exactly one element, colored by that edge."""
    return _extract(L, "join")[0]


def extract_m(L) -> IrreduciblePoset:
    """Poset of elements covered by exactly one element, colored by that edge."""
    return _extract(L, "meet")[0]


def cover_color_profile(il: IdealLattice, x: str) -> tuple[tuple[Color, ...], tuple[Color, ...]]:
    """(colors of edges above x, colors of edges below x), cross-checked.

    In the ideal lattice, the colors below an element are the colors of its
    maximal vertices and those above are the colors of its addable vertices;
    both are compared against the incident Hasse edges before returning.
    """
    P = il.source
    m = il._mask(x)
    down, up = P._cover_masks
    # an ideal drops a maximal vertex going down and adds one going up; a
    # filter drops a minimal vertex going up and adds one going down
    inner, outer = (down, up) if il.mode == "ideal" else (up, down)
    removable = [i for i in _bits(m) if outer[i] & m == 0]
    addable = [i for i in range(len(P)) if not (m >> i) & 1 and inner[i] & m == inner[i]]
    down_ids, up_ids = (removable, addable) if il.mode == "ideal" else (addable, removable)
    down_colors = tuple(sorted(P.colors[P.vertices[i]] for i in down_ids))
    up_colors = tuple(sorted(P.colors[P.vertices[i]] for i in up_ids))
    edge_down = tuple(sorted(c for _, c in il.lattice.down_steps(x)))
    edge_up = tuple(sorted(c for _, c in il.lattice.up_steps(x)))
    if edge_down != down_colors or edge_up != up_colors:
        raise ValidationError(
            f"cover color profile of {x!r} disagrees with incident edges"
        )
    return up_colors, down_colors


def _ids_in(il: IdealLattice, masks: Iterable[int]) -> list[int]:
    """The id in ``il`` of each mask, or -1 for a mask that is none of its elements."""
    id_of = dict(zip(il.masks, range(len(il))))
    return [id_of.get(m, -1) for m in masks]


def _rebuilt_witness(view: LatticeView, irr: IrreduciblePoset, phi: list[int]) -> dict[str, str] | None:
    """The fundamental theorem's map from L onto the lattice rebuilt from ``irr``, if it holds.

    ``irr`` and ``phi`` are what ``_extract`` returns for L: the join (or
    meet) irreducible poset, its vertices L's labels, and per element the
    mask of the irreducibles at or below (above) it.  Join side: x goes to
    the ideal phi(x) of J(irr).  Meet side: x goes to the filter phi(x) of
    M(irr).  Returns the map as labels when it is a color-preserving
    isomorphism, else None.
    """
    p = view.poset
    rebuilt = build_J(irr.poset) if irr.provenance == "join" else build_M(irr.poset)
    to_b = _ids_in(rebuilt, phi)
    b = rebuilt.lattice
    if not _map_holds(p, b, to_b):
        return None
    return {x: b.vertices[i] for x, i in zip(p.vertices, to_b)}


def verify_fundamental(L) -> Report:
    """Both lattice-side roundtrips through the irreducible posets.

    Rebuilds the lattice from its join irreducibles and from its meet
    irreducibles and checks the fundamental theorem's maps into them:
    x goes to the irreducibles below it (join side) or above it (meet
    side).  The witnesses in ``details`` are those maps.
    """
    view = _coerce_view(L)
    report = Report("lattice roundtrips through irreducibles")
    (jp, phi_j), (mp, phi_m) = _extract(view, "join"), _extract(view, "meet")
    report.record("join and meet irreducible counts equal the length",
                  len(jp.poset) == view.length == len(mp.poset))
    wit_j = _rebuilt_witness(view, jp, phi_j)
    report.record("lattice rebuilt from join irreducibles", wit_j is not None)
    wit_m = _rebuilt_witness(view, mp, phi_m)
    report.record("lattice rebuilt from meet irreducibles", wit_m is not None)
    report.details["join_witness"] = wit_j
    report.details["meet_witness"] = wit_m
    return report


def verify_fundamental_poset(P: VertexColoredPoset) -> Report:
    """Both poset-side roundtrips, plus the principal-ideal and profile checks.

    The roundtrips check Birkhoff's maps, the witnesses in ``details``: v goes
    to its principal ideal in J(P) and to its principal filter in M(P).
    """
    report = Report("poset roundtrips through subset lattices")
    jl = build_J(P)
    to_j = {v: jl.label_for(principal_ideal(P, v)) for v in P.vertices}
    wit_j = to_j if _verify_witness(P, extract_j(jl).poset, to_j) else None
    report.record("poset recovered from its ideal lattice", wit_j is not None)
    ml = build_M(P)
    to_m = {v: ml.label_for(P.up_set(v)) for v in P.vertices}
    wit_m = to_m if _verify_witness(P, extract_m(ml).poset, to_m) else None
    report.record("poset recovered from its filter lattice", wit_m is not None)
    report.record("join irreducibles are the principal ideals", set(to_j.values()) == set(jl.view.join_irreducibles()))
    profile_ok = True
    try:
        for il in (jl, ml):
            for lab in il.lattice.vertices:
                cover_color_profile(il, lab)
    except ValidationError:
        profile_ok = False
    report.record("cover color profiles match incident edges", profile_ok)
    report.details["join_witness"] = wit_j
    report.details["meet_witness"] = wit_m
    return report


def is_birkhoff_representable(L) -> tuple[bool, VertexColoredPoset | None]:
    """A distributive lattice arises from a vertex-colored poset iff diamond-colored.

    When it does, the witness poset is materialized, and the fundamental
    theorem's map from L onto its ideal lattice is checked before returning.
    """
    view = _coerce_view(L)
    if not is_distributive_fast(view):
        raise NotDistributive("lattice is not distributive")
    if not view.diamond.ok:
        return False, None
    witness, phi = _extract(view, "join")
    if _rebuilt_witness(view, witness, phi) is None:
        raise ValidationError("witness poset failed to rebuild the lattice")
    return True, witness.poset


def verify_transform_identities(
    P: VertexColoredPoset, Q: VertexColoredPoset, sigma: Mapping[Color, Color]
) -> Report:
    """How the ideal/filter constructions interact with *, recoloring, +, x.

    Covers the six poset-side identities (ideal and filter lattices of the
    dual, the recoloring, and the disjoint sum) and the six lattice-side
    identities (irreducibles of the dual, the recoloring, and the product).
    Each identity is checked through the map that proves it: an ideal I of
    P* (a filter of P) goes to P minus I, which is an ideal of P, and the
    filter case is the same; a recoloring keeps every element; an ideal of
    P+Q goes to (its part in P, its part in Q).  In J(P), v has the join
    irreducible jv = down(v) and the meet irreducible mv = P minus up(v):
    the dual's mv* goes to jv* and its jv* to mv*, and the product's (jv,
    bottom) and (bottom, jw) go to L.jv and R.jw, and meets alike with top.
    """
    report = Report("transform identities for the subset-lattice constructions")

    def holds(label: str, built: IdealLattice, K: EdgeColoredPoset, to_K) -> list[int] | None:
        """Record whether ``to_K(built)``, K's id for each element of ``built``, is an isomorphism; return it if so."""
        to = to_K(built)
        return to if report.record(label, _map_holds(built.lattice, K, to)) else None

    def irreducibles_after(label: str, built: IdealLattice, K: EdgeColoredPoset, to_K):
        """``holds``, then K's join and meet irreducibles; a copy of ``built`` takes its verdicts and rank."""
        if (to := holds(label, built, K, to_K)) is not None:
            rank = built.view.rank_function
            to_rank = {K.vertices[i]: rank.rank[x] for x, i in zip(built.lattice.vertices, to)}
            _record_proved(K, to_rank, rank.length, True)
        view = as_lattice(K)  # one view serves both extractions, and K is dropped after them
        return extract_j(view).poset, extract_m(view).poset

    full, n = (1 << len(P)) - 1, len(P)

    def complement(target: IdealLattice):
        """Each element's complement in P, as an id of ``target``."""
        return lambda built: _ids_in(target, (full ^ m for m in built.masks))

    def same(built: IdealLattice) -> list[int]:
        return list(range(len(built)))

    def parts(left: IdealLattice, right: IdealLattice):
        """Each element's parts in P and in Q, as a product id with the right factor fastest."""
        def to_K(built: IdealLattice) -> list[int]:
            ls = _ids_in(left, (m & full for m in built.masks))
            rs = _ids_in(right, (m >> n for m in built.masks))
            return [l * len(right) + r if min(l, r) >= 0 else -1 for l, r in zip(ls, rs)]
        return to_K

    # each transform is built once; the sum's ideals precede the product, so past the cap they fail first
    JP, JQ, MP = build_J(P), build_J(Q), build_M(P)
    L = JP.lattice
    j_dual, m_dual = irreducibles_after(
        "ideals of the dual = dual of the ideals", build_J(dP := dual(P)), dual(L), complement(JP))
    j_recolor, m_recolor = irreducibles_after(
        "ideals of a recoloring = recoloring of the ideals",
        build_J(rP := recolor(P, sigma)), recolor(L, sigma), same)
    j_product, m_product = irreducibles_after(
        "ideals of a disjoint sum = product of the ideals",
        build_J(PQ := disjoint_sum(P, Q)), cartesian_product(L, JQ.lattice), parts(JP, JQ))
    holds("filters of the dual = dual of the filters", build_M(dP), dual(MP.lattice), complement(MP))
    holds("filters of a recoloring = recoloring of the filters", build_M(rP), recolor(MP.lattice, sigma), same)
    holds("filters of a disjoint sum = product of the filters",
          build_M(PQ), cartesian_product(MP.lattice, (MQ := build_M(Q)).lattice), parts(MP, MQ))

    def irreducibles(il: IdealLattice) -> tuple[list[str], list[str], str, str]:
        """The labels in ``il``, an ideal lattice, of jv and of mv per source vertex v, then of its bottom and top."""
        X = il.source
        j = [il.label_for(X.down_set(v)) for v in X.vertices]
        m = [il.label_for(set(X.vertices) - X.up_set(v)) for v in X.vertices]
        return j, m, il.label_for(()), il.label_for(X.vertices)

    def maps(label: str, a: VertexColoredPoset, b: VertexColoredPoset, pairs) -> None:
        report.record(label, _verify_witness(a, b, dict(pairs)))

    (jv, mv, bottom, top), (jw, mw, q_bottom, q_top) = irreducibles(JP), irreducibles(JQ)
    label_of = ProductView.label_of
    jL, jK = extract_j(JP).poset, extract_j(JQ).poset
    mL, mK = extract_m(JP).poset, extract_m(JQ).poset
    maps("join irreducibles of the dual = dual of the join irreducibles",
         j_dual, dual(jL), ((_star(m), _star(j)) for j, m in zip(jv, mv)))
    maps("join irreducibles of a recoloring = recoloring of join irreducibles",
         j_recolor, recolor(jL, sigma), ((j, j) for j in jv))
    maps("join irreducibles of a product = disjoint sum of join irreducibles",
         j_product, disjoint_sum(jL, jK),
         [(label_of((j, q_bottom)), "L." + j) for j in jv] + [(label_of((bottom, j)), "R." + j) for j in jw])
    maps("meet irreducibles of the dual = dual of meet irreducibles",
         m_dual, dual(mL), ((_star(j), _star(m)) for j, m in zip(jv, mv)))
    maps("meet irreducibles of a recoloring = recoloring of meet irreducibles",
         m_recolor, recolor(mL, sigma), ((m, m) for m in mv))
    maps("meet irreducibles of a product = disjoint sum of meet irreducibles",
         m_product, disjoint_sum(mL, mK),
         [(label_of((m, q_top)), "L." + m) for m in mv] + [(label_of((top, m)), "R." + m) for m in mw])
    return report


@dataclass
class IntervalBooleanResult:
    """Whether [bound, t] matches the subset lattice built from the cover set."""

    bound: str
    contains_set: bool
    matches: bool
    boolean: bool

    @property
    def verdict(self) -> bool:
        return self.contains_set and self.matches and self.boolean


def _interval_boolean(L, t: str, S: Sequence[str], side: str) -> IntervalBooleanResult:
    """[meet(S), t] for descendants S of t, or [t, join(S)] for ancestors."""
    view = _coerce_view(L)
    _require_dcdl(view)
    p = view.poset
    S = list(dict.fromkeys(S))
    if not S:
        raise InvalidDescendantSet(f"need at least one {side}")
    below = side == "descendant"
    near = set(p.descendants(t) if below else p.ancestors(t))
    bad = [s for s in S if s not in near]
    if bad:
        raise InvalidDescendantSet(f"{bad} are not {side}s of {t!r}")
    colors = {s: p.edge_color(s, t) if below else p.edge_color(t, s) for s in S}
    antichain = VertexColoredPoset(sorted(S, key=p.index_of), [], colors)
    # a set T of S goes to t met (joined) with T; the bound is the image of S
    op = view.meet if below else view.join
    bound = reduce(op, S, t)
    inner = view.interval(bound, t) if below else view.interval(t, bound)
    subsets = build_M(antichain) if below else build_J(antichain)
    to_inner = [inner._index.get(reduce(op, subsets.members(x), t), -1) for x in subsets.lattice.vertices]
    matches = _map_holds(subsets.lattice, inner, to_inner)
    contains = set(S) <= set(inner.vertices)
    # a map from the subset lattice of an antichain proves the interval Boolean
    return IntervalBooleanResult(bound, contains, matches, matches or is_boolean(as_lattice(inner)))


def descendant_interval_boolean(L, t: str, D: Sequence[str]) -> IntervalBooleanResult:
    """For a set D of descendants of t: [meet(D), t] is the filter lattice of D.

    D is treated as an antichain colored by the edge into t.  The interval
    matches exactly at the meet of D; it is a Boolean lattice there.
    """
    return _interval_boolean(L, t, D, "descendant")


def ancestor_interval_boolean(L, t: str, A: Sequence[str]) -> IntervalBooleanResult:
    """Dual form: [t, join(A)] is the ideal lattice of the ancestor set A."""
    return _interval_boolean(L, t, A, "ancestor")


def verify_interval_booleans(L) -> Report:
    """Proposition 12 on every set of one to three descendants, and of ancestors, of each element."""
    report = Report("descendant and ancestor intervals are Boolean at the bounds")
    view = _coerce_view(L)
    p = view.poset
    ok = True
    for t in p.vertices:
        for near, check in ((p.descendants(t), descendant_interval_boolean),
                            (p.ancestors(t), ancestor_interval_boolean)):
            for size in (1, 2, 3):
                for S in combinations(near, size):
                    ok = check(view, t, list(S)).verdict and ok
    report.record("every interval at the computed bound matches and is Boolean", ok)
    return report
