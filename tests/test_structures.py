"""Structure construction and the four structural operations."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import edge_chain, random_vertex_posets
from dclat import (
    EdgeColoredPoset,
    MissingColorMapping,
    ProductView,
    UnknownVertex,
    ValidationError,
    VertexColoredPoset,
    boolean_lattice,
    build_J,
    cartesian_product,
    disjoint_sum,
    dual,
    find_isomorphism,
    isomorphic,
    random_poset,
    recolor,
    reduce_relation,
)
from dclat.dcp import emit, parse
from _oracles import (
    brute_isomorphism,
    closure_pairs,
    component_count,
    components,
    induced_cover_pairs,
    product_by_pairs,
    reduce_relation_by_scan,
)


def two_color_diamond():
    return EdgeColoredPoset(
        ["bot", "x", "y", "top"],
        [("bot", "x", 1), ("bot", "y", 2), ("x", "top", 2), ("y", "top", 1)],
    )


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            EdgeColoredPoset(["a", "b"], [("a", "b", 1), ("b", "a", 1)])

    def test_non_reduced_rejected(self):
        with pytest.raises(ValidationError, match="reduced"):
            EdgeColoredPoset(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            EdgeColoredPoset(["a", "b"], [("a", "b", 1), ("a", "b", 2)])

    def test_loop_rejected(self):
        with pytest.raises(ValidationError, match="loop"):
            EdgeColoredPoset(["a"], [("a", "a", 1)])

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            EdgeColoredPoset(["a"], [("a", "b", 1)])

    def test_missing_vertex_color_rejected(self):
        with pytest.raises(ValidationError, match="color"):
            VertexColoredPoset(["a", "b"], [("a", "b")], {"a": 1})

    def test_empty_poset_allowed(self):
        p = VertexColoredPoset([], [], {})
        assert len(p) == 0 and components(p.vertices, p.covers) == []

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            VertexColoredPoset(["a", "a"], [], {"a": 1})


class TestOrderQueries:
    def test_leq_reflexive(self, fig_poset):
        assert all(fig_poset.leq(v, v) for v in fig_poset.vertices)

    def test_descendants_of_v3(self, fig_poset):
        assert set(fig_poset.descendants("v3")) == {"v4", "v6"}

    def test_ancestors_of_v5(self, fig_poset):
        assert set(fig_poset.ancestors("v5")) == {"v2", "v4"}

    def test_unknown_vertex(self, fig_poset):
        with pytest.raises(UnknownVertex):
            fig_poset.leq("v1", "nope")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_leq_matches_closure_oracle(self, seed):
        p = random_poset(6, 0.4, seed)
        pairs = closure_pairs(p.vertices, [(a, b) for a, b in p.covers])
        for a in p.vertices:
            for b in p.vertices:
                assert p.leq(a, b) == ((a, b) in pairs)

    def test_down_up_sets(self, fig_poset):
        assert fig_poset.down_set("v1") == {"v1", "v2", "v4", "v5"}
        assert fig_poset.up_set("v5") == {"v5", "v2", "v4", "v1", "v3"}


class TestDual:
    def test_single_edge_reversal(self):
        p = EdgeColoredPoset(["a", "b"], [("a", "b", 1)])
        d = dual(p)
        assert set(d.covers) == {("b*", "a*", 1)}

    def test_involution_restores_labels(self, fig_lattice):
        assert dual(dual(fig_lattice)) == fig_lattice

    def test_b3_self_dual(self):
        b3 = boolean_lattice(3)
        assert isomorphic(b3, dual(b3))
        # pinned by the brute-force permutation oracle on the 2-cube
        b2 = boolean_lattice(2)
        assert brute_isomorphism(b2, dual(b2)) is not None

    def test_vertex_colored_dual_preserves_colors(self, fig_poset):
        d = dual(fig_poset)
        assert d.colors["v1*"] == fig_poset.colors["v1"]
        assert ("v1*", "v2*") in d.covers


@pytest.fixture(params=["vertex", "edge"])
def either_kind(request, fig_poset, fig_lattice):
    return fig_poset if request.param == "vertex" else fig_lattice


class TestKindAgnosticOperations:
    """Dual, relabel and equality behave the same on both structure kinds."""

    def test_double_dual_is_equal_with_equal_hash(self, either_kind):
        back = dual(dual(either_kind))
        assert back == either_kind and hash(back) == hash(either_kind)
        assert dual(either_kind) != either_kind

    def test_relabel_round_trips(self, either_kind):
        forward = {v: f"x{i}" for i, v in enumerate(either_kind.vertices)}
        moved = either_kind.relabel(forward)
        assert moved.vertices == tuple(forward.values())
        assert len(moved.covers) == len(either_kind.covers)
        assert moved.colors_used == either_kind.colors_used
        back = moved.relabel({w: v for v, w in forward.items()})
        assert back == either_kind and hash(back) == hash(either_kind)

    def test_differs_after_a_recoloring(self, either_kind):
        swapped = recolor(either_kind, {1: 2, 2: 1})
        assert swapped.vertices == either_kind.vertices and swapped != either_kind
        assert recolor(swapped, {1: 2, 2: 1}) == either_kind

    def test_differs_from_the_other_kind(self, either_kind):
        one_vertex = [VertexColoredPoset(["a"], [], {"a": 0}), EdgeColoredPoset(["a"], [])]
        same, other = one_vertex if isinstance(either_kind, VertexColoredPoset) else one_vertex[::-1]
        assert same.vertices == other.vertices and not same.covers and not other.covers
        assert same != other and other != same
        assert either_kind != other and either_kind != "not a structure"


class TestRecolor:
    def test_identity(self, fig_lattice):
        sigma = {c: c for c in fig_lattice.colors_used}
        assert recolor(fig_lattice, sigma) == fig_lattice

    def test_relabeled_colors(self, fig_lattice):
        out = recolor(fig_lattice, {1: 7, 2: 9})
        assert out.colors_used == {7, 9}
        assert [c for *_, c in out.covers].count(7) == [c for *_, c in fig_lattice.covers].count(1)

    def test_collapse_two_colors(self):
        p = two_color_diamond()
        out = recolor(p, {1: 1, 2: 1})
        assert out.colors_used == {1}
        assert {(a, b) for a, b, _ in out.covers} == {(a, b) for a, b, _ in p.covers}

    def test_missing_mapping(self, fig_lattice):
        with pytest.raises(MissingColorMapping):
            recolor(fig_lattice, {1: 1})

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_recolor_commutes_with_dual(self, seed):
        P = random_poset(5, 0.4, seed)
        covers = [(a, b, P.colors[b]) for a, b in P.covers]
        p = EdgeColoredPoset(P.vertices, covers)
        sigma = {c: c + 10 for c in p.colors_used}
        assert isomorphic(recolor(dual(p), sigma), dual(recolor(p, sigma)))


class TestDisjointSum:
    def test_sum_with_empty(self, fig_poset):
        empty = VertexColoredPoset([], [], {})
        assert isomorphic(disjoint_sum(fig_poset, empty), fig_poset)

    def test_component_sizes(self):
        a = edge_chain(1)  # 2 vertices
        b = edge_chain(2)  # 3 vertices
        s = disjoint_sum(a, b)
        assert len(s) == 5
        edges = [(x, y) for x, y, _ in s.covers]
        assert component_count(s.vertices, edges) == 2
        assert sorted(len(c) for c in components(s.vertices, edges)) == [2, 3]

    def test_reassembled_components(self, fig_view):
        from dclat import j_components

        comps = j_components(fig_view, [2]).components
        total = comps[0].poset
        for comp in comps[1:]:
            total = disjoint_sum(total, comp.poset)
        assert len(total) == 15
        assert sorted(len(c) for c in components(total.vertices, [c[:2] for c in total.covers])) == [2, 3, 4, 6]

    def test_kind_mismatch(self, fig_poset, fig_lattice):
        with pytest.raises(ValidationError):
            disjoint_sum(fig_poset, fig_lattice)


class TestCartesianProduct:
    def test_unit(self):
        p = edge_chain(2, (1, 2))
        one = EdgeColoredPoset(["pt"], [])
        assert isomorphic(cartesian_product(p, one), p)

    def test_two_chains_make_a_diamond(self):
        a = EdgeColoredPoset(["a0", "a1"], [("a0", "a1", 1)])
        b = EdgeColoredPoset(["b0", "b1"], [("b0", "b1", 2)])
        prod = cartesian_product(a, b)
        assert set(prod.covers) == {
            ("(a0,b0)", "(a0,b1)", 2),
            ("(a1,b0)", "(a1,b1)", 2),
            ("(a0,b0)", "(a1,b0)", 1),
            ("(a0,b1)", "(a1,b1)", 1),
        }

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_vertex_and_edge_counts(self, s1, s2):
        def as_edges(P):
            return EdgeColoredPoset(P.vertices, [(a, b, P.colors[b]) for a, b in P.covers])

        a = as_edges(random_poset(4, 0.5, s1))
        b = as_edges(random_poset(3, 0.5, s2))
        prod = cartesian_product(a, b)
        assert len(prod) == len(a) * len(b)
        assert len(prod.covers) == len(a.covers) * len(b) + len(b.covers) * len(a)

    def test_is_the_two_factor_product_view(self, data_dir):
        fixtures = [parse(f.read_text()) for f in sorted(data_dir.glob("*.dcp"))]
        edge_colored = [p for p in fixtures if isinstance(p, EdgeColoredPoset)]
        assert len(edge_colored) >= 4
        for a in edge_colored:
            for b in edge_colored:
                prod = cartesian_product(a, b)
                assert prod == ProductView([a, b]).poset == product_by_pairs(a, b)
                assert emit(prod) == emit(product_by_pairs(a, b))


def label_subsets(p, rng):
    """The whole poset, the empty set, every singleton, then intervals, up-sets and down-sets
    (convex) and random subsets (mostly not convex)."""
    v = p.vertices
    yield from (v, (), *((x,) for x in v))
    for _ in range(6 if v else 0):
        s, t = rng.choice(v), rng.choice(v)
        yield from (p.up_set(s) & p.down_set(t), p.up_set(s), p.down_set(t))
        yield [x for x in v if rng.random() < 0.5]


class TestInducedCovers:
    """``_induced_ids`` gives the covers the all-pairs oracle finds, in the same (lower id, upper id) order."""

    def assert_same(self, p, labels):
        labels = list(labels)
        ids, pairs = p._induced_ids(labels)
        expected = induced_cover_pairs(p, labels)
        assert ids == sorted({p.index_of(x) for x in labels})
        assert [(p.vertices[a], p.vertices[b]) for a, b in pairs] == expected
        if isinstance(p, VertexColoredPoset):
            assert p.induced(labels).covers == set(expected)
            return
        missing = [(a, b) for a, b in expected if not p.has_cover(a, b)]
        if not missing:
            assert p.induced(labels).covers == {(a, b, p.edge_color(a, b)) for a, b in expected}
            return
        with pytest.raises(ValidationError) as caught:
            p.induced(labels)
        a, b = missing[0]
        assert str(caught.value) == f"induced cover {a!r} -> {b!r} is not an edge of the parent, so it has no color"

    def test_fixtures(self, data_dir):
        rng = random.Random(5)
        for path in sorted(data_dir.glob("*.dcp")):
            p = parse(path.read_text())
            for labels in label_subsets(p, rng):
                self.assert_same(p, labels)

    def test_random_structures(self):
        rng = random.Random(7)
        posets = random_vertex_posets(12, 7, seed=9)
        for p in posets + [build_J(P).lattice for P in posets if len(P) <= 6]:
            for labels in label_subsets(p, rng):
                self.assert_same(p, labels)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.floats(0.05, 0.95), st.integers(0, 10**6), st.booleans(), st.data())
    def test_drawn_subsets(self, n, density, seed, lattice, data):
        P = random_poset(n, density, seed)
        p = build_J(P).lattice if lattice else P
        self.assert_same(p, data.draw(st.lists(st.sampled_from(p.vertices)) if p.vertices else st.just([])))


class TestSumProductLaws:
    def test_sum_commutes_associates(self):
        ps = random_vertex_posets(3, 4, seed=5)
        a, b, c = ps
        assert isomorphic(disjoint_sum(a, b), disjoint_sum(b, a))
        assert isomorphic(
            disjoint_sum(a, disjoint_sum(b, c)), disjoint_sum(disjoint_sum(a, b), c)
        )

    def test_product_commutes_associates(self):
        a = edge_chain(1, (1,))
        b = edge_chain(2, (2,))
        c = two_color_diamond()
        assert isomorphic(cartesian_product(a, b), cartesian_product(b, a))
        assert isomorphic(
            cartesian_product(a, cartesian_product(b, c)),
            cartesian_product(cartesian_product(a, b), c),
        )


class TestReduceRelation:
    def test_closure_then_reduction(self):
        covers = reduce_relation(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert sorted(covers) == [("a", "b"), ("b", "c")]

    def test_cycle_detected(self):
        with pytest.raises(ValidationError):
            reduce_relation(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_cubic_scan(self, seed):
        """Same covers in the same order, and the same exceptions, as the cubic scan."""
        rng = random.Random(seed)
        invalid = set()
        for _ in range(300):
            n = rng.randint(0, 9)
            verts = [f"v{i}" for i in rng.sample(range(20), n)]
            pool = verts + ["ghost"] if rng.random() < 0.05 else verts
            pairs = []
            for _ in range(rng.randint(0, 3 * n) if pool else 0):
                a, b = sorted(rng.sample(range(len(pool)), 2) if len(pool) > 1 else [0, 0])
                pairs.append((pool[b], pool[a]) if rng.random() < 0.02 else (pool[a], pool[b]))
            try:
                expected = reduce_relation_by_scan(verts, pairs)
            except (UnknownVertex, ValidationError) as e:
                invalid.add(type(e))
                with pytest.raises(type(e), match=re.escape(str(e))) as got:
                    reduce_relation(verts, pairs)
                assert type(got.value) is type(e)
                continue
            assert reduce_relation(verts, pairs) == expected
        assert invalid == {UnknownVertex, ValidationError}


class TestTransitiveReductionInvariant:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_no_cover_is_implied(self, seed):
        p = random_poset(7, 0.5, seed)
        pairs = closure_pairs(p.vertices, [(a, b) for a, b in p.covers])
        for a, b in p.covers:
            between = [z for z in p.vertices if z not in (a, b)
                       and (a, z) in pairs and (z, b) in pairs]
            assert not between
