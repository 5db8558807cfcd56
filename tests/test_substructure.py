"""Sublattices, product closure, components, and subordinates."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    assert_matches_constructor,
    check_sublattice_by_pairs,
    induced_cover_pairs,
    j_components_by_pair_bfs,
    subordinate_by_restarts,
    subordinates_by_subset_search,
    weak_subposet_from_sublattice_by_search,
)
from corpus import (
    edge_chain,
    hexagon,
    m3,
    n5,
    random_lattices,
    random_modular_lattices,
    random_vertex_posets,
    weak_subposet_pairs,
)
from dclat import (
    DclatError,
    EnumerationCapExceeded,
    HypothesisViolated,
    NotASublattice,
    NotModular,
    NotWeakSubposet,
    ProductView,
    ValidationError,
    VertexColoredPoset,
    as_lattice,
    boolean_lattice,
    build_J,
    check_sublattice,
    color_subsets,
    dcp,
    enumerate_subordinates,
    extract_j,
    isomorphic,
    j_components,
    random_poset,
    sublattice_from_weak_subposet,
    subordinate_of,
    subordinates_by_definition,
    verify_component_structure,
    verify_full_length_agreement,
    verify_product_closure,
    verify_subordinate_correspondence,
    verify_weakening,
    weak_subposet,
    weak_subposet_from_sublattice,
)
from dclat import substructure
from dclat.paths import CheckResult, RankFunction
from dclat.structures import EdgeColoredPoset


class TestCheckSublattice:
    def test_lattice_in_itself(self, fig_lattice):
        emb = check_sublattice(fig_lattice, fig_lattice)
        assert emb.full_length and emb.edge_colored

    def test_unranked_lattice_is_not_full_length(self):
        emb = check_sublattice(n5(), n5())
        assert emb.full_length is False and emb.edge_colored

    def test_other_errors_from_the_length_propagate(self, monkeypatch, fig_lattice):
        def broken(view):
            raise RuntimeError("length is broken")

        monkeypatch.setattr(substructure.LatticeView, "length", property(broken))
        with pytest.raises(RuntimeError):
            check_sublattice(fig_lattice, fig_lattice)

    def test_interval_is_edge_colored_sublattice(self, fig_view):
        inner = fig_view.interval("v5", "v2.v4.v5.v6")
        emb = check_sublattice(inner, fig_view)
        assert emb.edge_colored and not emb.full_length

    def test_missing_closure_point_fails(self):
        b2 = boolean_lattice(2)
        sub = EdgeColoredPoset(
            ["empty", "a0", "a1"], [("empty", "a0", 1), ("empty", "a1", 1)]
        )
        with pytest.raises(NotASublattice) as exc:
            check_sublattice(sub, as_lattice(b2))
        assert exc.value.witness == ("a0", "a1", "join")

    def test_join_disagreement_detected(self):
        b3 = boolean_lattice(3)
        sub = EdgeColoredPoset(
            ["empty", "a0", "a1", "a0.a1.a2"],
            [("empty", "a0", 1), ("empty", "a1", 1),
             ("a0", "a0.a1.a2", 1), ("a1", "a0.a1.a2", 1)],
        )
        with pytest.raises(NotASublattice) as exc:
            check_sublattice(sub, as_lattice(b3))
        assert exc.value.witness == ("a0", "a1", "join")


    def test_meet_disagreement_seen_only_at_lower_covers(self):
        # K is the pentagon 0 < a < 1, 0 < d < b < 1; in L, a ^ b is e, not 0, and
        # only a, b (lower covers of 1) show it: the one pair of upper covers, a, d, agrees
        L = EdgeColoredPoset(
            ["0", "e", "d", "a", "b", "1"],
            [("0", "e", 1), ("0", "d", 1), ("e", "a", 1), ("e", "b", 1), ("d", "b", 1), ("a", "1", 1), ("b", "1", 1)],
        )
        K = EdgeColoredPoset(
            ["0", "a", "d", "b", "1"], [("0", "a", 1), ("0", "d", 1), ("d", "b", 1), ("a", "1", 1), ("b", "1", 1)]
        )
        with pytest.raises(NotASublattice, match=r"^meet of 'a', 'b' is '0' inside, 'e' in the parent$") as exc:
            check_sublattice(K, L)
        assert exc.value.witness == ("a", "b", "meet")


class TestFullLengthAgreement:
    def test_identity_embedding(self, fig_lattice):
        emb = check_sublattice(fig_lattice, fig_lattice)
        assert verify_full_length_agreement(emb).passed

    def test_proper_interval_flagged_not_asserted(self, fig_view):
        inner = fig_view.interval("v5", "v2.v4.v5.v6")
        emb = check_sublattice(inner, fig_view)
        report = verify_full_length_agreement(emb)
        assert not report.passed
        assert report.failures() == ["embedding is full-length"]

    def test_weakening_pairs_agree(self):
        for P, Q in weak_subposet_pairs(10, seed=41):
            emb = sublattice_from_weak_subposet(P, Q)
            assert verify_full_length_agreement(emb.embedding).passed


class TestProductClosure:
    def test_entire_product(self):
        factors = [m3(), edge_chain(2, (2,))]
        pv = ProductView(factors)
        assert verify_product_closure(factors, pv.poset.vertices).passed

    def test_three_point_chain_in_square(self):
        factors = [edge_chain(1, (1,)), edge_chain(1, (2,))]
        K = ["(c0,c0)", "(c1,c0)", "(c1,c1)"]
        report = verify_product_closure(factors, K)
        assert report.passed

    def test_unclosed_subset_rejected(self):
        factors = [edge_chain(1, (1,)), edge_chain(1, (2,))]
        K = ["(c0,c0)", "(c1,c0)", "(c0,c1)", "(c1,c1)"]
        # drop the meet of the two middle elements
        with pytest.raises(HypothesisViolated):
            verify_product_closure(factors, [k for k in K if k != "(c0,c0)"])

    @pytest.mark.parametrize("K, pair", [
        (["(c0,c0)", "(c1,c0)", "(c0,c1)", "(c2,c1)"], ("(c0,c1)", "(c1,c0)")),  # their join is missing
        (["(c0,c0)", "(c1,c1)", "(c2,c0)", "(c2,c1)"], ("(c1,c1)", "(c2,c0)")),  # their meet is missing
    ], ids=["join-missing", "meet-missing"])
    def test_unclosed_subset_names_its_first_pair(self, K, pair):
        with pytest.raises(HypothesisViolated) as caught:
            verify_product_closure([edge_chain(2), edge_chain(1)], K)
        assert str(caught.value) == f"subset not closed under componentwise bounds at {pair!r}"

    def test_nonmodular_factor_rejected(self):
        from corpus import n5

        with pytest.raises(HypothesisViolated):
            verify_product_closure([n5()], n5().vertices)

    def test_rank_additivity_random_products(self):
        for P in random_vertex_posets(4, 4, seed=47, min_n=1):
            L1 = build_J(P).lattice
            factors = [L1, m3()]
            pv = ProductView(factors)
            report = verify_product_closure(factors, pv.poset.vertices)
            assert report.passed


class TestWeakening:
    def test_suite_reports_agreement_then_recovery(self):
        for P, Q in weak_subposet_pairs(10, seed=3):
            agreement, recovery = verify_weakening(P, Q)
            assert agreement.name == "full-length sublattice rank and cover agreement"
            assert recovery.name == "weak subposet recovered from a full-length sublattice"
            assert agreement.passed and recovery.passed

    def test_equal_orders(self, fig_poset):
        emb = sublattice_from_weak_subposet(fig_poset, fig_poset)
        assert emb.embedding.full_length
        assert len(emb.sub_ideals) == len(emb.parent_ideals)

    def test_antichain_weakening_embeds_in_boolean(self, fig_poset):
        Q = VertexColoredPoset(fig_poset.vertices, [], dict(fig_poset.colors))
        emb = sublattice_from_weak_subposet(fig_poset, Q)
        assert len(emb.parent_ideals) == 2 ** len(fig_poset)
        assert emb.embedding.full_length and emb.embedding.edge_colored

    def test_not_weak_subposet(self, fig_poset):
        extra = VertexColoredPoset(
            fig_poset.vertices,
            list(fig_poset.covers) + [("v2", "v3")],
            dict(fig_poset.colors),
        )
        with pytest.raises(NotWeakSubposet):
            sublattice_from_weak_subposet(fig_poset, extra)

    def test_color_change_rejected(self, fig_poset):
        other = VertexColoredPoset(
            fig_poset.vertices, list(fig_poset.covers), {**fig_poset.colors, "v5": 9}
        )
        with pytest.raises(NotWeakSubposet):
            sublattice_from_weak_subposet(other, fig_poset)

    def test_relation_list_input_is_normalized(self, fig_poset):
        # redundant pair (v5, v1) is implied and must be absorbed
        relation = [("v5", "v2"), ("v2", "v1"), ("v5", "v1")]
        emb = sublattice_from_weak_subposet(fig_poset, relation)
        assert emb.embedding.full_length
        assert len(emb.parent_ideals) >= len(emb.sub_ideals)


UNIQUE = "each filter of sublattice elements has a unique minimum"
IRREDUCIBLE = "those minima are join irreducible in the sublattice"


class TestRecovery:
    def test_identity_recovery(self, fig_lattice):
        rec = weak_subposet_from_sublattice(fig_lattice, fig_lattice)
        assert rec.report.passed
        assert all(k == v for k, v in rec.phi.items())

    def test_roundtrip_recovers_weakening(self):
        for P, Q in weak_subposet_pairs(10, seed=53):
            emb = sublattice_from_weak_subposet(P, Q)
            rec = weak_subposet_from_sublattice(
                emb.embedding.parent_view, emb.embedding.sub_view
            )
            assert rec.report.passed
            assert isomorphic(rec.recovered, Q)

    @pytest.mark.parametrize("K_labels, failed", [
        # two minimal elements lie above a0 (a0.a1 and a0.a2): no unique minimum, so no irreducible one
        (("empty", "a0.a1", "a0.a2", "a0.a1.a2"), [UNIQUE, IRREDUCIBLE]),
        # the only element above a2 is the top, which covers two elements of K
        (("empty", "a0", "a1", "a0.a1.a2"), [IRREDUCIBLE]),
    ], ids=["no-unique-minimum", "minimum-not-irreducible"])
    def test_lattice_that_is_no_sublattice_fails_the_recovery(self, monkeypatch, K_labels, failed):
        """With the sublattice check accepting it, a lattice inside B3 that is no sublattice fails the
        recovery as the pairwise search does."""
        bot, left, right, top = K_labels
        K = EdgeColoredPoset(K_labels, [(bot, left, 1), (bot, right, 2), (left, top, 2), (right, top, 1)])
        L = boolean_lattice(3)
        with pytest.raises(NotASublattice):
            check_sublattice(K, L)

        def accept(K, L):
            kv, lv = substructure._coerce_view(K), substructure._coerce_view(L)
            return substructure.SublatticeEmbedding(kv.poset, lv.poset, kv, lv, True, True)

        monkeypatch.setattr(substructure, "check_sublattice", accept)
        rec = weak_subposet_from_sublattice(L, K)
        old = weak_subposet_from_sublattice_by_search(L, K)
        assert rec.report.checks == old.report.checks and rec.report.failures() == failed
        assert rec.phi == old.phi and rec.recovered == old.recovered

    def test_irreducible_counts_match(self):
        for P, Q in weak_subposet_pairs(6, seed=59):
            emb = sublattice_from_weak_subposet(P, Q)
            irr_sub = extract_j(emb.embedding.sub_view).poset
            irr_parent = extract_j(emb.embedding.parent_view).poset
            assert len(irr_sub) == len(irr_parent)


class TestComponents:
    def test_color_subsets_count_in_binary_over_the_sorted_palette(self):
        assert list(color_subsets({3, 1})) == [[], [1], [3], [1, 3]]
        assert list(color_subsets([])) == [[]]

    def test_component_info_repr_and_foreign_equality(self):
        (comp,) = j_components(build_J(VertexColoredPoset(["a"], [], {"a": 1})), [1]).components
        assert repr(comp) == "ComponentInfo(('empty', 'a'), minimum='empty', maximum='a')"
        assert comp.__eq__(comp.labels) is NotImplemented and comp != comp.labels

    def test_all_colors_single_component(self, fig_view):
        decomp = j_components(fig_view, fig_view.poset.colors_used)
        assert decomp.sizes() == (15,)

    def test_no_colors_gives_singletons(self, fig_view):
        decomp = j_components(fig_view, [])
        assert decomp.sizes() == tuple([1] * 15)

    def test_fig_lattice_color2_sizes(self, fig_view):
        decomp = j_components(fig_view, [2])
        assert sorted(decomp.sizes()) == [2, 3, 4, 6]

    def test_partition(self, fig_view):
        decomp = j_components(fig_view, [1])
        seen = [v for comp in decomp.components for v in comp.labels]
        assert sorted(seen) == sorted(fig_view.poset.vertices)

    def test_nonmodular_rejected(self):
        from corpus import n5

        with pytest.raises(NotModular):
            j_components(n5(), [1])

    def test_structure_report(self, fig_view):
        assert verify_component_structure(fig_view).passed

    def test_distances_are_compared_with_the_parent(self, fig_poset, fig_view):
        """A parent rank planted one too high at the top must trip the verified split."""
        L = build_J(fig_poset).lattice
        rank = L._verdicts["rank"]
        top = L.maximal_elements()[0]
        L._verdicts["rank"] = RankFunction({**rank.rank, top: rank.rank[top] + 1}, rank.length)
        bottom = next(c.minimum for c in j_components(fig_view, [2]).components if top in c.labels)
        message = f"inner distance differs from parent distance at ({bottom!r}, {top!r})"
        with pytest.raises(ValidationError) as exc:
            j_components(L, [2])
        assert str(exc.value) == message

    def test_ideal_lattice_accepted(self, fig_poset, fig_view):
        il = build_J(fig_poset)
        assert j_components(il, [2]) == j_components(fig_view, [2])
        assert verify_component_structure(il) == verify_component_structure(fig_view)

    def test_verified_split_builds_no_component_lattice(self, fig_view, monkeypatch):
        """Every color subset is verified over the parent's ids; no component is built or validated."""
        from dclat import lattice

        built, validated = [], []
        build = EdgeColoredPoset._from_ids

        def counted_build(cls, *args):
            built.append(args[0])
            return build(*args)

        def counted_as_lattice(p, original=lattice.as_lattice):
            validated.append(p)
            return original(p)

        monkeypatch.setattr(EdgeColoredPoset, "_from_ids", classmethod(counted_build))
        for module in (lattice, substructure):
            monkeypatch.setattr(module, "as_lattice", counted_as_lattice)
        assert verify_component_structure(fig_view).passed
        assert built == [] and validated == []

    def test_sibling_bound_off_the_component_with_a_wrong_verdict(self):
        """The hexagon recorded as modular: it is its own component, but the join of the bottom's covers is no cover."""
        L = hexagon()
        L._verdicts["balanced"] = CheckResult(True, None)
        with pytest.raises(ValidationError) as exc:
            j_components(L, [1])
        assert str(exc.value) == "join of 'a', 'b' in the parent is 'top', not one J-colored edge from each"

    def test_planted_rank_in_another_component(self, fig_poset, fig_view):
        """A rank planted off by one below a component's top names that component's minimum and the planted element."""
        L = build_J(fig_poset).lattice
        rank = L._verdicts["rank"]
        comp = max(j_components(fig_view, [2]).components, key=lambda c: len(c.labels))
        planted = comp.labels[-1]
        L._verdicts["rank"] = RankFunction({**rank.rank, planted: rank.rank[planted] - 1}, rank.length)
        with pytest.raises(ValidationError) as exc:
            j_components(L, [2])
        assert str(exc.value) == f"inner distance differs from parent distance at ({comp.minimum!r}, {planted!r})"


class TestSubordinates:
    def test_no_colors_gives_anchor_itself(self, fig_poset):
        il = build_J(fig_poset)
        sub = subordinate_of(il, "v2.v5", [])
        assert sub.vertex_set == frozenset()
        assert sub.witness_ideal == frozenset({"v2", "v5"})

    def test_all_colors_span_everything(self, fig_poset):
        il = build_J(fig_poset)
        sub = subordinate_of(il, "empty", [1, 2])
        assert sub.vertex_set == frozenset(fig_poset.vertices)
        assert sub.witness_ideal == frozenset()

    def test_empty_anchor_color2(self, fig_poset):
        il = build_J(fig_poset)
        sub = subordinate_of(il, "empty", [2])
        assert sub.vertex_set == frozenset({"v6"})

    def test_fig_poset_color2_classes(self, fig_poset):
        subs = enumerate_subordinates(fig_poset, [2])
        assert sorted(sorted(s.vertex_set) for s in subs) == [
            ["v1", "v2"],
            ["v1", "v2", "v6"],
            ["v2", "v6"],
            ["v6"],
        ]

    def test_empty_poset(self):
        empty = VertexColoredPoset([], [], {})
        subs = enumerate_subordinates(empty, [1])
        assert len(subs) == 1 and subs[0].vertex_set == frozenset()

    def test_definition_search_matches(self, fig_poset):
        for J in ([], [1], [2], [1, 2]):
            got = {s.vertex_set for s in enumerate_subordinates(fig_poset, J)}
            assert got == subordinates_by_definition(fig_poset, J)

    def test_definition_search_cap(self, monkeypatch):
        big = VertexColoredPoset([f"x{i}" for i in range(13)], [], {f"x{i}": 1 for i in range(13)})
        with pytest.raises(EnumerationCapExceeded):
            subordinates_by_definition(big, [1])

        # the correspondence check hits the cap before building anything
        def refuse(P):
            raise AssertionError("ideal lattice built before the capped search")

        monkeypatch.setattr(substructure, "build_J", refuse)
        with pytest.raises(EnumerationCapExceeded):
            verify_subordinate_correspondence(big, [1])

    def test_correspondence_fig(self, fig_poset):
        for J in ([], [1], [2], [1, 2]):
            assert verify_subordinate_correspondence(fig_poset, J).passed

    def test_correspondence_random(self):
        for P in random_vertex_posets(8, 5, seed=61, min_n=1):
            palette = sorted(P.colors_used)
            for mask in range(1 << len(palette)):
                J = [palette[i] for i in range(len(palette)) if (mask >> i) & 1]
                assert verify_subordinate_correspondence(P, J).passed

    def test_peeling_matches_lattice_component(self):
        """The witness ideal, and its union with the subordinate, are the
        minimum and maximum of the element's color-restricted component."""
        for P in random_vertex_posets(40, 7, seed=67):
            il = build_J(P)
            view = as_lattice(il.lattice)
            palette = sorted(P.colors_used)
            for mask in range(1 << len(palette)):
                J = [palette[i] for i in range(len(palette)) if (mask >> i) & 1]
                for comp in j_components(view, J).components:
                    for lab in comp.labels:
                        sub = subordinate_of(il, lab, J)
                        assert sub.witness_ideal == il.members(comp.minimum)
                        assert sub.witness_ideal | sub.vertex_set == il.members(comp.maximum)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_one_pass_matches_restarts(self, n, p, seed):
        """The one-pass peeling and adding give the restart loops' subordinate for every element and color set."""
        P = random_poset(n, p, seed)
        il = build_J(P)
        for J in color_subsets([1, 2, 3]):
            for lab in il.lattice.vertices:
                assert subordinate_of(il, lab, J) == subordinate_by_restarts(il, lab, J)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 9), st.floats(0.0, 1.0), st.integers(0, 10**6))
    def test_closure_search_and_enumeration_match_oracles(self, n, p, seed):
        """One closure per ideal finds what the subset search finds, and the enumeration
        keeps the restart loops' subordinate of the first element giving each vertex set."""
        P = random_poset(n, p, seed)
        il = build_J(P)
        for J in color_subsets([1, 2, 3]):
            assert subordinates_by_definition(P, J) == subordinates_by_subset_search(P, J)
            first = {}
            for lab in il.lattice.vertices:
                sub = subordinate_by_restarts(il, lab, J)
                first.setdefault(sub.vertex_set, sub)
            expected = sorted(first.values(), key=lambda s: (len(s.vertex_set), sorted(map(P.index_of, s.vertex_set))))
            assert enumerate_subordinates(P, J) == expected

    def test_deletable_and_addable_sets_are_largest(self, fig_poset):
        """Exhaustive check of the maximality claims behind the subordinate.

        Every designated-color set whose deletion keeps an ideal sits inside
        the deletable set; every addable designated-color set sits inside
        the addable set.
        """
        from itertools import combinations

        il = build_J(fig_poset)
        for J in ([1], [2], [1, 2]):
            for lab in il.lattice.vertices:
                t = il.members(lab)
                sub = subordinate_of(il, lab, J)
                deletable = t - sub.witness_ideal
                addable = sub.vertex_set - deletable
                for size in range(len(t) + 1):
                    for D in combinations(sorted(t), size):
                        rest = t - set(D)
                        if all(fig_poset.colors[v] in J for v in D) and _is_ideal(fig_poset, rest):
                            assert set(D) <= deletable
                outside = sorted(set(fig_poset.vertices) - t)
                for size in range(len(outside) + 1):
                    for A in combinations(outside, size):
                        grown = t | set(A)
                        if all(fig_poset.colors[v] in J for v in A) and _is_ideal(fig_poset, grown):
                            assert set(A) <= addable


def _is_ideal(P, subset):
    return all(w in subset for v in subset for w in P.down_set(v))


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, message and witness of the library error it raises."""
    try:
        return fn(*args)
    except DclatError as e:
        return type(e), str(e), getattr(e, "witness", None)


def _embedding_outcome(fn, K, L):
    out = _outcome(fn, K, L)
    if isinstance(out, substructure.SublatticeEmbedding):
        return out.sub, out.parent, out.full_length, out.edge_colored
    return out


FOREIGN = [m3(), n5(), hexagon(), boolean_lattice(2), boolean_lattice(3), edge_chain(0), edge_chain(2, (1, 2)), edge_chain(4)]


def _sublattice_candidates(L, rng):
    """Candidates K inside L: an induced subset, a foreign lattice relabeled onto L, an interval."""
    verts = L.vertices
    S = sorted(rng.sample(verts, rng.randint(1, len(verts))), key=L.index_of)
    colors = {(verts[a], verts[b]): c for (a, b), c in L._edge_color.items()}
    yield EdgeColoredPoset(S, [(a, b, colors.get((a, b), 0)) for a, b in induced_cover_pairs(L, S)])
    M = rng.choice([M for M in FOREIGN if len(M) <= len(verts)])
    yield M.relabel(dict(zip(M.vertices, rng.sample(verts, len(M)))))
    s = rng.choice(verts)
    yield as_lattice(L).interval(s, rng.choice(sorted(L.up_set(s))))


def _sublattice_parents(seed):
    return random_lattices(12, seed) + random_modular_lattices(8, 40, seed) + [
        build_J(P).lattice for P in random_vertex_posets(8, 6, seed, min_n=1)
    ]


class TestLocalChecksMatchTheirOracles:
    """The local sublattice test and the rank-based distance check against pair-by-pair references."""

    def test_sublattice_verdicts_on_the_corpus(self):
        rng = random.Random(71)
        verdicts = Counter()
        for L in _sublattice_parents(73):
            for _ in range(4):
                for K in _sublattice_candidates(L, rng):
                    fast = _embedding_outcome(check_sublattice, K, L)
                    assert fast == _embedding_outcome(check_sublattice_by_pairs, K, L)
                    verdicts["ok" if fast[0] is K else fast[1].split()[0]] += 1
        # both verdicts occur, and lattice candidates that fail reach the pairwise scan
        assert verdicts["ok"] > 50 and verdicts["join"] + verdicts["meet"] > 50

    def test_weakenings_and_their_reverse(self):
        for P, Q in weak_subposet_pairs(20, seed=79):
            K, Lq = build_J(P).lattice, build_J(weak_subposet(P, Q.covers)).lattice
            for a, b in ((K, Lq), (Lq, K)):
                assert _embedding_outcome(check_sublattice, a, b) == _embedding_outcome(check_sublattice_by_pairs, a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_sublattice_verdicts_under_hypothesis(self, seed):
        rng = random.Random(seed)
        L = rng.choice(_sublattice_parents(seed % 7))
        for K in _sublattice_candidates(L, rng):
            assert _embedding_outcome(check_sublattice, K, L) == _embedding_outcome(check_sublattice_by_pairs, K, L)

    @pytest.mark.parametrize("name", ["fig1L.dcp", "m3.dcp", "m3xb3.dcp", "n5.dcp", "b2_mismatched.dcp"])
    def test_components_on_the_fixtures(self, data_dir, name):
        L = dcp.parse((data_dir / name).read_text())
        palette = sorted(L.colors_used)
        for mask in range(1 << len(palette)):
            J = [c for i, c in enumerate(palette) if mask >> i & 1]
            assert _outcome(j_components, L, J) == _outcome(j_components_by_pair_bfs, L, J)

    def test_components_on_the_corpus(self):
        for L in random_modular_lattices(12, 40, seed=83) + random_lattices(8, seed=89):
            for J in ([1], [2], [1, 2]):
                assert _outcome(j_components, L, J) == _outcome(j_components_by_pair_bfs, L, J)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.1, 0.9), st.integers(0, 7))
    def test_components_under_hypothesis(self, seed, n, p, mask):
        L = build_J(random_poset(n, p, seed)).lattice
        J = [c for i, c in enumerate((1, 2, 3)) if mask >> i & 1]
        assert _outcome(j_components, L, J) == _outcome(j_components_by_pair_bfs, L, J)

    @pytest.mark.parametrize("name", ["fig1L.dcp", "m3.dcp", "m3xb3.dcp"])
    def test_component_posets_on_the_fixtures(self, data_dir, name):
        L = dcp.parse((data_dir / name).read_text())
        for J in color_subsets(L.colors_used):
            _assert_component_posets_are_induced(L, J)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(0.1, 0.9), st.integers(0, 7))
    def test_component_posets_under_hypothesis(self, seed, n, p, mask):
        L = build_J(random_poset(n, p, seed)).lattice
        _assert_component_posets_are_induced(L, [c for i, c in enumerate((1, 2, 3)) if mask >> i & 1])

    @pytest.mark.parametrize("side", ["join", "meet"])
    @pytest.mark.parametrize("name", ["fig1L.dcp", "m3xb3.dcp"])
    def test_planted_sibling_bound(self, data_dir, name, side):
        """A parent bound probe that is wrong at one pair of J-colored siblings fails as in the pairwise oracle."""
        L = dcp.parse((data_dir / name).read_text())
        palette = sorted(L.colors_used)
        steps = L._up_steps if side == "join" else L._down_steps
        failed = 0
        for J in color_subsets(palette):
            siblings = {(a, b) for near in steps for a, c in near for b, d in near if a < b and {c, d} <= set(J)}
            for pair in sorted(siblings):
                view = as_lattice(dcp.parse((data_dir / name).read_text()))
                probe, far = (view._join_id, view.minimum) if side == "join" else (view._meet_id, view.maximum)
                wrong = L.index_of(far)
                setattr(view, f"_{side}_id", lambda i, k: wrong if {i, k} == set(pair) else probe(i, k))
                got = _outcome(j_components, view, J)
                assert got == _outcome(j_components_by_pair_bfs, view, J)
                assert got[0] is NotASublattice and got[2] == (*(L.vertices[i] for i in pair), side)
                failed += 1
        assert failed > 0

    def test_recolored_edge(self, data_dir):
        """One edge of a fixture recolored.  A fresh copy gives the pairwise oracle's outcome, the parent's diamond
        check where a diamond breaks.  So does a copy that keeps the original's verdicts, except where only the
        oracle's per-component diamond scan objects: the split leaves diamond coloring to the parent's verdict."""
        verdicts = Counter()
        for name in ("fig1L.dcp", "m3.dcp", "m3xb3.dcp"):
            L = dcp.parse((data_dir / name).read_text())
            view = as_lattice(L)  # records the verdicts that the stale copies take
            assert view.diamond.ok and substructure.is_modular(view) and view.rank_function
            palette = sorted(L.colors_used) + [max(L.colors_used) + 1]
            for (a, b), c in L._edge_color.items():
                for new in set(palette) - {c}:
                    edges = [(L.vertices[x], L.vertices[y], new if (x, y) == (a, b) else k)
                             for (x, y), k in L._edge_color.items()]
                    fresh, stale = EdgeColoredPoset(L.vertices, edges), EdgeColoredPoset(L.vertices, edges)
                    stale._verdicts.update(L._verdicts)
                    for J in color_subsets(palette):
                        assert _outcome(j_components, fresh, J) == _outcome(j_components_by_pair_bfs, fresh, J)
                        got, want = _outcome(j_components, stale, J), _outcome(j_components_by_pair_bfs, stale, J)
                        if got != want:
                            assert isinstance(got, substructure.JComponentDecomposition)
                            assert want[:2] == (ValidationError, "component is not diamond-colored")
                        verdicts[got[0] if isinstance(got, tuple) else None] += 1
        # some stale recolorings pass; the others fail the bounds test, or the sibling test with a named pair
        assert set(verdicts) == {None, ValidationError, NotASublattice, substructure.NotALattice}


def _assert_component_posets_are_induced(L, J):
    """Each component's poset is the J-restricted order induced on its labels, and equals its validated rebuild."""
    restricted = EdgeColoredPoset(L.vertices, [(a, b, c) for a, b, c in L.covers if c in J])
    for comp in j_components(L, J).components:
        assert comp.poset == restricted.induced(comp.labels)
        assert_matches_constructor(comp.poset)
