"""Ideal/filter lattices, irreducibles, roundtrips, and interval results."""

import random
from functools import reduce
from itertools import combinations

import pytest

from corpus import edge_chain, m3, random_distributive_lattices, random_vertex_posets
from dclat import (
    InvalidDescendantSet,
    NotDiamondColored,
    NotDistributive,
    SizeCapExceeded,
    UnknownVertex,
    ValidationError,
    VertexColoredPoset,
    ancestor_interval_boolean,
    antichain_poset,
    as_lattice,
    boolean_lattice,
    build_J,
    build_M,
    chain_poset,
    compute_rank,
    cover_color_profile,
    descendant_interval_boolean,
    extract_j,
    extract_m,
    find_isomorphism,
    is_birkhoff_representable,
    isomorphic,
    principal_ideal,
    verify_fundamental,
    verify_fundamental_poset,
    verify_interval_booleans,
    verify_transform_identities,
)
from dclat import birkhoff
from dclat.birkhoff import IdealLattice, enumerate_ideal_masks
from dclat.structures import EdgeColoredPoset
from _oracles import count_ideals, subset_lattice_postconditions

FIG_IDEALS = [
    frozenset(),
    frozenset({"v5"}),
    frozenset({"v6"}),
    frozenset({"v5", "v6"}),
    frozenset({"v2", "v5"}),
    frozenset({"v4", "v5"}),
    frozenset({"v2", "v5", "v6"}),
    frozenset({"v4", "v5", "v6"}),
    frozenset({"v2", "v4", "v5"}),
    frozenset({"v2", "v4", "v5", "v6"}),
    frozenset({"v1", "v2", "v4", "v5"}),
    frozenset({"v3", "v4", "v5", "v6"}),
    frozenset({"v1", "v2", "v4", "v5", "v6"}),
    frozenset({"v2", "v3", "v4", "v5", "v6"}),
    frozenset({"v1", "v2", "v3", "v4", "v5", "v6"}),
]


class TestBuildJ:
    def test_empty_source(self):
        il = build_J(VertexColoredPoset([], [], {}))
        assert len(il) == 1 and il.lattice.vertices == ("empty",)

    def test_repr_names_mode_and_size(self):
        assert repr(build_J(antichain_poset(2))) == "IdealLattice(mode='ideal', 4 elements)"
        assert repr(build_M(chain_poset(2))) == "IdealLattice(mode='filter', 4 elements)"

    def test_antichain_gives_boolean(self):
        il = build_J(antichain_poset(3))
        assert len(il) == 8
        view = as_lattice(il.lattice)
        assert view.length == 3

    def test_fig_poset_ideals_frozen(self, fig_poset):
        il = build_J(fig_poset)
        assert len(il) == 15
        assert {il.members(v) for v in il.lattice.vertices} == set(FIG_IDEALS)

    def test_rank_is_cardinality(self, fig_poset):
        il = build_J(fig_poset)
        rf = compute_rank(il.lattice)
        for lab in il.lattice.vertices:
            assert rf.rank[lab] == len(il.members(lab))

    def test_edge_rule(self, fig_poset):
        il = build_J(fig_poset)
        for a, b, c in il.lattice.covers:
            xs, ys = il.members(a), il.members(b)
            assert xs < ys and len(ys - xs) == 1
            (v,) = ys - xs
            assert fig_poset.colors[v] == c
            assert not any(fig_poset.lt(v, w) for w in ys)

    def test_ideal_count_matches_recursive_oracle(self):
        for P in random_vertex_posets(12, 7, seed=3):
            il = build_J(P)
            assert len(il) == count_ideals(P.vertices, [(a, b) for a, b in P.covers])

    def test_ideal_masks_match_subset_scan(self):
        for P in random_vertex_posets(40, 8, seed=11):
            down = [
                sum(1 << P.index_of(w) for w in P.down_set(v)) for v in P.vertices
            ]
            closed = [
                m for m in range(1 << len(P))
                if all(down[i] & m == down[i] for i in range(len(P)) if m >> i & 1)
            ]
            assert enumerate_ideal_masks(P) == closed

    def test_label_for_reads_an_iterator_once(self):
        il = build_J(chain_poset(2))
        assert il.label_for(v for v in ["c0"]) == "c0"
        with pytest.raises(UnknownVertex) as caught:
            il.label_for(v for v in ["c1"])
        assert str(caught.value) == "['c1'] is not an element of the ideal lattice"

    def test_label_collisions_are_deduplicated(self):
        # a vertex literally named like the empty-ideal label
        p = VertexColoredPoset(["empty"], [], {"empty": 1})
        il = build_J(p)
        assert il.lattice.vertices == ("empty", "empty_2")
        assert il.members("empty") == frozenset() and il.members("empty_2") == {"empty"}
        assert verify_fundamental_poset(p).passed
        # joined membership labels colliding with a dotted vertex name
        q = VertexColoredPoset(["a", "b", "a.b"], [], {"a": 1, "b": 1, "a.b": 1})
        labels = build_J(q).lattice.vertices
        assert len(set(labels)) == 8
        assert verify_fundamental_poset(q).passed

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(birkhoff, "ELEMENT_CAP", 100)
        with pytest.raises(SizeCapExceeded, match="exceeds cap 100"):
            build_J(antichain_poset(8))
        with pytest.raises(SizeCapExceeded):
            build_M(antichain_poset(8))

    def test_filter_rank_is_complement_size(self, fig_poset):
        il = build_M(fig_poset)
        rf = compute_rank(il.lattice)
        for lab in il.lattice.vertices:
            assert rf.rank[lab] == len(fig_poset) - len(il.members(lab))

    def test_ideal_and_filter_lattices_isomorphic(self, fig_poset):
        assert isomorphic(build_J(fig_poset).lattice, build_M(fig_poset).lattice)

    def test_dual_lattice_is_ideal_lattice_of_dual(self, fig_poset, fig_lattice):
        from dclat import dual, recolor

        assert isomorphic(dual(fig_lattice), build_J(dual(fig_poset)).lattice)
        # recoloring the dual through fresh color names commutes
        sigma = {1: 8, 2: 9}
        assert isomorphic(recolor(dual(fig_lattice), sigma), dual(recolor(fig_lattice, sigma)))


class TestSubsetLatticePostconditions:
    """The build_J/build_M postconditions hold on built lattices, and hand-corrupted
    ideal lattices reach every branch of them."""

    square = build_J(antichain_poset(2)).lattice  # empty < a0, a1 < a0.a1

    def test_built_lattices_pass(self):
        # the 10-antichain's 1024-element lattices cover large sizes too
        for P in [antichain_poset(3), antichain_poset(10)] + random_vertex_posets(30, 7, seed=21):
            for build in (build_J, build_M):
                subset_lattice_postconditions(build(P))

    @pytest.mark.parametrize(
        "source,mode,masks,message",
        [
            (2, "ideal", [0, 1, 2, 7], "not closed under union/intersection"),
            (3, "ideal", [0, 1, 3, 7], "lattice order does not match containment"),
            (2, "filter", [0, 1, 2, 3], "lattice order does not match containment"),
            (3, "ideal", [0, 1, 6, 7], "rank of 'a1' is 1, expected 2"),
            (3, "ideal", [0, 1, 2, 3], "extremes of the subset lattice are wrong"),
        ],
    )
    def test_corrupted_masks_rejected(self, source, mode, masks, message):
        il = IdealLattice(antichain_poset(source), mode, masks, self.square)
        with pytest.raises(ValidationError, match=message):
            subset_lattice_postconditions(il)

    def test_broken_diamond_rejected(self):
        lat = EdgeColoredPoset(
            ["empty", "a0", "a1", "a0.a1"],
            [("empty", "a0", 1), ("empty", "a1", 1), ("a0", "a0.a1", 1), ("a1", "a0.a1", 2)],
        )
        il = IdealLattice(antichain_poset(2), "ideal", [0, 1, 2, 3], lat)
        with pytest.raises(ValidationError, match="not diamond-colored"):
            subset_lattice_postconditions(il)


class TestBuiltLatticesNotRevalidated:
    """Ideal and filter lattices are lattices by construction and carry their view."""

    def test_no_as_lattice_on_built_lattices(self, fig_poset, monkeypatch):
        from dclat import birkhoff, substructure
        from dclat.substructure import sublattice_from_weak_subposet

        def refuse(p):
            raise AssertionError("a built lattice was validated again")

        for module in (birkhoff, substructure):
            monkeypatch.setattr(module, "as_lattice", refuse)
        assert isomorphic(extract_m(build_M(fig_poset)).poset, fig_poset)
        assert verify_fundamental_poset(fig_poset).passed
        emb = sublattice_from_weak_subposet(fig_poset, fig_poset).embedding
        assert emb.full_length and emb.edge_colored


class TestExtract:
    def test_chain_irreducibles(self):
        chain = edge_chain(4, (3, 3, 3, 3))
        jp = extract_j(chain)
        assert len(jp.poset) == 4
        assert set(jp.poset.colors.values()) == {3}
        assert len(jp.poset.covers) == 3  # a chain again

    def test_boolean_irreducibles_form_antichain(self):
        jp = extract_j(boolean_lattice(4))
        assert len(jp.poset) == 4 and not jp.poset.covers

    def test_fig_lattice_recovers_fig_poset(self, fig_poset, fig_lattice):
        jp = extract_j(fig_lattice)
        assert isomorphic(jp.poset, fig_poset) and jp.provenance == "join"

    def test_meet_side_recovers_fig_poset(self, fig_poset, fig_lattice):
        mp = extract_m(fig_lattice)
        assert isomorphic(mp.poset, fig_poset) and mp.provenance == "meet"

    def test_m3_rejected(self):
        for extract in (extract_j, extract_m):
            with pytest.raises(NotDistributive):
                extract(m3())

    def test_mismatched_diamond_rejected(self):
        p = EdgeColoredPoset(
            ["bot", "x", "y", "top"],
            [("bot", "x", 1), ("bot", "y", 2), ("x", "top", 1), ("y", "top", 2)],
        )
        for extract in (extract_j, extract_m):
            with pytest.raises(NotDiamondColored):
                extract(p)

    def test_join_irreducibles_are_principal_ideals(self, fig_poset):
        il = build_J(fig_poset)
        view = as_lattice(il.lattice)
        irr = {il.members(x) for x in view.join_irreducibles()}
        assert irr == {frozenset(principal_ideal(fig_poset, v)) for v in fig_poset.vertices}


class TestFundamental:
    def test_single_element(self):
        one = EdgeColoredPoset(["x"], [])
        assert verify_fundamental(one).passed

    def test_fig_lattice(self, fig_view):
        assert verify_fundamental(fig_view).passed

    def test_fig_poset(self, fig_poset):
        assert verify_fundamental_poset(fig_poset).passed

    def test_random_posets_roundtrip(self):
        for P in random_vertex_posets(25, 6, seed=17):
            assert verify_fundamental_poset(P).passed

    def test_random_lattices_roundtrip(self):
        for L in random_distributive_lattices(10, 40, seed=19):
            assert verify_fundamental(as_lattice(L)).passed


class TestRepresentability:
    def test_fig_lattice_representable(self, fig_lattice):
        ok, witness = is_birkhoff_representable(fig_lattice)
        assert ok and witness is not None
        assert isomorphic(build_J(witness).lattice, fig_lattice)

    def test_mismatched_colors_not_representable(self):
        p = EdgeColoredPoset(
            ["bot", "x", "y", "top"],
            [("bot", "x", 1), ("bot", "y", 2), ("x", "top", 1), ("y", "top", 2)],
        )
        ok, witness = is_birkhoff_representable(p)
        assert not ok and witness is None

    def test_single_edge(self):
        p = EdgeColoredPoset(["a", "b"], [("a", "b", 5)])
        ok, witness = is_birkhoff_representable(p)
        assert ok and len(witness) == 1

    def test_m3_raises(self):
        with pytest.raises(NotDistributive):
            is_birkhoff_representable(m3())


class TestTransformIdentities:
    def test_empty_inputs(self):
        empty = VertexColoredPoset([], [], {})
        assert verify_transform_identities(empty, empty, {}).passed

    def test_split_poset_product(self, fig_poset, data_dir):
        from dclat import dcp, disjoint_sum, cartesian_product

        P1 = dcp.parse((data_dir / "fig5P1.dcp").read_text())
        P2 = dcp.parse((data_dir / "fig5P2.dcp").read_text())
        K = build_J(disjoint_sum(P1, P2)).lattice
        assert len(K.vertices) == 18
        assert isomorphic(K, cartesian_product(build_J(P1).lattice, build_J(P2).lattice))
        report = verify_transform_identities(P1, P2, {1: 1, 2: 2})
        assert report.passed

    def test_random_triples(self):
        rng = random.Random(23)
        for P, Q in zip(random_vertex_posets(6, 4, seed=29), random_vertex_posets(6, 4, seed=31)):
            used = sorted(P.colors_used | Q.colors_used)
            sigma = {c: rng.choice([1, 2, c]) for c in used}
            assert verify_transform_identities(P, Q, sigma).passed

    def test_builds_each_structure_once(self, monkeypatch, fig_poset, data_dir):
        from dclat import dcp, paths

        calls = {}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("dual", "recolor", "cartesian_product", "as_lattice"):
            counted(birkhoff, name)
        counted(paths, "_diamond_scan")
        Q = dcp.parse((data_dir / "fig5Q.dcp").read_text())
        report = verify_transform_identities(fig_poset, Q, {1: 2, 2: 1})
        assert report.passed and len(report.checks) == 12
        # build_J's lattices carry Birkhoff's verdicts, and the three lattices the
        # irreducibles come from take them through the checked maps, so nothing scans
        assert calls == {"dual": 5, "recolor": 5, "cartesian_product": 2, "as_lattice": 3}


class TestCoverColorProfile:
    def test_bottom_has_no_down_colors(self, fig_poset):
        il = build_J(fig_poset)
        up, down = cover_color_profile(il, "empty")
        assert down == ()
        assert up == (1, 2)  # v5 and v6 are addable

    def test_top_has_no_up_colors(self, fig_poset):
        il = build_J(fig_poset)
        up, down = cover_color_profile(il, il.lattice.maximal_elements()[0])
        assert up == ()

    def test_all_elements_cross_checked(self, fig_poset):
        il = build_J(fig_poset)
        for lab in il.lattice.vertices:
            cover_color_profile(il, lab)
        fl = build_M(fig_poset)
        for lab in fl.lattice.vertices:
            cover_color_profile(fl, lab)


class TestIntervalBoolean:
    def test_single_descendant_two_chain(self, fig_view):
        t = "v2.v5"
        (s,) = fig_view.poset.descendants(t)
        res = descendant_interval_boolean(fig_view, t, [s])
        assert res.verdict and res.bound == s

    def test_full_diamond(self):
        view = as_lattice(boolean_lattice(2))
        res = descendant_interval_boolean(view, "a0.a1", ["a0", "a1"])
        assert res.verdict and res.bound == "empty"

    def test_exhaustive_small_sets(self, fig_view):
        p = fig_view.poset
        for t in p.vertices:
            for size in (1, 2, 3):
                for D in combinations(p.descendants(t), size):
                    assert descendant_interval_boolean(fig_view, t, list(D)).verdict
                for A in combinations(p.ancestors(t), size):
                    assert ancestor_interval_boolean(fig_view, t, list(A)).verdict

    def test_wrong_bound_never_matches(self, fig_view):
        p = fig_view.poset
        for t in p.vertices:
            desc = p.descendants(t)
            for size in (1, 2):
                for D in combinations(desc, size):
                    r = reduce(fig_view.meet, D, fig_view.maximum)
                    anti = VertexColoredPoset(
                        sorted(D, key=p.index_of), [], {s: p.edge_color(s, t) for s in D}
                    )
                    target = build_M(anti).lattice
                    for x in p.vertices:
                        if x == r or not fig_view.leq(x, t):
                            continue
                        inner = fig_view.interval(x, t)
                        match = find_isomorphism(inner, target) is not None
                        contains = set(D) <= set(inner.vertices)
                        assert not (match and contains)

    def test_suite_over_small_sets(self, fig_lattice):
        report = verify_interval_booleans(fig_lattice)
        assert report.passed and len(report.checks) == 1
        with pytest.raises(NotDistributive):
            verify_interval_booleans(m3())

    def test_invalid_descendant_set(self, fig_view):
        with pytest.raises(InvalidDescendantSet):
            descendant_interval_boolean(fig_view, "v2.v5", [])
        with pytest.raises(InvalidDescendantSet):
            descendant_interval_boolean(fig_view, "v2.v5", ["v4.v5"])
        with pytest.raises(InvalidDescendantSet, match="need at least one ancestor"):
            ancestor_interval_boolean(fig_view, "v2.v5", [])
        with pytest.raises(InvalidDescendantSet, match=r"\['v5'\] are not ancestors of 'v2.v5'"):
            ancestor_interval_boolean(fig_view, "v2.v5", ["v2.v4.v5", "v5"])

    def test_nondistributive_rejected(self):
        with pytest.raises(NotDistributive):
            descendant_interval_boolean(as_lattice(m3()), "top", ["a"])

    def test_unknown_vertex_in_bounds(self, fig_view):
        from dclat import UnknownVertex

        with pytest.raises(UnknownVertex):
            fig_view.join("v5", "nope")
