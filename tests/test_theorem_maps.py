"""The suites check the maps the theorems name; the old searches are their oracle.

Every verification suite checks each isomorphism through the map that
proves it.  Here the suites must agree with the search-based bodies kept in
``_oracles`` on correct input and under mutated constructions, must be
stricter than the search where only the theorem's map fails, and must not
search at all.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import hexagon, m3, n5, random_distributive_lattices, random_vertex_posets, weak_subposet_pairs
from dclat import (
    DclatError,
    EdgeColoredPoset,
    VertexColoredPoset,
    antichain_poset,
    as_lattice,
    build_J,
    build_M,
    color_subsets,
    extract_j,
    extract_m,
    is_birkhoff_representable,
    random_poset,
    verify_fundamental,
    verify_fundamental_poset,
    verify_interval_booleans,
    verify_subordinate_correspondence,
    verify_transform_identities,
    verify_weakening,
)
from dclat import birkhoff, cli, isomorphism, substructure
from dclat.birkhoff import IdealLattice, IrreduciblePoset, _subset_labels, _unique_labels, enumerate_ideal_masks
from dclat.isomorphism import _map_holds, _verify_witness
from dclat.report import Report
from _oracles import (
    interval_boolean_by_search,
    subset_label_by_join,
    verify_fundamental_by_search,
    verify_fundamental_poset_by_search,
    verify_subordinate_correspondence_by_search,
    verify_transform_identities_by_search,
    verify_weakening_by_search,
)


def outcome(suite, *args):
    """The checks a suite records, and the error it stops with, if any."""
    recorded = []
    real = Report.record

    def record(self, label, ok):
        recorded.append((label, bool(ok)))
        return real(self, label, ok)

    Report.record = record
    try:
        suite(*args)
        return recorded, None
    except DclatError as e:
        return recorded, (type(e), str(e))
    finally:
        Report.record = real


def passing(result):
    recorded, error = result
    return error is None and all(ok for _, ok in recorded)


def triples(count, seed):
    """(P, Q, sigma) with non-empty P, so every lattice of P has a cover to mutate."""
    rng = random.Random(seed)
    Ps = random_vertex_posets(count, 5, seed=seed, min_n=1)
    Qs = random_vertex_posets(count, 3, seed=seed + 1)
    out = []
    for P, Q in zip(Ps, Qs):
        used = sorted(P.colors_used | Q.colors_used)
        out.append((P, Q, {c: rng.choice([1, 2, c]) for c in used}))
    return out


def lattices():
    return [as_lattice(L) for L in random_distributive_lattices(12, 40, seed=41)]


def posets():
    return random_vertex_posets(20, 6, seed=71)


def interval_results(view):
    """(the library's, the search's) result for every set of one to three descendants, and of ancestors, of each element."""
    p = view.poset
    for t in p.vertices:
        for side, near in (("descendant", p.descendants(t)), ("ancestor", p.ancestors(t))):
            for size in (1, 2, 3):
                for S in combinations(near, size):
                    yield birkhoff._interval_boolean(view, t, S, side), interval_boolean_by_search(view, t, S, side)


# -- mutants of the constructions: each changes only edge-colored results ---


def recolor_first_edge(s: EdgeColoredPoset) -> EdgeColoredPoset:
    first = next(iter(s._edge_color))
    return EdgeColoredPoset._from_ids(
        s.vertices, [(a, b, c + 100 if (a, b) == first else c) for (a, b), c in s._edge_color.items()]
    )


def drop_first_cover(s: EdgeColoredPoset) -> EdgeColoredPoset:
    return EdgeColoredPoset._from_ids(s.vertices, [(a, b, c) for (a, b), c in s._edge_color.items()][1:])


def covers_moved_by_reversal(s: EdgeColoredPoset) -> EdgeColoredPoset:
    """An isomorphic copy: covers carried by id i -> n-1-i, labels left on their ids."""
    n = len(s)
    return EdgeColoredPoset._from_ids(s.vertices, [(n - 1 - a, n - 1 - b, c) for (a, b), c in s._edge_color.items()])


def mutate_results(monkeypatch, name, mutation, which=None, module=birkhoff):
    """Patch ``module.<name>`` to mutate its edge-colored results.

    ``which`` picks them: all when None, else the results whose index passes
    it, or the one at that index when it is an int.
    """
    inner = getattr(module, name)
    picked = which if callable(which) or which is None else which.__eq__
    seen = []

    def mutated(*args):
        out = inner(*args)
        lattice = out.lattice if isinstance(out, IdealLattice) else out
        if not isinstance(lattice, EdgeColoredPoset):
            return out
        seen.append(lattice)
        if picked is not None and not picked(len(seen) - 1):
            return out
        if isinstance(out, IdealLattice):
            return IdealLattice(out.source, out.mode, list(out.masks), mutation(lattice))
        return mutation(lattice)

    monkeypatch.setattr(module, name, mutated)


MUTATIONS = {"recolor-edge": recolor_first_edge, "drop-cover": drop_first_cover}


def mutated_outcomes(monkeypatch, mutate, *runs):
    """The outcome of each (suite, *args) in ``runs``, each run under a fresh ``mutate()`` that is undone after it."""
    out = []
    for suite, *args in runs:
        mutate()
        try:
            out.append(outcome(suite, *args))
        finally:
            monkeypatch.undo()
    return out


class TestAgreeWithSearch:
    def test_transform_identities_on_corpus(self, fig_poset, data_dir):
        from dclat import dcp

        cases = triples(10, seed=43)
        cases.append((fig_poset, dcp.parse((data_dir / "fig5Q.dcp").read_text()), {1: 2, 2: 1}))
        cases.append((VertexColoredPoset([], [], {}), VertexColoredPoset([], [], {}), {}))
        for P, Q, sigma in cases:
            new = outcome(verify_transform_identities, P, Q, sigma)
            assert new == outcome(verify_transform_identities_by_search, P, Q, sigma)
            assert passing(new)

    def test_fundamental_on_corpus(self, fig_view):
        for L in lattices() + [fig_view, EdgeColoredPoset(["x"], [])]:
            new = outcome(verify_fundamental, L)
            assert new == outcome(verify_fundamental_by_search, L)
            assert passing(new)

    @pytest.mark.parametrize("L", [m3(), n5(), hexagon()], ids=["m3", "n5", "hexagon"])
    def test_fundamental_on_lattices_that_are_not_distributive(self, L):
        new = outcome(verify_fundamental, L)
        assert new[1] is not None and new == outcome(verify_fundamental_by_search, L)

    # the first edge-colored result of each construction is on the ideal side, the second on the filter side
    @pytest.mark.parametrize("which", [0, 1], ids=["ideal-side", "filter-side"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", ["dual", "recolor", "cartesian_product"])
    def test_transform_identities_under_mutants(self, monkeypatch, name, mutation, which):
        def mutate():
            mutate_results(monkeypatch, name, MUTATIONS[mutation], which)

        for P, Q, sigma in triples(5, seed=47):
            new, old = mutated_outcomes(monkeypatch, mutate, (verify_transform_identities, P, Q, sigma),
                                        (verify_transform_identities_by_search, P, Q, sigma))
            assert new == old and not passing(new)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", ["build_J", "build_M"])
    def test_fundamental_under_mutants(self, monkeypatch, name, mutation):
        cases = [L for L in lattices() if len(L) > 1]
        mutate_results(monkeypatch, name, MUTATIONS[mutation])
        for L in cases:
            new = outcome(verify_fundamental, L)
            assert new == outcome(verify_fundamental_by_search, L)
            assert not passing(new)


    def test_fundamental_poset_on_corpus(self, fig_poset):
        for P in posets() + [fig_poset, VertexColoredPoset([], [], {})]:
            new = outcome(verify_fundamental_poset, P)
            assert new == outcome(verify_fundamental_poset_by_search, P)
            assert passing(new)

    def test_subordinates_on_corpus(self, fig_poset):
        for P in posets()[:12] + [fig_poset]:
            for J in color_subsets(P.colors_used):
                new = outcome(verify_subordinate_correspondence, P, J)
                assert new == outcome(verify_subordinate_correspondence_by_search, P, J)
                assert passing(new)

    def test_intervals_on_corpus(self, fig_view):
        for view in lattices() + [fig_view]:
            results = list(interval_results(view))
            assert all(new == old and new.verdict for new, old in results)

    def test_weakenings_on_corpus(self):
        for P, Q in weak_subposet_pairs(15, seed=61):
            new = outcome(verify_weakening, P, Q)
            assert new == outcome(verify_weakening_by_search, P, Q)
            assert passing(new)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_every_suite_agrees_on_random_posets(self, seed):
        rng = random.Random(seed)
        P = random_poset(rng.randint(0, 6), rng.uniform(0.1, 0.9), seed)
        Q = VertexColoredPoset(P.vertices, [c for c in sorted(P.covers) if rng.random() < 0.5], dict(P.colors))
        J = [c for c in sorted(P.colors_used) if rng.random() < 0.5]
        for suite, oracle, args in (
            (verify_fundamental_poset, verify_fundamental_poset_by_search, (P,)),
            (verify_subordinate_correspondence, verify_subordinate_correspondence_by_search, (P, J)),
            (verify_weakening, verify_weakening_by_search, (P, Q)),
        ):
            new = outcome(suite, *args)
            assert new == outcome(oracle, *args) and passing(new)
        assert all(new == old and new.verdict for new, old in interval_results(as_lattice(build_J(P).lattice)))

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", ["build_J", "build_M"])
    def test_fundamental_poset_under_mutants(self, monkeypatch, name, mutation):
        mutate_results(monkeypatch, name, MUTATIONS[mutation])
        for P in [P for P in posets() if len(P)]:
            new = outcome(verify_fundamental_poset, P)
            assert new == outcome(verify_fundamental_poset_by_search, P)
            assert not passing(new)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", ["build_J", "build_M"])
    def test_intervals_under_mutants(self, monkeypatch, name, mutation):
        mutate_results(monkeypatch, name, MUTATIONS[mutation])
        for view in lattices()[:5]:
            results = list(interval_results(view))
            assert all(new == old for new, old in results)
            assert not all(new.verdict for new, _ in results)

    # build_J in substructure builds the lattice of P first, then each subordinate's: mutate one or the others
    @pytest.mark.parametrize("which", [0, (0).__lt__], ids=["lattice", "subordinates"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_subordinates_and_weakenings_under_mutants(self, monkeypatch, mutation, which):
        def mutate():
            mutate_results(monkeypatch, "build_J", MUTATIONS[mutation], which, module=substructure)

        for P in [P for P in posets()[:12] if len(P) > 1]:
            J = sorted(P.colors_used)
            new, old = mutated_outcomes(monkeypatch, mutate, (verify_subordinate_correspondence, P, J),
                                        (verify_subordinate_correspondence_by_search, P, J))
            assert new == old and not passing(new)
        for P, Q in weak_subposet_pairs(8, seed=67):
            new, old = mutated_outcomes(monkeypatch, mutate, (verify_weakening, P, Q), (verify_weakening_by_search, P, Q))
            assert new == old and not passing(new)


class TestStricterThanSearch:
    """Planted isomorphic copies with their covers moved: some isomorphism exists, the theorem's map fails."""

    @staticmethod
    def moved_transform_failures(monkeypatch, fig_poset, name):
        Q = VertexColoredPoset(["q"], [], {"q": 1})
        mutate_results(monkeypatch, name, covers_moved_by_reversal)
        sigma = {1: 2, 2: 1}
        # some isomorphism still exists, so every search passes
        assert verify_transform_identities_by_search(fig_poset, Q, sigma).passed
        return verify_transform_identities(fig_poset, Q, sigma).failures()

    def test_recoloring_that_moves_covers_fails_only_the_map(self, monkeypatch, fig_poset):
        assert self.moved_transform_failures(monkeypatch, fig_poset, "recolor") == [
            "ideals of a recoloring = recoloring of the ideals",
            "filters of a recoloring = recoloring of the filters",
            "join irreducibles of a recoloring = recoloring of join irreducibles",
            "meet irreducibles of a recoloring = recoloring of meet irreducibles",
        ]

    @pytest.mark.parametrize("name,identities", [
        ("dual", ["ideals of the dual = dual of the ideals",
                  "filters of the dual = dual of the filters",
                  "join irreducibles of the dual = dual of the join irreducibles",
                  "meet irreducibles of the dual = dual of meet irreducibles"]),
        ("cartesian_product", ["ideals of a disjoint sum = product of the ideals",
                               "filters of a disjoint sum = product of the filters",
                               "join irreducibles of a product = disjoint sum of join irreducibles",
                               "meet irreducibles of a product = disjoint sum of meet irreducibles"]),
    ], ids=["dual", "product"])
    def test_dual_and_product_that_move_covers_fail_only_the_maps(self, monkeypatch, fig_poset, name, identities):
        assert self.moved_transform_failures(monkeypatch, fig_poset, name) == identities

    @pytest.mark.parametrize("name,check", [("build_J", "poset recovered from its ideal lattice"),
                                            ("build_M", "poset recovered from its filter lattice")])
    def test_subset_lattice_that_moves_covers_fails_the_poset_map(self, monkeypatch, fig_poset, name, check):
        mutate_results(monkeypatch, name, covers_moved_by_reversal)
        old = verify_fundamental_poset_by_search(fig_poset)
        new = verify_fundamental_poset(fig_poset)
        assert check not in old.failures() and set(new.failures()) - set(old.failures()) == {check}

    def test_subset_lattice_that_moves_covers_fails_the_interval_map(self, monkeypatch, fig_view):
        for name in ("build_J", "build_M"):
            mutate_results(monkeypatch, name, covers_moved_by_reversal)
        for new, old in interval_results(fig_view):
            assert old.verdict and new.contains_set and new.boolean and not new.matches
        assert not verify_interval_booleans(fig_view).passed

    def test_subordinate_lattice_that_moves_covers_fails_the_union_map(self, monkeypatch, fig_poset):
        def mutate():
            # the first lattice substructure builds is that of P, the later ones the subordinates'
            mutate_results(monkeypatch, "build_J", covers_moved_by_reversal, (0).__lt__, module=substructure)

        (new, _), (old, _) = mutated_outcomes(monkeypatch, mutate, (verify_subordinate_correspondence, fig_poset, [1]),
                                              (verify_subordinate_correspondence_by_search, fig_poset, [1]))
        # the old union map compared the edges too; the search for some isomorphism did not
        union = [c for c, ok in old if not ok]
        assert union and all(c.endswith("union map is an edge-color bijection") for c in union)
        generic = [c.replace("union map is an edge-color bijection", "generic isomorphism with the subordinate's ideals")
                   for c in union]
        assert sorted(c for c, ok in new if not ok) == sorted(union + generic)

    def test_irreducibles_that_move_labels_fail_the_subordinate_map(self, monkeypatch, fig_poset):
        inner = substructure.extract_j

        def relabeled(L):
            p = inner(L).poset
            return IrreduciblePoset(p.relabel(dict(zip(p.vertices, reversed(p.vertices)))), "join")

        monkeypatch.setattr(substructure, "extract_j", relabeled)
        assert verify_subordinate_correspondence_by_search(fig_poset, [1]).passed
        failures = verify_subordinate_correspondence(fig_poset, [1]).failures()
        assert failures and all(c.endswith("irreducibles give back the subordinate") for c in failures)

    def test_recovery_with_swapped_colors_fails_phi(self, monkeypatch):
        P = VertexColoredPoset(["a", "b"], [], {"a": 1, "b": 2})
        inner = substructure.extract_j

        def mutate():
            calls = []

            def swapped(L):
                # the second extraction is the sublattice's: its two colors trade places
                calls.append(out := inner(L))
                if len(calls) != 2:
                    return out
                p = out.poset
                return IrreduciblePoset(VertexColoredPoset(p.vertices, p.covers, dict(zip(p.vertices, [2, 1]))), "join")

            monkeypatch.setattr(substructure, "extract_j", swapped)

        (new, _), (old, _) = mutated_outcomes(monkeypatch, mutate, (verify_weakening, P, P),
                                              (verify_weakening_by_search, P, P))
        check = ("recovered order is isomorphic to the original irreducibles", True)
        assert check in old and set(new) ^ set(old) == {check, (check[0], False)}


class TestWitnesses:
    def test_witnesses_are_the_fundamental_theorems_maps(self, fig_view):
        for view in lattices() + [fig_view]:
            report = verify_fundamental(view)
            jp, mp = extract_j(view).poset, extract_m(view).poset
            J, M = build_J(jp), build_M(mp)
            p = view.poset
            assert report.details["join_witness"] == {
                x: J.label_for([j for j in jp.vertices if p.leq(j, x)]) for x in p.vertices
            }
            assert report.details["meet_witness"] == {
                x: M.label_for([m for m in mp.vertices if p.leq(x, m)]) for x in p.vertices
            }
            assert _verify_witness(p, J.lattice, report.details["join_witness"])
            assert _verify_witness(p, M.lattice, report.details["meet_witness"])

    def test_poset_witnesses_are_birkhoffs_maps(self, fig_poset):
        for P in posets() + [fig_poset]:
            report = verify_fundamental_poset(P)
            J, M = build_J(P), build_M(P)
            assert report.details["join_witness"] == {v: J.label_for(P.down_set(v)) for v in P.vertices}
            assert report.details["meet_witness"] == {v: M.label_for(P.up_set(v)) for v in P.vertices}
            assert _verify_witness(P, extract_j(J).poset, report.details["join_witness"])
            assert _verify_witness(P, extract_m(M).poset, report.details["meet_witness"])


# one fixture run per row of the verify registry, with the options it reads; ft runs on a poset and on a lattice
VERIFY_RUNS = [
    ("ft", "fig1P.dcp"), ("ft", "fig1L.dcp"), ("cor7", "fig1L.dcp"),
    ("cor8", "fig1P.dcp", "--with", "fig5Q.dcp", "--sigma", "1=2,2=1"),
    ("prop1", "fig1L.dcp", "--seed", "3"), ("prop3", "fig1L.dcp"), ("prop10", "m3.dcp", "--with", "fig1L.dcp"),
    ("prop12", "fig1L.dcp"), ("prop13", "fig1L.dcp"), ("thm11", "fig1P.dcp", "--with", "fig5Q.dcp"),
    ("subord", "fig1P.dcp"),
]


def test_no_suite_searches_a_lattice(monkeypatch, capsys, data_dir):
    # the suites' modules hold no name for the search, so patching it at its source sees every call
    assert not hasattr(birkhoff, "find_isomorphism") and not hasattr(substructure, "find_isomorphism")
    searched = []
    inner = isomorphism.find_isomorphism

    def recording(a, b):
        searched.append((type(a), type(b)))
        return inner(a, b)

    monkeypatch.setattr(isomorphism, "find_isomorphism", recording)
    assert {theorem for theorem, *_ in VERIFY_RUNS} == set(cli.VERIFY)
    for theorem, source, *options in VERIFY_RUNS:
        paths = [str(data_dir / o) if o.endswith(".dcp") else o for o in options]
        assert cli.main(["verify", str(data_dir / source), "--theorem", theorem, *paths]) == 0, theorem
    capsys.readouterr()
    assert searched == []


def test_representability_checks_the_join_map(monkeypatch, fig_lattice):
    mutate_results(monkeypatch, "build_J", covers_moved_by_reversal)
    with pytest.raises(DclatError, match="witness poset failed to rebuild the lattice"):
        is_birkhoff_representable(fig_lattice)


class TestMapHolds:
    def test_bijection_covers_and_colors(self, fig_poset, fig_lattice):
        for s in (fig_poset, fig_lattice):
            n = len(s)
            assert _map_holds(s, s, list(range(n)))
            assert not _map_holds(s, s, list(range(n - 1)) + [-1])
            assert not _map_holds(s, s, [0] * n)
            assert not _map_holds(s, s, list(reversed(range(n))))
        # with no covers to carry, only the bijection check rejects a repeated or missing id
        pair = antichain_poset(2)
        assert _map_holds(pair, pair, [1, 0])
        assert not _map_holds(pair, pair, [0, 0])
        assert not _map_holds(pair, pair, [0, -1])
        assert not _map_holds(fig_lattice, recolor_first_edge(fig_lattice), list(range(len(fig_lattice))))
        assert not _map_holds(fig_lattice, drop_first_cover(fig_lattice), list(range(len(fig_lattice))))


class TestSubsetLabels:
    def posets(self, fig_poset):
        rev = VertexColoredPoset(
            [f"c{i}" for i in range(8)], [(f"c{i + 1}", f"c{i}") for i in range(7)], {f"c{i}": 1 for i in range(8)}
        )
        return [fig_poset, rev] + [antichain_poset(k) for k in range(9)] + random_vertex_posets(25, 7, seed=53)

    def test_labels_match_the_join_in_any_order(self, fig_poset):
        rng = random.Random(59)
        for P in self.posets(fig_poset):
            ideals = enumerate_ideal_masks(P)
            full = (1 << len(P)) - 1
            filters = sorted(m ^ full for m in ideals)
            shuffled = ideals + filters
            rng.shuffle(shuffled)
            for masks in (ideals, filters, shuffled):
                assert _subset_labels(P, masks) == [subset_label_by_join(P, m) for m in masks]

    def test_built_lattices_keep_their_labels(self, fig_poset):
        for P in self.posets(fig_poset):
            for il in (build_J(P), build_M(P)):
                assert il.lattice.vertices == tuple(_unique_labels([subset_label_by_join(P, m) for m in il.masks]))
