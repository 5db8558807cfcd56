"""The suites check the maps the theorems name; the old searches are their oracle.

``verify_fundamental``, ``verify_transform_identities`` and
``is_birkhoff_representable`` check each lattice-sized identity through the
map that proves it.  Here they must agree with the search-based bodies kept
in ``_oracles`` on correct input and under mutated constructions, must be
stricter than the search where only the theorem's map fails, and must not
search any lattice.
"""

import random

import pytest

from corpus import hexagon, m3, n5, random_distributive_lattices, random_vertex_posets
from dclat import (
    DclatError,
    EdgeColoredPoset,
    VertexColoredPoset,
    antichain_poset,
    as_lattice,
    build_J,
    build_M,
    extract_j,
    extract_m,
    is_birkhoff_representable,
    verify_fundamental,
    verify_transform_identities,
)
from dclat import birkhoff
from dclat.birkhoff import IdealLattice, _subset_labels, _unique_labels, enumerate_ideal_masks
from dclat.isomorphism import _map_holds, _verify_witness
from dclat.report import Report
from _oracles import (
    subset_label_by_join,
    verify_fundamental_by_search,
    verify_transform_identities_by_search,
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


def mutate_results(monkeypatch, name, mutation, which=None):
    """Patch ``birkhoff.<name>`` to mutate its edge-colored results: all, or only the one at index ``which``."""
    inner = getattr(birkhoff, name)
    seen = []

    def mutated(*args):
        out = inner(*args)
        lattice = out.lattice if isinstance(out, IdealLattice) else out
        if not isinstance(lattice, EdgeColoredPoset):
            return out
        seen.append(lattice)
        if which is not None and len(seen) - 1 != which:
            return out
        if isinstance(out, IdealLattice):
            return IdealLattice(out.source, out.mode, list(out.masks), mutation(lattice))
        return mutation(lattice)

    monkeypatch.setattr(birkhoff, name, mutated)


MUTATIONS = {"recolor-edge": recolor_first_edge, "drop-cover": drop_first_cover}


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
        def mutated_run(suite, *args):
            mutate_results(monkeypatch, name, MUTATIONS[mutation], which)
            try:
                return outcome(suite, *args)
            finally:
                monkeypatch.undo()

        for P, Q, sigma in triples(5, seed=47):
            new = mutated_run(verify_transform_identities, P, Q, sigma)
            assert new == mutated_run(verify_transform_identities_by_search, P, Q, sigma)
            assert not passing(new)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("name", ["build_J", "build_M"])
    def test_fundamental_under_mutants(self, monkeypatch, name, mutation):
        cases = [L for L in lattices() if len(L) > 1]
        mutate_results(monkeypatch, name, MUTATIONS[mutation])
        for L in cases:
            new = outcome(verify_fundamental, L)
            assert new == outcome(verify_fundamental_by_search, L)
            assert not passing(new)


class TestStricterThanSearch:
    def test_recoloring_that_moves_covers_fails_only_the_map(self, monkeypatch, fig_poset):
        Q = VertexColoredPoset(["q"], [], {"q": 1})
        mutate_results(monkeypatch, "recolor", covers_moved_by_reversal)
        sigma = {1: 2, 2: 1}
        # some isomorphism still exists, so every search passes
        assert verify_transform_identities_by_search(fig_poset, Q, sigma).passed
        report = verify_transform_identities(fig_poset, Q, sigma)
        assert report.failures() == [
            "ideals of a recoloring = recoloring of the ideals",
            "filters of a recoloring = recoloring of the filters",
        ]


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


def test_no_suite_searches_a_lattice(monkeypatch, fig_poset, fig_lattice, data_dir):
    from dclat import dcp

    searched = []
    inner = birkhoff.find_isomorphism

    def recording(a, b):
        searched.append((type(a), type(b)))
        return inner(a, b)

    monkeypatch.setattr(birkhoff, "find_isomorphism", recording)
    assert verify_fundamental(fig_lattice).passed
    assert is_birkhoff_representable(fig_lattice)[0]
    assert searched == []
    Q = dcp.parse((data_dir / "fig5Q.dcp").read_text())
    assert verify_transform_identities(fig_poset, Q, {1: 2, 2: 1}).passed
    # only the six comparisons of irreducible posets search
    assert searched == [(VertexColoredPoset, VertexColoredPoset)] * 6


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
