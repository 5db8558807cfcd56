"""Path machinery: counts, ranks, coloring predicates, distances, rewrites."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    edge_chain,
    hexagon,
    m3,
    n5,
    random_distributive_lattices,
    random_lattices,
    random_modular_lattices,
    random_vertex_posets,
)
from dclat import (
    EnumerationCapExceeded,
    NotConnected,
    NotConnectedPair,
    NotRanked,
    Path,
    Step,
    ValidationError,
    ascent_descent_counts,
    as_lattice,
    boolean_lattice,
    build_J,
    cartesian_product,
    chain_poset,
    check_diamond_colored,
    check_topographically_balanced,
    compute_rank,
    disjoint_sum,
    distance,
    distance_modular,
    is_modular,
    mountainize,
    random_poset,
    rank_via_path,
    valleyize,
    verify_distance_laws,
    verify_path_colors,
    verify_path_colors_all,
)
from dclat import lattice, paths
from dclat.paths import CheckResult, _bfs
from dclat.structures import EdgeColoredPoset
from _oracles import diamond_by_labels, distance_by_pair_bfs, rank_assignments, rank_by_labels


class TestPathBasics:
    def test_invalid_step_rejected(self):
        p = edge_chain(2)
        with pytest.raises(ValidationError):
            Path(p, "c0", [Step("c2", True, 1)])

    def test_wrong_color_rejected(self):
        p = edge_chain(2)
        with pytest.raises(ValidationError):
            Path(p, "c0", [Step("c1", True, 9)])

    def test_empty_path_counts(self):
        p = edge_chain(2)
        path = Path(p, "c1")
        assert path.length == 0 and path.end == "c1"
        assert ascent_descent_counts(path) == {}

    def test_repr_lists_vertices(self):
        p = boolean_lattice(2)
        assert repr(Path.from_vertices(p, ["empty", "a0", "a0.a1", "a1"])) == "Path(empty -> a0 -> a0.a1 -> a1)"
        assert repr(Path(p, "a1")) == "Path(a1)"

    def test_ascending_chain_counts(self):
        p = edge_chain(3, (1, 2, 1))
        path = Path.from_vertices(p, ["c0", "c1", "c2", "c3"])
        counts = ascent_descent_counts(path)
        assert counts == {1: (2, 0), 2: (1, 0)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_walk_counts_sum_to_length(self, seed):
        rng = random.Random(seed)
        b3 = boolean_lattice(3)
        cur = rng.choice(b3.vertices)
        seq = [cur]
        for _ in range(rng.randint(0, 8)):
            nbrs = [w for w, _ in b3.up_steps(cur) + b3.down_steps(cur)]
            cur = rng.choice(sorted(nbrs))
            seq.append(cur)
        path = Path.from_vertices(b3, seq)
        counts = ascent_descent_counts(path)
        assert sum(a + d for a, d in counts.values()) == path.length


class TestRank:
    def test_chain_ranks(self):
        p = edge_chain(4)
        rf = compute_rank(p)
        assert rf.length == 4
        assert [rf.rank[f"c{i}"] for i in range(5)] == list(range(5))

    def test_fig_lattice_length_is_poset_size(self, fig_poset, fig_lattice):
        assert compute_rank(fig_lattice).length == len(fig_poset)

    def test_pentagon_not_ranked(self):
        with pytest.raises(NotRanked):
            compute_rank(n5())
        assert rank_assignments(n5().vertices, [(a, b) for a, b, _ in n5().covers], 4) == []

    def test_disconnected_rejected(self):
        p = EdgeColoredPoset(["a", "b"], [])
        with pytest.raises(NotConnected):
            compute_rank(p)

    @pytest.mark.parametrize("lone_first", [False, True])
    def test_disconnected_unranked_is_reported_as_disconnected(self, lone_first):
        # the pentagon alone raises NotRanked; beside an isolated vertex connectivity comes first
        pentagon = n5()
        lone = ["lone"]
        vertices = lone + list(pentagon.vertices) if lone_first else list(pentagon.vertices) + lone
        p = EdgeColoredPoset(vertices, list(pentagon.covers))
        with pytest.raises(NotConnected, match="only unique on connected posets"):
            compute_rank(p)

    def test_first_inconsistent_cover_named(self):
        with pytest.raises(NotRanked, match=r"^inconsistent levels at cover 'c' -> 'top'$"):
            compute_rank(n5())

    def test_unique_against_brute_force(self):
        p = m3()
        rf = compute_rank(p)
        assignments = rank_assignments(p.vertices, [(a, b) for a, b, _ in p.covers], len(p))
        assert assignments == [rf.rank]


def _rank_outcome(compute, p):
    try:
        rf = compute(p)
    except (NotConnected, NotRanked) as e:
        return type(e), str(e)
    return list(rf.rank.items()), rf.length


class TestRankMatchesLabelBfs:
    """The id-level BFS gives the label-level BFS's ranks, in its order, and its first error."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_corpus(self, seed):
        rng = random.Random(seed)
        lattices = (
            random_lattices(60, seed=seed)
            + random_modular_lattices(20, 40, seed=seed)
            + random_distributive_lattices(20, 40, seed=seed)
        )
        posets = random_vertex_posets(60, 8, seed=seed)
        # shuffled ids move the BFS start and its order
        shuffled = []
        for L in lattices[:30]:
            verts = list(L.vertices)
            rng.shuffle(verts)
            shuffled.append(EdgeColoredPoset(verts, L.covers))
        outcomes = [_rank_outcome(compute_rank, p) for p in lattices + posets + shuffled]
        assert outcomes == [_rank_outcome(rank_by_labels, p) for p in lattices + posets + shuffled]
        kinds = {o[0] if isinstance(o[0], type) else "ranked" for o in outcomes}
        assert kinds == {"ranked", NotRanked, NotConnected}

    def test_unranked_posets(self):
        unranked = [n5(), cartesian_product(n5(), edge_chain(2)), cartesian_product(edge_chain(1), n5())]
        for L in random_lattices(200, seed=11):
            if _rank_outcome(rank_by_labels, L)[0] is NotRanked:
                unranked.append(L)
        assert len(unranked) >= 20
        for p in unranked:
            outcome = _rank_outcome(compute_rank, p)
            assert outcome == _rank_outcome(rank_by_labels, p) and outcome[0] is NotRanked

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.floats(0.05, 0.95), st.integers(0, 1 << 30))
    def test_random_posets(self, n, density, seed):
        p = random_poset(n, density, seed=seed)
        assert _rank_outcome(compute_rank, p) == _rank_outcome(rank_by_labels, p)


class TestRankViaPath:
    def test_zero_length_path(self):
        p = edge_chain(3)
        assert rank_via_path(p, Path(p, "c2")) == 2

    def test_bottom_to_top_chain(self, fig_lattice, fig_view):
        seq = [fig_view.minimum]
        while seq[-1] != fig_view.maximum:
            seq.append(fig_lattice.up_steps(seq[-1])[0][0])
        assert rank_via_path(fig_lattice, Path.from_vertices(fig_lattice, seq)) == fig_view.length

    def test_zigzag_matches_rank(self):
        b3 = boolean_lattice(3)
        rf = compute_rank(b3)
        seq = ["empty", "a0", "a0.a1", "a1", "a1.a2"]
        path = Path.from_vertices(b3, seq)
        assert rank_via_path(b3, path) == rf.rank["a1.a2"]

    def test_reads_the_recorded_rank(self, monkeypatch):
        """The sampled paths of ``verify_distance_laws`` reuse the rank the lattice view proved."""
        calls = []

        def counting(p, real=compute_rank):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(paths, "compute_rank", counting)
        monkeypatch.setattr(lattice, "compute_rank", counting)
        b9 = boolean_lattice(9)
        assert verify_distance_laws(EdgeColoredPoset(b9.vertices, b9.covers)).passed  # no rank recorded yet
        assert len(calls) <= 1


class TestDiamondColoring:
    def test_fig_lattice_is_diamond(self, fig_lattice):
        assert check_diamond_colored(fig_lattice).ok

    def test_mismatched_diamond_with_witness(self):
        p = EdgeColoredPoset(
            ["bot", "s", "t", "top"],
            [("bot", "s", 1), ("bot", "t", 2), ("s", "top", 1), ("t", "top", 2)],
        )
        res = check_diamond_colored(p)
        assert not res.ok
        assert {res.witness.left, res.witness.right} == {"s", "t"}

    def test_vacuous_when_no_diamond(self):
        assert check_diamond_colored(n5()).ok

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_matches_label_scan(self, seed):
        """Verdict and witness equal the label-level scan, also with any one edge recolored.

        The posets that are not lattices can have diamonds sharing a top and
        both sides, which pins the order in which bottoms are scanned.
        """
        rng = random.Random(seed)
        posets = [
            EdgeColoredPoset(P.vertices, [(a, b, rng.randint(1, 2)) for a, b in sorted(P.covers)])
            for P in random_vertex_posets(40, 9, seed=seed, min_n=4)
        ]
        crown = EdgeColoredPoset(
            ["b1", "b2", "s", "t", "u"],
            [("b1", "s", 1), ("b1", "t", 1), ("b2", "s", 1), ("b2", "t", 1), ("s", "u", 1), ("t", "u", 2)],
        )
        corpus = (
            random_lattices(40, seed=seed)
            + random_modular_lattices(15, 40, seed=seed)
            + random_distributive_lattices(15, 40, seed=seed)
            + posets
            + [crown]
        )
        failures = 0
        for L in corpus:
            assert check_diamond_colored(L) == diamond_by_labels(L)
            fresh = max(L.colors_used, default=0) + 1
            for edge in sorted(L.covers):
                recolored = EdgeColoredPoset(
                    L.vertices, [(a, b, fresh if (a, b, c) == edge else c) for a, b, c in L.covers]
                )
                res = check_diamond_colored(recolored)
                assert res == diamond_by_labels(recolored)
                failures += not res.ok
        assert failures >= 100


class TestBalance:
    def test_single_diamond_balanced(self):
        assert check_topographically_balanced(boolean_lattice(2)).ok

    def test_open_vee_fails(self):
        upward = [("r", "s", 1), ("r", "t", 1)]
        downward = [("s", "r", 1), ("t", "r", 1)]
        for covers, kind in ((upward, "open-up"), (downward, "open-down")):
            res = check_topographically_balanced(EdgeColoredPoset(["r", "s", "t"], covers))
            assert not res.ok and res.witness.kind == kind and res.witness.closers == 0
            assert (res.witness.base, res.witness.left, res.witness.right) == ("r", "s", "t")

    def test_corpus_balance_iff_modular(self):
        for L in random_modular_lattices(12, 48, seed=4) + [n5(), hexagon()]:
            balanced = check_topographically_balanced(L).ok
            try:
                modular = is_modular(as_lattice(L))
            except Exception:
                modular = False
            assert balanced == modular


class TestDistance:
    def test_self_distance(self, fig_lattice):
        assert distance(fig_lattice, "v5", "v5") == 0

    def test_b2_atoms(self):
        b2 = boolean_lattice(2)
        assert distance(b2, "a0", "a1") == 2

    def test_disconnected_pair(self):
        p = EdgeColoredPoset(["a", "b"], [])
        with pytest.raises(NotConnectedPair):
            distance(p, "a", "b")

    def test_fig_lattice_bottom_to_top(self, fig_lattice, fig_view):
        assert distance(fig_lattice, fig_view.minimum, fig_view.maximum) == 6

    def test_comparable_pairs_use_rank_difference(self, fig_view):
        rank = fig_view.rank_function.rank
        p = fig_view.poset
        for s in p.vertices:
            for t in p.vertices:
                if p.leq(s, t):
                    assert distance_modular(fig_view, s, t) == rank[t] - rank[s]

    def test_matches_pair_bfs(self):
        """distance and every early-stopped _bfs agree with one label-level search per pair."""
        rng = random.Random(21)
        corpus = random_lattices(15, seed=21) + [disjoint_sum(m3(), edge_chain(2)), n5()]
        disconnected = 0
        for p in corpus:
            n = len(p)
            for s in p.vertices:
                expected = {}
                for t in p.vertices:
                    try:
                        expected[t] = distance_by_pair_bfs(p, s, t)
                    except NotConnectedPair:
                        disconnected += 1
                        with pytest.raises(NotConnectedPair):
                            distance(p, s, t)
                        continue
                    assert distance(p, s, t) == expected[t]
                targets = rng.sample(range(n), rng.randint(0, n))
                dist = _bfs(p, p.index_of(s), targets)
                reached = [expected[p.vertices[j]] for j in targets if p.vertices[j] in expected]
                # every vertex as close as the farthest reachable target is labelled, correctly
                horizon = max(reached, default=0)
                for t, d in expected.items():
                    if d <= horizon:
                        assert dist[p.index_of(t)] == d
                assert all(expected[p.vertices[j]] == d for j, d in dist.items())
        assert disconnected > 0

    def test_formula_equals_bfs_everywhere(self):
        for L in random_modular_lattices(15, 40, seed=11):
            view = as_lattice(L)
            length = view.length
            for s in L.vertices:
                for t in L.vertices:
                    d = distance(L, s, t)
                    assert d == distance_modular(view, s, t)
                    assert d <= length


class TestRewrites:
    def test_mountain_path_unchanged(self):
        b2 = boolean_lattice(2)
        view = as_lattice(b2)
        path = Path.from_vertices(b2, ["a0", "a0.a1", "a1"])
        assert mountainize(view, path).vertex_sequence() == path.vertex_sequence()

    def test_valley_becomes_mountain(self):
        b2 = boolean_lattice(2)
        view = as_lattice(b2)
        path = Path.from_vertices(b2, ["a0", "empty", "a1"])
        out = mountainize(view, path)
        assert out.length == 2 and out.apex() == "a0.a1"

    def test_idempotent_and_never_longer(self):
        rng = random.Random(7)
        for L in random_modular_lattices(10, 32, seed=21):
            view = as_lattice(L)
            verts = L.vertices
            for _ in range(5):
                s, t = rng.choice(verts), rng.choice(verts)
                walk = _shortest_walk(L, s, t, rng)
                out = mountainize(view, walk)
                assert out.length <= walk.length
                seq = out.vertex_sequence()
                assert len(set(seq)) == len(seq) and out.apex() is not None
                again = mountainize(view, out)
                assert again.vertex_sequence() == out.vertex_sequence()

    def test_shortest_paths_hit_join_and_meet(self):
        rng = random.Random(3)
        for L in random_modular_lattices(10, 32, seed=31):
            view = as_lattice(L)
            verts = L.vertices
            for _ in range(5):
                s, t = rng.choice(verts), rng.choice(verts)
                walk = _shortest_walk(L, s, t, rng)
                up = mountainize(view, walk)
                down = valleyize(view, walk)
                assert up.length == walk.length and up.apex() == view.join(s, t)
                assert down.length == walk.length and down.nadir() == view.meet(s, t)


    def test_one_step_reads_only_the_two_neighbors(self, monkeypatch):
        """A rewrite step reads the covers of the two path neighbours, not of the whole lattice."""
        b10 = boolean_lattice(10)
        view = as_lattice(b10)
        view.ensure_modular()
        view.rank_function
        reads = []

        def reading(covers):
            def read(self, x):
                reads.append(x)
                return covers(self, x)

            return read

        for name in ("ancestors", "descendants"):
            monkeypatch.setattr(EdgeColoredPoset, name, reading(getattr(EdgeColoredPoset, name)))
        up = mountainize(view, Path.from_vertices(b10, ["a0", "empty", "a1"]))
        down = valleyize(view, Path.from_vertices(b10, ["a0", "a0.a1", "a1"]))
        assert up.vertex_sequence() == ("a0", "a0.a1", "a1")
        assert down.vertex_sequence() == ("a0", "empty", "a1")
        assert reads == ["a0", "a1", "a0", "a1"]

    @pytest.mark.parametrize(
        "rewrite,walk,expected",
        [
            # the turn's closing cover is the vertex after next, so the two before it go
            (valleyize, ["a0", "a0.a1", "a1", "empty"], ("a0", "empty")),
            (mountainize, ["a1", "empty", "a0", "a0.a1"], ("a1", "a0.a1")),
            # the closing cover is the vertex before last, so the turn and its predecessor go
            (valleyize, ["empty", "a0", "a0.a1", "a1"], ("empty", "a1")),
            (mountainize, ["a0.a1", "a1", "empty", "a0"], ("a0.a1", "a0")),
            # a walk that revisits a vertex loses the loop before any rewrite
            (mountainize, ["a0", "a0.a1", "a0", "empty", "a1"], ("a0", "a0.a1", "a1")),
        ],
    )
    def test_shortcuts_in_b2(self, rewrite, walk, expected):
        b2 = boolean_lattice(2)
        path = Path.from_vertices(b2, walk)
        out = rewrite(as_lattice(b2), path)
        assert out.vertex_sequence() == expected
        assert (out.start, out.end) == (path.start, path.end)
        assert out.length <= path.length
        assert (out.apex() if rewrite is mountainize else out.nadir()) is not None


def _shortest_walk(L, s, t, rng):
    from collections import deque

    dist = {t: 0}
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for w, _ in L.up_steps(v) + L.down_steps(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    seq = [s]
    while seq[-1] != t:
        nbrs = sorted(w for w, _ in L.up_steps(seq[-1]) + L.down_steps(seq[-1]) if dist[w] == dist[seq[-1]] - 1)
        seq.append(rng.choice(nbrs))
    return Path.from_vertices(L, seq)


class TestPathColors:
    def test_report_prints_one_line(self):
        rep = paths.PathColorReport("a", "b", 2, (2, 1), multiset_ok=False)
        assert rep.lines() == ["FAIL paths a -> b: 2 paths, colors [2, 1]"]

    def test_unique_path_chain(self):
        chain = edge_chain(3, (1, 2))
        view = as_lattice(chain)
        rep = verify_path_colors(view, "c0", "c3")
        assert rep.passed and rep.path_count == 1

    def test_diamond_swaps_the_pair(self):
        p = EdgeColoredPoset(
            ["bot", "s", "t", "top"],
            [("bot", "s", 1), ("bot", "t", 2), ("s", "top", 2), ("t", "top", 1)],
        )
        view = as_lattice(p)
        rep = verify_path_colors(view, "bot", "top")
        assert rep.passed
        assert rep.path_count == 2
        assert rep.color_multiset == (1, 2)
        assert rep.incomparable_pairs > 0

    def test_fig_lattice_exhaustive(self, fig_view):
        reports = verify_path_colors_all(fig_view)
        assert all(r.passed for r in reports)

    def test_random_lattices_exhaustive(self):
        for L in random_distributive_lattices(10, 32, seed=13):
            assert all(r.passed for r in verify_path_colors_all(as_lattice(L)))

    def test_cap_exceeded(self, monkeypatch):
        b2 = boolean_lattice(2)
        view = as_lattice(b2)
        assert verify_path_colors(view, "empty", "a0.a1").path_count == 2
        monkeypatch.setattr(paths, "PATH_PAIR_CAP", 3)
        with pytest.raises(EnumerationCapExceeded, match="path pairs exceed cap 3"):
            verify_path_colors(view, "empty", "a0.a1")
        monkeypatch.setattr(paths, "PATH_CAP", 1)
        with pytest.raises(EnumerationCapExceeded, match="2 ascending paths exceed cap 1"):
            verify_path_colors(view, "empty", "a0.a1")

    def test_comparable_pairs_capped_before_any_path(self, monkeypatch):
        view = as_lattice(boolean_lattice(2))
        # 3^2 pairs s <= t: each element pair of a 2-element set, ordered by inclusion
        assert len(verify_path_colors_all(view)) == 9
        monkeypatch.setattr(paths, "COMPARABLE_PAIR_CAP", 8)
        monkeypatch.setattr(paths, "_ascending_paths", None)
        with pytest.raises(EnumerationCapExceeded, match="^9 comparable pairs exceed cap 8$"):
            verify_path_colors_all(view)

    def test_pairs_come_in_label_scan_order_on_a_wide_lattice(self):
        """On M_60, declared top first and its atoms shuffled, the reports follow the scan of every
        ordered pair of labels with ``leq``, not the topological order."""
        atoms = [f"a{i}" for i in random.Random(5).sample(range(60), 60)]
        M = EdgeColoredPoset(["top", *atoms, "bot"], [("bot", a, 1) for a in atoms] + [(a, "top", 1) for a in atoms])
        view = as_lattice(M)
        expected = [(s, t) for s in M.vertices for t in M.vertices if M.leq(s, t)]
        reports = verify_path_colors_all(view)
        assert [(r.s, r.t) for r in reports] == expected and len(expected) == 62 + 61 + 60
        assert all(r.passed for r in reports)

    def test_path_caps_checked_before_any_path(self, monkeypatch):
        # the 8x8 grid: 3432 paths from bottom to top, the one pair past the pair cap
        view = build_J(disjoint_sum(chain_poset(6), chain_poset(6))).view
        listed = []
        monkeypatch.setattr(paths, "_ascending_paths", lambda *args: listed.append(args))
        with pytest.raises(EnumerationCapExceeded, match=r"^3432\^2 ordered path pairs exceed cap 4000000$"):
            verify_path_colors_all(view)
        assert listed == []

    @pytest.mark.parametrize("path_cap, pair_cap", [(5, 4_000_000), (100_000, 30), (12, 100), (100, 36)])
    def test_first_pair_past_a_path_cap_in_order(self, monkeypatch, path_cap, pair_cap):
        """The counting pass raises what the pair-by-pair run raises first."""

        def first_error(run):
            try:
                run()
            except EnumerationCapExceeded as e:
                return str(e)

        def pair_by_pair(view):
            for s in view.poset.vertices:
                for t in view.poset.vertices:
                    if view.leq(s, t):
                        verify_path_colors(view, s, t)

        monkeypatch.setattr(paths, "PATH_CAP", path_cap)
        monkeypatch.setattr(paths, "PATH_PAIR_CAP", pair_cap)
        grid = build_J(disjoint_sum(chain_poset(2), chain_poset(3))).lattice
        # the bottom declared first and the rest top down: from the bottom, id order
        # meets the pairs past a small cap in the reverse of every topological order
        upside_down = EdgeColoredPoset([grid.vertices[0], *grid.vertices[:0:-1]], list(grid.covers))
        lattices = random_distributive_lattices(6, 40, seed=97) + [boolean_lattice(3), boolean_lattice(4), grid, upside_down]
        errors = []
        for L in lattices:
            view = as_lattice(L)
            errors.append(first_error(lambda: pair_by_pair(view)))
            assert first_error(lambda: verify_path_colors_all(view)) == errors[-1]
        assert any(errors)

    def test_long_chain_counts_without_recursion(self):
        # one ascending path through all 1201 elements, deeper than the default recursion limit
        view = build_J(chain_poset(1200)).view
        report = verify_path_colors(view, view.minimum, view.maximum)
        assert report.passed and report.path_count == 1
        assert report.color_multiset == (1,) * (len(view) - 1)

    def test_mismatched_diamond_rejected(self):
        from dclat import NotDiamondColored

        p = EdgeColoredPoset(
            ["bot", "s", "t", "top"],
            [("bot", "s", 1), ("bot", "t", 2), ("s", "top", 1), ("t", "top", 2)],
        )
        with pytest.raises(NotDiamondColored):
            verify_path_colors(as_lattice(p), "bot", "top")

    @pytest.mark.parametrize(
        "colors, fields",
        [
            ((1, 2, 3, 4), {"multiset_ok": False}),
            ((1, 2, 1, 2), {"incomparable_pairs": 1, "incomparable_ok": False, "comparable_pairs": 1}),
        ],
        ids=["multisets-differ", "incomparable-ends-differ"],
    )
    def test_each_failure_return_behind_a_planted_diamond_verdict(self, colors, fields):
        """On a B2 whose diamond check fails but is recorded to pass, the two paths bot -> top
        reach the multiset return, or pass it and reach the incomparable-ends return."""
        s_low, s_high, t_low, t_high = colors
        p = EdgeColoredPoset(
            ["bot", "s", "t", "top"],
            [("bot", "s", s_low), ("s", "top", s_high), ("bot", "t", t_low), ("t", "top", t_high)],
        )
        assert not check_diamond_colored(p).ok
        p._verdicts["diamond"] = CheckResult(True, None)
        report = verify_path_colors(as_lattice(p), "bot", "top")
        assert report == paths.PathColorReport("bot", "top", 2, (1, 2), **fields)
        assert not report.passed

    def test_nonmodular_rejected(self):
        from dclat import NotModular

        with pytest.raises(NotModular):
            verify_path_colors(as_lattice(hexagon()), "bot", "top")


class TestRewriteErrors:
    def test_mountainize_requires_modular(self):
        from dclat import NotModular

        view = as_lattice(n5())
        path = Path.from_vertices(n5(), ["bot", "a"])
        with pytest.raises(NotModular):
            mountainize(view, path)

    def test_distance_modular_requires_modular(self):
        from dclat import NotModular

        with pytest.raises(NotModular):
            distance_modular(as_lattice(n5()), "a", "b")
