"""Lattice recognition, bounds, and the classification predicates."""

import functools
import itertools
import random
import tracemalloc

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
)
from dclat import (
    EdgeColoredPoset,
    GeneratorSpec,
    IncomparableEndpoints,
    NotALattice,
    antichain_poset,
    as_lattice,
    boolean_lattice,
    build_J,
    cartesian_product,
    generate,
    is_boolean,
    is_distributive,
    is_distributive_fast,
    is_modular,
    isomorphic,
    random_poset,
    verify_component_structure,
    verify_distance_laws,
    verify_fundamental,
)
from dclat import lattice as lattice_module
from dclat import paths
from dclat.cli import main
from dclat.dcp import emit, parse
from dclat.paths import CheckResult
from dclat.lattice import _joins_exact
from _oracles import (
    boolean_by_supports,
    bounds_by_scan,
    distributive_by_supports,
    distributivity_failure_by_triples,
    distributivity_failure_r_by_r,
    joins_exact_pairwise,
    modular_by_rank_identity,
)


class TestAsLattice:
    def test_chain(self):
        view = as_lattice(edge_chain(3))
        assert view.minimum == "c0" and view.maximum == "c3"

    def test_repr_counts_elements(self):
        assert repr(as_lattice(edge_chain(3))) == "LatticeView(4 elements)"

    def test_fig_lattice_extremes(self, fig_view):
        assert fig_view.minimum == "empty"
        assert fig_view.maximum == "v1.v2.v3.v4.v5.v6"

    def test_two_maximal_elements_rejected(self):
        p = EdgeColoredPoset(["a", "b", "c"], [("a", "b", 1), ("a", "c", 1)])
        with pytest.raises(NotALattice) as exc:
            as_lattice(p)
        assert exc.value.witness == ("b", "c", "join")

    def test_matches_brute_bounds_on_random_posets(self):
        rng = random.Random(0)
        for _ in range(30):
            P = random_poset(rng.randint(1, 6), rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
            p = EdgeColoredPoset(P.vertices, [(a, b, 1) for a, b in P.covers])
            lub, glb = bounds_by_scan(p.vertices, p.leq)
            should_be = all(
                lub[(x, y)] is not None and glb[(x, y)] is not None
                for x in p.vertices
                for y in p.vertices
            )
            try:
                view = as_lattice(p)
                assert should_be
                for x in p.vertices:
                    for y in p.vertices:
                        assert view.join(x, y) == lub[(x, y)]
                        assert view.meet(x, y) == glb[(x, y)]
            except NotALattice:
                assert not should_be


    @pytest.mark.parametrize("least", [False, True])
    def test_witness_is_first_pair_without_bounds(self, least):
        rng = random.Random(5 + least)
        rejected = 0
        for _ in range(60):
            P = random_poset(rng.randint(2, 6), rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
            covers = [(a, b, 1) for a, b in P.covers]
            if least:
                covers += [("BOT", v, 1) for v in P.minimal_elements()]
            p = EdgeColoredPoset(P.vertices + (("BOT",) if least else ()), covers)
            lub, glb = bounds_by_scan(p.vertices, p.leq)
            v = p.vertices
            first = next(
                (
                    (v[i], v[k], side)
                    for i in range(len(v))
                    for k in range(i + 1, len(v))
                    for side, bounds in (("join", lub), ("meet", glb))
                    if bounds[(v[i], v[k])] is None
                ),
                None,
            )
            if first is None:
                as_lattice(p)
                continue
            rejected += 1
            with pytest.raises(NotALattice) as exc:
                as_lattice(p)
            assert exc.value.witness == first
        assert rejected >= 20

    def test_memory_without_tables(self):
        p = boolean_lattice(10)
        tracemalloc.start()
        try:
            as_lattice(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _with_least_element(n, density, seed):
    P = random_poset(n, density, seed)
    covers = [(a, b, 1) for a, b in P.covers] + [("BOT", v, 1) for v in P.minimal_elements()]
    return EdgeColoredPoset(P.vertices + ("BOT",), covers)


class TestSiblingJoinCheck:
    """Joins of sibling upper covers decide lattice-ness exactly as joins of all pairs do."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_corpus(self, seed):
        corpus = (
            random_lattices(100, seed=seed)
            + random_modular_lattices(30, 40, seed=seed)
            + random_distributive_lattices(30, 40, seed=seed)
        )
        for L in corpus:
            assert _joins_exact(L) and joins_exact_pairwise(L)
        rng = random.Random(seed)
        verdicts = []
        for _ in range(300):
            p = _with_least_element(rng.randint(1, 7), rng.uniform(0.1, 0.9), rng.randrange(1 << 30))
            verdicts.append(_joins_exact(p))
            assert verdicts[-1] == joins_exact_pairwise(p)
        assert 30 <= sum(verdicts) <= 270

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.floats(0.05, 0.95), st.integers(0, 1 << 30))
    def test_random_posets_with_least_element(self, n, density, seed):
        p = _with_least_element(n, density, seed)
        lub, _ = bounds_by_scan(p.vertices, p.leq)
        every_join = all(lub[(x, y)] is not None for x in p.vertices for y in p.vertices)
        assert _joins_exact(p) == joins_exact_pairwise(p) == every_join


class TestBounds:
    def test_join_idempotent(self, fig_view):
        for v in fig_view.poset.vertices:
            assert fig_view.join(v, v) == v

    def test_bounds_of_every_element_are_the_extremes(self, fig_view):
        corpus = random_lattices(30, seed=73) + random_modular_lattices(10, 40, seed=73) + [m3(), n5(), hexagon()]
        for view in [fig_view] + [as_lattice(L) for L in corpus]:
            assert functools.reduce(view.join, view.poset.vertices) == view.maximum
            assert functools.reduce(view.meet, view.poset.vertices) == view.minimum

    def test_ideal_join_is_union(self, fig_poset):
        il = build_J(fig_poset)
        view = as_lattice(il.lattice)
        labs = il.lattice.vertices
        for x in labs:
            for y in labs:
                assert il.members(view.join(x, y)) == il.members(x) | il.members(y)
                assert il.members(view.meet(x, y)) == il.members(x) & il.members(y)

    def test_absorption_and_order_recovery(self):
        for L in random_lattices(10, seed=42):
            view = as_lattice(L)
            for x in L.vertices:
                for y in L.vertices:
                    assert view.join(x, view.meet(x, y)) == x
                    assert view.meet(x, view.join(x, y)) == x
                    assert view.leq(x, y) == (view.join(x, y) == y)

    def test_commutative_and_associative(self):
        rng = random.Random(6)
        for L in random_lattices(6, seed=65):
            view = as_lattice(L)
            verts = L.vertices
            for _ in range(60):
                x, y, z = (rng.choice(verts) for _ in range(3))
                assert view.join(x, y) == view.join(y, x)
                assert view.meet(x, y) == view.meet(y, x)
                assert view.join(x, view.join(y, z)) == view.join(view.join(x, y), z)
                assert view.meet(x, view.meet(y, z)) == view.meet(view.meet(x, y), z)


class TestModular:
    def test_m3_modular(self):
        assert is_modular(as_lattice(m3()))

    def test_n5_not_modular(self):
        assert not is_modular(as_lattice(n5()))

    def test_hexagon_ranked_but_not_modular(self):
        view = as_lattice(hexagon())
        assert view.rank_function.length == 3
        assert not is_modular(view)

    def test_distributive_implies_modular(self):
        for L in random_distributive_lattices(15, 40, seed=8):
            view = as_lattice(L)
            assert is_distributive(view).ok
            assert is_modular(view)


class TestDistributive:
    def test_boolean_distributive(self):
        assert is_distributive(as_lattice(boolean_lattice(3))).ok

    def test_m3_witness_is_atom_triple(self):
        res = is_distributive(as_lattice(m3()))
        assert not res.ok
        assert set([res.witness.r, res.witness.s, res.witness.t]) <= {"a", "b", "c", "bot", "top"}

    def test_fig_lattice_distributive(self, fig_view):
        assert is_distributive(fig_view).ok

    def test_fast_check_agrees_with_scan(self):
        corpus = random_lattices(25, seed=77) + random_modular_lattices(10, 40, seed=78)
        for L in corpus:
            view = as_lattice(L)
            assert is_distributive_fast(view) == is_distributive(view).ok


def _assert_one_verdict(L: EdgeColoredPoset):
    """``is_distributive`` names the triple scan's result and runs its own scan only when the count
    fails; ``is_distributive_fast``, asked before or after, agrees and records only a passing count.

    Each view is a fresh copy, so no verdict is carried in from L's construction.
    """

    def fresh():
        return as_lattice(EdgeColoredPoset(list(L.vertices), list(L.covers)))

    expected = distributivity_failure_by_triples(fresh())
    scans, scan = [], lattice_module._first_distributivity_failure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_module, "_first_distributivity_failure", lambda view: scans.append(view) or scan(view))
        first, second = fresh(), fresh()
        fast = is_distributive_fast(first)
        assert fast is ("distributive" in first.poset._verdicts) is (expected is None)
        assert is_distributive(first) == is_distributive(second) == CheckResult(expected is None, expected)
        assert is_distributive_fast(second) is fast
    assert len(scans) == (0 if expected is None else 2)
    return expected


class TestOneDistributivityVerdict:
    """The count proves distributivity and the witness scan runs only when it fails."""

    def test_corpus(self, data_dir):
        fixtures = [parse(path.read_text()) for path in sorted(data_dir.glob("*.dcp"))]
        corpus = (
            [L for L in fixtures if isinstance(L, EdgeColoredPoset)]
            + random_lattices(40, seed=31)
            + random_modular_lattices(20, 30, seed=31)
            + random_distributive_lattices(20, 30, seed=31)
        )
        witnesses = [_assert_one_verdict(L) for L in corpus]
        assert sum(w is None for w in witnesses) >= 20 and sum(w is not None for w in witnesses) >= 20

    def test_planted_failures(self):
        """M3, N5, the hexagon, M3 x B3, and chain x M3 in both orders for chains of n <= 30 covers."""
        planted = [m3(), n5(), hexagon(), cartesian_product(m3(), boolean_lattice(3))]
        for n in (1, 2, 5, 30):
            planted += [cartesian_product(edge_chain(n), m3()), cartesian_product(m3(), edge_chain(n))]
        for L in planted:
            assert _assert_one_verdict(L) is not None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([m3, n5, hexagon, lambda: edge_chain(2)]), st.booleans())
    def test_random_lattices_and_products(self, seed, factor, factor_first):
        for L in random_lattices(6, seed=seed)[4:] + random_distributive_lattices(2, 12, seed=seed):
            _assert_one_verdict(L)
            _assert_one_verdict(cartesian_product(factor(), L) if factor_first else cartesian_product(L, factor()))

    def test_distributive_input_is_not_scanned(self, monkeypatch):
        """Read back from DCP, so no verdict is recorded: B_k, random ideal lattices and a 402-element chain."""

        def unexpected(view):
            raise AssertionError("the witness scan ran on a distributive lattice")

        # dclat gen --kind chain -n 400 | dclat birkhoff - --op J
        chain = build_J(generate(GeneratorSpec("chain", 400))).lattice
        corpus = [parse(emit(L)) for L in [chain, boolean_lattice(8)] + random_distributive_lattices(20, 200, seed=41)]
        assert len(corpus[0]) == 402
        monkeypatch.setattr(lattice_module, "_first_distributivity_failure", unexpected)
        for L in corpus:
            assert is_distributive(as_lattice(L)) == CheckResult(True, None)


def _assert_witness_matches_triples(L):
    witness = is_distributive(as_lattice(L)).witness
    assert witness == distributivity_failure_by_triples(as_lattice(L))
    return witness


class TestDistributivityWitnessMatchesTriples:
    """The irreducible-reduced scan names the same first (r, s, t, identity) as the triple scan."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_corpus(self, seed):
        corpus = random_lattices(100, seed=seed) + random_modular_lattices(30, 40, seed=seed)
        witnesses = [_assert_witness_matches_triples(L) for L in corpus]
        assert sum(w is not None for w in witnesses) >= 30
        assert {w.identity for w in witnesses if w is not None} == {"join-over-meet", "meet-over-join"}

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_products(self, k):
        factors = {"m3": m3(), "n5": n5(), "hexagon": hexagon(), "chain2": edge_chain(2)}
        late = 0
        for names in itertools.product(factors, repeat=k):
            L = factors[names[0]]
            for name in names[1:]:
                L = cartesian_product(L, factors[name])
            witness = _assert_witness_matches_triples(L)
            assert (witness is None) == all(name == "chain2" for name in names)
            late += witness is not None and L.index_of(witness.r) > 0
        assert late > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([m3, n5, hexagon, lambda: edge_chain(1)]))
    def test_random_lattices_and_products(self, seed, factor):
        for L in random_lattices(7, seed=seed)[5:] + random_modular_lattices(4, 30, seed=seed)[3:]:
            _assert_witness_matches_triples(L)
            _assert_witness_matches_triples(cartesian_product(L, factor()))

    def test_probes_fewer_than_the_full_tables(self, monkeypatch):
        """M3 x B5 first fails at r = 32; the rows built are well short of the two full tables."""
        L = cartesian_product(m3(), boolean_lattice(5))
        n = len(L)
        rows = _count_rows(monkeypatch)
        witness = is_distributive(as_lattice(L)).witness
        monkeypatch.undo()
        assert n == 160 and L.index_of(witness.r) == 32
        assert 0 < rows["built"] < n // 2
        assert witness == distributivity_failure_by_triples(as_lattice(L))

    def test_rows_do_not_grow_with_the_failing_region(self, monkeypatch):
        """In M3 x B7 a fifth of the elements fail; the search stops exploring where a cover fails."""
        L = cartesian_product(m3(), boolean_lattice(7))
        rows = _count_rows(monkeypatch)
        witness = is_distributive(as_lattice(L)).witness
        assert len(L) == 640 and L.index_of(witness.s) == 256
        assert rows["built"] < 64


def _count_rows(monkeypatch) -> dict:
    """Count the join and meet table rows that the witness scans build from now on."""
    rows = {"built": 0}
    build = lattice_module._Rows.__missing__

    def counted(self, i):
        rows["built"] += 1
        return build(self, i)

    monkeypatch.setattr(lattice_module._Rows, "__missing__", counted)
    return rows


def _top_down(L: EdgeColoredPoset) -> EdgeColoredPoset:
    """A copy of L whose ids run from the maximum down, so closure order differs from id order."""
    return EdgeColoredPoset(list(reversed(L.vertices)), sorted(L.covers))


def _assert_matches_r_by_r(L):
    """The closure-pruned scan returns what the r-by-r scan does, on L and on its top-down copy."""
    for K in (L, _top_down(L)):
        witness = distributivity_failure_r_by_r(as_lattice(K))
        assert is_distributive(as_lattice(K)) == CheckResult(witness is None, witness)
    return witness


@functools.cache
def _generic_check_shapes():
    """Products as the generic-check benchmark writes them: base x B_k, with a chain, or one edge recolored."""
    out = []
    for base in (m3, n5, hexagon):
        products = [cartesian_product(base(), boolean_lattice(k, color=2)) for k in (4, 5, 6)]
        covers = sorted(products[-1].covers)
        covers[len(covers) // 2] = covers[len(covers) // 2][:2] + (9,)
        out += products + [
            cartesian_product(cartesian_product(base(), boolean_lattice(3)), edge_chain(2, (3,))),
            EdgeColoredPoset(products[-1].vertices, covers),
        ]
    return [parse(emit(L)) for L in out]


class TestPrunedWitnessMatchesRByR:
    """Closure pruning names the same CheckResult as testing every r in id order."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_corpus(self, seed):
        corpus = (
            random_lattices(60, seed=seed)
            + random_modular_lattices(20, 60, seed=seed)
            + random_distributive_lattices(20, 60, seed=seed)
        )
        witnesses = [_assert_matches_r_by_r(L) for L in corpus]
        assert sum(w is None for w in witnesses) >= 20 and sum(w is not None for w in witnesses) >= 20

    @pytest.mark.parametrize("index", range(15))
    def test_generic_check_shapes(self, index):
        L = _generic_check_shapes()[index]
        assert _assert_matches_r_by_r(L) is not None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([m3, n5, hexagon]), st.booleans())
    def test_products_with_ideal_lattices(self, seed, base, base_first):
        rng = random.Random(seed)
        ideals = build_J(random_poset(rng.randint(1, 5), rng.uniform(0.2, 0.9), seed)).lattice
        L = cartesian_product(base(), ideals) if base_first else cartesian_product(ideals, base())
        assert _assert_matches_r_by_r(L) is not None
        _assert_matches_r_by_r(EdgeColoredPoset(rng.sample(L.vertices, len(L)), sorted(L.covers)))

    def test_distributive_lattice_builds_rows_for_irreducibles_only(self, monkeypatch):
        """On B_k read back from DCP, only the minimum, the maximum and the 2k irreducibles get rows."""
        for k in (6, 10):
            L = parse(emit(build_J(antichain_poset(k)).lattice))
            rows = _count_rows(monkeypatch)
            assert lattice_module._first_distributivity_failure(as_lattice(L)) is None
            assert rows["built"] == 2 * k + 2
            monkeypatch.undo()


def _assert_predicates_match_oracles(L):
    view = as_lattice(L)
    assert is_modular(view) == modular_by_rank_identity(view)
    assert is_distributive_fast(view) == distributive_by_supports(view) == is_distributive(view).ok
    assert is_boolean(view) == boolean_by_supports(view)
    return view


class TestLocalPredicatesMatchOracles:
    """Balance and the irreducible count against the pairwise rank identity and support law."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_corpus(self, seed):
        corpus = (
            random_lattices(100, seed=seed)
            + random_modular_lattices(30, 40, seed=seed)
            + random_distributive_lattices(30, 40, seed=seed)
        )
        views = [_assert_predicates_match_oracles(L) for L in corpus]
        assert sum(not is_modular(v) for v in views) >= 10
        assert sum(is_modular(v) and not is_distributive_fast(v) for v in views) >= 5
        assert sum(is_boolean(v) for v in views) >= 5

    def test_m3_squared(self):
        view = _assert_predicates_match_oracles(cartesian_product(m3(), m3()))
        assert is_modular(view) and not is_distributive_fast(view)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_lattices(self, seed):
        for L in random_lattices(8, seed=seed)[5:] + random_modular_lattices(5, 30, seed=seed)[3:]:
            _assert_predicates_match_oracles(L)


class TestInterval:
    def test_singleton(self, fig_view):
        assert fig_view.interval("v5", "v5").vertices == ("v5",)

    def test_whole_lattice(self, fig_view):
        inner = fig_view.interval(fig_view.minimum, fig_view.maximum)
        assert inner == fig_view.poset

    def test_incomparable_endpoints(self, fig_view):
        with pytest.raises(IncomparableEndpoints):
            fig_view.interval("v2.v5", "v4.v5.v6")

    def test_random_intervals_closed_under_bounds(self):
        rng = random.Random(12)
        for L in random_modular_lattices(8, 32, seed=51):
            view = as_lattice(L)
            verts = L.vertices
            for _ in range(5):
                s, t = rng.choice(verts), rng.choice(verts)
                if not view.leq(s, t):
                    continue
                inner = set(view.interval(s, t).vertices)
                for x in inner:
                    for y in inner:
                        assert view.join(x, y) in inner
                        assert view.meet(x, y) in inner


class TestDistanceLaws:
    def test_modular_lattices_pass_every_check(self):
        for L in random_modular_lattices(10, 32, seed=5):
            report = verify_distance_laws(L, seed=1)
            assert report.passed and len(report.checks) == 5

    def test_non_modular_lattices_stop_at_the_agreement(self):
        for L in (n5(), hexagon()):
            report = verify_distance_laws(L)
            assert report.checks == [("balance agrees with the modular rank identity", True)]


class TestBoolean:
    def test_single_vertex(self):
        assert is_boolean(as_lattice(EdgeColoredPoset(["x"], [])))

    @pytest.mark.parametrize("n", range(6))
    def test_boolean_lattices(self, n):
        view = as_lattice(boolean_lattice(n))
        assert len(view.poset) == 2**n
        assert is_boolean(view)

    def test_m3_not_boolean(self):
        assert not is_boolean(as_lattice(m3()))

    def test_chain_of_length_two_not_boolean(self):
        assert not is_boolean(as_lattice(edge_chain(2)))

    def test_mixed_colors_still_boolean(self):
        p = EdgeColoredPoset(
            ["bot", "x", "y", "top"],
            [("bot", "x", 1), ("bot", "y", 2), ("x", "top", 2), ("y", "top", 1)],
        )
        assert is_boolean(as_lattice(p))

    def test_size_alone_is_not_enough(self):
        """Three atoms and eight elements, but M3 below a chain: not distributive."""
        p = EdgeColoredPoset(
            ["bot", "a", "b", "c", "t1", "t2", "t3", "t4"],
            [("bot", "a", 1), ("bot", "b", 1), ("bot", "c", 1), ("a", "t1", 1), ("b", "t1", 1),
             ("c", "t1", 1), ("t1", "t2", 1), ("t2", "t3", 1), ("t3", "t4", 1)],
        )
        view = as_lattice(p)
        assert len(view) == 2 ** len(p.ancestors("bot"))
        assert not is_boolean(view) and not boolean_by_supports(view)


@pytest.fixture
def scans(monkeypatch):
    """The structures each diamond scan, balance scan and sibling-join check ran on.

    The public checks read the verdict store first, so these count the
    proofs themselves, not the reads.
    """
    calls = {"diamond": [], "balance": [], "joins": []}
    for key, module, name in (
        ("diamond", paths, "_diamond_scan"),
        ("balance", paths, "_balance_scan"),
        ("joins", lattice_module, "_joins_exact"),
    ):
        def counted(p, original=getattr(module, name), seen=calls[key]):
            seen.append(p)
            return original(p)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def diamond_scans(scans):
    return scans["diamond"]


class TestDiamondVerdictOncePerView:
    """Counts run on fresh parses: the session fixtures carry verdicts from earlier tests."""

    def test_cached_on_the_view(self, data_dir, diamond_scans):
        view = as_lattice(parse((data_dir / "fig1L.dcp").read_text()))
        assert view.diamond.ok and view.diamond.ok
        assert len(diamond_scans) == 1

    def test_fundamental_roundtrips_scan_once(self, data_dir, diamond_scans):
        assert verify_fundamental(as_lattice(parse((data_dir / "fig1L.dcp").read_text()))).passed
        assert len(diamond_scans) == 1

    def test_component_structure_scans_the_lattice_once(self, data_dir, diamond_scans):
        L = parse((data_dir / "fig1L.dcp").read_text())
        assert verify_component_structure(L).passed
        # once for the lattice; no component is scanned on its own
        assert len(diamond_scans) == 1 and diamond_scans[0] is L


class TestVerdictsOncePerStructure:
    def test_two_views_of_one_poset_prove_each_verdict_once(self, data_dir, scans):
        L = parse((data_dir / "fig1L.dcp").read_text())
        for _ in range(2):
            view = as_lattice(L)
            assert view.diamond.ok and is_modular(view) and is_distributive_fast(view)
            assert paths.check_diamond_colored(L).ok and paths.check_topographically_balanced(L).ok
        assert {key: len(seen) for key, seen in scans.items()} == {"diamond": 1, "balance": 1, "joins": 1}

    def test_a_recorded_non_lattice_raises_the_same_error_again(self, scans):
        vee = EdgeColoredPoset(["a", "b", "c"], [("a", "b", 1), ("a", "c", 2)])
        messages = []
        for _ in range(2):
            with pytest.raises(NotALattice) as err:
                as_lattice(vee)
            messages.append((str(err.value), err.value.witness))
        assert messages[0] == messages[1] == ("'b' and 'c' have no common upper bound", ("b", "c", "join"))
        assert len(scans["joins"]) == 1 and vee._verdicts == {"lattice": False}

    def test_check_modular_scans_balance_once(self, data_dir, scans, capsys):
        assert main(["check", str(data_dir / "n5.dcp"), "--prop", "modular"]) == 1
        assert capsys.readouterr().out.startswith("not modular; balance witness:")
        assert len(scans["balance"]) == 1
