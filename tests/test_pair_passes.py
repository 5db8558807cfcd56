"""Each fact is computed once: one pair pass for Proposition 1, a local proof for 10, one map for the fundamental theorem.

``verify_distance_laws`` evaluates each pair's rank identity once, and
``verify_product_closure`` compares the componentwise join and meet with
the product's only on sibling covers, then decides K's closure by
``check_sublattice``.  Their two-pass bodies are kept in ``_oracles``;
here both suites must give the same report, or stop with the same error,
on the corpus, under hypothesis and on planted failures.  The fundamental theorem's map is
taken from the extraction walk, so a built lattice never builds its
reachability bitsets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import edge_chain, hexagon, m3, n5, random_distributive_lattices, random_lattices, random_modular_lattices
from dclat import (
    DclatError,
    EdgeColoredPoset,
    HypothesisViolated,
    boolean_lattice,
    build_J,
    build_M,
    cartesian_product,
    is_birkhoff_representable,
    random_poset,
    verify_distance_laws,
    verify_fundamental,
    verify_fundamental_poset,
    verify_product_closure,
)
from dclat import cli, paths
from dclat.lattice import LatticeView
from dclat.structures import ProductView
from _oracles import verify_distance_laws_by_pairs, verify_product_closure_two_pass


def result(suite, *args):
    """The report's name and checks, or the error's type and message."""
    try:
        report = suite(*args)
    except DclatError as e:
        return type(e), str(e)
    return report.name, report.checks


def recolored(L: EdgeColoredPoset) -> EdgeColoredPoset:
    """L with its first cover in sorted order given a new color."""
    (a, b, c), *rest = sorted(L.covers)
    return EdgeColoredPoset(L.vertices, [(a, b, c + 1)] + rest)


def colored_poset(seed: int) -> EdgeColoredPoset:
    """A random edge-colored poset, bounded by an added bottom and top on even seeds: often no lattice."""
    rng = random.Random(seed)
    P = random_poset(rng.randint(0, 6), rng.uniform(0.1, 0.9), seed)
    covers = [(a, b, rng.randint(1, 2)) for a, b in sorted(P.covers)]
    verts = list(P.vertices)
    if seed % 2 == 0:
        verts += ["BOT", "TOP"]
        covers += [("BOT", v, 1) for v in P.minimal_elements()] + [(v, "TOP", 1) for v in P.maximal_elements()]
        if not P.vertices:
            covers.append(("BOT", "TOP", 1))
    return EdgeColoredPoset(verts, covers)


PLANTED = [n5(), hexagon(), recolored(build_J(random_poset(5, 0.4, 3)).lattice), recolored(m3())]


class TestDistanceLaws:
    def assert_same(self, L, seed=None):
        new = result(verify_distance_laws, L, seed)
        assert new == result(verify_distance_laws_by_pairs, L, seed)
        return new

    def test_corpus(self, fig_lattice, data_dir):
        from dclat import dcp

        fixtures = [dcp.parse(path.read_text()) for path in sorted(data_dir.glob("*.dcp"))]
        lattices = random_modular_lattices(12, 40, seed=13) + random_lattices(20, seed=17)
        for L in lattices + [fig_lattice] + [F for F in fixtures if isinstance(F, EdgeColoredPoset)]:
            for seed in (None, 4):
                self.assert_same(L, seed)

    @pytest.mark.parametrize("L", PLANTED, ids=["n5", "hexagon", "recolored-ideals", "recolored-m3"])
    def test_planted_failures(self, L):
        name, checks = self.assert_same(L)
        modular = L not in PLANTED[:2]
        assert checks[0] == ("balance agrees with the modular rank identity", True)
        assert len(checks) == (5 if modular else 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_posets(self, seed):
        self.assert_same(colored_poset(seed), seed)

    @pytest.mark.parametrize("L", [boolean_lattice(4), cartesian_product(m3(), edge_chain(2, (1, 2)))],
                             ids=["b4", "m3-x-chain"])
    def test_each_pair_probed_once(self, monkeypatch, L):
        """The pass probes each id pair's join and meet once; label-level bounds serve only the sampled paths."""
        def refuse(*args):
            raise AssertionError("distance_modular called")

        monkeypatch.setattr(paths, "distance_modular", refuse)
        calls = {name: 0 for name in ("join", "meet", "_join_id", "_meet_id")}
        for name in calls:
            def counting(self, i, k, name=name, real=getattr(LatticeView, name)):
                calls[name] += 1
                return real(self, i, k)

            monkeypatch.setattr(LatticeView, name, counting)
        assert verify_distance_laws(L).passed
        pairs, samples = len(L) * (len(L) + 1) // 2, min(20, 2 * len(L))
        assert calls == {"join": samples, "meet": samples, "_join_id": pairs + samples, "_meet_id": pairs + samples}

    def test_stops_at_the_first_failing_pair(self, monkeypatch):
        L = hexagon()
        view = LatticeView(L)
        rank = view.rank_function.rank
        pairs = [(x, y) for i, x in enumerate(L.vertices) for y in L.vertices[i:]]
        first = next(k for k, (x, y) in enumerate(pairs)
                     if 2 * rank[view.join(x, y)] - rank[x] - rank[y] != rank[x] + rank[y] - 2 * rank[view.meet(x, y)])
        probes = []
        real = LatticeView._meet_id
        monkeypatch.setattr(LatticeView, "_meet_id", lambda self, i, k: probes.append((i, k)) or real(self, i, k))
        assert verify_distance_laws(L).checks == [("balance agrees with the modular rank identity", True)]
        assert len(probes) == first + 1


def product_cases():
    """(factors, K) pairs: whole products, their closed and unclosed subsets, and factors that break a hypothesis."""
    rng = random.Random(29)
    small = random_distributive_lattices(6, 8, seed=31) + [m3(), edge_chain(2), edge_chain(1, (2,))]
    cases = []
    for _ in range(24):
        factors = [rng.choice(small), rng.choice(small)]
        labels = ProductView(factors).poset.vertices
        cases.append((factors, labels))
        cases.append((factors, [x for x in labels if rng.random() < 0.7] + [labels[0], labels[-1]]))
    for bad in PLANTED:
        cases.append(([bad, edge_chain(1)], ProductView([bad, edge_chain(1)]).poset.vertices))
        cases.append(([edge_chain(1), bad], ProductView([edge_chain(1), bad]).poset.vertices))
    return cases


def closed_subset(factors, seed):
    """A random subset of the product, closed under its joins and meets unless the seed is odd."""
    rng = random.Random(seed)
    L = ProductView(factors).poset
    view = LatticeView(L)
    K = {x for x in L.vertices if rng.random() < 0.3} | {view.minimum, view.maximum}
    while seed % 2 == 0 and (grown := K | {op(x, y) for x in K for y in K for op in (view.join, view.meet)}) != K:
        K = grown
    return sorted(K)


class TestProductClosure:
    def test_corpus(self):
        for factors, K in product_cases():
            assert result(verify_product_closure, factors, K) == result(verify_product_closure_two_pass, factors, K)

    @pytest.mark.parametrize("K", [
        ["(c0,c0)", "(c1,c0)", "(c0,c1)", "(c2,c1)"],
        ["(c0,c0)", "(c1,c1)", "(c2,c0)", "(c2,c1)"],
        ["(c1,c0)", "(c2,c1)"],
        ["(c0,c0)", "(c2,c1)"],
    ], ids=["join-missing", "meet-missing", "no-bottom", "no-path"])
    def test_planted_subsets(self, K):
        factors = [edge_chain(2), edge_chain(1)]
        new = result(verify_product_closure, factors, K)
        assert new == result(verify_product_closure_two_pass, factors, K) and new[0] is HypothesisViolated

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_subsets(self, seed):
        lattices = random_distributive_lattices(2, 10, seed=seed) + random_lattices(6, seed=seed)[5:]
        factors = random.Random(seed).sample(lattices, 2)
        K = closed_subset(factors, seed)
        assert result(verify_product_closure, factors, K) == result(verify_product_closure_two_pass, factors, K)

    def test_cli_builds_the_product_once(self, monkeypatch, data_dir, capsys):
        built = []
        real = ProductView.__init__

        def counting(self, factors):
            built.append(len(factors))
            real(self, factors)

        monkeypatch.setattr(ProductView, "__init__", counting)
        files = [str(data_dir / "m3.dcp"), str(data_dir / "fig1L.dcp")]
        assert cli.main(["verify", files[0], "--theorem", "prop10", "--with", files[1]]) == 0
        assert built == [2]


class TestProductClosureLocalProof:
    """Componentwise bounds are compared with the product's on sibling covers only."""

    @pytest.mark.parametrize("probe, siblings", [("_join_id", "_up_adj"), ("_meet_id", "_down_adj")])
    def test_planted_wrong_factor_bound(self, monkeypatch, probe, siblings):
        factor = m3()
        a, b = getattr(factor, siblings)[factor.index_of("bot" if probe == "_join_id" else "top")][:2]
        real = getattr(LatticeView, probe)

        def wrong(self, i, k):
            return i if self.poset is factor and {i, k} == {a, b} else real(self, i, k)

        monkeypatch.setattr(LatticeView, probe, wrong)
        factors = [factor, edge_chain(1)]
        K = ProductView(factors).poset.vertices
        new = result(verify_product_closure, factors, K)
        assert new == result(verify_product_closure_two_pass, factors, K)
        assert ("product joins and meets are componentwise", False) in new[1]

    def test_fewer_probes_than_pairs(self, monkeypatch):
        calls = []
        for name in ("_join_id", "_meet_id"):
            def counting(self, i, k, real=getattr(LatticeView, name)):
                calls.append(1)
                return real(self, i, k)

            monkeypatch.setattr(LatticeView, name, counting)
        factors = [boolean_lattice(4), boolean_lattice(4)]
        assert verify_product_closure(factors, ProductView(factors).poset.vertices).passed
        n = 16 * 16
        assert len(calls) < n * (n - 1) // 2


class TestFundamentalMap:
    def test_built_lattices_build_no_reachability(self):
        """The map is read off the extraction walk, so neither bitset nor the positions are built."""
        for P in [random_poset(n, 0.4, n) for n in range(7)]:
            for build in (build_J, build_M):
                il = build(P)
                assert verify_fundamental(il).passed and is_birkhoff_representable(il)[0]
                assert not {"_up", "_down", "_pos"} & set(il.lattice.__dict__)

    def test_cover_masks_built_once_per_poset(self):
        P = random_poset(6, 0.4, 5)
        masks = P._cover_masks
        assert verify_fundamental_poset(P).passed
        assert P._cover_masks is masks
