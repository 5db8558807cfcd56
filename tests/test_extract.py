"""Extraction walks the lattice once; order tables wait for their first reader.

``extract_j`` / ``extract_m`` order the irreducibles by one walk over a
linear extension and color them from their single cover edge.  They must
agree with the pair-by-pair body kept in ``_oracles`` on every input, the
failing ones included, and on lattices whose ids are not a linear
extension.  The ideal-lattice pipeline must leave the reachability bitsets
and step tables of its lattices unbuilt, and a derived structure reports a
cycle when an order query first reads its tables.
"""

import random

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
    DclatError,
    EdgeColoredPoset,
    ValidationError,
    VertexColoredPoset,
    antichain_poset,
    as_lattice,
    build_J,
    build_M,
    cartesian_product,
    check_diamond_colored,
    extract_j,
    extract_m,
    is_distributive_fast,
    is_modular,
    isomorphic,
    random_poset,
)
from dclat.dcp import parse
from _oracles import extract_by_induced_pairs

SIDES = (("join", extract_j), ("meet", extract_m))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except DclatError as e:
        return type(e), str(e)


def assert_extractions_agree(L) -> None:
    for side, extract in SIDES:
        assert outcome(extract, L) == outcome(extract_by_induced_pairs, L, side), side


def declared_in(L: EdgeColoredPoset, order) -> EdgeColoredPoset:
    """``L`` read back through the public constructor with its vertices declared in ``order``."""
    return EdgeColoredPoset(list(order), sorted(L.covers))


def read_backs(L: EdgeColoredPoset, rng: random.Random):
    """``L`` declared as built, top-down (its ids reversed) and shuffled."""
    shuffled = list(L.vertices)
    rng.shuffle(shuffled)
    return [L, declared_in(L, reversed(L.vertices)), declared_in(L, shuffled)]


class TestExtractionMatchesOracle:
    def test_subset_lattices_and_their_views(self):
        for P in random_vertex_posets(30, 7, 3):
            for il in (build_J(P), build_M(P)):
                assert_extractions_agree(il)
                assert_extractions_agree(il.view)

    def test_read_back_distributive_lattices(self):
        rng = random.Random(5)
        for L in random_distributive_lattices(40, 64, 5):
            for K in read_backs(L, rng):
                assert_extractions_agree(K)
                assert_extractions_agree(as_lattice(K))

    def test_fixtures(self, data_dir):
        rng = random.Random(7)
        for path in sorted(data_dir.glob("*.dcp")):
            s = parse(path.read_text())
            if isinstance(s, VertexColoredPoset):
                lattices = [build_J(s).lattice, build_M(s).lattice]
            else:
                lattices = [s]
            for L in lattices:
                for K in read_backs(L, rng):
                    assert_extractions_agree(K)

    def test_failing_inputs(self):
        rng = random.Random(11)
        not_a_lattice = [
            EdgeColoredPoset(["a", "b"], []),
            EdgeColoredPoset(["a", "b", "c", "d"], [("a", "c", 1), ("a", "d", 1), ("b", "c", 1), ("b", "d", 1)]),
        ]
        mismatched = EdgeColoredPoset(
            ["0", "x", "y", "1"], [("0", "x", 1), ("0", "y", 2), ("x", "1", 1), ("y", "1", 2)]
        )
        lattices = [m3(), n5(), hexagon(), mismatched, cartesian_product(m3(), edge_chain(2, (1, 2)))]
        lattices += random_modular_lattices(20, 40, 11) + random_lattices(20, 11)
        failures = set()
        for L in lattices + not_a_lattice:
            for K in read_backs(L, rng):
                assert_extractions_agree(K)
                for _, extract in SIDES:
                    got = outcome(extract, K)
                    if isinstance(got, tuple):
                        failures.add(got[0].__name__)
        assert failures == {"NotALattice", "NotDiamondColored", "NotDistributive"}

    def test_chain_of_irreducibles_declared_top_down(self):
        # a chain's irreducibles form a chain, so every cover depends on the walk's order
        L = edge_chain(5, (1, 2, 3))
        K = declared_in(L, reversed(L.vertices))
        for side, extract in SIDES:
            got = extract(K)
            assert got == extract_by_induced_pairs(K, side)
            assert len(got.poset.covers) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 7),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**30),
        filters=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    def test_hypothesis_read_backs(self, n, p, seed, filters, rng):
        P = random_poset(n, p, seed, colors=(1, 2, 3))
        L = (build_M if filters else build_J)(P).lattice
        for K in read_backs(L, rng):
            assert_extractions_agree(K)


LAZY_TABLES = {"_up", "_down", "_up_steps", "_down_steps"}


class TestOrderTablesOnFirstRead:
    def test_pipeline_leaves_bitsets_and_step_tables_unbuilt(self):
        P = antichain_poset(10)
        for build, extract in ((build_J, extract_j), (build_M, extract_m)):
            il = build(P)
            view = as_lattice(il.lattice)
            assert is_modular(view) and is_distributive_fast(view)
            assert check_diamond_colored(il.lattice).ok
            assert len(view.join_irreducibles()) == view.length == 10
            assert isomorphic(extract(il).poset, P)
            assert LAZY_TABLES.isdisjoint(vars(il.lattice)), build.__name__

    def test_queries_build_the_tables(self):
        L = build_J(antichain_poset(3)).lattice
        assert L.leq("empty", "a0.a1") and not L.leq("a2", "a0.a1")
        assert {"_at", "_pos", "_down"} <= set(vars(L))
        assert "_up" not in vars(L)

    @pytest.mark.parametrize(
        "kind,args",
        [
            (EdgeColoredPoset, ([(0, 1, 1), (1, 2, 2), (2, 0, 1)],)),
            (VertexColoredPoset, ([(0, 1), (1, 2), (2, 0)], [1, 1, 2])),
        ],
        ids=["edge-colored", "vertex-colored"],
    )
    def test_cycle_in_derived_structure_raises_on_first_order_query(self, kind, args):
        structure = kind._from_ids(["a", "b", "c"], *args)
        assert structure.descendants("a") == ("c",)  # adjacency is built with the structure
        for query in (lambda: structure.leq("a", "b"), lambda: structure.up_set("b")):
            with pytest.raises(ValidationError, match="cover relation contains a cycle"):
                query()
