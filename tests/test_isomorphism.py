"""Isomorphism search against identity, relabelings, and the brute oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import m3, n5, random_vertex_posets
from dclat import (
    EdgeColoredPoset,
    ValidationError,
    VertexColoredPoset,
    boolean_lattice,
    dual,
    find_isomorphism,
    isomorphic,
    random_poset,
    recolor,
)
from dclat.isomorphism import _verify_witness
from _oracles import brute_isomorphism


def test_identity_witness(fig_poset):
    w = find_isomorphism(fig_poset, fig_poset)
    assert w is not None
    # any witness works; the identity must at least be found valid
    assert sorted(w) == sorted(fig_poset.vertices)


def test_relabeled_copy(fig_poset):
    mapping = {v: f"w{i}" for i, v in enumerate(fig_poset.vertices)}
    other = fig_poset.relabel(mapping)
    w = find_isomorphism(fig_poset, other)
    assert w is not None
    assert {w[v] for v in fig_poset.vertices} == set(other.vertices)


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_witness_check_rejects_a_color_changing_bijection(kind, fig_poset, fig_lattice):
    p = fig_poset if kind == "vertex" else fig_lattice
    identity = {v: v for v in p.vertices}
    assert _verify_witness(p, p, identity)
    # the identity preserves every cover but maps onto the other colors
    assert not _verify_witness(p, recolor(p, {1: 2, 2: 1}), identity)
    assert not _verify_witness(p, dual(dual(p)), dict(zip(p.vertices, reversed(p.vertices))))
    # a witness must name exactly p's vertices
    assert not _verify_witness(p, p, identity | {"not-a-vertex": p.vertices[0]})


def test_color_mismatch_chains():
    a = EdgeColoredPoset(["a", "b"], [("a", "b", 1)])
    b = EdgeColoredPoset(["x", "y"], [("x", "y", 2)])
    assert not isomorphic(a, b)


def test_kind_mismatch(fig_poset, fig_lattice):
    with pytest.raises(ValidationError):
        isomorphic(fig_poset, fig_lattice)


def test_empty_structures():
    from dclat import VertexColoredPoset

    assert find_isomorphism(VertexColoredPoset([], [], {}), VertexColoredPoset([], [], {})) == {}


def test_m3_not_n5():
    assert not isomorphic(m3(), n5())


def test_deep_search_leaves_recursion_limit(monkeypatch):
    import sys

    def refuse(limit):
        raise AssertionError("find_isomorphism changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    names = [f"x{i}" for i in range(1000)]
    a = VertexColoredPoset(names, [], {v: 1 for v in names})
    b = a.relabel({v: f"y{i}" for i, v in enumerate(reversed(names))})
    assert isomorphic(a, b)


def _crowns(sizes, tag):
    """Disjoint crowns: upper vertex i covers lower vertices i and i+1 (mod k)."""
    verts, covers = [], []
    for c, k in enumerate(sizes):
        lo = [f"{tag}{c}a{i}" for i in range(k)]
        hi = [f"{tag}{c}b{i}" for i in range(k)]
        verts += lo + hi
        covers += [(lo[i], hi[i]) for i in range(k)] + [(lo[(i + 1) % k], hi[i]) for i in range(k)]
    return VertexColoredPoset(verts, covers, {v: 1 for v in verts})


def test_backtracks_out_of_wrong_first_choice():
    # refinement cannot tell crown sizes apart, so the search first maps the
    # 6-crown into a 3-crown and has to undo that choice
    a, b = _crowns([6, 3, 3], "x"), _crowns([3, 3, 6], "y")
    assert isomorphic(a, b) and isomorphic(b, a)
    assert not isomorphic(a, _crowns([6, 6], "z"))
    assert not isomorphic(_crowns([3, 3], "p"), _crowns([6], "q"))


def test_boolean_lattice_symmetry():
    assert isomorphic(boolean_lattice(4), boolean_lattice(4))
    assert not isomorphic(boolean_lattice(3), boolean_lattice(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_agrees_with_brute_force(self_seed, other_seed):
    a = random_poset(4, 0.5, self_seed)
    b = random_poset(4, 0.5, other_seed)
    assert (find_isomorphism(a, b) is not None) == (brute_isomorphism(a, b) is not None)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_positive_with_random_relabel(seed):
    rng = random.Random(seed)
    p = random_poset(6, 0.5, seed)
    names = [f"n{i}" for i in range(len(p.vertices))]
    rng.shuffle(names)
    q = p.relabel(dict(zip(p.vertices, names)))
    assert isomorphic(p, q)


def test_equivalence_relation():
    family = random_vertex_posets(6, 5, seed=99)
    # reflexive
    for p in family:
        assert isomorphic(p, p)
    # symmetric and transitive on the sampled family
    for a in family:
        for b in family:
            ab = find_isomorphism(a, b)
            ba = find_isomorphism(b, a)
            assert (ab is None) == (ba is None)
            for c in family:
                if ab is not None and find_isomorphism(b, c) is not None:
                    assert find_isomorphism(a, c) is not None
