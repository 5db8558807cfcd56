"""Reachable raises that no other test runs, with their exception types and exact messages."""

import pytest

from corpus import m3
from dclat import (
    EdgeColoredPoset,
    GeneratorSpec,
    IncomparableEndpoints,
    InvalidSpec,
    Path,
    ProductView,
    UnknownVertex,
    ValidationError,
    VertexColoredPoset,
    as_lattice,
    boolean_lattice,
    build_J,
    build_M,
    cartesian_product,
    cover_color_profile,
    generate,
    mountainize,
    rank_via_path,
    subordinate_of,
    verify_path_colors,
    weak_subposet_from_sublattice,
)


def b2_with_one_edge_recolored():
    b2 = boolean_lattice(2)
    first = min(b2.covers)
    return EdgeColoredPoset(b2.vertices, [(a, b, c + 1 if (a, b, c) == first else c) for a, b, c in b2.covers])


def chain_path():
    c = EdgeColoredPoset(["x", "y"], [("x", "y", 1)])
    return Path.from_vertices(c, ["x", "y"])


POSET = VertexColoredPoset(["p", "q"], [("p", "q")], {"p": 1, "q": 2})

RAISES = [
    ("two-item edge-colored cover", lambda: EdgeColoredPoset(["a", "b"], [("a", "b")]),
     ValidationError, "edge-colored cover must be a (lower, upper, color) triple, got ('a', 'b')"),
    ("negative edge color", lambda: EdgeColoredPoset(["a", "b"], [("a", "b", -1)]),
     ValidationError, "color of edge 'a' -> 'b' must be a non-negative integer"),
    ("negative vertex color", lambda: VertexColoredPoset(["a"], [], {"a": -1}),
     ValidationError, "color of 'a' must be a non-negative integer"),
    ("edge_color of a non-edge", lambda: m3().edge_color("bot", "top"),
     ValidationError, "no cover edge 'bot' -> 'top'"),
    ("cartesian_product of a vertex-poset", lambda: cartesian_product(POSET, m3()),
     ValidationError, "cartesian_product is defined for edge-colored posets"),
    ("ProductView of no factors", lambda: ProductView([]),
     ValidationError, "product of zero factors is not supported"),
    ("negative generator color", lambda: generate(GeneratorSpec("chain", 2, colors=(1, -1))),
     InvalidSpec, "colors must be non-negative integers"),
    ("path with no vertices", lambda: Path.from_vertices(m3(), []),
     ValidationError, "a path needs at least one vertex"),
    ("path through non-adjacent vertices", lambda: Path.from_vertices(m3(), ["a", "b"]),
     ValidationError, "'a' and 'b' are not cover-adjacent"),
    ("rank_via_path with another poset's path", lambda: rank_via_path(m3(), chain_path()),
     ValidationError, "path does not belong to the given poset"),
    ("mountainize with another lattice's path", lambda: mountainize(as_lattice(m3()), chain_path()),
     ValidationError, "path does not belong to the given lattice"),
    ("verify_path_colors with s not below t", lambda: verify_path_colors(as_lattice(m3()), "top", "a"),
     IncomparableEndpoints, "'top' is not below 'a'"),
    ("members of an unknown label", lambda: build_J(POSET).members("x"),
     UnknownVertex, "unknown element 'x'"),
    ("cover_color_profile of an unknown label", lambda: cover_color_profile(build_J(POSET), "x"),
     UnknownVertex, "unknown element 'x'"),
    ("subordinate_of an unknown label", lambda: subordinate_of(build_J(POSET), "x", [1]),
     UnknownVertex, "unknown element 'x'"),
    ("subordinate_of on a filter lattice", lambda: subordinate_of(build_M(POSET), "empty", [1]),
     ValidationError, "subordinates are computed on ideal lattices"),
    ("recovery from a sublattice that is not full-length",
     lambda: weak_subposet_from_sublattice(boolean_lattice(2), EdgeColoredPoset(["empty", "a0.a1"], [("empty", "a0.a1", 1)])),
     ValidationError, "sublattice is not full-length"),
    ("recovery from a sublattice with a recolored edge",
     lambda: weak_subposet_from_sublattice(boolean_lattice(2), b2_with_one_edge_recolored()),
     ValidationError, "sublattice is not edge-colored"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in RAISES], ids=[r[0] for r in RAISES])
def test_raises_exactly(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
