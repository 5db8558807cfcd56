"""Structures the library derives from validated ones skip re-validation.

Each one must equal what the validating constructor builds from the same
labels and covers, malformed input the caller controls must still raise
what it always raised, and the verdicts an ideal or filter lattice carries
from birth must equal the scans they replace, as must those a component
of ``j_components`` carries; every other derived structure starts with an
empty verdict store.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_vertex_posets
from dclat import (
    EdgeColoredPoset,
    IdealLattice,
    MissingColorMapping,
    NotDiamondColored,
    ProductView,
    UnknownVertex,
    ValidationError,
    VertexColoredPoset,
    as_lattice,
    build_J,
    build_M,
    check_diamond_colored,
    check_topographically_balanced,
    color_subsets,
    compute_rank,
    disjoint_sum,
    dual,
    extract_j,
    extract_m,
    is_boolean,
    is_distributive,
    is_distributive_fast,
    is_modular,
    j_components,
    random_poset,
    recolor,
    verify_transform_identities,
)
from dclat import birkhoff
from dclat.birkhoff import _unique_labels
from dclat.cli import main
from dclat.dcp import parse
from dclat.paths import CheckResult
from _oracles import assert_matches_constructor, distributivity_failure_by_triples, trusted_builds

SIGMA = {c: (3 * c) % 7 + 1 for c in range(10)}
FIXTURE_POSETS = ("fig1P.dcp", "fig5P1.dcp", "fig5P2.dcp", "fig5Q.dcp")


def derive_everything(P: VertexColoredPoset, Q: VertexColoredPoset) -> None:
    """Run every operation that builds through ``_from_ids`` on P, Q and their lattices."""
    JP, MP, JQ = build_J(P), build_M(P), build_J(Q)
    for s in (P, JP.lattice, MP.lattice):
        dual(s)
        recolor(s, SIGMA)
        s.relabel({v: v + "'" for v in s.vertices})
    disjoint_sum(P, Q)
    disjoint_sum(JP.lattice, JQ.lattice)
    ProductView([JP.lattice, JQ.lattice])
    ProductView([MP.lattice])
    P.induced(P.vertices[::2])
    for il in (JP, MP):
        view = il.view
        view.interval(view.minimum, view.maximum)
        view.interval(il.lattice.vertices[len(il) // 2], view.maximum)
    palette = sorted(JP.lattice.colors_used)
    for k in range(len(palette) + 1):
        for colors in combinations(palette, k):
            for comp in j_components(JP, colors).components:
                comp.poset  # built on first read


def check_trusted_builds(P: VertexColoredPoset, Q: VertexColoredPoset) -> None:
    with trusted_builds() as built:
        derive_everything(P, Q)
    # build_J x3, dual/recolor/relabel x3 each, two sums, two products and an
    # induced poset at least, plus the intervals and the color-restricted posets
    assert len(built) >= 18
    for s in built:
        assert_matches_constructor(s)


class TestTrustedBuildsMatchTheConstructor:
    @pytest.mark.parametrize("name", FIXTURE_POSETS)
    def test_fixture_posets(self, data_dir, name):
        P = parse((data_dir / name).read_text())
        check_trusted_builds(P, parse((data_dir / "fig5Q.dcp").read_text()))

    def test_random_corpus(self):
        posets = random_vertex_posets(24, 6, seed=211)
        for P, Q in zip(posets, posets[1:] + posets[:1]):
            check_trusted_builds(P, Q)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 3))
    def test_random_posets(self, seed, n, p, m):
        check_trusted_builds(random_poset(n, p, seed), random_poset(m, 0.5, seed + 1, colors=(2, 4)))


class TestRandomPosetsMatchTheConstructor:
    """``random_poset`` reduces its relation on positions and builds through ``_from_ids``."""

    def test_grid(self):
        for n in (0, 1, 2, 5, 9, 16):
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                for seed in range(4):
                    assert_matches_constructor(random_poset(n, p, seed, colors=(1, 2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 24), st.floats(0.0, 1.0))
    def test_random_arguments(self, seed, n, p):
        assert_matches_constructor(random_poset(n, p, seed))


class TestMalformedDerivedInput:
    """Input the caller controls is still checked; messages are those of the validating path."""

    poset = VertexColoredPoset(["a", "b", "c"], [("a", "b")], {"a": 1, "b": 2, "c": 1})
    lattice = EdgeColoredPoset(["x", "y", "z"], [("x", "y", 1), ("y", "z", 2)])

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda s: s.poset.relabel({"a": "q", "b": "q", "c": "r"}), ValidationError,
             "duplicate vertex label 'q'"),
            (lambda s: s.lattice.relabel({"x": "y", "y": "x", "z": "x"}), ValidationError,
             "duplicate vertex label 'x'"),
            (lambda s: s.lattice.relabel({"x": "", "y": "y", "z": "z"}), ValidationError,
             "vertex label must be a non-empty string, got ''"),
            (lambda s: s.lattice.relabel({"x": 3, "y": "y", "z": "z"}), ValidationError,
             "vertex label must be a non-empty string, got 3"),
            (lambda s: s.poset.relabel({"a": "q"}), KeyError, "'b'"),
            (lambda s: dual(VertexColoredPoset(["*", "a"], [], {"*": 1, "a": 2})), ValidationError,
             "vertex label must be a non-empty string, got ''"),
            (lambda s: ProductView([EdgeColoredPoset(["a,b", "a"], []), EdgeColoredPoset(["c", "b,c"], [])]),
             ValidationError, r"duplicate vertex label '\(a,b,c\)'"),
            (lambda s: recolor(s.poset, {1: 2}), MissingColorMapping, r"recoloring undefined on colors \[2\]"),
            (lambda s: recolor(s.poset, {1: 2, 2: -1}), ValidationError,
             "recoloring must map to non-negative integers, got -1"),
            (lambda s: recolor(s.lattice, {1: "2", 2: 1}), ValidationError,
             "recoloring must map to non-negative integers, got '2'"),
            (lambda s: disjoint_sum(s.poset, s.lattice), ValidationError,
             "disjoint_sum requires two structures of the same kind"),
            (lambda s: s.lattice.induced(["x", "q"]), UnknownVertex, "unknown vertex 'q'"),
            (lambda s: EdgeColoredPoset(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)]).induced(["a", "c"]),
             ValidationError, "induced cover 'a' -> 'c' is not an edge of the parent, so it has no color"),
        ],
    )
    def test_same_exception_and_message(self, make, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make(self)


class TestBornVerdicts:
    """Birkhoff's theorem gives an ideal or filter lattice's verdicts; they match the scans.

    The scans run on a copy rebuilt through the public constructor, whose
    verdict store starts empty, so every verdict compared is proved afresh.
    """

    BORN = {"lattice", "diamond", "balanced", "distributive", "rank"}

    @staticmethod
    def posets(data_dir):
        return [parse((data_dir / name).read_text()) for name in FIXTURE_POSETS] + random_vertex_posets(
            30, 6, seed=77
        )

    def assert_verdicts_equal_the_scans(self, P):
        for il in (build_J(P), build_M(P)):
            self.assert_store_equals_the_scans(il.lattice)
            assert is_modular(il.view) is True

    def assert_store_equals_the_scans(self, L, keys=BORN):
        born = dict(L._verdicts)
        assert set(born) == keys
        copy = EdgeColoredPoset(list(L.vertices), list(L.covers))
        assert copy._verdicts == {}
        fresh = as_lattice(copy)
        assert born["lattice"] is copy._verdicts["lattice"] is True
        assert born["diamond"] == check_diamond_colored(copy) == CheckResult(True, None)
        assert born["balanced"] == check_topographically_balanced(copy) == CheckResult(True, None)
        assert born["rank"] == compute_rank(copy) == fresh.rank_function
        assert is_modular(fresh) is True
        if "distributive" in keys:
            assert born["distributive"] == is_distributive(fresh) == CheckResult(True, None)
            assert born["distributive"].ok is is_distributive_fast(fresh) is True
            if len(L) <= 40:
                assert distributivity_failure_by_triples(fresh) is None

    def test_verdicts_equal_the_scans_on_a_fresh_view(self, data_dir):
        for P in self.posets(data_dir):
            self.assert_verdicts_equal_the_scans(P)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 7), st.floats(0.0, 1.0))
    def test_verdicts_equal_the_scans_on_random_posets(self, seed, n, p):
        self.assert_verdicts_equal_the_scans(random_poset(n, p, seed))

    def test_verdicts_carried_through_the_transform_maps(self, data_dir, monkeypatch):
        """The dual, recoloring and product whose irreducibles the transform identities
        extract take their verdicts from an ideal lattice through a checked map."""
        carried, real = [], birkhoff.as_lattice

        def recording(K):
            carried.append(K)
            return real(K)

        monkeypatch.setattr(birkhoff, "as_lattice", recording)
        posets = self.posets(data_dir)
        for P, Q in zip(posets, posets[1:]):
            assert verify_transform_identities(P, Q, SIGMA).passed
        assert len(carried) == 3 * (len(posets) - 1)
        for K in carried:
            self.assert_store_equals_the_scans(K)

    def test_component_posets_carry_what_the_split_proves(self, data_dir):
        """A component's poset carries the lattice, diamond, balance and rank verdicts, and distributivity
        where the parent has it recorded, as the lemma of ``j_components`` proves them."""
        parents = [build_J(P).view for P in self.posets(data_dir)[:12]]
        parents += [as_lattice(parse((data_dir / name).read_text())) for name in ("m3.dcp", "m3xb3.dcp", "fig1L.dcp")]
        for view in parents:
            distributive = view.poset._verdicts.get("distributive")
            keys = self.BORN if distributive else self.BORN - {"distributive"}
            for J in color_subsets(view.poset.colors_used):
                for comp in j_components(view, J).components:
                    self.assert_store_equals_the_scans(comp.poset, keys)

    def test_extraction_from_built_lattices_scans_nothing(self, fig_poset, monkeypatch):
        from dclat import lattice, paths

        def unexpected(*args):
            raise AssertionError("scan ran on a built lattice")

        for module, name in ((paths, "_diamond_scan"), (paths, "_balance_scan"), (lattice, "_joins_exact"),
                             (lattice, "compute_rank")):
            monkeypatch.setattr(module, name, unexpected)
        for il in (build_J(fig_poset), build_M(fig_poset)):
            view = as_lattice(il.lattice)
            assert view.diamond.ok and is_modular(view) and view.length == len(fig_poset)
        assert len(extract_j(build_J(fig_poset)).poset) == len(fig_poset)
        assert len(extract_m(build_M(fig_poset)).poset) == len(fig_poset)

    def test_derived_structures_start_with_an_empty_store(self, fig_poset):
        L = build_J(fig_poset).lattice
        view = as_lattice(L)
        assert is_boolean(view) is False and view.rank_function.length == len(fig_poset)
        check_topographically_balanced(fig_poset)
        assert L._verdicts and fig_poset._verdicts
        for s in (L, fig_poset):
            derived = [
                dual(s),
                recolor(s, SIGMA),
                s.relabel({v: v + "'" for v in s.vertices}),
                disjoint_sum(s, s),
                s.induced(s.vertices[:1]),
            ]
            for d in derived:
                assert d._verdicts == {}, d
        assert ProductView([L, L]).poset._verdicts == {}
        assert view.interval(view.minimum, view.maximum)._verdicts == {}

    def test_hand_built_ideal_lattice_is_scanned(self, data_dir):
        square = parse((data_dir / "b2_mismatched.dcp").read_text())
        source = VertexColoredPoset(["a", "b"], [], {"a": 1, "b": 2})
        il = IdealLattice(source, "ideal", [0, 1, 2, 3], square)
        assert il.view.diamond == CheckResult(False, ("bot", "x", "y", "top"))
        with pytest.raises(NotDiamondColored):
            extract_j(il)


class TestUniqueLabels:
    def test_unchanged_without_collisions(self):
        assert _unique_labels(["x", "y", "x", "x"]) == ["x", "y", "x_2", "x_3"]

    def test_suffix_skips_labels_given_out_or_to_come(self):
        assert _unique_labels(["x", "x", "x_2", "x"]) == ["x", "x_3", "x_2", "x_4"]

    COLLIDING = "type vertex-poset\nvertex a color 1\nvertex b color 2\nvertex a.b color 1\nvertex a.b_2 color 3\n"

    def test_dotted_names_build_distinct_elements(self, tmp_path, capsys):
        # {a, b} and {a.b} are both named a.b, and a.b_2 is a vertex of its own
        path = tmp_path / "collide.dcp"
        path.write_text(self.COLLIDING)
        for op in ("J", "M"):
            assert main(["birkhoff", str(path), "--op", op]) == 0
            L = parse(capsys.readouterr().out)
            assert len(L) == len(set(L.vertices)) == 16
        P = parse(self.COLLIDING)
        for build in (build_J, build_M):
            il = build(P)
            assert len(il.mask_of_label) == len(set(il.lattice.vertices)) == 16
            assert all(il.label_of_mask[m] == lab for lab, m in il.mask_of_label.items())
        il = build_J(P)
        assert il.members("a.b") == {"a", "b"}
        assert il.members("a.b_3") == {"a.b"}
        assert il.members("a.b_2") == {"a.b_2"}
