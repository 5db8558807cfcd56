"""DCP parsing, canonical emission, diagnostics, and DOT rendering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dclat import (
    EdgeColoredPoset,
    ParseError,
    ValidationError,
    boolean_lattice,
    build_J,
    cartesian_product,
    dual,
    random_poset,
)
from dclat import dcp
from dclat.dcp import emit, parse, parse_document, render_dot


class TestParse:
    def test_one_vertex_poset(self):
        p = parse("type vertex-poset\nvertex a color 1\n")
        assert p.vertices == ("a",) and p.colors == {"a": 1}

    def test_fig_poset_file(self, fig_poset, data_dir):
        assert len(fig_poset) == 6 and len(fig_poset.covers) == 6

    def test_comments_and_blank_lines(self):
        text = "# heading\n\ntype edge-lattice\nvertex a\nvertex b # trailing\nedge a b color 3\n"
        p = parse(text)
        assert set(p.covers) == {("a", "b", 3)}

    def test_missing_type(self):
        with pytest.raises(ParseError, match="type"):
            parse("vertex a color 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse("type mystery\n")

    def test_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse("type vertex-poset\nvortex a color 1\n")
        assert exc.value.line == 2

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse("type vertex-poset\nvertex a! color 1\n")

    def test_undeclared_edge_vertex_line(self):
        with pytest.raises(ValidationError) as exc:
            parse("type vertex-poset\nvertex a color 1\nedge a b\n")
        assert exc.value.line == 3

    def test_missing_vertex_color_in_poset(self):
        with pytest.raises(ValidationError):
            parse("type vertex-poset\nvertex a\n")

    def test_edge_color_in_poset_rejected(self):
        with pytest.raises(ValidationError):
            parse("type vertex-poset\nvertex a color 1\nvertex b color 1\nedge a b color 1\n")

    def test_missing_edge_color_in_lattice(self):
        with pytest.raises(ValidationError):
            parse("type edge-lattice\nvertex a\nvertex b\nedge a b\n")

    def test_decimal_digits_of_any_script_are_colors(self):
        # int() reads every Unicode decimal digit, so these parsed before superscripts were refused
        p = parse("type vertex-poset\nvertex a color \u0663\nvertex b color 1\u0661\n")
        assert p.colors == {"a": 3, "b": 11}

    def test_cycle_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse("type edge-lattice\nvertex a\nvertex b\nedge a b color 1\nedge b a color 1\n")


# (text, message, line, column) of every ParseError raise site in parse_document,
# recorded before the tokenizer stopped computing columns on the happy path
H = "type vertex-poset\n"
PARSE_ERRORS = [
    ('vertex a color 1\n', "line 1, col 1: expected 'type vertex-poset' or 'type edge-lattice'", 1, 1),
    ('  # lead\n\n\tvertex a\n', "line 3, col 2: expected 'type vertex-poset' or 'type edge-lattice'", 3, 2),
    ('type mystery\n', 'line 1, col 6: unknown structure kind (expected one of vertex-poset, edge-lattice)', 1, 6),
    ('type\n', 'line 1, col 1: unknown structure kind (expected one of vertex-poset, edge-lattice)', 1, 1),
    ('  type   vertex-poset extra\n', 'line 1, col 10: unknown structure kind (expected one of vertex-poset, edge-lattice)', 1, 10),
    ('type\tedge-lattice\n \ttype vertex-poset\n', "line 2, col 3: duplicate 'type' declaration", 2, 3),
    (H + 'vertex\n', "line 2, col 1: expected 'vertex NAME [color INT]'", 2, 1),
    (H + 'vertex a color\n', "line 2, col 1: expected 'vertex NAME [color INT]'", 2, 1),
    (H + '  vertex   a! color 1\n', "line 2, col 12: invalid name 'a!'", 2, 12),
    (H + 'vertex a colour 1\n', "line 2, col 10: expected 'color'", 2, 10),
    (H + 'vertex a\tcolor  -1\n', "line 2, col 17: color must be a non-negative integer, got '-1'", 2, 17),
    (H + 'vertex a color x1  # note\n', "line 2, col 16: color must be a non-negative integer, got 'x1'", 2, 16),
    (H + 'edge a\n', "line 2, col 1: expected 'edge NAME NAME [color INT]'", 2, 1),
    (H + 'edge a b color\n', "line 2, col 1: expected 'edge NAME NAME [color INT]'", 2, 1),
    (H + 'edge a? b\n', "line 2, col 6: invalid name 'a?'", 2, 6),
    (H + 'edge a \t b*\n', "line 2, col 10: invalid name 'b*'", 2, 10),
    (H + 'edge a b hue 2\n', "line 2, col 10: expected 'color'", 2, 10),
    (H + 'edge a b color 2.0\n', "line 2, col 16: color must be a non-negative integer, got '2.0'", 2, 16),
    (H + 'vertex a color \u00b2\n', "line 2, col 16: color must be a non-negative integer, got '\u00b2'", 2, 16),
    (H + '\t  vortex a color 1\n', "line 2, col 4: unknown declaration 'vortex'", 2, 4),
    (H + 'vertex a\x0bcolor 1\n', "line 3, col 1: unknown declaration 'color'", 3, 1),
    (H + '\x0c\nvertex\xa0a color 1\n', "line 4, col 1: unknown declaration 'vertex\\xa0a'", 4, 1),
    (H + 'edge a b\r\nvertex c! color 1\n', "line 3, col 8: invalid name 'c!'", 3, 8),
    ('', "line 1, col 1: empty document: missing 'type' line", 1, 1),
    ('# only a comment\n\n   \n', "line 1, col 1: empty document: missing 'type' line", 1, 1),
]


@pytest.mark.parametrize("text,message,line,col", PARSE_ERRORS)
def test_parse_error_sites_pinned(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert type(exc.value) is ParseError
    assert (str(exc.value), exc.value.line, exc.value.col) == (message, line, col)


# (text, message, line) of every ValidationError that parse raises once the
# text has tokenized: duplicate and undeclared vertices, both kinds' color
# rules, then the cover checks in their order (loop or duplicate cover in
# input order, cycle, transitive reduction).  The last two cases have three
# implied covers; the one named is the first in input order.
V = "type vertex-poset\n"
E = "type edge-lattice\n"
VALIDATION_ERRORS = [
    (E + "vertex a\nvertex b\nvertex a\n", "line 4: duplicate vertex 'a'", 4),
    (V + "vertex a color 1\nvertex a\nedge a z color 4\n", "line 3: duplicate vertex 'a'", 3),
    (E + "vertex a\nedge z a color 1\nvertex a\n", "line 4: duplicate vertex 'a'", 4),
    (E + "vertex a\nedge a z color 1\n", "line 3: edge references undeclared vertex 'z'", 3),
    (E + "vertex a\nedge y z color 1\n", "line 3: edge references undeclared vertex 'y'", 3),
    (V + "vertex a color 1\nvertex b color 2\nedge a b\nedge a q\n",
     "line 5: edge references undeclared vertex 'q'", 5),
    (V + "vertex a color 1\nvertex b\nedge a b color 1\n", "line 3: vertex 'b' needs a color in a vertex-poset", 3),
    (V + "vertex a color 1\nvertex b color 2\nedge a b color 1\n", "line 4: edges are uncolored in a vertex-poset", 4),
    (E + "vertex a\nvertex b color 2\nedge a b\n", "line 3: vertices are uncolored in an edge-lattice", 3),
    (E + "vertex a\nvertex b\nedge a b\n", "line 4: edge 'a' -> 'b' needs a color in an edge-lattice", 4),
    (E + "vertex a\nvertex b\nedge a b color 1\nedge b b\n",
     "line 5: edge 'b' -> 'b' needs a color in an edge-lattice", 5),
    (E + "vertex a\nvertex b\nedge a b color 1\nedge b b color 1\n", "loop edge on 'b'", None),
    (V + "vertex a color 1\nvertex b color 1\nedge a b\nedge b b\nedge a b\n", "loop edge on 'b'", None),
    (E + "vertex a\nvertex b\nedge a b color 1\nedge a b color 2\nedge b b color 1\n",
     "duplicate cover 'a' -> 'b'", None),
    (V + "vertex a color 1\nvertex b color 1\nedge a b\nedge a b\n", "duplicate cover 'a' -> 'b'", None),
    (E + "vertex a\nvertex b\nvertex c\nedge a b color 1\nedge b c color 1\nedge c a color 1\n",
     "cover relation contains a cycle", None),
    (V + "vertex a color 1\nvertex b color 1\nvertex c color 1\nedge a b\nedge b c\nedge a c\nedge c b\n",
     "cover relation contains a cycle", None),
    (E + "vertex a\nvertex b\nvertex c\nedge a b color 1\nedge b c color 1\nedge a c color 1\n",
     "cover 'a' -> 'c' is implied by a longer chain (edge set is not transitively reduced)", None),
    (V + "vertex a color 1\nvertex b color 1\nvertex c color 1\nvertex d color 1\n"
     "edge c d\nedge b d\nedge a d\nedge a b\nedge b c\nedge a c\n",
     "cover 'b' -> 'd' is implied by a longer chain (edge set is not transitively reduced)", None),
    (E + "vertex a\nvertex b\nvertex c\nvertex d\nedge c d color 1\nedge b d color 1\nedge a d color 1\n"
     "edge a b color 1\nedge b c color 1\nedge a c color 1\n",
     "cover 'b' -> 'd' is implied by a longer chain (edge set is not transitively reduced)", None),
]


@pytest.mark.parametrize("text,message,line", VALIDATION_ERRORS)
def test_validation_error_sites_pinned(text, message, line):
    with pytest.raises(ValidationError) as exc:
        parse(text)
    assert type(exc.value) is ValidationError
    assert (str(exc.value), exc.value.line) == (message, line)


def _respell(text: str, rng: random.Random) -> str:
    """The same declarations with tabs, extra spaces, comments, blank lines and CRLF endings."""
    out = []
    for line in text.splitlines():
        words = line.split(" ")
        gaps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in words[1:]] + [""]
        spelled = rng.choice(("", " ", "\t")) + "".join(w + g for w, g in zip(words, gaps))
        if rng.random() < 0.3:
            spelled += rng.choice((" ", "\t")) + "# note " + rng.choice(("", "edge a b", "#"))
        elif rng.random() < 0.2:
            spelled += rng.choice((" ", "\t", "  "))
        out.append(spelled)
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# comment", "\t# vertex x")))
    return rng.choice(("\n", "\r\n")).join(out) + rng.choice(("", "\n", "\r\n"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_non_canonical_spellings_parse_alike(seed, lattice):
    rng = random.Random(seed)
    P = random_poset(rng.randint(0, 7), rng.uniform(0.1, 0.8), seed)
    text = emit(build_J(P).lattice if lattice else P)
    assert parse(_respell(text, rng)) == parse(text)


class TestEmit:
    def test_round_trip_golden_files(self, data_dir):
        for name in ("fig1P.dcp", "fig1L.dcp", "fig5Q.dcp", "m3.dcp", "n5.dcp"):
            text = (data_dir / name).read_text()
            structure = parse(text)
            assert parse(emit(structure)) == structure
            assert emit(parse(emit(structure))) == emit(structure)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_random(self, seed):
        p = random_poset(6, 0.4, seed)
        assert parse(emit(p)) == p

    def test_product_labels_are_sanitized(self):
        a = EdgeColoredPoset(["x0", "x1"], [("x0", "x1", 1)])
        prod = cartesian_product(a, a)
        text = emit(prod)
        out = parse(text)
        assert len(out) == 4 and parse(emit(out)) == out

    def test_sanitized_label_collision_gets_a_suffix(self):
        p = EdgeColoredPoset(["x.y", "(x,y)"], [("x.y", "(x,y)", 1)])
        text = emit(p)
        assert "vertex x.y\n" in text and "vertex x.y_2\n" in text
        assert parse(text) == p.relabel({"x.y": "x.y", "(x,y)": "x.y_2"})

    def test_dual_labels_are_sanitized(self, fig_lattice):
        text = emit(dual(fig_lattice))
        assert parse(text) is not None


class TestRenderDot:
    def test_b2_render_counts(self):
        dot = render_dot(boolean_lattice(2))
        assert dot.count("->") == 4
        assert dot.count("[label=") >= 8  # 4 nodes + 4 edges

    def test_rank_groups_present(self, fig_lattice):
        dot = render_dot(fig_lattice)
        assert dot.count("rank=same") == 7  # levels 0..6

    def test_deterministic(self, fig_poset, fig_lattice):
        assert render_dot(fig_poset) == render_dot(fig_poset)
        assert render_dot(fig_lattice) == render_dot(fig_lattice)

    def test_fault_in_rank_computation_propagates(self, fig_lattice, monkeypatch):
        def broken(structure):
            raise RuntimeError("rank fault")

        monkeypatch.setattr(dcp, "compute_rank", broken)
        with pytest.raises(RuntimeError, match="rank fault"):
            render_dot(fig_lattice)
