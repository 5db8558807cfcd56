"""DCP parsing, canonical emission, diagnostics, and DOT rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dclat import (
    EdgeColoredPoset,
    ParseError,
    ValidationError,
    boolean_lattice,
    cartesian_product,
    dual,
    random_poset,
)
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
