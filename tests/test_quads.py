import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podfed.quads import (
    DEFAULT_GRAPH,
    ParseError,
    Quad,
    QuadPattern,
    Term,
    Variable,
    blank,
    canonical_text,
    iri,
    literal,
    parse_quads,
    pattern_matches,
    serialize_quad,
    serialize_quads,
)


def q(s, p, o, g=None):
    return Quad(s, p, o, g) if g is not None else Quad(s, p, o)


class TestTerm:
    def test_iri_must_be_nonempty_without_whitespace(self):
        with pytest.raises(ValueError):
            iri("")
        with pytest.raises(ValueError):
            iri("urn:has space")

    def test_datatype_and_language_are_exclusive(self):
        with pytest.raises(ValueError):
            literal("x", datatype="urn:dt", language="en")

    def test_datatype_only_on_literals(self):
        with pytest.raises(ValueError):
            Term("iri", "urn:x", datatype="urn:dt")

    def test_canonical_forms_are_distinct(self):
        forms = {
            canonical_text(iri("a:b")),
            canonical_text(literal("a:b")),
            canonical_text(blank("b0")),
            canonical_text(literal("a:b", language="en")),
            canonical_text(literal("a:b", datatype="urn:dt")),
        }
        assert len(forms) == 5

    def test_literal_escaping_round_trips(self):
        value = 'He said "hi"\nback\\slash'
        [quad] = parse_quads(serialize_quad(q(iri("urn:s"), iri("urn:p"), literal(value))) + "\n")
        assert quad.object.value == value


class TestQuadModel:
    def test_graph_defaults_to_sentinel(self):
        assert q(iri("urn:s"), iri("urn:p"), iri("urn:o")).graph == DEFAULT_GRAPH

    def test_subject_literal_rejected(self):
        with pytest.raises(ValueError):
            Quad(literal("s"), iri("urn:p"), iri("urn:o"))

    def test_predicate_must_be_iri(self):
        with pytest.raises(ValueError):
            Quad(iri("urn:s"), blank("p"), iri("urn:o"))

    def test_graph_must_be_iri(self):
        with pytest.raises(ValueError, match="graph term must be an IRI"):
            Quad(iri("urn:s"), iri("urn:p"), iri("urn:o"), literal("g"))

    def test_component_access(self):
        quad = q(iri("urn:s"), iri("urn:p"), literal("o"))
        assert quad.component("subject") == iri("urn:s")
        assert quad.component("graph") == DEFAULT_GRAPH


class TestPatternMatching:
    pattern = QuadPattern(Variable("s"), iri("urn:p"), Variable("o"), Variable("g"))

    def test_ground_position_must_equal(self):
        assert pattern_matches(self.pattern, q(iri("urn:a"), iri("urn:p"), literal("x")))
        assert not pattern_matches(self.pattern, q(iri("urn:a"), iri("urn:q"), literal("x")))

    def test_repeated_variables_must_bind_equal_terms(self):
        p = QuadPattern(Variable("x"), iri("urn:p"), Variable("x"), Variable("g"))
        assert pattern_matches(p, q(iri("urn:a"), iri("urn:p"), iri("urn:a")))
        assert not pattern_matches(p, q(iri("urn:a"), iri("urn:p"), iri("urn:b")))

    def test_ground_components_in_quad_order(self):
        p = QuadPattern(Variable("s"), iri("urn:p"), literal("x"), Variable("g"))
        assert p.ground_components() == [("predicate", iri("urn:p")), ("object", literal("x"))]
        assert not p.is_all_variable

    def test_all_variable(self):
        p = QuadPattern(Variable("a"), Variable("b"), Variable("c"), Variable("d"))
        assert p.is_all_variable

    def test_literal_object_pattern(self):
        p = QuadPattern(Variable("s"), Variable("p"), literal("Bob"), Variable("g"))
        assert pattern_matches(p, q(iri("urn:b"), iri("urn:name"), literal("Bob")))
        assert not pattern_matches(p, q(iri("urn:b"), iri("urn:name"), iri("urn:Bob")))


class TestParser:
    def test_round_trip(self):
        quads = [
            q(iri("urn:s"), iri("urn:p"), iri("urn:o")),
            q(iri("urn:s"), iri("urn:p"), literal("plain text with spaces")),
            q(blank("b0"), iri("urn:p"), literal("tagged", language="en-GB")),
            q(iri("urn:s"), iri("urn:p"), literal("5", datatype="urn:int"), iri("urn:g")),
        ]
        assert parse_quads(serialize_quads(quads)) == quads

    def test_three_terms_get_default_graph(self):
        [quad] = parse_quads("<urn:s> <urn:p> <urn:o> .")
        assert quad.graph == DEFAULT_GRAPH
        # and the graph is omitted again on output
        assert serialize_quad(quad) == "<urn:s> <urn:p> <urn:o> ."

    def test_named_graph(self):
        [quad] = parse_quads("<urn:s> <urn:p> <urn:o> <urn:g> .")
        assert quad.graph == iri("urn:g")

    def test_comments_and_blank_lines_skipped(self):
        text = "\n# comment\n<urn:s> <urn:p> <urn:o> .\n\n"
        assert len(parse_quads(text)) == 1

    def test_blank_labels_renamed_in_first_occurrence_order(self):
        text = "_:zz <urn:p> _:aa .\n_:aa <urn:p> _:zz ."
        quads = parse_quads(text)
        assert quads[0].subject == blank("b0")
        assert quads[0].object == blank("b1")
        # the same document keeps labels consistent
        assert quads[1].subject == blank("b1")
        assert quads[1].object == blank("b0")

    def test_blank_labels_are_document_scoped(self):
        first = parse_quads("_:x <urn:p> <urn:o> .")
        second = parse_quads("_:y <urn:p> <urn:o> .")
        assert first[0].subject == second[0].subject == blank("b0")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("<urn:s> <urn:p> <urn:o>", "not terminated"),
            ('"lit" <urn:p> <urn:o> .', "literal not allowed in subject"),
            ('<urn:s> "p" <urn:o> .', "predicate must be an IRI"),
            ('<urn:s> <urn:p> <urn:o> "g" .', "graph term must be an IRI"),
            ("<urn:s> <urn:p> <urn:o> <urn:g> <urn:x> .", "too many terms"),
            ('<urn:s> <urn:p> "bad\\tescape" .', "unsupported escape"),
            ("<urn:s> <urn:p> <urn:o> . trailing", "after '.'"),
            ("<urn:s> <urn:p> .", "needs subject, predicate and object"),
            ("<urn:s> <urn:p> <urn:o", "unterminated IRI"),
            ('<urn:s> <urn:p> "open .', "unterminated literal"),
            ("<urn:s> <urn has space> <urn:o> .", "whitespace inside IRI"),
            ("<> <urn:p> <urn:o> .", "empty IRI"),
            ("<urn:s> <urn:p> _: .", "empty blank node label"),
            ("<urn:s> <urn:p> @x .", "unexpected character"),
            ("<urn:s> <urn:p> <urn:o>  ", "not terminated"),
            ("<urn:s> <urn:p> <urn:o> <urn:g> \t", "not terminated"),
            ('<urn:s> <urn:p> "x\\', "unsupported escape"),
            ('<urn:s> <urn:p> "x"@ .', "empty language tag"),
            ('<urn:s> <urn:p> "x"^^ <urn:t> .', "datatype must be an IRI"),
            ('<urn:s> <urn:p> "x"^^"t" .', "datatype must be an IRI"),
            ('<urn:s> <urn:p> "x"^^<urn t> .', "whitespace inside IRI"),
            ('<urn:s> <urn:p> "x"^^<urn:t', "unterminated IRI"),
            ("<urn:s> <urn:p> _", "expected ':'"),
            ('<urn:s> <urn:p> "x"^ .', "unexpected character '\\^'"),
            ('<urn:s> <urn:p> "x"@en@ .', "unexpected character '@'"),
            ("\x0c<urn:s> <urn:p> <urn:o> .", "unexpected character"),
        ],
    )
    def test_rejects_malformed_statements(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_quads(text)

    def test_terms_need_no_blanks_between_them(self):
        [quad] = parse_quads('<urn:s><urn:p>"x"@en<urn:g>.')
        assert quad == q(iri("urn:s"), iri("urn:p"), literal("x", language="en"), iri("urn:g"))
        assert parse_quads("<urn:s><urn:p><urn:o>.") == [q(iri("urn:s"), iri("urn:p"), iri("urn:o"))]

    def test_long_terms(self):
        n = 10**5
        escapes = "\\\\" * n + "\\n"
        text = f'<urn:{"i" * n}> <urn:p> "{"x" * n}" .\n<urn:s> <urn:p> "{escapes}" .'
        first, second = parse_quads(text)
        assert first.subject == iri("urn:" + "i" * n)
        assert first.object == literal("x" * n)
        assert second.object == literal("\\" * n + "\n")

    def test_error_carries_line_number(self):
        text = "<urn:s> <urn:p> <urn:o> .\n\n<urn:s> <urn:p>"
        with pytest.raises(ParseError) as err:
            parse_quads(text)
        assert err.value.line == 3
        assert "line 3" in str(err.value)


class TestLineBreaks:
    def test_raw_unicode_line_separator_inside_literal(self):
        [quad] = parse_quads('<urn:s> <urn:p> "c\u2028x" .')
        assert quad.object == literal("c\u2028x")

    @pytest.mark.parametrize(
        "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2029"]
    )
    def test_literal_with_other_line_breaks_round_trips(self, brk):
        quads = [q(iri("urn:s"), iri("urn:p"), literal(f"a{brk}b{brk}"))]
        assert parse_quads(serialize_quads(quads)) == quads

    def test_crlf_files_are_accepted(self):
        text = "<urn:s> <urn:p> <urn:o> .\r\n\r\n# c\r\n<urn:s> <urn:p> <urn:o2> .\r\n<urn:s>"
        with pytest.raises(ParseError) as err:
            parse_quads(text)
        assert err.value.line == 5
        assert len(parse_quads(text.removesuffix("<urn:s>"))) == 2


IRIS = st.sampled_from(["urn:s", "urn:p", "urn:g", "https://x.org/a#b"]).map(iri)
LITERALS = st.builds(
    literal,
    st.text(),
    language=st.none() | st.sampled_from(["en", "en-GB"]),
) | st.builds(literal, st.text(), datatype=st.sampled_from(["urn:int", "urn:t"]))
QUADS = st.builds(Quad, IRIS, IRIS, IRIS | LITERALS, IRIS | st.just(DEFAULT_GRAPH))
NQUADS_CHARS = st.sampled_from(list('<>"\\_:.@^# \t\n\rabn') + ["\u2028", "\x85", "\x0c"])


@st.composite
def damaged_documents(draw):
    """A valid serialization with a few N-Quads characters spliced in."""
    text = serialize_quads(draw(st.lists(QUADS, min_size=1, max_size=3)))
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    return text[:at] + draw(st.text(NQUADS_CHARS, max_size=3)) + text[at + cut:]


class TestParserProperties:
    @settings(deadline=None)
    @given(st.lists(QUADS, max_size=5))
    def test_serialize_then_parse_is_identity(self, quads):
        assert parse_quads(serialize_quads(quads)) == quads

    @settings(deadline=None)
    @given(st.text(NQUADS_CHARS) | st.text() | damaged_documents())
    def test_arbitrary_input_raises_only_parse_error(self, text):
        try:
            quads = parse_quads(text)
        except ParseError:
            return
        assert all(isinstance(quad, Quad) for quad in quads)
