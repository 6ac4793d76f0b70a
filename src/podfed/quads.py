"""RDF terms, quads, quad patterns, and an N-Quads-subset parser.

All types here are immutable values; they can be shared freely between
threads. The parser supports one statement per line: ``<iri>`` terms,
``"..."`` literals with ``\\"``, ``\\\\`` and ``\\n`` escapes plus an
optional ``@lang`` or ``^^<iri>`` suffix, ``_:label`` blank nodes, an
optional fourth graph term, and a terminating ``.``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# Files without a named graph get this sentinel so every quad always has
# four concrete components to summarize.
DEFAULT_GRAPH_IRI = "urn:podfed:default-graph"

COMPONENTS = ("subject", "predicate", "object", "graph")

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"


class ParseError(ValueError):
    """Syntax error in quad data, with the 1-based line it occurred on."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Term:
    """A single RDF term: IRI, literal, or blank node."""

    kind: str
    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self):
        if self.kind not in (IRI, LITERAL, BLANK):
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind == IRI:
            if not self.value or any(c.isspace() for c in self.value):
                raise ValueError(f"invalid IRI: {self.value!r}")
        if self.kind != LITERAL and (self.datatype or self.language):
            raise ValueError("datatype/language only allowed on literals")
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal may carry a datatype or a language tag, not both")

    def __str__(self) -> str:
        return canonical_text(self)


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(value: str, datatype: str | None = None, language: str | None = None) -> Term:
    return Term(LITERAL, value, datatype=datatype, language=language)


def blank(label: str) -> Term:
    return Term(BLANK, label)


DEFAULT_GRAPH = iri(DEFAULT_GRAPH_IRI)


@dataclass(frozen=True)
class Quad:
    """One RDF statement; ``graph`` is the default-graph sentinel when unnamed."""

    subject: Term
    predicate: Term
    object: Term
    graph: Term = DEFAULT_GRAPH

    def __post_init__(self):
        if self.subject.kind == LITERAL:
            raise ValueError("literal not allowed in subject position")
        if self.predicate.kind != IRI:
            raise ValueError("predicate must be an IRI")
        if self.graph.kind != IRI:
            raise ValueError("graph must be an IRI")

    def component(self, name: str) -> Term:
        return getattr(self, name)

    def __str__(self) -> str:
        return serialize_quad(self)


@dataclass(frozen=True)
class Variable:
    """Named placeholder in a quad pattern."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class QuadPattern:
    """A quad with any position replaced by a variable; the unit of querying."""

    subject: Term | Variable
    predicate: Term | Variable
    object: Term | Variable
    graph: Term | Variable

    def component(self, name: str) -> Term | Variable:
        return getattr(self, name)

    def ground_components(self) -> list[tuple[str, Term]]:
        """(component name, term) for every non-variable position, in quad order."""
        return [
            (name, pos)
            for name in COMPONENTS
            if not isinstance(pos := self.component(name), Variable)
        ]

    @property
    def is_all_variable(self) -> bool:
        return not self.ground_components()

    def __str__(self) -> str:
        return " ".join(str(self.component(name)) for name in COMPONENTS)


def pattern_matches(pattern: QuadPattern, quad: Quad) -> bool:
    """True iff every ground position equals the quad's component and repeated
    variable names bind to equal components."""
    bindings: dict[str, Term] = {}
    for name in COMPONENTS:
        pos = pattern.component(name)
        term = quad.component(name)
        if isinstance(pos, Variable):
            bound = bindings.setdefault(pos.name, term)
            if bound != term:
                return False
        elif pos != term:
            return False
    return True


# --- canonical serialization -------------------------------------------------

_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_literal(value: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(c, c) for c in value)


def canonical_text(term: Term) -> str:
    if term.kind == IRI:
        return f"<{term.value}>"
    if term.kind == BLANK:
        return f"_:{term.value}"
    body = f'"{_escape_literal(term.value)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype is not None:
        return f"{body}^^<{term.datatype}>"
    return body


def canonical_bytes(term: Term) -> bytes:
    """UTF-8 N-Triples form of the term; injective over valid terms."""
    return canonical_text(term).encode("utf-8")


def serialize_quad(quad: Quad) -> str:
    parts = [canonical_text(quad.subject), canonical_text(quad.predicate), canonical_text(quad.object)]
    if quad.graph != DEFAULT_GRAPH:
        parts.append(canonical_text(quad.graph))
    return " ".join(parts) + " ."


def serialize_quads(quads: Iterable[Quad]) -> str:
    return "".join(serialize_quad(q) + "\n" for q in quads)


# --- N-Quads-subset parser ---------------------------------------------------


@dataclass
class _Scanner:
    text: str
    line: int
    pos: int = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


_UNESCAPES = {'"': '"', "\\": "\\", "n": "\n"}
_BLANK_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_LANG_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-")


def _read_iri(s: _Scanner) -> str:
    assert s.take() == "<"
    start = s.pos
    while not s.at_end() and s.peek() != ">":
        if s.peek().isspace():
            raise s.error("whitespace inside IRI")
        s.pos += 1
    if s.at_end():
        raise s.error("unterminated IRI")
    value = s.text[start : s.pos]
    s.pos += 1
    if not value:
        raise s.error("empty IRI")
    return value


def _read_literal(s: _Scanner) -> Term:
    assert s.take() == '"'
    chars: list[str] = []
    while True:
        if s.at_end():
            raise s.error("unterminated literal")
        c = s.take()
        if c == '"':
            break
        if c == "\\":
            esc = s.take()
            if esc not in _UNESCAPES:
                raise s.error(f"unsupported escape: \\{esc}")
            chars.append(_UNESCAPES[esc])
        else:
            chars.append(c)
    value = "".join(chars)
    if s.peek() == "@":
        s.take()
        start = s.pos
        while not s.at_end() and s.peek() in _LANG_CHARS:
            s.pos += 1
        tag = s.text[start : s.pos]
        if not tag:
            raise s.error("empty language tag")
        return literal(value, language=tag)
    if s.text.startswith("^^", s.pos):
        s.pos += 2
        if s.peek() != "<":
            raise s.error("datatype must be an IRI")
        return literal(value, datatype=_read_iri(s))
    return literal(value)


def _read_blank_label(s: _Scanner) -> str:
    assert s.take() == "_"
    if s.take() != ":":
        raise s.error("expected ':' after '_' in blank node")
    start = s.pos
    while not s.at_end() and s.peek() in _BLANK_LABEL_CHARS:
        s.pos += 1
    label = s.text[start : s.pos]
    if not label:
        raise s.error("empty blank node label")
    return label


def _read_term(s: _Scanner, blank_labels: dict[str, str]) -> Term:
    c = s.peek()
    if c == "<":
        return iri(_read_iri(s))
    if c == '"':
        return _read_literal(s)
    if c == "_":
        label = _read_blank_label(s)
        renamed = blank_labels.setdefault(label, f"b{len(blank_labels)}")
        return blank(renamed)
    if c == "":
        raise s.error("unexpected end of statement")
    raise s.error(f"unexpected character {c!r}")


def parse_quads(text: str) -> list[Quad]:
    """Parse the supported N-Quads subset into quads, in file order.

    Blank-node labels are document-scoped and renamed to ``_:b0, _:b1, ...``
    in first-occurrence order so the output is stable across reloads. Blank
    lines and ``#`` comment lines are skipped. Statements end only at
    ``\\n`` (or ``\\r\\n``); any other line-break character, such as a raw
    ``\\r`` or U+2028, is an ordinary character inside a literal.
    """
    quads: list[Quad] = []
    blank_labels: dict[str, str] = {}
    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        s = _Scanner(raw, line_no)
        terms: list[Term] = []
        while True:
            s.skip_ws()
            if s.peek() == ".":
                s.take()
                break
            if s.at_end():
                raise s.error("statement not terminated by '.'")
            if len(terms) == 4:
                raise s.error("too many terms in statement")
            terms.append(_read_term(s, blank_labels))
        s.skip_ws()
        if not s.at_end():
            raise s.error("unexpected content after '.'")
        if len(terms) < 3:
            raise s.error("statement needs subject, predicate and object")
        subject, predicate, obj = terms[0], terms[1], terms[2]
        graph = terms[3] if len(terms) == 4 else DEFAULT_GRAPH
        if subject.kind == LITERAL:
            raise s.error("literal not allowed in subject position")
        if predicate.kind != IRI:
            raise s.error("predicate must be an IRI")
        if graph.kind != IRI:
            raise s.error("graph term must be an IRI")
        quads.append(Quad(subject, predicate, obj, graph))
    return quads
