"""RDF terms, quads, quad patterns, and an N-Quads-subset parser.

All types here are immutable values; they can be shared freely between
threads. The parser supports one statement per line: ``<iri>`` terms,
``"..."`` literals with ``\\"``, ``\\\\`` and ``\\n`` escapes plus an
optional ``@lang`` or ``^^<iri>`` suffix, ``_:label`` blank nodes, an
optional fourth graph term, and a terminating ``.``. That grammar lives
in one token pattern, ``_TOKEN``, modelled on the W3C RDF 1.1 N-Quads
Recommendation; ``_term`` turns each match into a term or a ``ParseError``,
and ``Quad`` itself enforces which kind of term may stand where.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

# Files without a named graph get this sentinel so every quad always has
# four concrete components to summarize.
DEFAULT_GRAPH_IRI = "urn:podfed:default-graph"

COMPONENTS = ("subject", "predicate", "object", "graph")

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

# Matches exactly the characters for which str.isspace() is true.
_WHITESPACE = re.compile(r"\s")


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
            if not self.value or _WHITESPACE.search(self.value):
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
            raise ValueError("graph term must be an IRI")

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

# One token per match: blanks, then a '.', an IRI, a literal, a blank node or
# any other character. Each term alternative also matches the malformed
# shapes of that term, so the match alone says which rule a statement broke.
# Every run is possessive (*+) and what follows it covers every character that
# can stop it, or the line end, so no alternative backtracks once its first
# character matched. Time stays linear, and no backtracking state is kept per
# escape: with a plain * that state costs about 130 bytes per escape.
_TOKEN = re.compile(
    r'''
    [ \t]*+                                 # blanks are skipped before a token only
    (?:
        (?P<dot>\.)
      | (?P<iri><[^>\s]*+(?:>|\s|))          # '<', body, then '>', whitespace or the line end
      | "(?P<literal>[^"\\]*+(?:\\["\\n][^"\\]*+)*+)
        (?P<literal_end>"|\\.?|)            # closing quote, a bad escape or the line end
        (?:@(?P<language>[A-Za-z0-9-]*+)
          |\^\^(?P<datatype><[^>\s]*+(?:>|\s|)|)
        )?
      | _(?::(?P<blank>[A-Za-z0-9_]*+))?
      | (?P<other>[^ \t])                   # any other character, never a blank
    )
    ''',
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = {'"': '"', "\\": "\\", "n": "\n"}


def _iri_value(token: str, line: int) -> str:
    """The IRI inside an ``iri`` or ``datatype`` match: its last character
    is the '>' that closed it, the whitespace that broke it, or its body's."""
    end = token[-1]
    if end == ">":
        if len(token) == 2:
            raise ParseError("empty IRI", line)
        return token[1:-1]
    raise ParseError("whitespace inside IRI" if end.isspace() else "unterminated IRI", line)


def _term(m: re.Match, line: int, blank_labels: dict[str, str]) -> Term:
    """Turn one non-'.' token into a term, or raise the rule it broke."""
    if m["iri"] is not None:
        return iri(_iri_value(m["iri"], line))
    if m["literal"] is not None:
        end = m["literal_end"]
        if end != '"':
            raise ParseError(f"unsupported escape: {end}" if end else "unterminated literal", line)
        value = m["literal"]
        if "\\" in value:
            value = _ESCAPE.sub(lambda e: _UNESCAPES[e[1]], value)
        if m["language"] is not None:
            if not m["language"]:
                raise ParseError("empty language tag", line)
            return literal(value, language=m["language"])
        if m["datatype"] is not None:
            if not m["datatype"]:
                raise ParseError("datatype must be an IRI", line)
            return literal(value, datatype=_iri_value(m["datatype"], line))
        return literal(value)
    if m["other"] is not None:
        raise ParseError(f"unexpected character {m['other']!r}", line)
    label = m["blank"]
    if label is None:
        raise ParseError("expected ':' after '_' in blank node", line)
    if not label:
        raise ParseError("empty blank node label", line)
    return blank(blank_labels.setdefault(label, f"b{len(blank_labels)}"))


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
        terms: list[Term] = []
        pos = 0
        while (m := _TOKEN.match(raw, pos)) is not None and m["dot"] is None:
            if len(terms) == 4:
                raise ParseError("too many terms in statement", line_no)
            terms.append(_term(m, line_no, blank_labels))
            pos = m.end()
        if m is None:
            raise ParseError("statement not terminated by '.'", line_no)
        if raw[m.end():].strip(" \t"):
            raise ParseError("unexpected content after '.'", line_no)
        if len(terms) < 3:
            raise ParseError("statement needs subject, predicate and object", line_no)
        try:
            quads.append(Quad(*terms))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    return quads
