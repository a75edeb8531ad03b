"""A small datalog-style parser for self-join-free conjunctive queries.

Grammar (whitespace-insensitive)::

    query   := NAME "(" terms? ")" (":-" | "<-") atoms
    atoms   := atom ("," atom)*
    atom    := NAME "(" terms? ")"
    terms   := term ("," term)*
    term    := VARIABLE | CONSTANT
    VARIABLE: an identifier starting with a lowercase letter (e.g. ``x``,
              ``x1``, ``y_2``)
    CONSTANT: a single- or double-quoted string, or an integer literal, or an
              identifier starting with an uppercase letter inside an atom
              *body* position is NOT treated as a constant — relation names
              are uppercase by convention but terms must be quoted/numeric to
              be constants.

Examples
--------
>>> q = parse_query("q(z) :- R(z,x), S(x,y), T(y)")
>>> sorted(v.name for v in q.head)
['z']
>>> q2 = parse_query("q() :- R1('a', x1), R2(x2), R0(x1, x2)")
>>> q2.is_boolean()
True
"""

from __future__ import annotations

import functools
import re

from .atoms import Atom
from .query import ConjunctiveQuery
from .symbols import Constant, Term, Variable

__all__ = ["parse_query", "parse_atom", "QueryParseError"]


class QueryParseError(ValueError):
    """Raised when a query string cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW>:-|<-)
  | (?P<LP>\()
  | (?P<RP>\))
  | (?P<COMMA>,)
  | (?P<STRING>'[^']*'|"[^"]*")
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QueryParseError(
                f"unexpected character {text[pos]!r} at position {pos} in {text!r}"
            )
        kind = m.lastgroup
        assert kind is not None
        if kind != "WS":
            tokens.append((kind, m.group()))
        pos = m.end()
    tokens.append(("EOF", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.i]

    def take(self, kind: str) -> str:
        actual_kind, value = self.tokens[self.i]
        if actual_kind != kind:
            raise QueryParseError(
                f"expected {kind} but found {actual_kind} ({value!r}) "
                f"in {self.text!r}"
            )
        self.i += 1
        return value

    def parse_term(self) -> Term:
        kind, value = self.peek()
        if kind == "STRING":
            self.take("STRING")
            return Constant(value[1:-1])
        if kind == "NUMBER":
            self.take("NUMBER")
            if "." in value:
                return Constant(float(value))
            return Constant(int(value))
        if kind == "IDENT":
            self.take("IDENT")
            return Variable(value)
        raise QueryParseError(f"expected a term, found {value!r} in {self.text!r}")

    def parse_term_list(self) -> list[Term]:
        terms: list[Term] = []
        if self.peek()[0] == "RP":
            return terms
        terms.append(self.parse_term())
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            terms.append(self.parse_term())
        return terms

    def parse_atom(self) -> Atom:
        name = self.take("IDENT")
        self.take("LP")
        terms = self.parse_term_list()
        self.take("RP")
        return Atom(name, terms)

    def parse_query(self) -> ConjunctiveQuery:
        name = self.take("IDENT")
        self.take("LP")
        head_terms = self.parse_term_list()
        self.take("RP")
        self.take("ARROW")
        atoms = [self.parse_atom()]
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            atoms.append(self.parse_atom())
        self.take("EOF")
        head_vars = []
        for t in head_terms:
            if not isinstance(t, Variable):
                raise QueryParseError(
                    f"head terms must be variables, found {t!r} in {self.text!r}"
                )
            head_vars.append(t)
        return ConjunctiveQuery(atoms, head_vars, name=name)


#: How many distinct query texts :func:`parse_query` remembers.
_PARSE_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a query string such as ``"q(z) :- R(z,x), S(x,y), T(y)"``.

    Parses are memoised per text (LRU, :data:`_PARSE_MEMO_SIZE` texts,
    thread-safe): a repeated text returns the *same* immutable
    :class:`~repro.core.query.ConjunctiveQuery`, canonical scan
    included, so a repeat pays neither the parse nor the scan. A text
    that fails to parse raises :class:`QueryParseError` on every call.
    """
    return _Parser(text).parse_query()


def parse_atom(text: str) -> Atom:
    """Parse a single atom such as ``"R('a', x)"``."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    parser.take("EOF")
    return atom
