"""Unit tests for repro.core.parser."""

import sys
import threading

import pytest

import repro.core.parser as parser_module
from repro.core import Constant, QueryParseError, Variable, parse_atom, parse_query


class TestQueries:
    def test_simple(self):
        q = parse_query("q(z) :- R(z,x), S(x,y), T(y)")
        assert len(q.atoms) == 3
        assert q.head == {Variable("z")}

    def test_boolean(self):
        q = parse_query("q() :- R(x)")
        assert q.is_boolean()

    def test_alternative_arrow(self):
        q = parse_query("q(x) <- R(x)")
        assert q.head == {Variable("x")}

    def test_whitespace_insensitive(self):
        q1 = parse_query("q(x):-R(x,y),S(y)")
        q2 = parse_query("q( x )  :-  R( x , y ) , S( y )")
        assert q1 == q2

    def test_name_preserved(self):
        assert parse_query("myQuery(x) :- R(x)").name == "myQuery"

    def test_zero_arity_atom(self):
        q = parse_query("q() :- R()")
        assert q.atoms[0].arity == 0


class TestConstants:
    def test_single_quoted_string(self):
        q = parse_query("q() :- R('a', x)")
        assert q.atoms[0].terms[0] == Constant("a")

    def test_double_quoted_string(self):
        q = parse_query('q() :- R("hello world", x)')
        assert q.atoms[0].terms[0] == Constant("hello world")

    def test_integer(self):
        q = parse_query("q() :- R(42, x)")
        assert q.atoms[0].terms[0] == Constant(42)

    def test_negative_integer(self):
        q = parse_query("q() :- R(-3)")
        assert q.atoms[0].terms[0] == Constant(-3)

    def test_float(self):
        q = parse_query("q() :- R(2.5)")
        assert q.atoms[0].terms[0] == Constant(2.5)


class TestErrors:
    def test_missing_arrow(self):
        with pytest.raises(QueryParseError):
            parse_query("q(x) R(x)")

    def test_constant_in_head(self):
        with pytest.raises(QueryParseError, match="head terms"):
            parse_query("q('a') :- R('a', x)")

    def test_trailing_garbage(self):
        with pytest.raises(QueryParseError):
            parse_query("q(x) :- R(x) extra")

    def test_unclosed_paren(self):
        with pytest.raises(QueryParseError):
            parse_query("q(x :- R(x)")

    def test_bad_character(self):
        with pytest.raises(QueryParseError):
            parse_query("q(x) :- R(x) & S(x)")

    def test_self_join_raises(self):
        with pytest.raises(ValueError, match="self-join"):
            parse_query("q() :- R(x), R(y)")


class TestAtoms:
    def test_parse_atom(self):
        a = parse_atom("S(x, y)")
        assert a.relation == "S"
        assert a.own_variables == {Variable("x"), Variable("y")}

    def test_parse_atom_rejects_trailing(self):
        with pytest.raises(QueryParseError):
            parse_atom("S(x), T(y)")


class TestParseMemo:
    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts handed to the parser proper (memo misses)."""
        texts = []
        original = parser_module._Parser

        def counting(text):
            texts.append(text)
            return original(text)

        monkeypatch.setattr(parser_module, "_Parser", counting)
        return texts

    def test_a_repeated_text_is_the_same_query(self, parses):
        text = "memo(z) :- MemoR(z,x), MemoS(x,'c')"
        first = parse_query(text)
        assert parse_query(text) is first
        assert parses == [text]

    def test_a_bad_text_raises_on_every_call(self, parses):
        text = "memo(x) :- MemoR(x) & MemoS(x)"
        for _ in range(3):
            with pytest.raises(QueryParseError):
                parse_query(text)
        assert parses == [text] * 3  # failures are never remembered

    def test_the_bound_evicts_the_least_recent_text(self, parses):
        bound = parser_module._PARSE_MEMO_SIZE
        assert 0 < bound <= 256
        first = "bound(x) :- Bound0(x)"
        query = parse_query(first)
        for i in range(1, bound + 1):
            parse_query(f"bound(x) :- Bound{i}(x)")
        assert len(parses) == bound + 1
        again = parse_query(first)
        assert parses[-1] == first and len(parses) == bound + 2
        assert again == query and again is not query

    def test_threads_parsing_the_same_texts_agree(self):
        texts = [f"thread(y) :- Thr{i}A(x,y), Thr{i}B({i},x)" for i in range(16)]
        want = [parser_module._Parser(text).parse_query() for text in texts]
        start = threading.Barrier(8)
        seen = []

        def worker():
            start.wait()
            seen.append([parse_query(text) for text in texts for _ in range(4)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [query for query in want for _ in range(4)]
        assert len(seen) == 8
        for queries in seen:
            assert queries == expected
            assert [str(q) for q in queries] == [str(q) for q in expected]
