"""Edge-case tests for the SQLite backend and SQL generation."""

import random

from repro.api import EngineConfig
from repro.core import minimal_plans, parse_query
from repro.db import ProbabilisticDatabase, SQLiteBackend
from repro.engine import DissociationEngine, SQLCompiler, plan_scores

from .helpers import assert_backends_agree, assert_scores_close


class TestValueHandling:
    def _roundtrip(self, rows, query_text):
        db = ProbabilisticDatabase()
        arity = len(rows[0][0])
        db.add_table("R", rows, arity=arity)
        db.add_table("S", [((rows[0][0][0],), 0.5)], arity=1)
        q = parse_query(query_text)
        return assert_backends_agree(q, db)

    def test_string_values_with_quotes(self):
        rows = [(("o'brien", 1), 0.5), (('say "hi"', 2), 0.5)]
        self._roundtrip(rows, "q(x) :- R(x, y), S(x)")

    def test_unicode_values(self):
        rows = [(("héllo wörld", 1), 0.5), (("日本語", 2), 0.25)]
        self._roundtrip(rows, "q(x) :- R(x, y), S(x)")

    def test_negative_and_float_values(self):
        rows = [((-3, 1), 0.5), ((2.5, 2), 0.25)]
        self._roundtrip(rows, "q(x) :- R(x, y), S(x)")

    def test_constant_with_quote_in_query(self):
        # constants containing quotes can't be written in the text syntax,
        # but programmatic atoms must still compile to escaped SQL
        from repro.core import Atom, ConjunctiveQuery, Constant, Variable

        db = ProbabilisticDatabase()
        db.add_table("R", [(("o'brien", 1), 0.5), (("smith", 2), 0.5)])
        y = Variable("y")
        q = ConjunctiveQuery(
            [Atom("R", (Constant("o'brien"), y))], head=[y]
        )
        scores = assert_backends_agree(q, db)
        assert scores == {(1,): 0.5}

    def test_probability_zero_and_one(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.0), ((2,), 1.0)])
        db.add_table("S", [((1, 5), 1.0), ((2, 5), 0.5)])
        q = parse_query("q() :- R(x), S(x,y)")
        assert_backends_agree(q, db)


class TestEmptyInputs:
    def test_empty_table(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [], arity=1)
        db.add_table("S", [((1, 2), 0.5)])
        q = parse_query("q() :- R(x), S(x,y)")
        for backend in ("memory", "sqlite"):
            engine = DissociationEngine(db, EngineConfig(backend=backend))
            assert engine.propagation_score(q) == {}

    def test_boolean_no_answer(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((2, 3), 0.5)])
        q = parse_query("q() :- R(x), S(x,y)")
        sqlite = DissociationEngine(db, EngineConfig(backend="sqlite"))
        scores = sqlite.propagation_score(q)
        # the Boolean aggregate returns 0 probability (false), or no row —
        # either way nothing above 0
        assert scores.get((), 0.0) == 0.0


class TestCompilerDetails:
    def test_view_names_unique(self):
        from repro.core.singleplan import single_plan
        from repro.workloads import chain_query

        q = chain_query(6)
        db = ProbabilisticDatabase()
        for i in range(1, 7):
            db.add_table(f"R{i}", [((1, 1), 0.5)])
        compiler = SQLCompiler(db.schema, reuse_views=True)
        sql = compiler.compile(single_plan(q), q)
        names = [
            line.split()[0]
            for line in sql.splitlines()
            if line.startswith("v") and " AS (" in line
        ]
        assert len(names) == len(set(names))

    def test_no_views_without_reuse_for_plain_plan(self):
        q = parse_query("q() :- R(x), S(x,y)")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((1, 2), 0.5)])
        compiler = SQLCompiler(db.schema, reuse_views=False)
        (plan,) = minimal_plans(q)
        sql = compiler.compile(plan, q)
        with SQLiteBackend(db) as backend:
            rows = backend.execute(sql)
            assert len(rows) == 1

    def test_column_named_like_keyword(self):
        db = ProbabilisticDatabase()
        db.add_table(
            "R", [((1, 2), 0.5)], columns=("select", "group")
        )
        db.add_table("S", [((2,), 0.5)], columns=("order",))
        q = parse_query("q() :- R(x, y), S(y)")
        assert_backends_agree(q, db)

    def test_semijoin_tables_cleaned_up_between_queries(self):
        rng = random.Random(1)
        db = ProbabilisticDatabase()
        db.add_table("R", [((i,), 0.5) for i in range(6)])
        db.add_table("S", [((i, i + 1), 0.5) for i in range(4)])
        q = parse_query("q() :- R(x), S(x,y)")
        from repro.engine import Optimizations

        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        first = engine.propagation_score(q, Optimizations.all())
        second = engine.propagation_score(q, Optimizations.all())
        assert_scores_close(first, second)
        # the request leaves exactly its reduced copies, indexed per
        # column like the base tables — no view, no second copy
        temp = engine.sqlite.execute(
            "SELECT type, name, tbl_name FROM sqlite_temp_master"
        )
        assert sorted(temp) == [
            ("index", "ix__red_R_c0", "_red_R"),
            ("index", "ix__red_S_c0", "_red_S"),
            ("index", "ix__red_S_c1", "_red_S"),
            ("table", "_red_R", "_red_R"),
            ("table", "_red_S", "_red_S"),
        ]
