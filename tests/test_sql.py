"""Tests for the SQL compiler and the SQLite backend."""

import random

import pytest

from repro.api import EngineConfig
from repro.core import minimal_plans, parse_query
from repro.core.singleplan import single_plan
from repro.db import IorAggregate, ProbabilisticDatabase, SQLiteBackend, sql_literal
from repro.engine import (
    DissociationEngine,
    SQLCompiler,
    deterministic_sql,
    lineage_sql,
    plan_scores,
)

from .helpers import assert_scores_close, random_database_for, random_query


class TestIorAggregate:
    def test_combines_independently(self):
        agg = IorAggregate()
        for p in (0.5, 0.5):
            agg.step(p)
        assert abs(agg.finalize() - 0.75) < 1e-12

    def test_certain_tuple(self):
        agg = IorAggregate()
        agg.step(1.0)
        agg.step(0.3)
        assert agg.finalize() == 1.0

    def test_empty_is_zero(self):
        assert IorAggregate().finalize() == 0.0

    def test_none_skipped(self):
        agg = IorAggregate()
        agg.step(None)
        agg.step(0.4)
        assert abs(agg.finalize() - 0.4) < 1e-12


class TestSqlLiteral:
    def test_string_quoting(self):
        assert sql_literal("a'b") == "'a''b'"

    def test_numbers(self):
        assert sql_literal(3) == "3"
        assert sql_literal(2.5) == "2.5"

    def test_none(self):
        assert sql_literal(None) == "NULL"


class TestBackendMaterialization:
    def test_counts(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.5)])
        with SQLiteBackend(db) as backend:
            assert backend.execute('SELECT COUNT(*) FROM "R"') == [(2,)]

    def test_probability_column(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((7,), 0.25)], columns=("v",))
        with SQLiteBackend(db) as backend:
            rows = backend.execute('SELECT v, _p FROM "R"')
            assert rows == [(7, 0.25)]

    def test_reserved_column_rejected(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)], columns=("_p",))
        with pytest.raises(ValueError):
            SQLiteBackend(db)


class TestCompiledPlans:
    def _check(self, query_text, seed, reuse_views=True):
        rng = random.Random(seed)
        q = parse_query(query_text)
        db = random_database_for(q, rng)
        compiler = SQLCompiler(db.schema, reuse_views=reuse_views)
        with SQLiteBackend(db) as backend:
            for plan in minimal_plans(q):
                expected = plan_scores(plan, q, db)
                sql = compiler.compile(plan, q)
                got = {}
                for row in backend.execute(sql):
                    if row[-1] is not None:
                        got[tuple(row[:-1])] = row[-1]
                assert_scores_close(got, expected, tolerance=1e-9)

    def test_safe_plan(self):
        self._check("q() :- R(x), S(x,y)", 1)

    def test_unsafe_plans(self):
        self._check("q() :- R(x), S(x,y), T(y)", 2)

    def test_non_boolean(self):
        self._check("q(z) :- R(z,x), S(x,y), T(y)", 3)

    def test_with_constants(self):
        rng = random.Random(4)
        q = parse_query("q() :- R(1, x), S(x)")
        db = random_database_for(q, rng)
        compiler = SQLCompiler(db.schema)
        with SQLiteBackend(db) as backend:
            (plan,) = minimal_plans(q)
            sql = compiler.compile(plan, q)
            got = backend.execute(sql)
            expected = plan_scores(plan, q, db)
            if expected:
                assert abs(got[0][-1] - expected[()]) < 1e-9

    def test_single_plan_with_views(self):
        rng = random.Random(5)
        q = parse_query("q() :- R(x,z), S(y,u), T(z), U(u), M(x,y,z,u)")
        db = random_database_for(q, rng, domain_size=2)
        plan = single_plan(q)
        expected = plan_scores(plan, q, db)
        for reuse in (True, False):
            compiler = SQLCompiler(db.schema, reuse_views=reuse)
            sql = compiler.compile(plan, q)
            if reuse:
                assert "WITH" in sql
            with SQLiteBackend(db) as backend:
                got = {
                    tuple(row[:-1]): row[-1]
                    for row in backend.execute(sql)
                    if row[-1] is not None
                }
                assert_scores_close(got, expected, tolerance=1e-9)

    def test_random_queries_match_memory_backend(self):
        rng = random.Random(6)
        for _ in range(25):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=2)
            memory = DissociationEngine(db, EngineConfig(backend="memory"))
            sqlite = DissociationEngine(db, EngineConfig(backend="sqlite"))
            assert_scores_close(
                memory.propagation_score(q),
                sqlite.propagation_score(q),
                tolerance=1e-9,
            )


class TestBaselineSQL:
    def test_deterministic_sql_returns_answers(self):
        rng = random.Random(7)
        q = parse_query("q(z) :- R(z,x), S(x,y), T(y)")
        db = random_database_for(q, rng)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        rows = engine.sqlite.execute(deterministic_sql(q, db.schema))
        assert {tuple(r) for r in rows} == engine.answers(q)

    def test_deterministic_sql_boolean(self):
        rng = random.Random(8)
        q = parse_query("q() :- R(x), S(x,y)")
        db = random_database_for(q, rng)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        rows = engine.sqlite.execute(deterministic_sql(q, db.schema))
        assert (len(rows) == 1) == (() in engine.answers(q))

    def test_lineage_sql_row_count_is_lineage_size(self):
        rng = random.Random(9)
        q = parse_query("q() :- R(x), S(x,y), T(y)")
        db = random_database_for(q, rng)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        rows = engine.sqlite.execute(lineage_sql(q, db.schema))
        lineage = engine.lineage(q)
        total = sum(len(f) for f in lineage.by_answer.values())
        assert len(rows) == total
