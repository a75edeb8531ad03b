"""Tests for the DissociationEngine facade."""

import random
import sqlite3

import pytest

from repro.api import EngineConfig
from repro.core import parse_query
from repro.db import ProbabilisticDatabase
from repro.engine import DissociationEngine, Optimizations

from .helpers import assert_scores_close, random_database_for, random_query


def example_17_db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    half = 0.5
    db.add_table("R", [((1,), half), ((2,), half)])
    db.add_table("S", [((1,), half), ((2,), half)])
    db.add_table("T", [((1, 1), half), ((1, 2), half), ((2, 2), half)])
    db.add_table("U", [((1,), half), ((2,), half)])
    return db


EXAMPLE_17 = "q() :- R(x), S(x), T(x,y), U(y)"


class TestExample17:
    """The paper's worked example with exact fractions."""

    def test_exact(self):
        engine = DissociationEngine(example_17_db())
        assert abs(engine.exact(parse_query(EXAMPLE_17))[()] - 83 / 2**9) < 1e-12

    def test_propagation_score(self):
        engine = DissociationEngine(example_17_db())
        rho = engine.propagation_score(parse_query(EXAMPLE_17))[()]
        assert abs(rho - 169 / 2**10) < 1e-12

    def test_per_plan_scores(self):
        engine = DissociationEngine(example_17_db())
        per_plan = engine.score_per_plan(parse_query(EXAMPLE_17))
        values = sorted(s[()] for s in per_plan.values())
        assert abs(values[0] - 169 / 2**10) < 1e-12
        assert abs(values[1] - 353 / 2**11) < 1e-12


class TestOptimizationsConfig:
    def test_none_and_all(self):
        assert Optimizations.none() == Optimizations(False, False, False)
        assert Optimizations.all() == Optimizations(True, True, True)

    def test_default(self):
        opts = Optimizations()
        assert opts.single_plan and opts.reuse_views and not opts.semijoin


class TestEvaluate:
    def test_result_provenance(self):
        engine = DissociationEngine(example_17_db())
        result = engine.evaluate(parse_query(EXAMPLE_17))
        assert result.plan_count == 2
        assert result.backend == "memory"
        assert result.seconds >= 0.0
        assert result.sql is None

    def test_sqlite_result_has_sql(self):
        engine = DissociationEngine(example_17_db(), EngineConfig(backend="sqlite"))
        result = engine.evaluate(parse_query(EXAMPLE_17))
        assert result.sql and "SELECT" in result.sql

    def test_ranking_order(self):
        engine = DissociationEngine(example_17_db())
        q = parse_query("q(x) :- R(x), S(x), T(x,y), U(y)")
        result = engine.evaluate(q)
        ranking = result.ranking()
        scores = result.scores
        assert all(
            scores[ranking[i]] >= scores[ranking[i + 1]]
            for i in range(len(ranking) - 1)
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DissociationEngine(example_17_db(), EngineConfig(backend="duckdb"))


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "opts",
        [
            Optimizations.none(),
            Optimizations(single_plan=True, reuse_views=False),
            Optimizations(single_plan=True, reuse_views=True),
            Optimizations.all(),
        ],
        ids=["none", "opt1", "opt12", "opt123"],
    )
    def test_backends_agree_across_modes(self, opts):
        rng = random.Random(70)
        for _ in range(10):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=2)
            memory = DissociationEngine(db).propagation_score(q, opts)
            sqlite = DissociationEngine(db, EngineConfig(backend="sqlite")).propagation_score(
                q, opts
            )
            assert_scores_close(memory, sqlite, tolerance=1e-9)


class TestBaselines:
    def test_monte_carlo_close_to_exact(self):
        engine = DissociationEngine(example_17_db())
        q = parse_query(EXAMPLE_17)
        mc = engine.monte_carlo(q, 50_000, seed=0)[()]
        assert abs(mc - 83 / 2**9) < 0.01

    def test_answers_match_exact_keys(self):
        rng = random.Random(71)
        q = parse_query("q(z) :- R(z,x), S(x,y)")
        db = random_database_for(q, rng)
        engine = DissociationEngine(db)
        assert engine.answers(q) == set(engine.exact(q))

    def test_empty_answer_set(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((9, 9), 0.5)])
        q = parse_query("q() :- R(x), S(x,y)")
        engine = DissociationEngine(db)
        assert engine.propagation_score(q) == {}
        assert engine.exact(q) == {}

    def test_sqlite_invalidate(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        backend = engine.sqlite
        engine.invalidate_sqlite()
        with pytest.raises(sqlite3.ProgrammingError):
            backend.connection.execute("SELECT 1")
        assert engine.sqlite is not backend
        engine.release()
