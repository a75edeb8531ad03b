"""Tests for the deterministic semi-join reduction (Optimization 3)."""

import random

from repro.api import EngineConfig
from repro.core import minimal_plans, parse_query
from repro.db import ProbabilisticDatabase
from repro.engine import (
    DissociationEngine,
    EvaluationCache,
    Optimizations,
    Scope,
    plan_scores,
    semijoin_masks,
    semijoin_statements,
)
from repro.lineage import lineage_of

from .helpers import (
    assert_scores_close,
    masked_database,
    random_database_for,
    random_query,
)


class TestInMemoryReducer:
    def test_dangling_tuples_removed(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((9,), 0.5)])
        db.add_table("S", [((1, 2), 0.5)])
        db.add_table("T", [((2,), 0.5), ((7,), 0.5)])
        q = parse_query("q() :- R(x), S(x,y), T(y)")
        reduced = masked_database(q, db)
        assert set(reduced.table("R").rows) == {(1,)}
        assert set(reduced.table("T").rows) == {(2,)}

    def test_cascading_reduction(self):
        # removing a dangling T tuple makes an S tuple dangling too
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((1, 2), 0.5), ((1, 3), 0.5)])
        db.add_table("T", [((2,), 0.5)])
        q = parse_query("q() :- R(x), S(x,y), T(y)")
        reduced = masked_database(q, db)
        assert set(reduced.table("S").rows) == {(1, 2)}

    def test_constants_pushed(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(("a", 1), 0.5), (("b", 2), 0.5)])
        db.add_table("S", [((1,), 0.5), ((2,), 0.5)])
        q = parse_query("q() :- R('a', x), S(x)")
        reduced = masked_database(q, db)
        assert set(reduced.table("R").rows) == {("a", 1)}
        assert set(reduced.table("S").rows) == {(1,)}

    def test_reduction_preserves_lineage(self):
        rng = random.Random(61)
        for _ in range(25):
            q = random_query(rng, head_vars=rng.randint(0, 1))
            db = random_database_for(q, rng, domain_size=2, fill=0.5)
            full = lineage_of(q, db)
            reduced = lineage_of(q, masked_database(q, db))
            assert full.by_answer == reduced.by_answer, str(q)

    def test_reduction_preserves_scores(self):
        rng = random.Random(62)
        for _ in range(20):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=3, fill=0.4)
            cache = EvaluationCache(db)
            masked = Scope(None, semijoin_masks(q, cache))
            for plan in minimal_plans(q):
                assert plan_scores(plan, q, db) == plan_scores(
                    plan, q, db, cache, scope=masked
                ), str(q)

    def test_preserves_deterministic_flag(self):
        # the masks select rows only: the schema knowledge that prunes
        # plans reads the unreduced database, deterministic flags and all
        # (a probabilistic R would leave two minimal plans)
        db = ProbabilisticDatabase()
        db.add_table("R", [(1,), (9,)], deterministic=True)
        db.add_table("S", [((1, 2), 0.5), ((1, 3), 0.5)])
        db.add_table("T", [((2,), 0.5), ((3,), 0.25), ((4,), 0.5)])
        q = parse_query("q() :- R(x), S(x,y), T(y)")
        assert set(masked_database(q, db).table("R").rows) == {(1,)}
        engine = DissociationEngine(db)
        plain = engine.evaluate(q, Optimizations(semijoin=False))
        reduced = engine.evaluate(q, Optimizations(semijoin=True))
        assert reduced.plan_count == plain.plan_count == 1
        assert reduced.scores == plain.scores


class TestSQLReducer:
    def test_statements_reduce_tables(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((9,), 0.5)])
        db.add_table("S", [((1, 2), 0.5)])
        q = parse_query("q() :- R(x), S(x,y)")
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        statements, names = semijoin_statements(q, db.schema)
        engine.sqlite.run_statements(statements)
        for relation in ("R", "S"):
            rows = engine.sqlite.execute(f'SELECT * FROM "{names[relation]}"')
            assert len(rows) == 1

    def test_scores_unchanged_by_opt3(self):
        rng = random.Random(63)
        for _ in range(15):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=2, fill=0.5)
            engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
            plain = engine.propagation_score(
                q, Optimizations(semijoin=False)
            )
            reduced = engine.propagation_score(
                q, Optimizations(semijoin=True)
            )
            assert_scores_close(plain, reduced, tolerance=1e-9)

    def test_chain8_all_plans_run_in_chunks(self):
        # 429 plans: five self-contained statements of ≤ 100 union
        # branches over the reduced copies, no view registered on the way
        from repro.workloads import chain_database, chain_query

        q = chain_query(8)
        db = chain_database(8, 20, seed=81, p_max=0.5)
        opts = Optimizations(single_plan=False, reuse_views=True, semijoin=True)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        result = engine.evaluate(q, opts)
        assert len(result.sql.split(";\n\n")) == 5
        assert engine.cache_stats()["misses"] == 0
        want = DissociationEngine(db).propagation_score(q, opts)
        assert_scores_close(result.scores, want, tolerance=1e-12)

    def test_memory_backend_opt3(self):
        rng = random.Random(64)
        q = parse_query("q(z) :- R(z,x), S(x,y), T(y)")
        db = random_database_for(q, rng, fill=0.5)
        engine = DissociationEngine(db, EngineConfig(backend="memory"))
        plain = engine.propagation_score(q, Optimizations(semijoin=False))
        reduced = engine.propagation_score(q, Optimizations(semijoin=True))
        assert plain == reduced
