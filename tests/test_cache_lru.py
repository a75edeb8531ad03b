"""The LRU cap and stats counters of the memory ``EvaluationCache``."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.core import Atom, Scan, Variable, parse_query
from repro.db import ProbabilisticDatabase
from repro.engine import DissociationEngine, EvaluationCache, Scope, evaluate_plan
from repro.workloads import chain_database, chain_query

from .helpers import ALL_OPTIMIZATION_COMBOS

X, Y = Variable("x"), Variable("y")


def _db(relations: int = 4) -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    for i in range(relations):
        db.add_table(f"R{i}", [((1, i), 0.5), ((2, i), 0.25)])
    return db


def _scan(i: int) -> Scan:
    return Scan(Atom(f"R{i}", (X, Y)))


class TestLRUCap:
    def test_unbounded_by_default(self):
        cache = EvaluationCache(_db())
        assert cache.max_plans is None
        for i in range(4):
            evaluate_plan(_scan(i), cache.db, cache=cache)
        assert len(cache._plans) == 4
        assert cache.cache_stats()["evictions"] == 0

    def test_eviction_order_is_least_recently_used(self):
        db = _db()
        cache = EvaluationCache(db, max_plans=2)
        evaluate_plan(_scan(0), db, cache=cache)
        evaluate_plan(_scan(1), db, cache=cache)
        evaluate_plan(_scan(0), db, cache=cache)  # touch 0: 1 is now LRU
        evaluate_plan(_scan(2), db, cache=cache)  # evicts 1, not 0
        assert list(cache._plans) == [_scan(0), _scan(2)]
        assert cache.cache_stats()["evictions"] == 1

    def test_cap_one_keeps_only_latest(self):
        db = _db()
        cache = EvaluationCache(db, max_plans=1)
        evaluate_plan(_scan(0), db, cache=cache)
        evaluate_plan(_scan(1), db, cache=cache)
        assert list(cache._plans) == [_scan(1)]
        # a hit on the survivor, then a miss that evicts it
        evaluate_plan(_scan(1), db, cache=cache)
        evaluate_plan(_scan(2), db, cache=cache)
        stats = cache.cache_stats()
        assert stats == {
            "hits": 1,
            "misses": 3,
            "evictions": 2,
            "size": 1,
            "max_size": 1,
        }

    def test_cap_zero_disables_plan_memoization(self):
        db = _db()
        cache = EvaluationCache(db, max_plans=0)
        first = evaluate_plan(_scan(0), db, cache=cache)
        second = evaluate_plan(_scan(0), db, cache=cache)
        assert first == second
        stats = cache.cache_stats()
        assert stats["size"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        assert stats["evictions"] == 0
        # encoded relations are representation, not plan results: cached
        assert len(cache._tables) == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            EvaluationCache(_db(), max_plans=-1)

    def test_a_call_after_an_unvalidated_mutation_sees_it(self):
        # regression: whatever a call's scope, the encodings it scans
        # must not predate a mutation the cache has not validated away
        db = _db()
        cache = EvaluationCache(db)
        evaluate_plan(_scan(0), db, cache=cache)
        for i, scope in enumerate((Scope(), Scope({}, {}), Scope({}))):
            db.insert("R0", (3 + i, 0), 0.75)
            scores = evaluate_plan(_scan(0), db, cache=cache, scope=scope)
            assert scores[(3 + i, 0)] == 0.75

    def test_cap_zero_still_shares_dag_nodes_within_one_call(self, monkeypatch):
        # max_plans=0 bounds retained state, not intra-call sharing:
        # shared nodes of one merged-plan DAG must evaluate once
        import repro.engine.extensional as ext

        db = _db()
        q = parse_query("q() :- R0(x,y), R1(y,z), R2(z,w)")
        engine = DissociationEngine(db, EngineConfig(cache_size=0))
        merged = engine.single_plan(q)
        distinct_scans = len({n for n in merged.walk() if isinstance(n, Scan)})
        calls = []
        original = ext._scan
        monkeypatch.setattr(
            ext, "_scan", lambda plan, *args: calls.append(plan) or original(plan, *args)
        )
        engine.propagation_score(q)
        assert len(calls) == distinct_scans

    def test_validate_clears_entries_but_keeps_counters(self):
        db = _db()
        cache = EvaluationCache(db)
        evaluate_plan(_scan(0), db, cache=cache)
        evaluate_plan(_scan(0), db, cache=cache)
        assert cache.cache_stats()["hits"] == 1
        db.insert("R0", (9, 9), 0.1)
        cache.validate()
        stats = cache.cache_stats()
        assert stats["size"] == 0
        assert stats["hits"] == 1  # cumulative


class TestEngineIntegration:
    def test_capped_engine_matches_uncapped(self):
        db = _db()
        q = parse_query("q(x) :- R0(x,y), R1(y,z)")
        want = DissociationEngine(db).propagation_score(q)
        for cap in (0, 1, 2):
            engine = DissociationEngine(db, EngineConfig(cache_size=cap))
            assert engine.propagation_score(q) == want
            assert engine.cache_stats()["max_size"] == cap

    def test_memory_cache_stats_surface_through_engine(self):
        db = _db()
        q = parse_query("q(x) :- R0(x,y)")
        engine = DissociationEngine(db)
        assert engine.cache_stats()["size"] == 0  # before any evaluation
        engine.propagation_score(q)
        first = engine.cache_stats()
        assert first["size"] > 0
        engine.propagation_score(q)
        assert engine.cache_stats()["hits"] > first["hits"]

    @pytest.mark.parametrize(
        "opts",
        [o for o in ALL_OPTIMIZATION_COMBOS if o.semijoin or not o.reuse_views],
        ids=str,
    )
    def test_a_call_that_does_not_retain_moves_no_counter(self, opts):
        # only Opt. 2 without Opt. 3 reads and writes the LRU: any other
        # request leaves every counter and the size as it found them
        db = chain_database(3, 40, seed=2, p_max=0.5)
        constant = sorted(db.table("R1").column_values(0))[0]
        queries = [
            chain_query(3),
            parse_query(f"q(x3) :- R1({constant},x1), R2(x1,x2), R3(x2,x3)"),
        ]
        warm = DissociationEngine(db)
        for query in queries:
            warm.evaluate(query)
        for engine in (warm, DissociationEngine(db)):
            before = engine.cache_stats()
            for query in queries:
                fresh = DissociationEngine(db).evaluate(query, opts)
                assert engine.evaluate(query, opts).scores == fresh.scores
            assert engine.cache_stats() == before
