"""The SQLite materialized temp-view registry (cross-backend Opt. 2).

Covers the :class:`SQLiteViewRegistry` unit behaviour (naming, LRU
pinning, stats), the engine lifecycle — view reuse across plans and
across queries, automatic invalidation when the database mutates — and
seeded hypothesis property tests that drive random chain/star workloads
through the differential harness, exercising the temp-view path against
the reference and columnar backends.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig
from repro.core import parse_query
from repro.db import ProbabilisticDatabase, SQLiteBackend, SQLiteViewRegistry
from repro.engine import DissociationEngine, Optimizations

from .helpers import (
    assert_backends_agree,
    assert_scores_close,
    random_database_for,
    random_query,
)

ALL_PLANS_REUSE = Optimizations(single_plan=False, reuse_views=True)


def _chain_db(k: int, n: int, seed: int) -> ProbabilisticDatabase:
    from repro.workloads import chain_database

    return chain_database(k, n, seed=seed, p_max=0.6)


class TestRegistryUnit:
    def _backend(self, max_views=None) -> SQLiteBackend:
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.25)])
        return SQLiteBackend(db, view_cache_size=max_views)

    def test_register_then_lookup(self):
        backend = self._backend()
        registry = backend.view_registry
        name, ddl = registry.register("key", "SELECT 1 AS one, 0.5 AS _p")
        assert name.startswith("dissoc_")
        assert ddl.startswith(f"CREATE TEMP TABLE {name}")
        assert registry.lookup("key") == name
        assert backend.execute(f"SELECT one, _p FROM {name}") == [(1, 0.5)]
        assert registry.cache_stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
            "size": 1,
            "max_size": None,
        }

    def test_lookup_miss_returns_none_without_counting(self):
        registry = self._backend().view_registry
        assert registry.lookup("absent") is None
        # the miss is counted by the register() that follows
        assert registry.cache_stats()["misses"] == 0

    def test_lru_eviction_drops_table(self):
        backend = self._backend(max_views=1)
        registry = backend.view_registry
        first, _ = registry.register("a", "SELECT 1 AS v, 0.5 AS _p")
        second, _ = registry.register("b", "SELECT 2 AS v, 0.5 AS _p")
        assert registry.lookup("a") is None
        assert registry.lookup("b") == second
        with pytest.raises(Exception):
            backend.execute(f"SELECT * FROM {first}")
        assert registry.cache_stats()["evictions"] == 1

    def test_pin_scope_defers_eviction(self):
        backend = self._backend(max_views=1)
        registry = backend.view_registry
        with registry.pin_scope():
            a, _ = registry.register("a", "SELECT 1 AS v, 0.5 AS _p")
            b, _ = registry.register("b", "SELECT 2 AS v, 0.5 AS _p")
            # both pinned: over cap but nothing evicted yet
            assert len(registry) == 2
            assert backend.execute(f"SELECT v FROM {a}") == [(1,)]
        # cap enforced at scope exit (LRU first)
        assert len(registry) == 1
        assert registry.lookup("b") == b

    def test_clear_drops_everything(self):
        backend = self._backend()
        registry = backend.view_registry
        name, _ = registry.register("a", "SELECT 1 AS v, 0.5 AS _p")
        registry.clear()
        assert len(registry) == 0
        assert registry.lookup("a") is None
        with pytest.raises(Exception):
            backend.execute(f"SELECT * FROM {name}")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            SQLiteViewRegistry(self._backend().connection, max_views=-1)


class TestEngineViewReuse:
    def test_views_reused_across_plans_of_all_plans_mode(self):
        q = parse_query("q() :- R1(x0,x1), R2(x1,x2), R3(x2,x3)")
        db = _chain_db(3, 40, seed=7)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        engine.propagation_score(q, ALL_PLANS_REUSE)
        stats = engine.cache_stats()
        assert stats["hits"] > 0, "plans of a chain query share subplans"
        assert stats["size"] == stats["misses"]

    def test_views_reused_across_queries(self):
        q = parse_query("q() :- R1(x0,x1), R2(x1,x2), R3(x2,x3)")
        db = _chain_db(3, 40, seed=8)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        first = engine.propagation_score(q, ALL_PLANS_REUSE)
        after_first = engine.cache_stats()
        second = engine.propagation_score(q, ALL_PLANS_REUSE)
        after_second = engine.cache_stats()
        assert_scores_close(first, second)
        assert after_second["hits"] > after_first["hits"]
        # Algorithm 3: the second batch may *promote* subplans that were
        # inline one-shots in the first (they are now known to recur),
        # but by the third call the registry is steady — repeats only
        # reuse views, never create them.
        third = engine.propagation_score(q, ALL_PLANS_REUSE)
        after_third = engine.cache_stats()
        assert_scores_close(first, third)
        assert after_third["misses"] == after_second["misses"]
        assert after_third["hits"] > after_second["hits"]

    def test_single_plan_mode_also_registers_views(self):
        q = parse_query("q() :- R1(x0,x1), R2(x1,x2)")
        db = _chain_db(2, 30, seed=9)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        # Algorithm 3: a first call may keep every one-shot subplan
        # inline; the repeat is the reuse signal that promotes them.
        engine.propagation_score(q, Optimizations())
        engine.propagation_score(q, Optimizations())
        assert engine.cache_stats()["size"] > 0

    def test_reuse_views_off_bypasses_registry(self):
        q = parse_query("q() :- R1(x0,x1), R2(x1,x2)")
        db = _chain_db(2, 30, seed=10)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        engine.propagation_score(q, Optimizations.none())
        assert engine.cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "max_size": EngineConfig().cache_size,
        }

    def test_semijoin_mode_leaves_the_registry_untouched(self):
        # Opt. 3 on SQLite keeps no cache of its own: its scans read the
        # request's reduced copies, so a repeat reduces and runs again
        # and neither the view registry nor the statement templates move
        q = parse_query("q(x0) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)")
        db = _chain_db(3, 40, seed=11)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        for _ in range(3):  # views and a template to leave alone
            engine.propagation_score(q, ALL_PLANS_REUSE)
        views = engine.cache_stats()
        statements = engine.sqlite_executor.statement_stats()
        master = "SELECT name FROM sqlite_temp_master WHERE name LIKE 'dissoc%'"
        objects = engine.sqlite.execute(master)
        assert views["size"] and statements["size"]
        for single_plan in (True, False):
            for reuse_views in (True, False):
                opts = Optimizations(single_plan, reuse_views, semijoin=True)
                want = DissociationEngine(db).propagation_score(q, opts)
                for _ in range(3):
                    got = engine.propagation_score(q, opts)
                    assert_scores_close(got, want)
                assert engine.cache_stats() == views
                assert engine.sqlite_executor.statement_stats() == statements
                assert engine.sqlite.execute(master) == objects

    def test_semijoin_views_not_confused_across_different_reductions(self):
        # two queries with identical plan structure but different
        # constants reduce the tables differently; content keying must
        # keep their views apart
        db = ProbabilisticDatabase()
        db.add_table("R1", [((1, 1), 0.5), ((2, 2), 0.5)])
        db.add_table("R2", [((1, 10), 0.5), ((2, 20), 0.5)])
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        reference = DissociationEngine(db)
        for constant in (1, 2, 1, 2):
            q = parse_query(f"q(y) :- R1({constant},x), R2(x,y)")
            got = engine.propagation_score(q, Optimizations.all())
            want = reference.propagation_score(q, Optimizations.all())
            assert_scores_close(got, want)

    def test_tiny_caps_still_correct(self):
        q = parse_query("q(x0) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)")
        db = _chain_db(3, 30, seed=12)
        want = DissociationEngine(db).propagation_score(q, ALL_PLANS_REUSE)
        for cap in (0, 1, 2):
            engine = DissociationEngine(
                db, EngineConfig(backend="sqlite", cache_size=cap)
            )
            got = engine.propagation_score(q, ALL_PLANS_REUSE)
            assert_scores_close(want, got)
            stats = engine.cache_stats()
            assert stats["max_size"] == cap
            assert stats["size"] <= cap


class TestSQLiteLifecycle:
    def test_mutation_between_queries_never_serves_stale_views(self):
        # regression: the SQLite copy (tables *and* temp views) must be
        # rebuilt when the source database mutates between queries
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((1, 2), 0.5)])
        q = parse_query("q(x) :- R(x), S(x,y)")
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        assert engine.propagation_score(q, ALL_PLANS_REUSE) == {(1,): 0.25}
        db.insert("S", (1, 3), 0.5)
        want = DissociationEngine(db).propagation_score(q, ALL_PLANS_REUSE)
        got = engine.propagation_score(q, ALL_PLANS_REUSE)
        assert_scores_close(got, want)
        assert got[(1,)] == pytest.approx(0.5 * (1 - 0.25))

    def test_mutation_invalidates_probability_update(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        q = parse_query("q(x) :- R(x)")
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        assert engine.propagation_score(q) == {(1,): 0.5}
        db.insert("R", (1,), 0.9)  # overwrite the marginal
        assert engine.propagation_score(q) == {(1,): 0.9}

    def test_added_table_visible_to_later_queries(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        engine.propagation_score(parse_query("q(x) :- R(x)"))
        db.add_table("T", [((1,), 0.25)])
        scores = engine.propagation_score(parse_query("q(x) :- R(x), T(x)"))
        assert scores == {(1,): pytest.approx(0.125)}

    def test_cache_stats_cumulative_across_rebuilds(self):
        # counter parity with the memory cache: invalidation by mutation
        # must not reset the engine-level hit/miss/eviction counters
        q = parse_query("q() :- R1(x0,x1), R2(x1,x2)")
        db = _chain_db(2, 20, seed=13)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        # two calls: the repeat promotes any subplans Algorithm 3 kept
        # inline on the cold call, guaranteeing registered views
        engine.propagation_score(q, ALL_PLANS_REUSE)
        engine.propagation_score(q, ALL_PLANS_REUSE)
        before = engine.cache_stats()
        assert before["misses"] > 0
        db.insert("R1", (1, 1), 0.5)
        # the rebuild starts a fresh registry (and request history), so
        # again two calls re-register views; the counters keep counting
        engine.propagation_score(q, ALL_PLANS_REUSE)
        engine.propagation_score(q, ALL_PLANS_REUSE)
        after = engine.cache_stats()
        assert after["misses"] > before["misses"]

    def test_backend_refreshed_in_place_on_mutation(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        q = parse_query("q(x) :- R(x)")
        engine.propagation_score(q)
        first = engine.sqlite
        db.insert("R", (2,), 0.25)
        # the snapshot is refreshed in place — same backend object and
        # connection, with the mutated table reloaded
        scores = engine.propagation_score(q)
        assert engine.sqlite is first
        assert first.source_version == db.version
        assert set(scores) == {(1,), (2,)}


class TestRandomizedTempViewPath:
    """Seeded, deterministic property tests over the temp-view path."""

    @given(
        k=st.integers(2, 4),
        n=st.integers(5, 30),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_chain_workloads_agree_across_backends(self, k, n, seed):
        from repro.workloads import chain_query

        q = chain_query(k)
        db = _chain_db(k, n, seed=seed)
        assert_backends_agree(q, db)

    @given(
        k=st.integers(1, 3),
        n=st.integers(5, 25),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_star_workloads_agree_across_backends(self, k, n, seed):
        from repro.workloads import star_database, star_query

        q = star_query(k)
        db = star_database(k, n, seed=seed, p_max=0.6)
        assert_backends_agree(q, db)

    @given(
        trial=st.integers(0, 10_000),
        cap=st.sampled_from([None, 0, 1, 3]),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_random_queries_agree_under_any_view_cap(self, trial, cap):
        rng = random.Random(trial)
        q = random_query(rng, head_vars=rng.randint(0, 2))
        db = random_database_for(q, rng, domain_size=2)
        assert_backends_agree(
            q,
            db,
            combos=(ALL_PLANS_REUSE, Optimizations()),
            cache_size=cap,
        )

    @given(
        k=st.integers(2, 3),
        n=st.integers(5, 20),
        seed=st.integers(0, 10_000),
        new_row=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        p=st.floats(0.1, 0.9),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_cache_invalidation_after_mutation(self, k, n, seed, new_row, p):
        from repro.workloads import chain_query

        q = chain_query(k)
        db = _chain_db(k, n, seed=seed)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        engine.propagation_score(q, ALL_PLANS_REUSE)
        db.insert("R1", new_row, p)
        got = engine.propagation_score(q, ALL_PLANS_REUSE)
        want = DissociationEngine(db, EngineConfig(backend="sqlite")).propagation_score(
            q, ALL_PLANS_REUSE
        )
        assert_scores_close(got, want)

    @given(
        k=st.integers(2, 3),
        n=st.integers(5, 20),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_view_registry_reuse_across_queries(self, k, n, seed):
        from repro.workloads import chain_query

        db = _chain_db(k, n, seed=seed)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        fresh = DissociationEngine(db, EngineConfig(backend="sqlite"))
        # evaluate the full chain, then its prefix sub-chains: shared
        # subplans must come from the registry and stay correct
        for length in range(k, 0, -1):
            q = chain_query(length)
            got = engine.propagation_score(q, ALL_PLANS_REUSE)
            want = fresh.propagation_score(q, ALL_PLANS_REUSE)
            assert_scores_close(got, want)
