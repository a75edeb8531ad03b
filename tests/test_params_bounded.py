"""A parameterised request leaves nothing behind (ISSUE 19).

What a selection constant produced belongs to one request: on SQLite it
stays inside its statement (never a temp table, however often the same
constant comes back), on memory it lives in the request's own memo and
never enters the subplan cache, and the LRU behind every cache evicts
in O(evictions).
"""

from __future__ import annotations

from repro import connect
from repro.api import EngineConfig
from repro.core import parse_query
from repro.db import SQLiteViewRegistry
from repro.engine import DissociationEngine
from repro.obs import StatsLRU
from repro.workloads import chain_database, chain_query


def _chain(k: int, constant) -> str:
    tail = ", ".join(f"R{t}(x{t - 1},x{t})" for t in range(2, k + 1))
    return f"q(x{k}) :- R1({constant},x1), {tail}"


def _constants(db) -> list:
    return sorted(db.table("R1").column_values(0))


def _temp_objects(engine) -> int:
    [(count,)] = engine.sqlite.execute(
        "SELECT count(*) FROM sqlite_temp_master"
    )
    return count


class TestSQLiteLeavesNothing:
    def test_distinct_constants_leave_no_objects(self):
        db = chain_database(5, 800, seed=5)
        constants = _constants(db)[:200]
        assert len(constants) == 200
        with connect(db, EngineConfig(backend="sqlite")) as session:
            engine = session.engine
            for constant in constants[:3]:
                session.evaluate(_chain(5, constant))
            # the constant-free views converge over the first two
            # requests of the shape; request 3 already adds nothing
            objects, size = _temp_objects(engine), engine.cache_stats()["size"]
            assert size > 0
            for constant in constants[3:]:
                result = session.evaluate(_chain(5, constant))
                assert not result.cached
                assert "CREATE TEMP TABLE" not in result.sql
                assert ";" not in result.sql  # one statement
            assert _temp_objects(engine) == objects
            assert engine.cache_stats()["size"] == size
            registry = engine.sqlite.view_registry
            assert 0 < len(registry._requests) <= registry.MAX_REQUEST_ENTRIES

    def test_request_history_is_bounded(self):
        db = chain_database(2, 10, seed=1)
        registry = DissociationEngine(
            db, EngineConfig(backend="sqlite")
        ).sqlite.view_registry
        assert SQLiteViewRegistry.MAX_REQUEST_ENTRIES <= 4096
        for key in range(registry.MAX_REQUEST_ENTRIES + 50):
            registry.note_request(key)
        assert len(registry._requests) == registry.MAX_REQUEST_ENTRIES
        assert registry.request_count(0) == 0  # the oldest went first
        assert registry.request_count(registry.MAX_REQUEST_ENTRIES + 49) == 1

    def test_a_repeated_constant_is_a_template_hit(self):
        db = chain_database(5, 400, seed=3)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        first, second, repeated = _constants(db)[:3]
        for constant in (first, second):  # warm the constant-free views
            engine.evaluate(parse_query(_chain(5, constant)))
        query = parse_query(_chain(5, repeated))
        one = engine.evaluate(query)
        views, statements = engine.cache_stats(), engine.statement_stats()
        assert "CREATE TEMP TABLE" not in one.sql

        for _ in range(3):
            again = engine.evaluate(query)
            assert "CREATE TEMP TABLE" not in again.sql
            assert again.sql == one.sql and again.scores == one.scores
        # every repeat ran the stored statement and left the views alone
        now = engine.statement_stats()
        assert now["hits"] == statements["hits"] + 3
        assert now["misses"] == statements["misses"]
        after = engine.cache_stats()
        assert after["size"] == views["size"]
        assert after["misses"] == views["misses"]
        assert after["hits"] > views["hits"]
        engine.release()

    def test_explain_reports_the_selective_rule(self):
        db = chain_database(5, 400, seed=3)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        first, second, repeated = _constants(db)[:3]
        for constant in (first, second):
            engine.evaluate(parse_query(_chain(5, constant)))
        query = parse_query(_chain(5, repeated))
        marker = f"R1({repeated}, x1)"

        def decisions():
            report = engine.explain(query)["materialization"]
            selective = [d for d in report if marker in d["subplan"]]
            free = [d for d in report if marker not in d["subplan"]]
            assert selective and free
            return selective, free

        # shared within the statement (references >= 2) is not enough,
        # and neither is coming back: explain() predicts what run() does
        for _ in range(3):
            selective, free = decisions()
            assert any(d["references"] >= 2 for d in selective)
            assert not any(d["materialize"] for d in selective)
            assert all(d["prior_requests"] == 0 for d in selective)
            # the constant-free subplans still earn their views
            assert all(d["materialize"] for d in free)
            assert all(d["prior_requests"] >= 1 for d in free)
            assert "CREATE TEMP TABLE" not in engine.evaluate(query).sql
        engine.release()


class TestMemoryBoundedByDefault:
    def test_chain7_constants_leave_nothing_with_identical_scores(self):
        db = chain_database(7, 120, seed=9)
        constants = _constants(db)[:100]
        assert len(constants) >= 60
        assert EngineConfig().cache_size == 1024
        capped = DissociationEngine(db)
        unbounded = DissociationEngine(db, EngineConfig(cache_size=None))
        sizes = []
        for constant in constants:
            query = parse_query(_chain(7, constant))
            # admission changes *where* a subplan lives, never the floats
            assert capped.evaluate(query).scores == unbounded.evaluate(query).scores
            sizes.append(capped.cache_stats()["size"])
        stats = capped.cache_stats()
        assert stats["max_size"] == 1024
        assert stats["size"] <= 1024
        # a selection-bearing subplan is never admitted: what the shape's
        # constant-free views fill by the third request is all it keeps
        assert sizes[2] == sizes[-1]
        assert stats["evictions"] == 0
        assert unbounded.cache_stats()["size"] == stats["size"]

    def test_constant_free_shapes_age_out_of_a_small_cache(self):
        db = chain_database(5, 60, seed=9)
        tiny = DissociationEngine(db, EngineConfig(cache_size=4))
        unbounded = DissociationEngine(db, EngineConfig(cache_size=None))
        queries = [chain_query(k) for k in (2, 3, 4, 5)]
        for _ in range(2):
            for query in queries:
                # eviction changes *when* a subplan is computed, never
                # the floats
                assert (
                    tiny.evaluate(query).scores
                    == unbounded.evaluate(query).scores
                )
        stats = tiny.cache_stats()
        assert stats["size"] <= 4
        assert stats["evictions"] > 0
        assert unbounded.cache_stats()["evictions"] == 0


class _CountingKey:
    """A key that counts how often it is hashed."""

    hashes = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        _CountingKey.hashes += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        return self.value == other.value


class TestEvictionCost:
    def test_put_into_a_full_cache_hashes_a_constant_number_of_keys(self):
        cache = StatsLRU(1000)
        for i in range(1000):
            cache.put(_CountingKey(i), i)
        _CountingKey.hashes = 0
        cache.put(_CountingKey(1000), 1000)
        assert len(cache) == 1000
        assert _CountingKey.hashes <= 8, (
            f"{_CountingKey.hashes} key hashes for one put into a full "
            "cache: enforce_cap walks the whole cache again"
        )
        assert cache.stats()["evictions"] == 1
        assert _CountingKey(0) not in cache and _CountingKey(1) in cache

    def test_pinned_entries_at_the_lru_end_are_skipped(self):
        pinned = {0, 1, 3}
        evicted = []
        cache = StatsLRU(
            4,
            on_evict=lambda key, value: evicted.append((key, value)),
            evictable=lambda key, value: key not in pinned,
        )
        cache.max_entries = None
        for i in range(8):
            cache.put(i, str(i))
        cache.max_entries = 4
        assert cache.enforce_cap() == 4
        assert evicted == [(2, "2"), (4, "4"), (5, "5"), (6, "6")]
        assert list(cache) == [0, 1, 3, 7]
        assert cache.stats()["evictions"] == 4
        # nothing evictable is left: the cache stays over its cap
        cache.max_entries = 2
        pinned.add(7)
        assert cache.enforce_cap() == 0
        assert len(cache) == 4
        pinned.clear()
        assert cache.enforce_cap() == 2
        assert evicted[-2:] == [(0, "0"), (1, "1")]
