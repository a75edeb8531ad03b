"""Per-table epoch vectors (PR 7): aliasing regressions, selective
invalidation, and randomized interleaving properties.

The epoch of a table is ``(creation_stamp, mutation_counter)``; the
creation stamp is handed out by the database, so a dropped-and-re-added
table can never alias its predecessor even when the insert counts
agree.  Every cache keys on the epoch vector of exactly the relations a
query touches, so a write to a disjoint table must evict *nothing* —
the counters prove it.
"""

from __future__ import annotations

import contextlib
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DissociationEngine,
    EngineConfig,
    Optimizations,
    connect,
    parse_query,
)
from repro.db.database import ProbabilisticDatabase
from repro.db.shm import SharedSnapshotManager, attach_snapshot
from repro.db.sqlite_backend import SQLiteBackend
from repro.engine.stats import SQLiteStatisticsCatalog
from repro.workloads import chain_database, chain_query
from repro.workloads.stars import ANCHOR, star_database, star_query

from .helpers import assert_scores_close, shm_segments

ALL_PLANS = Optimizations(single_plan=False, reuse_views=True)

BACKENDS = ("memory", "sqlite")


def two_table_db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_table("R", [((1, 2), 0.5), ((2, 3), 0.25)])
    db.add_table("S", [((1,), 0.5), ((2,), 0.75)])
    return db


# ----------------------------------------------------------------------
# database-level epochs
# ----------------------------------------------------------------------
class TestTableEpochs:
    def test_insert_advances_epoch(self):
        db = two_table_db()
        before = db.table_epoch("R")
        db.insert("R", (7, 8), 0.5)
        after = db.table_epoch("R")
        assert after != before
        assert after[0] == before[0]  # same incarnation
        assert db.table_epoch("S") == (db.table("S").creation_stamp, 2)

    def test_drop_readd_never_aliases(self):
        db = two_table_db()
        old_epoch = db.table_epoch("R")
        old_counter = db.table("R").version
        db.drop_table("R")
        # same insert count -> same per-table mutation counter: the
        # exact trap the creation stamp exists to defuse.
        db.add_table("R", [((9, 9), 0.5), ((8, 8), 0.25)])
        assert db.table("R").version == old_counter
        assert db.table_epoch("R") != old_epoch

    def test_touch_taints_every_table(self):
        db = two_table_db()
        before = db.table_epochs()
        version = db.version
        db.touch()
        assert db.version != version
        after = db.table_epochs()
        assert set(after) == set(before)
        assert all(after[name] != before[name] for name in before)

    def test_epoch_vector_sorted_deduplicated_and_none_for_missing(self):
        db = two_table_db()
        vector = db.epoch_vector(["S", "R", "R", "Z"])
        assert vector == (
            ("R", db.table_epoch("R")),
            ("S", db.table_epoch("S")),
            ("Z", None),
        )
        assert db.table_epoch("Z") is None

    def test_one_pair_object_per_table_epoch(self):
        """Vectors over an unmoved table share its ``(name, epoch)``
        pair; every way an epoch moves — forwards or, on rollback,
        back — is seen without an invalidation call."""
        db = two_table_db()
        stamp = db.table("R").creation_stamp

        def pair():
            (got,) = db.epoch_vector(["R"])
            assert got == ("R", db.table_epoch("R"))
            assert got is db.epoch_vector(["S", "R"])[0]
            assert got[1] is db.table("R").epoch
            return got

        start = pair()
        assert start == ("R", (stamp, 2)) and pair() is start
        db.insert("R", (7, 8), 0.5)
        assert pair() == ("R", (stamp, 3))
        db.delete("R", (7, 8))
        assert pair() == ("R", (stamp, 4))
        db.touch()
        touched = pair()
        assert touched == ("R", (stamp, 5))

        def failing(d):
            d.insert("R", (9, 9), 0.5)
            assert pair() == ("R", (stamp, 6))
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            db.mutate(failing)
        assert db.last_mutation.rolled_back
        assert pair() == touched  # the counter went back; so does the pair
        db.drop_table("R")
        assert db.epoch_vector(["R"]) == (("R", None),)
        db.add_table("R", [((9, 9), 0.5)])
        assert pair() == ("R", (db.table("R").creation_stamp, 1))
        assert db.table("R").creation_stamp != stamp

    def test_db_version_distinguishes_incarnations(self):
        db = two_table_db()
        v1 = db.version
        db.drop_table("S")
        db.add_table("S", [((5,), 0.5), ((6,), 0.75)])
        assert db.version != v1


# ----------------------------------------------------------------------
# the epoch API is the contract of every database the stack is handed
# ----------------------------------------------------------------------
CONTRACT_QUERY = chain_query(4)


def _contract_source() -> ProbabilisticDatabase:
    return chain_database(4, 30, seed=5)


@contextlib.contextmanager
def _attached_snapshot():
    with SharedSnapshotManager(_contract_source()) as manager:
        snapshot = attach_snapshot(manager.export())
        try:
            yield snapshot
        finally:
            snapshot.close()


DATABASE_PRODUCERS = {
    "plain": lambda: contextlib.nullcontext(_contract_source()),
    "snapshot": _attached_snapshot,
}


@pytest.mark.parametrize("producer", sorted(DATABASE_PRODUCERS))
def test_every_database_producer_implements_the_epoch_api(producer):
    expected = DissociationEngine(_contract_source()).evaluate(
        CONTRACT_QUERY, ALL_PLANS
    )
    before = shm_segments()
    with DATABASE_PRODUCERS[producer]() as db:
        hash(db.version)
        names = db.table_names
        epochs = db.table_epochs()
        assert set(epochs) == set(names) == set(CONTRACT_QUERY.relations)
        for name in names:
            assert db.table(name).epoch == epochs[name] == db.table_epoch(name)
        shuffled = list(reversed(names)) + names[:1]
        assert db.epoch_vector(shuffled) == tuple(
            (name, epochs[name]) for name in sorted(names)
        )
        result = DissociationEngine(db).evaluate(CONTRACT_QUERY, ALL_PLANS)
        assert result.epoch == db.epoch_vector(CONTRACT_QUERY.relations)
        assert_scores_close(result.scores, expected.scores, 1e-12)
    assert shm_segments() == before


# ----------------------------------------------------------------------
# add_table ambiguity detection (satellite 2)
# ----------------------------------------------------------------------
class TestAddTableAmbiguity:
    def test_pair_with_out_of_range_probability_raises(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError, match="ambiguous"):
            db.add_table("E", [((1, 2), 7)])

    def test_pairs_mixed_with_tuple_headed_bare_rows_raise(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError, match="ambiguous"):
            db.add_table("E", [((1, 2), 0.5), ((3, 4), "x")])

    def test_declared_arity_exposes_misread_data_row(self):
        db = ProbabilisticDatabase()
        # Read as a (row, p) pair the row has arity 1; read as a data
        # row it fits arity=2 exactly — the caller meant a data row.
        with pytest.raises(ValueError, match="ambiguous"):
            db.add_table("E", [((1,), 0.5)], arity=2)

    def test_error_tells_caller_how_to_disambiguate(self):
        db = ProbabilisticDatabase()
        with pytest.raises(ValueError, match=r"\(row, probability\)"):
            db.add_table("E", [((1, 2), 7)])

    def test_explicit_pairs_with_matching_arity_still_work(self):
        # The tpch loaders pass arity=2 alongside (row, p) pairs of
        # 2-tuples; that usage is unambiguous and must keep working.
        db = ProbabilisticDatabase()
        table = db.add_table("R", [((1, 2), 0.5), ((3, 4), 1.0)], arity=2)
        assert dict(table) == {(1, 2): 0.5, (3, 4): 1.0}

    def test_bare_rows_and_probability_one_ints_still_work(self):
        db = ProbabilisticDatabase()
        table = db.add_table("R", [(1, 2), (3, 4)])
        assert dict(table) == {(1, 2): 1.0, (3, 4): 1.0}


# ----------------------------------------------------------------------
# statistics-catalog aliasing regression (satellite 1)
# ----------------------------------------------------------------------
class TestStatisticsAliasing:
    def test_catalog_rebuilds_after_drop_readd_with_equal_counter(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.5)])
        backend = SQLiteBackend(db)
        catalog = SQLiteStatisticsCatalog(backend)
        first = catalog.table_stats("R", backend.table_epoch("R"))
        assert catalog.recomputations == 1
        old_counter = db.table("R").version
        db.drop_table("R")
        db.add_table("R", [((7,), 0.5), ((7,), 0.5)])
        # the old bug: equal mutation counters made the catalog serve
        # the previous incarnation's summary
        assert db.table("R").version == old_counter
        backend.refresh()
        second = catalog.table_stats("R", backend.table_epoch("R"))
        backend.close()
        assert catalog.recomputations == 2
        assert second is not first
        assert second.columns[0].distinct == 1
        assert first.columns[0].distinct == 2

    def test_engine_scores_track_drop_readd_with_equal_counter(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.5)])
        query = parse_query("q(x) :- R(x)")
        engine = DissociationEngine(db, EngineConfig(backend="memory"))
        first = engine.evaluate(query)
        db.drop_table("R")
        db.add_table("R", [((1,), 0.9), ((2,), 0.9)])
        second = engine.evaluate(query)
        assert first.scores == {(1,): 0.5, (2,): 0.5}
        assert second.scores == {(1,): 0.9, (2,): 0.9}


# ----------------------------------------------------------------------
# SQLite snapshot: incremental refresh + selective view invalidation
# ----------------------------------------------------------------------
class _FakeKey:
    """A registry key with a declared relation footprint."""

    def __init__(self, *relations: str) -> None:
        self._relations = frozenset(relations)

    def relations(self) -> frozenset:
        return self._relations


class TestSQLiteRefresh:
    def test_refresh_is_noop_when_version_unchanged(self):
        db = two_table_db()
        backend = SQLiteBackend(db)
        assert backend.refresh() == frozenset()

    def test_refresh_reloads_only_changed_tables(self):
        db = two_table_db()
        backend = SQLiteBackend(db)
        s_epoch = backend.table_epoch("S")
        db.insert("R", (7, 8), 0.125)
        assert backend.refresh() == frozenset({"R"})
        rows = backend.connection.execute(
            "SELECT COUNT(*) FROM R"
        ).fetchone()[0]
        assert rows == 3
        assert backend.table_epoch("R") == db.table_epoch("R")
        assert backend.table_epoch("S") == s_epoch
        assert backend.source_version == db.version

    def test_refresh_handles_drop_add_and_schema_change(self):
        db = two_table_db()
        backend = SQLiteBackend(db)
        db.drop_table("S")
        db.add_table("T", [((4, 5), 0.5)])
        db.drop_table("R")
        db.add_table("R", [((9,), 0.5)])  # arity 2 -> 1
        assert backend.refresh() == frozenset({"R", "S", "T"})
        with pytest.raises(sqlite3.OperationalError):
            backend.connection.execute("SELECT * FROM S")
        assert backend.connection.execute(
            "SELECT COUNT(*) FROM T"
        ).fetchone()[0] == 1
        # schema-changed R was rebuilt with one data column + prob
        columns = backend.connection.execute(
            "SELECT COUNT(*) FROM pragma_table_info('R')"
        ).fetchone()[0]
        assert columns == 2

    def test_view_invalidation_drops_only_intersecting_footprints(self):
        db = two_table_db()
        backend = SQLiteBackend(db)
        registry = backend.view_registry
        registry.register(_FakeKey("R"), "SELECT 1 AS c, 0.5 AS prob")
        registry.register(_FakeKey("S"), "SELECT 2 AS c, 0.5 AS prob")
        registry.register("opaque-key", "SELECT 3 AS c, 0.5 AS prob")
        assert registry.cache_stats()["size"] == 3
        # touching R drops the R view and the footprint-unknown view
        # (conservative), never the S view
        dropped = registry.invalidate_relations({"R"})
        assert dropped == 2
        stats = registry.cache_stats()
        assert stats["size"] == 1
        assert stats["invalidations"] == 2
        assert stats["evictions"] == 0
        assert registry.lookup(_FakeKey("S")) is None  # distinct key obj
        assert registry.invalidate_relations({"Z"}) == 0

    def test_refresh_invalidates_views_of_changed_relations_only(self):
        db = two_table_db()
        backend = SQLiteBackend(db)
        registry = backend.view_registry
        r_key, s_key = _FakeKey("R"), _FakeKey("S")
        registry.register(r_key, "SELECT 1 AS c, 0.5 AS prob")
        registry.register(s_key, "SELECT 2 AS c, 0.5 AS prob")
        db.insert("R", (7, 8), 0.125)
        backend.refresh()
        assert registry.lookup(r_key) is None
        assert registry.lookup(s_key) is not None


# ----------------------------------------------------------------------
# the acceptance criterion: disjoint writes evict nothing (chain-7)
# ----------------------------------------------------------------------
class TestDisjointWriteEvictsNothing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain7_disjoint_write_keeps_result_views_and_stats(
        self, backend
    ):
        db = chain_database(7, 30, seed=7)
        sub = parse_query("q(x0, x2) :- R1(x0, x1), R2(x1, x2)")
        config = EngineConfig(backend=backend, write_factor=0.0)
        with connect(db, config, optimizations=ALL_PLANS) as session:
            first = session.evaluate(sub)
            engine = session.engine
            evaluations = engine.evaluation_count
            if backend == "sqlite":
                registry = engine.sqlite.view_registry
                views_before = registry.cache_stats()

            # write confined to R5 — disjoint from the cached query
            session.mutate(
                lambda d: d.insert("R5", (90_001, 90_002), 0.25)
            )
            assert session.results.stats()["evictions"] == 0
            again = session.evaluate(sub)
            assert again.cached
            assert again.scores == first.scores
            assert engine.evaluation_count == evaluations

            # drive the engine directly so the snapshot refreshes and
            # the engine-level caches get exercised post-write
            direct = engine.evaluate(sub, ALL_PLANS)
            assert_scores_close(direct.scores, first.scores, 1e-12)
            if backend == "sqlite":
                views_mid = registry.cache_stats()
                assert views_mid["invalidations"] == 0
                assert views_mid["size"] >= views_before["size"]
                stats_catalog = engine.sqlite_executor.snapshot().catalog
                recomputations = stats_catalog.recomputations
                # another disjoint write, then a repeat: the refresh
                # must leave the query's views and statistics alone
                session.mutate(
                    lambda d: d.insert("R5", (90_005, 90_006), 0.25)
                )
                engine.evaluate(sub, ALL_PLANS)
                views_after = registry.cache_stats()
                assert views_after["hits"] > views_mid["hits"]
                assert views_after["misses"] == views_mid["misses"]
                assert views_after["invalidations"] == 0
                if recomputations is not None:
                    assert stats_catalog.recomputations == recomputations

            # control: a write to R1 must invalidate the cached entry
            session.mutate(
                lambda d: d.insert("R1", (90_003, 90_004), 0.25)
            )
            assert session.results.stats()["evictions"] >= 1
            assert not session.evaluate(sub).cached
            if backend == "sqlite":
                engine.sqlite  # trigger the refresh
                assert registry.cache_stats()["invalidations"] > 0


# ----------------------------------------------------------------------
# randomized interleavings (satellite 4)
# ----------------------------------------------------------------------
def _chain_workload():
    db = chain_database(3, 10, seed=3)
    full = chain_query(3)
    queries = (
        full,
        parse_query("q(x0, x2) :- R1(x0, x1), R2(x1, x2)"),
        parse_query("q(x2, x3) :- R3(x2, x3)"),
    )
    tables = ("R1", "R2", "R3")
    return db, queries, tables


def _star_workload():
    db = star_database(3, 10, seed=3)
    queries = (
        star_query(3),
        parse_query("q(y) :- R1(x, y)"),
        parse_query("q(x) :- R2(x)"),
    )
    tables = ("R0", "R1", "R2", "R3")
    return db, queries, tables


WORKLOADS = {"chain": _chain_workload, "star": _star_workload}


def _fresh_row(db: ProbabilisticDatabase, name: str, step: int) -> tuple:
    arity = db.table(name).arity
    if name == "R1" and any(
        isinstance(value, str) for row, _ in db.table(name) for value in row
    ):
        return (ANCHOR, 10_000 + step)
    return tuple(10_000 + step + i for i in range(arity))


def _drop_readd(db: ProbabilisticDatabase, name: str) -> None:
    """Re-add ``name`` with the same row count but halved probabilities
    — the same per-table mutation counter, different contents."""
    rows = [(row, p * 0.5) for row, p in db.table(name)]
    db.drop_table(name)
    db.add_table(name, rows)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, 2)),
        st.tuples(st.just("insert"), st.integers(0, 3)),
        st.tuples(st.just("drop_readd"), st.integers(0, 3)),
    ),
    max_size=7,
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@settings(max_examples=10, deadline=None)
@given(ops=_OPS)
def test_interleaved_mutations_match_cold_engine(backend, workload, ops):
    """Replay a random interleaving of queries, single-table writes and
    drop/re-adds; every answer must match a cold engine on the current
    state, and entries over untouched relations must be served from the
    result cache (the hit counter proves survival)."""
    db, queries, tables = WORKLOADS[workload]()
    config = EngineConfig(backend=backend)
    # model: which queries have a warm, current cache entry
    warm = [False] * len(queries)

    def run_query(session, index):
        query = queries[index]
        hits_before = session.results.stats()["hits"]
        result = session.evaluate(query)
        hits_after = session.results.stats()["hits"]
        assert result.cached == warm[index]
        assert hits_after - hits_before == (1 if warm[index] else 0)
        assert result.epoch == db.epoch_vector(query.relations)
        cold = DissociationEngine(db, config).evaluate(query)
        # a cold engine interns value codes in its own order, so the
        # independent-or sums may differ in the last couple of ulps —
        # any staleness (probabilities halved, rows added) is orders of
        # magnitude larger than these tolerances
        tolerance = 1e-12 if backend == "memory" else 1e-9
        assert_scores_close(result.scores, cold.scores, tolerance)
        warm[index] = True

    with connect(db, config) as session:
        for step, (kind, index) in enumerate(ops):
            if kind == "query":
                run_query(session, index % len(queries))
                continue
            name = tables[index % len(tables)]
            if kind == "insert":
                row = _fresh_row(db, name, step)
                session.mutate(lambda d: d.insert(name, row, 0.25))
            else:
                session.mutate(lambda d: _drop_readd(d, name))
            for i, query in enumerate(queries):
                if name in query.relations:
                    warm[i] = False
        # closing sweep: every query consistent with the final state
        for index in range(len(queries)):
            run_query(session, index)
