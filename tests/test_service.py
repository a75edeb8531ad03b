"""Service-layer tests: micro-batching, the cross-query shared-subplan
DAG, engine batch entry points, and multi-threaded stress with
mid-stream database mutations.

The central guarantees pinned down here:

* a batch of overlapping queries evaluates each distinct structural
  subplan exactly once (asserted through the cache / registry counters);
* batch results are bit-identical to serial per-query evaluation on the
  memory backend, and within 1e-12 on SQLite, across every optimization
  combination;
* under concurrent submissions interleaved with database mutations,
  every result matches the serial evaluation of the exact epoch it ran
  under — caches never serve stale epochs.
"""

from __future__ import annotations

import random
import sqlite3
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.api import EngineConfig, ServiceConfig, connect
from repro.core.query import ConjunctiveQuery
from repro.core.parser import parse_query
from repro.engine import DissociationEngine, Optimizations
from repro.service import (
    DissociationService,
    FaultInjector,
    MicroBatcher,
    QueryRequest,
    ServiceOverloaded,
)
from repro.workloads import chain_database, chain_query

from .helpers import ALL_OPTIMIZATION_COMBOS, assert_scores_close

ALL_PLANS = Optimizations(single_plan=False, reuse_views=True)
CHAIN4_TAIL = "R2(x1,x2), R3(x2,x3), R4(x3,x4)"


def subchain(full: ConjunctiveQuery, i: int, j: int) -> ConjunctiveQuery:
    """A Boolean query over a contiguous atom window of ``full``."""
    return ConjunctiveQuery(full.atoms[i:j], ())


def overlapping_mix(k: int = 5) -> tuple:
    full = chain_query(k)
    queries = [
        full,
        subchain(full, 0, 3),
        subchain(full, 1, 4),
        subchain(full, 2, 5),
        subchain(full, 0, 4),
    ]
    return full, queries


def distinct_structural_nodes(plans) -> set:
    seen = set()
    for plan in plans:
        for node in plan.walk():
            seen.add(node)
    return seen


def batch_dag_stats(db, queries, opts=ALL_PLANS) -> dict:
    """``stats()["dag"]`` of a service that ran ``queries`` as one batch."""
    with DissociationService(
        db,
        service=ServiceConfig(
            workers=1,
            max_batch_size=len(queries),
            max_batch_delay=0.5,
            collect_dag_stats=True,
        ),
    ) as service:
        service.evaluate_many(queries, opts)
        stats = service.stats()
    assert stats["batches"] == 1
    return stats["dag"]


# ----------------------------------------------------------------------
# the cross-query shared-subplan DAG
# ----------------------------------------------------------------------
class TestBatchPlanDAG:
    def test_dedup_counts_on_overlapping_chains(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 30, seed=3, p_max=0.5)
        engine = DissociationEngine(db)
        roots = [engine.minimal_plans(q) for q in queries]
        dag = batch_dag_stats(db, queries)
        assert dag["distinct_nodes"] == len(
            distinct_structural_nodes([p for r in roots for p in r])
        )
        # overlapping subchains must actually share subplans
        assert dag["node_occurrences"] > dag["distinct_nodes"]
        assert dag["cross_query_nodes"] > 0
        assert dag["dedup_ratio"] > 1.5

    def test_cross_query_nodes_are_in_multiple_queries(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 30, seed=3, p_max=0.5)
        engine = DissociationEngine(db)
        per_query = [
            distinct_structural_nodes(engine.minimal_plans(q))
            for q in queries
        ]
        shared = {
            node
            for i, nodes in enumerate(per_query)
            for node in nodes
            if any(node in other for other in per_query[i + 1 :])
        }
        assert batch_dag_stats(db, queries)["cross_query_nodes"] == len(
            shared
        ) > 0

    def test_disjoint_queries_share_nothing(self):
        q1 = parse_query("q() :- R(x, y)")
        q2 = parse_query("q() :- S(x, y)")
        dag = batch_dag_stats(_tiny_db(), [q1, q2])
        assert dag["cross_query_nodes"] == 0
        assert dag["dedup_ratio"] == 1.0


def _tiny_db():
    from repro.db import ProbabilisticDatabase

    db = ProbabilisticDatabase()
    db.add_table("R", [((1, 2), 0.5), ((2, 3), 0.4)])
    db.add_table("S", [((1, 2), 0.3)])
    return db


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def _request(query, opts=None) -> QueryRequest:
    return QueryRequest(
        query=query,
        optimizations=opts or Optimizations(),
        future=Future(),
    )


class TestMicroBatcher:
    def test_batches_group_by_optimizations(self):
        q = parse_query("q() :- R(x, y)")
        batcher = MicroBatcher(max_batch_size=8, max_batch_delay=0.0)
        batcher.submit(_request(q, Optimizations()))
        batcher.submit(_request(q, Optimizations.none()))
        batcher.submit(_request(q, Optimizations()))
        first = batcher.next_batch(timeout=1.0)
        assert [r.optimizations for r in first] == [
            Optimizations(),
            Optimizations(),
        ]
        second = batcher.next_batch(timeout=1.0)
        assert [r.optimizations for r in second] == [Optimizations.none()]

    def test_max_batch_size_enforced(self):
        q = parse_query("q() :- R(x, y)")
        batcher = MicroBatcher(max_batch_size=3, max_batch_delay=0.0)
        for _ in range(7):
            batcher.submit(_request(q))
        sizes = [
            len(batcher.next_batch(timeout=1.0)) for _ in range(3)
        ]
        assert sizes == [3, 3, 1]

    def test_overload_raises_when_not_blocking(self):
        q = parse_query("q() :- R(x, y)")
        batcher = MicroBatcher(max_pending=2)
        batcher.submit(_request(q))
        batcher.submit(_request(q))
        with pytest.raises(ServiceOverloaded):
            batcher.submit(_request(q), block=False)
        assert batcher.rejected == 1

    def test_close_wakes_waiters_and_drains(self):
        q = parse_query("q() :- R(x, y)")
        batcher = MicroBatcher()
        batcher.submit(_request(q))
        batcher.close()
        assert len(batcher.next_batch()) == 1  # drains what is pending
        assert batcher.next_batch() == []  # then reports closed
        with pytest.raises(RuntimeError):
            batcher.submit(_request(q))

    def test_delay_coalesces_stragglers(self):
        q = parse_query("q() :- R(x, y)")
        batcher = MicroBatcher(max_batch_size=2, max_batch_delay=0.5)
        batcher.submit(_request(q))

        def late():
            time.sleep(0.05)
            batcher.submit(_request(q))

        thread = threading.Thread(target=late)
        thread.start()
        batch = batcher.next_batch(timeout=2.0)
        thread.join()
        assert len(batch) == 2


# ----------------------------------------------------------------------
# engine batch entry points
# ----------------------------------------------------------------------
class TestEvaluateBatch:
    def test_memory_batch_bit_identical_to_serial_all_combos(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=5, p_max=0.5)
        for opts in ALL_OPTIMIZATION_COMBOS:
            batch_engine = DissociationEngine(db)
            serial_engine = DissociationEngine(db)
            results = batch_engine.evaluate_batch(queries, opts)
            for query, result in zip(queries, results):
                serial = serial_engine.propagation_score(query, opts)
                assert result.scores == serial, (opts, query)
                assert result.epoch == db.epoch_vector(query.relations)

    def test_sqlite_batch_matches_serial_all_combos(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=6, p_max=0.5)
        for opts in ALL_OPTIMIZATION_COMBOS:
            batch_engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
            serial_engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
            results = batch_engine.evaluate_batch(queries, opts)
            for query, result in zip(queries, results):
                serial = serial_engine.propagation_score(query, opts)
                assert_scores_close(
                    result.scores, serial, tolerance=1e-12
                )

    def test_memory_batch_evaluates_each_subplan_exactly_once(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=7, p_max=0.5)
        engine = DissociationEngine(db)
        plans_per = [engine.minimal_plans(q) for q in queries]
        distinct = distinct_structural_nodes(
            [p for plans in plans_per for p in plans]
        )
        engine.evaluate_batch(queries, ALL_PLANS)
        stats = engine.cache_stats()
        # one miss (= one evaluation) per distinct structural node; every
        # further occurrence across the batch is a cache hit
        assert stats["misses"] == len(distinct)
        assert stats["hits"] > 0

    def test_batch_of_8_overlapping_queries_exactly_once(self):
        # the acceptance shape: >= 8 concurrent overlapping queries
        full = chain_query(7)
        queries = [
            subchain(full, i, j)
            for i, j in [(0, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (2, 7), (1, 6)]
        ]
        assert len(queries) == 8
        db = chain_database(7, 60, seed=8, p_max=0.5)
        engine = DissociationEngine(db)
        plans_per = [engine.minimal_plans(q) for q in queries]
        distinct = distinct_structural_nodes(
            [p for plans in plans_per for p in plans]
        )
        results = engine.evaluate_batch(queries, ALL_PLANS)
        stats = engine.cache_stats()
        assert stats["misses"] == len(distinct)
        # cross-check against serial evaluation, bit for bit
        serial_engine = DissociationEngine(db)
        for query, result in zip(queries, results):
            assert result.scores == serial_engine.propagation_score(
                query, ALL_PLANS
            )

    def test_sqlite_batch_materializes_shared_subplans_once(self):
        from repro.engine import subplan_reference_counts

        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=9, p_max=0.5)
        # write_factor=0: every subplan with >= 2 reference sites passes
        # the cost gate, so "shared implies materialized exactly once"
        engine = DissociationEngine(db, EngineConfig(backend="sqlite", write_factor=0.0))
        plans_per = [engine.minimal_plans(q) for q in queries]
        shared = [
            node
            for node, count in subplan_reference_counts(
                [p for plans in plans_per for p in plans]
            ).items()
            if count >= 2
        ]
        engine.evaluate_batch(queries, ALL_PLANS)
        stats = engine.cache_stats()
        assert stats["misses"] == len(shared)
        assert stats["hits"] > 0
        registry = engine.sqlite.view_registry
        for node in shared:
            assert node in registry

    def test_duplicate_queries_collapse_to_one_evaluation(self):
        query = chain_query(4)
        db = chain_database(4, 30, seed=10, p_max=0.5)
        engine = DissociationEngine(db)
        results = engine.evaluate_batch([query] * 6, ALL_PLANS)
        assert len(results) == 6
        first = results[0]
        for result in results[1:]:
            assert result.scores == first.scores
            # fanned-out copies are independent dicts
            assert result.scores is not first.scores
        stats = engine.cache_stats()
        plans = engine.minimal_plans(query)
        assert stats["misses"] == len(distinct_structural_nodes(plans))

    def test_sqlite_union_factors_shared_tops_into_ctes(self):
        # an enormous write factor keeps everything out of the registry,
        # so the only sharing left is the per-statement CTE factoring
        query = chain_query(5)
        db = chain_database(5, 40, seed=11, p_max=0.5)
        engine = DissociationEngine(
            db, EngineConfig(backend="sqlite", write_factor=1e12)
        )
        result = engine.evaluate(query, ALL_PLANS)
        assert engine.cache_stats()["misses"] == 0  # nothing materialized
        assert result.sql is not None and "shared_" in result.sql
        baseline = DissociationEngine(db, EngineConfig(backend="sqlite")).evaluate(
            query, ALL_PLANS
        )
        assert_scores_close(result.scores, baseline.scores, 1e-12)

    def test_empty_batch(self):
        db = chain_database(3, 10, seed=12, p_max=0.5)
        assert DissociationEngine(db).evaluate_batch([]) == []


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class TestDissociationService:
    def test_results_match_serial_and_fan_out(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=13, p_max=0.5)
        serial = DissociationEngine(db)
        with DissociationService(db, service=ServiceConfig(workers=2)) as service:
            futures = [
                service.submit(q) for q in queries for _ in range(2)
            ]
            results = service.gather(futures)
        for query, result in zip(
            [q for q in queries for _ in range(2)], results
        ):
            assert result.scores == serial.propagation_score(query)

    def test_sqlite_service_with_calibration(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 30, seed=14, p_max=0.5)
        serial = DissociationEngine(db, EngineConfig(backend="sqlite"))
        with DissociationService(
            db,
            EngineConfig(backend="sqlite"),
            ServiceConfig(workers=2, calibrate=True),
        ) as service:
            results = service.evaluate_many(queries, ALL_PLANS)
            stats = service.stats()
        assert 0.5 <= stats["write_factor"] <= 16.0
        for query, result in zip(queries, results):
            assert_scores_close(
                result.scores,
                serial.propagation_score(query, ALL_PLANS),
                1e-12,
            )

    def test_stats_report_batching_and_dag_sharing(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 30, seed=15, p_max=0.5)
        with DissociationService(
            db,
            service=ServiceConfig(
                workers=1,
                max_batch_size=16,
                max_batch_delay=0.05,
                collect_dag_stats=True,
            ),
        ) as service:
            service.gather(
                [service.submit(q) for q in queries for _ in range(2)]
            )
            stats = service.stats()
        assert stats["queries"] == 2 * len(queries)
        assert stats["batches"] < stats["queries"]  # batching happened
        assert stats["mean_batch_size"] > 1.0
        assert stats["dag"]["dedup_ratio"] > 1.0
        assert stats["sessions"]

    def test_error_propagates_through_future(self):
        db = chain_database(3, 10, seed=16, p_max=0.5)
        missing = parse_query("q() :- NoSuchTable(x, y)")
        with DissociationService(db, service=ServiceConfig(workers=1)) as service:
            future = service.submit(missing)
            with pytest.raises(Exception):
                future.result(timeout=30)
            # the worker survives an erroring batch
            ok = service.evaluate(chain_query(3))
        assert ok.scores == DissociationEngine(db).propagation_score(
            chain_query(3)
        )

    def test_async_front_end(self):
        import asyncio

        db = chain_database(4, 20, seed=17, p_max=0.5)
        query = chain_query(4)

        async def main(service):
            return await asyncio.gather(
                service.submit_async(query),
                service.submit_async(query),
            )

        with DissociationService(db, service=ServiceConfig(workers=1)) as service:
            first, second = asyncio.run(main(service))
        assert first.scores == second.scores

    def test_submit_after_close_rejected(self):
        db = chain_database(3, 10, seed=18, p_max=0.5)
        service = DissociationService(db, service=ServiceConfig(workers=1))
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(chain_query(3))


# ----------------------------------------------------------------------
# concurrency stress: many clients, mutations mid-stream
# ----------------------------------------------------------------------
class _Harness:
    """Drives one service from many client threads while the database
    mutates, recording every (query, result) pair."""

    def __init__(self, service, queries, requests_per_client, clients, opts):
        self.service = service
        self.queries = queries
        self.requests_per_client = requests_per_client
        self.clients = clients
        self.opts = opts
        self.observed: list = []
        self._lock = threading.Lock()
        self.errors: list = []

    def _client(self, seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(self.requests_per_client):
                query = rng.choice(self.queries)
                result = self.service.submit(query, self.opts).result(60)
                with self._lock:
                    self.observed.append((query, result))
        except BaseException as exc:  # noqa: BLE001 - surfaced in the test
            with self._lock:
                self.errors.append(exc)

    def run(self, mutate_between=None) -> None:
        threads = [
            threading.Thread(target=self._client, args=(seed,))
            for seed in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        if mutate_between is not None:
            mutate_between()
        for thread in threads:
            thread.join()


def _expected_for_epoch(db, queries, opts, backend="memory"):
    """Cold baselines keyed by ``(epoch vector, query, head order)``.

    Results stamp the epoch vector of their own relations, so a query
    untouched by a mutation keeps its pre-mutation key — and its
    pre-mutation scores, making re-registration consistent.
    """
    engine = DissociationEngine(db, EngineConfig(backend=backend))
    return {
        (db.epoch_vector(q.relations), q, q.head_order): (
            engine.propagation_score(q, opts)
        )
        for q in queries
    }


class TestConcurrencyStress:
    def test_memory_stress_with_mutations_bit_identical_per_epoch(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 40, seed=19, p_max=0.5)
        opts = ALL_PLANS
        expected = _expected_for_epoch(db, queries, opts)
        with DissociationService(
            db,
            service=ServiceConfig(
                workers=4, max_batch_size=8, max_batch_delay=0.005
            ),
        ) as service:
            harness = _Harness(service, queries, 15, 6, opts)

            def mutate_twice():
                for step in range(2):
                    time.sleep(0.05)
                    service.mutate(
                        lambda d: d.insert(
                            "R1", (10_000 + step, 10_001 + step), 0.5
                        )
                    )
                    # epochs are stable until the next mutate(); compute
                    # the new expectations while clients keep running
                    expected.update(_expected_for_epoch(db, queries, opts))

            harness.run(mutate_between=mutate_twice)
        assert not harness.errors, harness.errors
        assert len(harness.observed) == 6 * 15
        seen_epochs = set()
        for query, result in harness.observed:
            seen_epochs.add(result.epoch)
            key = (result.epoch, query, query.head_order)
            assert key in expected, "result from unknown epoch"
            # bit-identical: stale-epoch cache reuse would show up here
            assert result.scores == expected[key]
        assert len(seen_epochs) >= 1

    def test_sqlite_stress_with_mutation_per_epoch(self):
        _, queries = overlapping_mix()
        db = chain_database(5, 30, seed=20, p_max=0.5)
        opts = ALL_PLANS
        expected = _expected_for_epoch(db, queries, opts, "sqlite")
        with DissociationService(
            db,
            EngineConfig(backend="sqlite"),
            ServiceConfig(workers=3, max_batch_size=8, max_batch_delay=0.005),
        ) as service:
            harness = _Harness(service, queries, 8, 4, opts)

            def mutate_once():
                time.sleep(0.05)
                service.mutate(
                    lambda d: d.insert("R2", (20_000, 20_001), 0.4)
                )
                expected.update(
                    _expected_for_epoch(db, queries, opts, "sqlite")
                )

            harness.run(mutate_between=mutate_once)
        assert not harness.errors, harness.errors
        for query, result in harness.observed:
            key = (result.epoch, query, query.head_order)
            assert key in expected
            assert_scores_close(result.scores, expected[key], 1e-9)


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------
class TestRegressions:
    def test_workers_survive_burst_races(self):
        """Two workers racing for one burst: the loser must go back to
        waiting, not treat the drained queue as shutdown."""
        db = chain_database(3, 15, seed=25, p_max=0.5)
        query = chain_query(3)
        service = DissociationService(
            db,
            service=ServiceConfig(
                workers=2, max_batch_size=2, max_batch_delay=0.0
            ),
        )
        try:
            for _ in range(12):
                futures = [service.submit(query) for _ in range(2)]
                service.gather(futures, timeout=30)
            assert all(t.is_alive() for t in service._threads)
        finally:
            service.close()

    def test_materialized_parent_of_scope_cte_child(self):
        """A registered view whose subtree references a scope CTE must
        inline the definition (the DDL runs outside the statement whose
        WITH clause holds it)."""
        from repro.core import Variable, parse_query
        from repro.core.plans import Join, Project, Scan
        from repro.db import ProbabilisticDatabase, SQLiteBackend
        from repro.engine import SQLCompiler, StatementScope

        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.5), ((1, 3), 0.6), ((2, 3), 0.7)])
        db.add_table("S", [((1,), 0.5), ((2,), 0.4)])
        db.add_table("T", [((1,), 0.3), ((2,), 0.8)])
        x = Variable("x")
        shared = Project(
            [x], Scan(parse_query("q(x, y) :- R(x, y)").atoms[0])
        )
        scan_s = Scan(parse_query("q(x) :- S(x)").atoms[0])
        scan_t = Scan(parse_query("q(x) :- T(x)").atoms[0])
        parent_a = Project([], Join([shared, scan_s]))
        parent_b = Project([], Join([shared, scan_t]))
        backend = SQLiteBackend(db)
        registry = backend.view_registry
        compiler = SQLCompiler(db.schema, reuse_views=True)
        from repro.engine import subplan_reference_counts

        scope = StatementScope(
            subplan_reference_counts(
                [parent_a, parent_b], include_joins=True
            )
        )
        materialize_parents = {parent_a, parent_b}
        refs = []
        for plan in (parent_a, parent_b):
            created, ref = compiler.compile_selective(
                plan,
                registry,
                lambda node: node in materialize_parents,
                scope=scope,
            )
            refs.append(ref)
        # the shared child became a statement CTE, both parents views
        assert scope.cte_nodes and shared in scope.cte_nodes
        assert parent_a in registry and parent_b in registry
        for ref in refs:
            rows = backend.execute(f"SELECT * FROM {ref}")
            assert len(rows) == 1  # Boolean aggregate
        backend.close()

    def test_concurrent_mutators_both_complete(self):
        db = chain_database(3, 15, seed=26, p_max=0.5)
        query = chain_query(3)
        with DissociationService(db, service=ServiceConfig(workers=2)) as service:
            stop = threading.Event()

            def load():
                while not stop.is_set():
                    service.evaluate(query)

            loader = threading.Thread(target=load)
            loader.start()
            try:
                mutators = [
                    threading.Thread(
                        target=lambda i=i: service.mutate(
                            lambda d: d.insert(
                                "R1", (30_000 + i, 30_001 + i), 0.5
                            )
                        ),
                    )
                    for i in range(4)
                ]
                for thread in mutators:
                    thread.start()
                for thread in mutators:
                    thread.join(timeout=30)
                    assert not thread.is_alive(), "mutator starved"
            finally:
                stop.set()
                loader.join(timeout=30)
        assert service.stats()["mutations"] == 4

    def test_dag_statistics_leave_the_plan_memo_counters_alone(self):
        """Five serial chain-4 requests (three of them renamed) read the
        same plan-memo counters with and without DAG statistics."""
        db = chain_database(4, 20, seed=28, p_max=0.5)
        queries = [
            parse_query(
                f"q({v}0, {v}4) :- R1({v}0, {v}1), R2({v}1, {v}2), "
                f"R3({v}2, {v}3), R4({v}3, {v}4)"
            )
            for v in "xxyzx"
        ]
        memo = {}
        for flag in (False, True):
            with DissociationService(
                db,
                service=ServiceConfig(workers=1, collect_dag_stats=flag),
            ) as service:
                for query in queries:
                    service.evaluate(query)
                memo[flag] = service.engine.plan_memo_stats()
                dag = service.stats()["dag"]
        assert memo[True] == memo[False]
        assert memo[False]["renamed_hits"] > 0
        assert dag["node_occurrences"] > dag["distinct_nodes"] > 0

    def test_namespace_census_exact_across_snapshot_rebuilds(self):
        """The engine's live-view count is what its one connection holds
        — across a mutation-triggered snapshot refresh, from every
        worker's report, and after close() released the connection."""
        db = chain_database(3, 20, seed=27, p_max=0.5)
        # Boolean chain: its minimal plans share projections, so the
        # zero write factor materializes views on the first call
        query = chain_query(3, boolean=True)

        def census(engine) -> int:
            [(count,)] = engine.sqlite.execute(
                "SELECT count(*) FROM sqlite_temp_master "
                "WHERE type = 'table' AND name LIKE 'dissoc_%'"
            )
            return count

        with DissociationService(
            db,
            EngineConfig(backend="sqlite", write_factor=0.0),
            ServiceConfig(workers=2),
        ) as service:
            engine = service.engine
            service.evaluate(query, ALL_PLANS)
            before = engine.cache_stats()
            assert before["size"] == census(engine) > 0
            service.mutate(
                lambda d: d.insert("R1", (40_000, 40_001), 0.5)
            )
            service.evaluate(query, ALL_PLANS)
            after = engine.cache_stats()
            assert after["size"] == census(engine)
            sessions = service.stats()["sessions"]
        # both workers report the one registry
        assert len(sessions) == 2
        assert all(s["cache"] == after for s in sessions)
        # the refreshed snapshot dropped the views scanning the mutated
        # table and registered them again
        assert after["misses"] > before["misses"]
        # closing the connection took its views with it
        assert engine.cache_stats()["size"] == 0
        assert engine.cache_stats()["misses"] == after["misses"]


# ----------------------------------------------------------------------
# one engine per deployment (both backends)
# ----------------------------------------------------------------------
class TestOneEnginePerDeployment:
    SQLITE = EngineConfig(backend="sqlite", write_factor=0.0)

    def test_sqlite_workers_share_one_plan_memo(self):
        """Six query shapes, 24 submissions from two threads over two
        worker connections: each shape is enumerated once per flavour."""
        full, queries = overlapping_mix()
        queries.append(subchain(full, 1, 5))
        db = chain_database(5, 20, seed=31, p_max=0.5)
        serial = DissociationEngine(db, self.SQLITE)
        expected = {q: serial.propagation_score(q) for q in queries}
        serial.release()
        observed: list = []
        with connect(
            db,
            self.SQLITE,
            concurrent=True,
            service=ServiceConfig(workers=2),
            result_cache_size=0,  # every submission reaches the engine
        ) as session:

            def client(order) -> None:
                for query in order * 2:
                    observed.append((query, session.evaluate(query).scores))

            clients = [
                threading.Thread(target=client, args=(order,))
                for order in (queries, queries[::-1])
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            stats = session.stats()
        assert len(observed) == 4 * len(queries)
        for query, scores in observed:
            assert_scores_close(scores, expected[query], 1e-12)
        assert stats["engine"]["evaluations"] == 4 * len(queries)
        # the default optimizations use two flavours: the minimal plans
        # (plan count) and the merged single plan (the target)
        assert stats["engine"]["plan_memo"]["misses"] == 2 * len(queries)

    def test_sqlite_workers_share_one_connection(self):
        """A worker killed and replaced mid-stream leaves the snapshot
        alone: the replacement runs on the same connection, its views
        and its templates; close() closes it and keeps the counters."""
        db = chain_database(3, 20, seed=32, p_max=0.5)
        query = chain_query(3, boolean=True)
        serial = DissociationEngine(db, self.SQLITE)
        for _ in range(6):
            expected = serial.evaluate(query, ALL_PLANS).scores
        faults = FaultInjector()
        # the third batch kills its worker: the snapshot exists by then
        faults.on_call("worker", 3, RuntimeError("worker killed"))
        service = DissociationService(
            db, self.SQLITE, ServiceConfig(workers=2), faults=faults
        )
        with service:
            engine = service.engine
            assert service.evaluate(query, ALL_PLANS).scores == expected
            snapshot = engine.sqlite_executor.snapshot()
            for _ in range(5):
                assert service.evaluate(query, ALL_PLANS).scores == expected
            assert service.health()["worker_restarts"] == 1
            assert engine.sqlite_executor.snapshot() is snapshot
            assert engine.cache_stats() == serial.cache_stats()
            assert engine.statement_stats() == serial.statement_stats()
            live = engine.cache_stats()
            assert live["size"] > 0
        connection = snapshot.backend.connection
        with pytest.raises(sqlite3.ProgrammingError):
            connection.execute("SELECT 1")
        # the released connection's counters were folded, not lost
        assert engine.cache_stats() == dict(live, size=0)
        serial.release()

    def test_two_clients_share_one_snapshot_while_explain_runs(
        self, monkeypatch
    ):
        """Two client threads send plain and semi-join requests to a
        2-worker SQLite service while the caller thread runs explain():
        one ``SQLiteBackend`` is built, and its snapshot materializes and
        compiles exactly as often as a serial engine's on the same
        stream. One-request batches price each request as the serial
        engine does; the constants share one frequency class, so the
        counters do not depend on the order the workers take them in."""
        db = chain_database(4, 200, seed=6)
        config = EngineConfig(backend="sqlite")
        serial = DissociationEngine(db, config)
        snapshot = serial.sqlite_executor.snapshot()
        columns = snapshot.catalog.table_stats(
            "R1", snapshot.backend.table_epoch("R1")
        ).columns
        classes: dict = {}
        for value in sorted(db.table("R1").column_values(0)):
            classes.setdefault(columns[0].frequency(value), []).append(value)
        constants = max(classes.values(), key=len)[:24]
        semijoin = Optimizations(semijoin=True)
        stream = [
            (parse_query(f"q(x4) :- R1({c},x1), {CHAIN4_TAIL}"), opts)
            for c, opts in [(c, None) for c in constants]
            + [(c, semijoin) for c in constants[:8]]
        ]
        expected = [serial.evaluate(q, opts).scores for q, opts in stream]

        from repro.db.sqlite_backend import SQLiteBackend

        built: list = []
        original = SQLiteBackend.__init__

        def counting(backend, *args, **kwargs):
            built.append(backend)
            original(backend, *args, **kwargs)

        monkeypatch.setattr(SQLiteBackend, "__init__", counting)
        observed: dict = {}
        explained = 0
        with connect(
            db,
            config,
            concurrent=True,
            service=ServiceConfig(workers=2, max_batch_size=1),
            result_cache_size=0,
        ) as session:
            engine = session.engine
            handle = session.query(stream[0][0])

            def client(start: int) -> None:
                for at in range(start, len(stream), 2):
                    query, opts = stream[at]
                    observed[at] = session.evaluate(query, opts).scores

            clients = [
                threading.Thread(target=client, args=(start,))
                for start in (0, 1)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more interleavings per request
            try:
                for thread in clients:
                    thread.start()
                while any(thread.is_alive() for thread in clients):
                    assert "statement_template" in handle.explain()
                    explained += 1
                for thread in clients:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            served = engine.cache_stats()
            compiled = engine.statement_stats()
        assert explained >= 1
        assert [observed[at] for at in range(len(stream))] == expected
        assert len(built) == 1
        assert served["misses"] == serial.cache_stats()["misses"]
        assert compiled["misses"] == serial.statement_stats()["misses"]
        assert engine.cache_stats()["size"] == 0
        serial.release()

    def test_concurrent_session_has_exactly_one_engine(self):
        db = chain_database(3, 20, seed=33, p_max=0.5)
        with connect(
            db,
            self.SQLITE,
            concurrent=True,
            service=ServiceConfig(workers=2),
        ) as session:
            handle = session.query(chain_query(3), ALL_PLANS)
            assert handle.explain()["materialization"]
            assert handle.exact()
            assert session.engine is session.service.engine
            assert "engine" in session.stats()
            backend = session.engine.sqlite
        with pytest.raises(sqlite3.ProgrammingError):
            backend.connection.execute("SELECT 1")
