"""Fault-tolerance tests: supervision, isolation, deadlines, chaos.

The guarantees pinned down here:

* every failure a caller can observe is **typed** — ``ServiceClosed``,
  ``RequestTimeout``, ``WorkerCrashed`` — and every submitted future
  *resolves* (result or typed exception): no caller is ever left
  blocked on a future nobody will deliver;
* a crashed worker's in-flight batch migrates to a healthy worker
  (innocent requests still get bit-identical results), the thread is
  replaced within the restart budget, and :meth:`health` accounts for
  every crash/restart exactly;
* one poison query has a blast radius of exactly one future;
* transient SQLite contention retries deterministically, permanent
  errors never retry;
* a mutation function that raises releases the quiescence barrier and
  either rolls back bit-identically (epochs untouched, caches warm) or,
  when the undo replay itself fails, taints every epoch, so caches can
  never serve half-applied state as the pre-mutation epoch. The deeper
  transactional/durability guarantees live in ``test_txn_recovery.py``.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import Future

import pytest

from repro import connect
from repro.api import EngineConfig, ServiceConfig
from repro.core.parser import parse_query
from repro.engine import DissociationEngine, Optimizations
from repro.service import (
    Deadline,
    DissociationService,
    FaultInjector,
    MicroBatcher,
    QueryRequest,
    RequestTimeout,
    RetryPolicy,
    ServiceClosed,
    WorkerCrashed,
    is_transient_error,
)
from repro.workloads import chain_database, chain_query


def locked_error() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database is locked")


def make_request(query=None) -> QueryRequest:
    return QueryRequest(
        query=query or parse_query("q() :- R1(x, y)"),
        optimizations=Optimizations(),
        future=Future(),
    )


# ----------------------------------------------------------------------
# RetryPolicy / Deadline / error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_transient_classification(self):
        assert is_transient_error(locked_error())
        assert is_transient_error(sqlite3.OperationalError("database is busy"))
        assert not is_transient_error(sqlite3.OperationalError("no such table: R"))
        assert not is_transient_error(sqlite3.ProgrammingError("bad SQL"))
        assert not is_transient_error(KeyError("no table named R"))

    def test_typed_errors_keep_legacy_bases(self):
        # existing `except RuntimeError` / `except TimeoutError` handlers
        # must keep catching the new typed errors
        assert issubclass(ServiceClosed, RuntimeError)
        assert issubclass(WorkerCrashed, RuntimeError)
        assert issubclass(RequestTimeout, TimeoutError)


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=5, backoff=0.01, max_backoff=0.05)
        assert policy.schedule() == [0.01, 0.02, 0.04, 0.05, 0.05]
        assert policy.schedule() == policy.schedule()

    def test_retries_transient_then_succeeds(self):
        policy = RetryPolicy(max_retries=3, backoff=0.01)
        sleeps: list[float] = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise locked_error()
            return "ok"

        assert policy.run(flaky, sleep=sleeps.append) == "ok"
        assert attempts["n"] == 3
        assert sleeps == [0.01, 0.02]

    def test_permanent_error_never_retries(self):
        policy = RetryPolicy(max_retries=3)
        attempts = {"n": 0}

        def broken():
            attempts["n"] += 1
            raise KeyError("no table named R")

        with pytest.raises(KeyError):
            policy.run(broken, sleep=lambda _: None)
        assert attempts["n"] == 1

    def test_budget_exhaustion_raises_last_error(self):
        policy = RetryPolicy(max_retries=2, backoff=0.0)
        attempts = {"n": 0}

        def always_locked():
            attempts["n"] += 1
            raise locked_error()

        with pytest.raises(sqlite3.OperationalError):
            policy.run(always_locked, sleep=lambda _: None)
        assert attempts["n"] == 3  # 1 try + 2 retries

    def test_expired_deadline_stops_retrying(self):
        policy = RetryPolicy(max_retries=10, backoff=0.0)
        expired = Deadline(expires_at=time.monotonic() - 1.0, timeout=0.001)
        attempts = {"n": 0}

        def always_locked():
            attempts["n"] += 1
            raise locked_error()

        with pytest.raises(sqlite3.OperationalError):
            policy.run(always_locked, deadline=expired, sleep=lambda _: None)
        assert attempts["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)


class TestDeadline:
    def test_after_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0
        past = Deadline(expires_at=time.monotonic() - 0.1, timeout=0.1)
        assert past.expired
        assert past.remaining() < 0


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_on_call_fires_only_on_nth_call(self):
        faults = FaultInjector()
        faults.on_call("worker", 2, RuntimeError)
        faults.fire("worker")
        with pytest.raises(RuntimeError):
            faults.fire("worker")
        faults.fire("worker")
        assert faults.calls("worker") == 3
        assert faults.stats()["fired"] == {"worker": 1}

    def test_predicate_and_times_budget(self):
        faults = FaultInjector()
        faults.when("evaluate", lambda c: c == "poison", KeyError, times=2)
        faults.fire("evaluate", "fine")
        with pytest.raises(KeyError):
            faults.fire("evaluate", "poison")
        with pytest.raises(KeyError):
            faults.fire("evaluate", "poison")
        faults.fire("evaluate", "poison")  # budget exhausted
        assert faults.stats() == {
            "calls": {"evaluate": 4},
            "fired": {"evaluate": 2},
        }

    def test_action_without_exception(self):
        faults = FaultInjector()
        seen: list[object] = []
        faults.always("statement", action=seen.append, times=1)
        faults.fire("statement", "SELECT 1")
        faults.fire("statement", "SELECT 2")
        assert seen == ["SELECT 1"]

    def test_exception_instance_raised_verbatim(self):
        faults = FaultInjector()
        exc = locked_error()
        faults.on_call("statement", 1, exc)
        with pytest.raises(sqlite3.OperationalError) as info:
            faults.fire("statement")
        assert info.value is exc


# ----------------------------------------------------------------------
# MicroBatcher: typed close, drain, and the worker-race path
# ----------------------------------------------------------------------
class TestBatcherResilience:
    def test_submit_after_close_raises_typed(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(ServiceClosed):
            batcher.submit(make_request())

    def test_drain_returns_and_clears_pending(self):
        batcher = MicroBatcher(max_batch_delay=0.0)
        requests = [make_request() for _ in range(3)]
        for request in requests:
            batcher.submit(request)
        assert batcher.drain() == requests
        assert len(batcher) == 0
        assert batcher.drain() == []

    def test_next_batch_worker_race_loops_instead_of_returning_empty(self):
        """The 'lost the race' path (next_batch): a worker whose group
        was drained by a concurrent worker during the grace wait must
        keep waiting, not return ``[]`` (which would read as shutdown).

        The race is reproduced white-box: while the worker grace-waits
        on the first request, the test steals the pending list (playing
        the concurrent winner) and wakes it with nothing left to take.
        """
        batcher = MicroBatcher(max_batch_size=4, max_batch_delay=0.5)
        got: list[list[QueryRequest]] = []
        worker = threading.Thread(
            target=lambda: got.append(batcher.next_batch(timeout=10.0))
        )
        worker.start()
        first = make_request()
        batcher.submit(first)
        time.sleep(0.1)  # worker is now inside the grace wait
        with batcher._lock:
            stolen = list(batcher._pending)
            batcher._pending.clear()
            batcher._not_empty.notify_all()
        assert stolen == [first]
        second = make_request()
        batcher.submit(second)
        worker.join(10.0)
        assert not worker.is_alive()
        assert got == [[second]]


# ----------------------------------------------------------------------
# service-level supervision
# ----------------------------------------------------------------------
def small_world():
    db = chain_database(4, 20, seed=1, p_max=0.5)
    return db, chain_query(4)


class TestWorkerSupervision:
    def test_submit_on_closed_service_raises_service_closed(self):
        db, q = small_world()
        service = DissociationService(db)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(q)

    def test_worker_crash_restarts_and_results_are_identical(self):
        db, q = small_world()
        baseline = DissociationEngine(db).evaluate(q).scores

        faults = FaultInjector()
        faults.on_call("worker", 1, RuntimeError("chaos: worker killed"))
        with DissociationService(
            db, faults=faults, service=ServiceConfig(workers=1)
        ) as service:
            result = service.evaluate(q)
            assert result.scores == baseline  # requeued, served by the
            # restarted worker, bit-identical
            health = service.health()
            assert health["worker_crashes"] == 1
            assert health["worker_restarts"] == 1
            assert health["live_workers"] == 1
            assert not health["failed"]
            assert "chaos" in health["last_worker_error"]
            stats = service.stats()
            assert stats["worker_restarts"] == 1
            assert stats["worker_crashes"] == 1

    def test_session_construction_crash_is_supervised(self):
        db, q = small_world()
        faults = FaultInjector()
        faults.on_call("session", 1, RuntimeError("cannot build session"))
        with DissociationService(
            db,
            EngineConfig(backend="sqlite"),
            ServiceConfig(workers=1),
            faults=faults,
        ) as service:
            result = service.evaluate(q)
            assert result.scores
            assert service.health()["worker_restarts"] == 1

    def test_restart_budget_exhaustion_fails_pool(self):
        db, q = small_world()
        faults = FaultInjector()
        faults.always("worker", RuntimeError("always crashing"))
        service = DissociationService(
            db,
            faults=faults,
            service=ServiceConfig(workers=1, max_worker_restarts=2),
        )
        try:
            futures = [service.submit(q) for _ in range(4)]
            failures = []
            for future in futures:
                with pytest.raises(WorkerCrashed):
                    future.result(timeout=30.0)
                failures.append(future.exception())
            health = service.health()
            assert health["failed"]
            assert health["live_workers"] == 0
            assert health["worker_restarts"] == 2  # budget, fully spent
            assert health["worker_crashes"] == 3  # original + 2 restarts
            with pytest.raises(WorkerCrashed):
                service.submit(q)
        finally:
            service.close()

    def test_close_reports_wedged_worker_and_fails_its_futures(self):
        db, q = small_world()
        release = threading.Event()
        faults = FaultInjector()
        faults.on_call("worker", 1, action=lambda _batch: release.wait(30.0))
        service = DissociationService(
            db, faults=faults, service=ServiceConfig(workers=1)
        )
        wedged_future = service.submit(q)
        queued_future = None
        try:
            time.sleep(0.2)  # the worker is now wedged inside the hook
            queued_future = service.submit(q)
            started = time.monotonic()
            service.close(timeout=0.5)
            assert time.monotonic() - started < 5.0
            health = service.health()
            assert health["wedged"] == ["dissoc-worker-0"]
            with pytest.raises(ServiceClosed):
                wedged_future.result(timeout=1.0)
            with pytest.raises(ServiceClosed):
                queued_future.result(timeout=1.0)
        finally:
            release.set()  # let the wedged thread exit cleanly
            service.close(timeout=5.0)

    def test_close_releases_mutation_quiesce_barrier(self):
        """close() during an in-flight mutate() quiesce must wake the
        mutator (with ServiceClosed) instead of leaving it blocked on a
        condition nobody will ever signal again."""
        db, q = small_world()
        release = threading.Event()
        faults = FaultInjector()
        # the "evaluate" hook fires *inside* the batch — _active_batches
        # is held, so a concurrent mutate() blocks in its quiesce wait
        faults.on_call("evaluate", 1, action=lambda _q: release.wait(30.0))
        service = DissociationService(
            db, faults=faults, service=ServiceConfig(workers=1)
        )
        wedged_future = service.submit(q)
        mutator_error: list[BaseException] = []

        def mutator():
            try:
                service.mutate(lambda _db: None)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                mutator_error.append(exc)

        mutator_thread = threading.Thread(target=mutator)
        try:
            time.sleep(0.2)  # the worker is wedged inside the batch
            mutator_thread.start()
            time.sleep(0.2)  # the mutator is now waiting for quiescence
            assert mutator_thread.is_alive()
            started = time.monotonic()
            service.close(timeout=0.5)
            mutator_thread.join(timeout=5.0)
            assert time.monotonic() - started < 5.0
            assert not mutator_thread.is_alive(), (
                "mutate() stayed blocked on the quiesce barrier after "
                "close()"
            )
            assert mutator_error and isinstance(
                mutator_error[0], ServiceClosed
            )
            with pytest.raises(ServiceClosed):
                wedged_future.result(timeout=1.0)
        finally:
            release.set()
            mutator_thread.join(timeout=5.0)
            service.close(timeout=5.0)


# ----------------------------------------------------------------------
# poison-query isolation
# ----------------------------------------------------------------------
class TestPoisonIsolation:
    def test_blast_radius_is_one(self):
        db, q = small_world()
        innocents = [
            parse_query("q() :- R1(x, y)"),
            parse_query("q() :- R2(x, y), R3(y, z)"),
        ]
        engine = DissociationEngine(db)
        baselines = [engine.evaluate(iq).scores for iq in innocents]

        faults = FaultInjector()
        faults.when("evaluate", lambda c: c == q, KeyError)
        with DissociationService(
            db,
            faults=faults,
            # one worker + a long coalescing window force one batch
            service=ServiceConfig(workers=1, max_batch_delay=0.1),
        ) as service:
            poisoned = service.submit(q)
            innocent_futures = [service.submit(iq) for iq in innocents]
            with pytest.raises(KeyError):
                poisoned.result(timeout=30.0)
            for future, baseline in zip(innocent_futures, baselines):
                assert future.result(timeout=30.0).scores == baseline
            stats = service.stats()
            assert stats["poison_queries"] == 1
            assert stats["batch_retries"] >= 1
            assert stats["worker_crashes"] == 0  # a poison query must
            # never take the worker thread down

    def test_transient_contention_is_retried_to_success(self):
        db, q = small_world()
        baseline = DissociationEngine(db).evaluate(q).scores
        faults = FaultInjector()
        # two transient firings: one fails the batch, one fails the
        # first individual attempt; the policy's retry then succeeds
        faults.when("evaluate", lambda c: c == q, locked_error(), times=2)
        with DissociationService(
            db,
            faults=faults,
            service=ServiceConfig(workers=1, retry_backoff=0.0),
        ) as service:
            assert service.evaluate(q).scores == baseline
            stats = service.stats()
            assert stats["poison_queries"] == 0
            assert stats["batch_retries"] == 1

    def test_single_member_batch_permanent_error_delivered_directly(self):
        db, q = small_world()
        faults = FaultInjector()
        faults.when("evaluate", lambda c: c == q, KeyError)
        with DissociationService(
            db,
            faults=faults,
            service=ServiceConfig(workers=1, max_batch_delay=0.0),
        ) as service:
            with pytest.raises(KeyError):
                service.submit(q).result(timeout=30.0)
            stats = service.stats()
            assert stats["poison_queries"] == 1


# ----------------------------------------------------------------------
# deadlines and gather
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_queue_expired_request_fails_fast_with_request_timeout(self):
        db, q = small_world()
        release = threading.Event()
        faults = FaultInjector()
        # wedge the only worker on its first batch so the second request
        # expires while queued
        faults.on_call("worker", 1, action=lambda _batch: release.wait(30.0))
        with DissociationService(
            db, faults=faults, service=ServiceConfig(workers=1)
        ) as service:
            blocker = service.submit(q)
            time.sleep(0.2)  # ensure the worker took the first batch
            doomed = service.submit(q, timeout=0.05)
            time.sleep(0.2)  # let the deadline expire while queued
            release.set()
            with pytest.raises(RequestTimeout):
                doomed.result(timeout=30.0)
            assert blocker.result(timeout=30.0).scores
            assert service.stats()["timeouts"] == 1

    def test_default_timeout_comes_from_service_config(self):
        db, q = small_world()
        release = threading.Event()
        faults = FaultInjector()
        faults.on_call("worker", 1, action=lambda _batch: release.wait(30.0))
        with DissociationService(
            db,
            faults=faults,
            service=ServiceConfig(workers=1, default_timeout=0.05),
        ) as service:
            blocker = service.submit(q, timeout=None)  # explicit opt-out
            time.sleep(0.2)
            doomed = service.submit(q)  # inherits default_timeout
            time.sleep(0.2)
            release.set()
            with pytest.raises(RequestTimeout):
                doomed.result(timeout=30.0)
            assert blocker.result(timeout=30.0).scores

    def test_invalid_timeout_rejected(self):
        db, q = small_world()
        with DissociationService(db) as service:
            with pytest.raises(ValueError):
                service.submit(q, timeout=0.0)
            with pytest.raises(ValueError):
                service.submit(q, timeout=-1.0)

    def test_gather_timeout_is_one_overall_deadline(self):
        db, q = small_world()
        release = threading.Event()
        faults = FaultInjector()
        faults.on_call("worker", 1, action=lambda _batch: release.wait(30.0))
        service = DissociationService(
            db, faults=faults, service=ServiceConfig(workers=1)
        )
        try:
            futures = [service.submit(q) for _ in range(5)]
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                service.gather(futures, timeout=0.3)
            elapsed = time.monotonic() - started
            # pre-fix behaviour: each future restarts the clock, so five
            # stuck futures could wait 5 x 0.3s; one shared deadline
            # must stay close to 0.3s total
            assert elapsed < 1.0
        finally:
            release.set()
            service.close()


# ----------------------------------------------------------------------
# mutation failure semantics
# ----------------------------------------------------------------------
class TestMutationFailure:
    @staticmethod
    def _raise_without_writing(db):
        # writes nothing: any epoch movement observed by the test can
        # only come from the touch-on-failure semantics
        raise ValueError("mutation failed before writing")

    @staticmethod
    def _half_apply_then_raise(db):
        db.insert("R1", (999_991, 999_992), 0.5)
        raise ValueError("mutation failed midway")

    @staticmethod
    def _lossy_rollback(call=1):
        """Faults that fail the ``call``-th undo replay, so that rollback
        cannot be certified and the failed mutation taints."""
        faults = FaultInjector()
        faults.on_call("rollback", call, RuntimeError("chaos: undo lost"))
        return faults

    def test_failed_mutation_releases_barrier_and_rolls_back(self):
        db, q = small_world()
        with DissociationService(db) as service:
            before = db.version
            epochs_before = db.table_epochs()
            with pytest.raises(ValueError):
                service.mutate(self._raise_without_writing)
            # fn wrote nothing through the tracked API, so the undo
            # log certifies a clean rollback: *no* epoch moves — the
            # pre-mutation state is exactly what readers still see
            assert db.version == before
            assert db.table_epochs() == epochs_before
            assert db.last_mutation.rolled_back
            # the barrier is released: queries and later mutations work
            assert service.evaluate(q).scores
            service.mutate(lambda d: None)
            stats = service.stats()
            assert stats["rolled_back_mutations"] == 1
            assert stats["tainted_mutations"] == 0
            assert stats["mutations"] == 2

    def test_serial_session_failed_mutation_keeps_cache_warm(self):
        db, q = small_world()
        with connect(db) as session:
            first = session.evaluate(q)
            before = db.version
            with pytest.raises(ValueError):
                session.mutate(self._raise_without_writing)
            assert db.version == before
            again = session.evaluate(q)
            # the rollback restored the pre-mutation epoch, so the
            # cached result is still valid and still served
            assert again.cached and again.epoch == first.epoch
            assert session.results.stats()["evictions"] == 0

    def test_tracked_failed_mutation_rolls_back_writes(self):
        db, q = small_world()
        with DissociationService(db) as service:
            rows_before = {t.name: dict(t.rows) for t in db}
            epochs_before = db.table_epochs()
            with pytest.raises(ValueError):
                service.mutate(self._half_apply_then_raise)
            # bit-identical restore: rows AND epochs
            assert {t.name: dict(t.rows) for t in db} == rows_before
            assert db.table_epochs() == epochs_before
            assert service.stats()["rolled_back_mutations"] == 1

    def test_failed_mutation_taints_untouched_tables(self):
        # the undo replay fails, so the rollback cannot be certified
        # and the failure must taint *all* tables: the caches cannot
        # know what state the lost replay left behind
        db, q = small_world()
        with DissociationService(db, faults=self._lossy_rollback()) as service:
            untouched = {
                name: db.table_epoch(name)
                for name in db.table_names
                if name != "R1"
            }
            with pytest.raises(ValueError):
                service.mutate(self._half_apply_then_raise)
            for name, old in untouched.items():
                assert db.table_epoch(name) != old, name
            assert db.last_mutation.tainted
            assert service.stats()["tainted_mutations"] == 1
            # evaluation over the half-applied state works and carries
            # the tainted epochs
            assert service.evaluate(q).epoch == db.epoch_vector(q.relations)

    def test_failed_mutations_are_counted_once_each_by_kind(self):
        db, _ = small_world()

        def counters(service):
            stats = service.stats()
            return (
                stats["rolled_back_mutations"],
                stats["tainted_mutations"],
                stats["mutations"],
            )

        # the first failure rolls back, the second one's replay fails
        faults = self._lossy_rollback(call=2)
        with DissociationService(db, faults=faults) as service:
            with pytest.raises(ValueError):
                service.mutate(self._half_apply_then_raise)
            assert counters(service) == (1, 0, 1)
            with pytest.raises(ValueError):
                service.mutate(self._half_apply_then_raise)
            assert counters(service) == (1, 1, 2)
            service.mutate(lambda d: None)
            assert counters(service) == (1, 1, 3)

    def test_concurrent_mutators_do_not_deadlock_after_failure(self):
        db, q = small_world()
        with DissociationService(db, faults=self._lossy_rollback()) as service:
            with pytest.raises(ValueError):
                service.mutate(self._half_apply_then_raise)
            # results over the half-applied state carry the new epoch
            assert service.evaluate(q).epoch == db.epoch_vector(q.relations)
            done = threading.Event()

            def second_mutator():
                service.mutate(lambda d: None)
                done.set()

            thread = threading.Thread(target=second_mutator)
            thread.start()
            thread.join(10.0)
            assert done.is_set(), "mutation barrier was not released"


class TestTouch:
    def test_touch_bumps_version_without_changing_data(self):
        db, _ = small_world()
        rows_before = {t.name: dict(t.rows) for t in db}
        before = db.version
        epochs_before = db.table_epochs()
        db.touch()
        assert db.version != before
        # touch taints every table's epoch, so per-table-keyed caches
        # (stats, encodings, results) all see a fresh epoch
        for name, old in epochs_before.items():
            assert db.table_epoch(name) != old, name
        assert {t.name: dict(t.rows) for t in db} == rows_before


# ----------------------------------------------------------------------
# the chaos acceptance test
# ----------------------------------------------------------------------
class PoisonPill(Exception):
    pass


class TestChaos:
    def test_chain7_zipf_mix_under_worker_kill_and_poison(self):
        """The PR's acceptance scenario: chain-7 Zipf traffic with a
        worker killed mid-run and ~1-in-20 requests poisoned. Every
        future must resolve (zero hangs), non-poisoned results must be
        bit-identical to a fault-free run, and the counters must
        account for the injected faults exactly.
        """
        k = 7
        db = chain_database(k, 40, seed=11, p_max=0.5)
        full = chain_query(k)
        mix = [
            full,
            parse_query("q() :- R1(x, y), R2(y, z)"),
            parse_query("q() :- R3(x, y), R4(y, z), R5(z, w)"),
            parse_query("q() :- R2(x, y), R3(y, z)"),
            parse_query("q() :- R6(x, y), R7(y, z)"),
        ]
        poison = parse_query("q() :- R4(x, y), R5(y, z)")

        # Zipf-ish skew over the mix with the poison query appearing at
        # roughly 1-in-20 — deterministic, no RNG needed
        requests = []
        for i in range(120):
            requests.append(poison if i % 20 == 7 else mix[i % len(mix)])
        n_poison = sum(1 for r in requests if r == poison)
        assert n_poison == 6

        engine = DissociationEngine(db)
        baselines = {q: engine.evaluate(q).scores for q in mix}

        faults = FaultInjector()
        faults.on_call("worker", 5, RuntimeError("chaos: worker killed"))
        faults.when("evaluate", lambda c: c == poison, PoisonPill)

        with DissociationService(
            db,
            faults=faults,
            service=ServiceConfig(workers=2, max_batch_delay=0.005),
        ) as service:
            futures = [
                (query, service.submit(query, timeout=60.0))
                for query in requests
            ]
            poisoned_failures = 0
            deadline = Deadline.after(120.0)
            for query, future in futures:
                # zero hangs: every future must resolve (result or
                # typed exception) within the overall deadline
                budget = max(deadline.remaining(), 0.1)
                if query == poison:
                    with pytest.raises(PoisonPill):
                        future.result(timeout=budget)
                    poisoned_failures += 1
                else:
                    result = future.result(timeout=budget)
                    assert result.scores == baselines[query], (
                        "non-poisoned result diverged from fault-free run"
                    )
            assert not deadline.expired, "futures did not resolve in time"
            assert poisoned_failures == n_poison

            stats = service.stats()
            health = service.health()
            assert stats["poison_queries"] == n_poison
            assert health["worker_crashes"] == 1
            assert health["worker_restarts"] == 1
            assert health["live_workers"] == 2
            assert not health["failed"]
            assert stats["worker_restarts"] == 1
            # the injector itself confirms the scripted faults all fired
            fired = faults.stats()["fired"]
            assert fired["worker"] == 1
            assert fired["evaluate"] >= n_poison
