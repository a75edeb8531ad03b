"""The dissociation query service: concurrent submissions, micro-batched.

:class:`DissociationService` is the serving layer over
:class:`~repro.engine.DissociationEngine`: callers submit queries from
any number of threads (or through the async front end) and receive
futures; an admission controller coalesces concurrent submissions into
micro-batches of optimization-compatible queries; each batch is merged
into one cross-query subplan DAG and handed by a worker thread to the
service's one engine, whose batch entry point evaluates every distinct structural
subplan exactly once for the batch and fans the per-query results back
out to all requesters. Identical concurrent queries therefore cost one
evaluation, and overlapping ones share their common join prefixes and
plan tops.

Mutations of the shared database go through :meth:`mutate`, which
quiesces in-flight batches first — so every result is computed entirely
under one consistent database state, stamped as the per-table epoch
vector of its own relations (its ``epoch``), and caches can never serve
half-mutated state to a batch. Because the vector covers only the
relations a query touches, a mutation confined to one table leaves
every cached result over disjoint relations valid.

The service is *supervised*: worker loops are crash-wrapped, a dead
worker's in-flight batch is requeued (innocent futures migrate to a
healthy worker) and the thread is replaced up to
``ServiceConfig.max_worker_restarts`` times; when a batch evaluation
fails, members are re-evaluated individually under a deterministic
:class:`~repro.service.resilience.RetryPolicy` so only the truly
poisonous query's future sees the exception; and every failure a caller
can observe is typed (:class:`~repro.service.ServiceClosed`,
:class:`~repro.service.RequestTimeout`,
:class:`~repro.service.WorkerCrashed`). See :meth:`health` and the
failure-modes table in ``src/repro/service/README.md``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Iterable, Sequence

from ..api.config import UNSET, EngineConfig, ServiceConfig
from ..obs import MetricsRegistry, resolve_observer
from ..core.query import ConjunctiveQuery
from ..db.database import ProbabilisticDatabase
from ..engine import DissociationEngine, EvaluationResult, Optimizations
from .batching import MicroBatcher, QueryRequest, ServiceOverloaded
from .resilience import (
    Deadline,
    RequestTimeout,
    RetryPolicy,
    ServiceClosed,
    WorkerCrashed,
)

__all__ = ["DissociationService", "ServiceOverloaded"]


class DissociationService:
    """Concurrent multi-query front end over the dissociation engine.

    Parameters
    ----------
    db:
        The shared tuple-independent probabilistic database.
    config:
        The engine's frozen :class:`~repro.api.EngineConfig` (backend,
        cache sizes, join ordering, ...). ``None`` uses the defaults.
        All workers share one engine on either backend: one plan memo,
        and on SQLite one connection with its views and statement
        templates, which :meth:`close` releases.
    service:
        The serving-layer knobs as a frozen
        :class:`~repro.api.ServiceConfig` — worker count,
        micro-batching (``max_batch_size`` / ``max_batch_delay`` /
        ``max_pending``), startup write-factor calibration, and DAG
        statistics collection. ``None`` uses the defaults.
    default_optimizations:
        The :class:`~repro.engine.Optimizations` used when a submission
        does not pass its own.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` threaded
        through the worker loops, the engine, the SQLite
        backend, and the transactional mutation path — the
        deterministic chaos-testing hook. ``None`` (the default) is a
        no-op.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        config: EngineConfig | None = None,
        service: ServiceConfig | None = None,
        *,
        default_optimizations: Optimizations | None = None,
        faults=None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig, got {config!r}"
            )
        if service is None:
            service = ServiceConfig()
        elif not isinstance(service, ServiceConfig):
            raise TypeError(
                f"service must be a ServiceConfig, got {service!r}"
            )
        # One observer serves the whole stack: the service-level one
        # wins, else the engine one; when only the service config names
        # it, thread it into the engine config so worker-engine spans
        # nest under the service's batch spans. (``observer`` is
        # excluded from config equality/hash, so this changes no cache
        # keys.)
        observer = (
            service.observer
            if service.observer is not None
            else config.observer
        )
        if config.observer is None and observer is not None:
            config = config.replace(observer=observer)
        self.observer = resolve_observer(observer)
        #: Scheduling counters live in a metrics registry — the
        #: observer's when one is installed (so ``snapshot()`` sees
        #: them), a private one otherwise; :meth:`stats` reads them
        #: back instead of assembling a bespoke counter dict.
        self.metrics = (
            self.observer.metrics
            if self.observer.enabled
            else MetricsRegistry()
        )
        self.db = db
        self.config = config
        self.service_config = service
        self.backend = config.backend
        self.default_optimizations = (
            default_optimizations or Optimizations()
        )
        self.collect_dag_stats = service.collect_dag_stats
        self.faults = faults
        #: The one engine every worker evaluates on.
        self.engine = DissociationEngine(db, config, faults=faults)
        if (
            service.calibrate
            and self.engine.runs_sql
            and config.write_factor is None
        ):
            self.engine.calibrate_write_factor()
        self._batcher = MicroBatcher(
            max_batch_size=service.max_batch_size,
            max_batch_delay=service.max_batch_delay,
            max_pending=service.max_pending,
        )
        # mutation quiescence: batches take the gate as readers, mutate()
        # as the writer
        self._state = threading.Condition()
        self._active_batches = 0
        self._mutating = False
        self._closed = False
        # resilience: the per-query retry policy and the supervisor's
        # bookkeeping (live workers, restart budget, in-flight batches)
        self._retry_policy = RetryPolicy(
            max_retries=service.max_retries, backoff=service.retry_backoff
        )
        self._supervisor = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._live_workers: set[threading.Thread] = set()
        self._in_flight: dict[threading.Thread, list[QueryRequest]] = {}
        #: worker thread -> [batches, queries] it served
        self._served: dict[threading.Thread, list[int]] = {}
        self._wedged: list[str] = []
        self._worker_seq = 0
        self._worker_restarts = 0
        self._worker_crashes = 0
        self._last_worker_error: BaseException | None = None
        self._failed = False
        with self._supervisor:
            for _ in range(service.workers):
                self._start_worker()
        if self.observer.enabled:
            # pull-model collectors: nothing on the hot path; the
            # snapshot folds pool health, queue depth, and the
            # per-worker sessions into the one observability view
            self.observer.register_collector("service.health", self.health)
            self.observer.register_collector(
                "service.queue",
                lambda: {
                    "pending": len(self._batcher),
                    "submitted": self._batcher.submitted,
                    "rejected": self._batcher.rejected,
                },
            )
            self.observer.register_collector(
                "service.sessions", self._collect_sessions
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 30.0) -> None:
        """Stop admissions, join the workers, and fail leftover futures.

        ``timeout`` is one *overall* monotonic budget shared across all
        worker joins, not a per-thread allowance. Threads still alive
        when it runs out are reported via :meth:`health` (``"wedged"``)
        rather than silently ignored, and every future the service can
        still reach — requests left in the admission queue plus the
        in-flight batches of wedged workers — is failed with
        :class:`~repro.service.ServiceClosed`, so ``gather()`` callers
        are never left blocked on a future nobody will ever resolve.
        """
        with self._supervisor:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        self._batcher.close()
        # Release the mutation-quiescence barrier FIRST: a mutator
        # blocked in mutate() waiting for a wedged worker's batch to
        # drain would otherwise sleep forever on a condition nobody
        # signals again — close() must wake it (it observes _closed and
        # raises ServiceClosed) before joining workers and failing the
        # queued futures.
        with self._state:
            self._state.notify_all()
        deadline = Deadline.after(timeout) if timeout is not None else None
        for thread in threads:
            thread.join(
                None if deadline is None else max(deadline.remaining(), 0.0)
            )
        wedged = [t for t in threads if t.is_alive()]
        with self._supervisor:
            self._wedged = [t.name for t in wedged]
        closed_exc = ServiceClosed(
            "service closed before the request was served"
        )
        for request in self._batcher.drain():
            self._deliver(request.future, exception=closed_exc)
        for thread in wedged:
            for request in self._take_in_flight(thread):
                self._deliver(request.future, exception=closed_exc)
        if not wedged:
            # no worker is left to use the engine's resources (a wedged
            # one may still be running SQL on its connection)
            self.engine.release()

    def __enter__(self) -> "DissociationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission front end
    # ------------------------------------------------------------------
    def submit(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
        block: bool = True,
        timeout=UNSET,
    ) -> "Future[EvaluationResult]":
        """Enqueue ``query``; the future resolves to its
        :class:`~repro.engine.EvaluationResult`.

        Blocks for queue space once ``max_pending`` submissions are
        outstanding; ``block=False`` raises
        :class:`~repro.service.batching.ServiceOverloaded` instead
        (load shedding).

        ``timeout`` (seconds) attaches a :class:`Deadline` to the
        request: queueing time counts against it, and a request whose
        deadline expires before a worker reaches it fails fast with
        :class:`~repro.service.RequestTimeout` instead of being
        evaluated. Not passing it uses
        ``ServiceConfig.default_timeout``; explicit ``None`` disables
        the deadline. A deadline does *not* preempt an evaluation that
        already started — it bounds time-to-dequeue, not time-to-result
        (pair it with ``gather(timeout=...)`` for the latter).

        Raises :class:`~repro.service.ServiceClosed` once the service
        is closed and :class:`~repro.service.WorkerCrashed` once the
        worker pool is dead (restart budget exhausted).
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._failed:
            raise self._pool_dead_error()
        if timeout is UNSET:
            timeout = self.service_config.default_timeout
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be None or > 0, got {timeout!r}")
        future: "Future[EvaluationResult]" = Future()
        request = QueryRequest(
            query=query,
            optimizations=optimizations or self.default_optimizations,
            future=future,
            deadline=Deadline.after(timeout) if timeout is not None else None,
            # carry the submitting thread's trace frames across the
            # queue so the dequeuing worker can resume them
            trace=tuple(self.observer.current()),
        )
        self._batcher.submit(request, block=block)
        if self._failed:
            # the last worker died while we were enqueueing: nobody will
            # ever drain the queue, so fail the stranded requests now
            self._fail_pending(self._pool_dead_error())
        return future

    async def submit_async(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> EvaluationResult:
        """:meth:`submit` for ``async`` callers.

        Admission runs in the loop's default executor — under
        backpressure (``max_pending`` reached) the blocking wait for
        queue space must not stall the event-loop thread — and the
        result future is awaited as an ``asyncio`` future, so other
        coroutines keep running while the worker pool evaluates the
        batch. ``timeout`` attaches a deadline exactly like
        :meth:`submit`.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            None, lambda: self.submit(query, optimizations, timeout=timeout)
        )
        return await asyncio.wrap_future(future)

    def gather(
        self,
        futures: Iterable["Future[EvaluationResult]"],
        timeout: float | None = None,
    ) -> list[EvaluationResult]:
        """Resolve submitted futures in order.

        ``timeout`` is one *overall* budget for the whole gather on the
        monotonic clock — N futures share it rather than each getting
        its own ``timeout`` (which would let a stuck batch stretch the
        wait to N × timeout).
        """
        if timeout is None:
            return [future.result() for future in futures]
        deadline = Deadline.after(timeout)
        return [
            future.result(max(deadline.remaining(), 0.0))
            for future in futures
        ]

    def evaluate(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> EvaluationResult:
        """Synchronous single-query convenience over :meth:`submit`."""
        return self.submit(query, optimizations, timeout=timeout).result()

    def evaluate_many(
        self,
        queries: Sequence[ConjunctiveQuery],
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> list[EvaluationResult]:
        """Submit ``queries`` together and gather their results.

        Submitting before gathering lets the admission controller pack
        them into as few micro-batches as the batch size allows.
        """
        futures = [
            self.submit(q, optimizations, timeout=timeout) for q in queries
        ]
        return self.gather(futures)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[[ProbabilisticDatabase], object]):
        """Apply ``fn(db)`` with every in-flight batch quiesced.

        New batches wait while the mutation runs; batches already
        executing finish first. Every result therefore reflects exactly
        one consistent database state — its ``epoch``, the per-table
        epoch vector of the query's own relations — the service-level
        guarantee the stress tests pin down. Concurrent mutators
        serialize: each holds the barrier for its own drain, so a
        second mutator can never be starved by batches admitted after
        the first one finished.

        If ``fn`` raises, the exception propagates and the quiescence
        barrier is released (readers and later mutators never
        deadlock). Likewise, a :meth:`close` racing the quiesce wait
        releases the barrier: the blocked mutator raises
        :class:`~repro.service.ServiceClosed` instead of sleeping on a
        condition nobody will ever signal again. The database rolls
        itself back
        (:meth:`~repro.db.database.ProbabilisticDatabase.mutate`): the
        undo log restores the bit-identical pre-mutation state — no
        epoch moves, every warm cache stays valid — and
        ``rolled_back_mutations`` counts it. Only when the undo replay
        itself fails does the database taint itself, bumping every
        table's epoch so no cache can serve the half-applied state;
        ``tainted_mutations`` counts those.
        """
        with self._state:
            while self._mutating:
                if self._closed:
                    raise ServiceClosed(
                        "service closed while waiting for a prior mutation"
                    )
                self._state.wait()
            if self._closed:
                raise ServiceClosed("service is closed")
            self._mutating = True
            while self._active_batches:
                if self._closed:
                    # hand the writer slot back before bailing so later
                    # mutators (and draining workers) never block on a
                    # barrier the dead mutation still holds
                    self._mutating = False
                    self._state.notify_all()
                    raise ServiceClosed(
                        "service closed while quiescing in-flight batches"
                    )
                self._state.wait()
            try:
                return self.db.mutate(fn, faults=self.faults)
            except BaseException:
                # mutation serialization makes last_mutation ours
                outcome = self.db.last_mutation
                if outcome is not None:
                    if outcome.tainted:
                        self.metrics.inc("service.mutations.tainted")
                    elif outcome.rolled_back:
                        self.metrics.inc("service.mutations.rolled_back")
                raise
            finally:
                self._mutating = False
                self.metrics.inc("service.mutations")
                self._state.notify_all()

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    def _start_worker(self) -> threading.Thread:
        """Spawn one supervised worker (``_supervisor`` lock held)."""
        index = self._worker_seq
        self._worker_seq += 1
        thread = threading.Thread(
            target=self._worker_main,
            name=f"dissoc-worker-{index}",
            daemon=True,
        )
        self._threads.append(thread)
        self._live_workers.add(thread)
        self._served[thread] = [0, 0]
        thread.start()
        return thread

    def _worker_main(self) -> None:
        """Crash wrapper around :meth:`_worker_loop` (supervision)."""
        thread = threading.current_thread()
        try:
            self._worker_loop(thread)
        except BaseException as exc:  # noqa: BLE001 - supervised
            self._on_worker_crash(thread, exc)
        else:
            with self._supervisor:
                self._live_workers.discard(thread)

    def _worker_loop(self, thread: threading.Thread) -> None:
        if self.faults is not None:
            self.faults.fire("session", thread.name)
        served = self._served[thread]
        while True:
            batch = self._batcher.next_batch()
            if not batch:
                break  # closed and drained
            # record the batch BEFORE any crash point so the supervisor
            # can requeue it (crash) or close() can fail its futures
            # (wedged worker)
            self._set_in_flight(thread, batch)
            if self.faults is not None:
                self.faults.fire("worker", batch)
            with self._state:
                while self._mutating:
                    self._state.wait()
                self._active_batches += 1
            try:
                self._process(served, batch)
            finally:
                with self._state:
                    self._active_batches -= 1
                    self._state.notify_all()
            self._set_in_flight(thread, None)

    def _on_worker_crash(
        self, thread: threading.Thread, exc: BaseException
    ) -> None:
        """Supervise a crashed worker: requeue its batch, restart it.

        The in-flight batch is handed back to the admission queue
        (skipping already-resolved futures), so innocent requests
        migrate to a healthy worker instead of inheriting the crash.
        The dead thread is replaced while the lifetime restart budget
        (``max_worker_restarts``) lasts; past it, once no live worker
        remains, the pool is declared dead: pending futures fail with
        :class:`WorkerCrashed` and so does every later ``submit()``.
        """
        batch = self._take_in_flight(thread)
        with self._supervisor:
            self._live_workers.discard(thread)
            self._worker_crashes += 1
            self._last_worker_error = exc
            closed = self._closed
            restart = (
                not closed
                and self._worker_restarts
                < self.service_config.max_worker_restarts
            )
            if restart:
                self._worker_restarts += 1
            failed = not restart and not closed and not self._live_workers
            if failed:
                self._failed = True
        crash = WorkerCrashed(f"worker {thread.name} crashed: {exc!r}")
        crash.__cause__ = exc
        for request in batch:
            if request.future.done():
                continue
            if restart:
                try:
                    self._batcher.submit(request, block=False)
                    continue
                except (ServiceClosed, ServiceOverloaded):
                    pass  # no healthy home for it: fail it below
            self._deliver(request.future, exception=crash)
        if restart:
            with self._supervisor:
                if not self._closed:
                    self._start_worker()
        if failed:
            self._fail_pending(crash)

    def _pool_dead_error(self) -> WorkerCrashed:
        last = self._last_worker_error
        return WorkerCrashed(
            "worker pool is dead (restart budget "
            f"max_worker_restarts={self.service_config.max_worker_restarts} "
            f"exhausted); last worker error: {last!r}"
        )

    def _fail_pending(self, exc: BaseException) -> None:
        """Fail every request still sitting in the admission queue."""
        for request in self._batcher.drain():
            self._deliver(request.future, exception=exc)

    def _set_in_flight(
        self, thread: threading.Thread, batch: list[QueryRequest] | None
    ) -> None:
        with self._supervisor:
            if batch is None:
                self._in_flight.pop(thread, None)
            else:
                self._in_flight[thread] = batch

    def _take_in_flight(
        self, thread: threading.Thread
    ) -> list[QueryRequest]:
        with self._supervisor:
            return self._in_flight.pop(thread, [])

    @staticmethod
    def _mark_running(future: "Future") -> bool:
        """``set_running_or_notify_cancel`` tolerant of requeued futures.

        A future requeued after a worker crash is already RUNNING, which
        makes the stdlib call raise ``RuntimeError`` — for our purposes
        it is simply still live.
        """
        try:
            return future.set_running_or_notify_cancel()
        except RuntimeError:
            return not future.done()

    @staticmethod
    def _deliver(future: "Future", result=None, exception=None) -> None:
        """Resolve ``future``, tolerating already-resolved ones.

        After ``close()`` fails the futures of a wedged worker, the
        worker may still come back and try to deliver the real result;
        whoever resolves first wins and the loser is a no-op.
        """
        try:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass

    def _process(self, served: list[int], batch: list[QueryRequest]) -> None:
        live: list[QueryRequest] = []
        for request in batch:
            if not self._mark_running(request.future):
                continue
            if request.deadline is not None and request.deadline.expired:
                self._fail_expired(request)
                continue
            live.append(request)
        if not live:
            return
        queries = [request.query for request in live]
        opts = live[0].optimizations
        members = (
            self._resume_traces(live) if self.observer.enabled else []
        )
        try:
            if members:
                # re-activate every trace the batch carried across the
                # queue: the batch span (and the dag/engine spans nested
                # in it) records into each member trace, parented to
                # that trace's own submit-side span
                with self.observer.activate(members):
                    results = self._run_batch(queries, opts, live)
            else:
                results = self._run_batch(queries, opts, live)
        except BaseException as exc:  # noqa: BLE001 - delivered to callers
            self._isolate(served, live, opts, exc)
            return
        served[0] += 1
        served[1] += len(live)
        self.metrics.inc("service.batches")
        self.metrics.inc("service.queries", len(live))
        self.metrics.inc(f"service.batch_occupancy.{len(live)}")
        self.metrics.observe("service.batch.size", len(live))
        for request, result in zip(live, results):
            self._deliver(request.future, result=result)

    def _run_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        opts: Optimizations,
        live: list[QueryRequest],
    ) -> Sequence[EvaluationResult]:
        """One batch evaluation under its (optional) service span."""
        with self.observer.span(
            "service.batch",
            size=len(live),
            worker=threading.current_thread().name,
        ):
            results = self.engine.evaluate_batch(queries, opts)
            if self.collect_dag_stats:
                self._record_dag(queries, opts)
            return results

    def _resume_traces(
        self, live: list[QueryRequest]
    ) -> list[tuple[str, int | None]]:
        """Close each request's queue-wait span; return its trace frames.

        The wait clock started on the submitting thread
        (``submitted_at``) and stops here at dequeue — a cross-thread
        duration, recorded explicitly rather than via a scope.
        """
        obs = self.observer
        now = time.perf_counter()
        members: list[tuple[str, int | None]] = []
        for request in live:
            if not request.trace:
                continue
            wait = now - request.submitted_at
            obs.observe("service.queue.wait_seconds", wait)
            for trace_id, parent in request.trace:
                obs.record_span(
                    trace_id,
                    parent,
                    "queue.wait",
                    started=request.submitted_at,
                    seconds=wait,
                )
                members.append((trace_id, parent))
        return members

    def _fail_expired(self, request: QueryRequest) -> None:
        self.metrics.inc("service.timeouts")
        self._deliver(
            request.future,
            exception=RequestTimeout(
                f"deadline of {request.deadline.timeout:g}s expired "
                "before the query was evaluated"
            ),
        )

    def _isolate(
        self,
        served: list[int],
        live: list[QueryRequest],
        opts: Optimizations,
        batch_exc: BaseException,
    ) -> None:
        """Poison-query isolation: blast radius 1.

        The batch failed as a unit, but usually only one member is to
        blame — fanning ``batch_exc`` out to every future would punish
        up to ``max_batch_size - 1`` innocent queries. Instead each
        member is re-evaluated individually under the retry policy
        (transient SQLite contention gets its backoff schedule), so
        exactly the queries that fail on their own see an exception.
        """
        if len(live) == 1 and not self._retry_policy.classify(batch_exc):
            # the lone member IS the poison and the error is permanent:
            # re-evaluating it would just fail identically again
            self.metrics.inc("service.batch_retries")
            self.metrics.inc("service.poison_queries")
            self._deliver(live[0].future, exception=batch_exc)
            return
        self.metrics.inc("service.batch_retries")
        delivered = 0
        for request in live:
            if request.future.done():
                continue
            if request.deadline is not None and request.deadline.expired:
                self._fail_expired(request)
                continue
            try:
                result = self._retry_policy.run(
                    lambda: self.engine.evaluate(request.query, opts),
                    deadline=request.deadline,
                )
            except BaseException as exc:  # noqa: BLE001 - delivered
                self.metrics.inc("service.poison_queries")
                self._deliver(request.future, exception=exc)
            else:
                delivered += 1
                self._deliver(request.future, result=result)
        if delivered:
            served[0] += 1
            served[1] += delivered
            self.metrics.inc("service.queries", delivered)

    def _record_dag(
        self, queries: Sequence[ConjunctiveQuery], opts: Optimizations
    ) -> None:
        """Count the batch's merged plan DAG in one walk of its plan
        trees: every node of every tree (``node_occurrences``, what an
        evaluator without sharing computes), its distinct structural
        nodes, and those two or more distinct queries reference. The
        plans are read after the batch ran, without moving the plan
        memo's counters."""
        engine = self.engine
        distinct: dict = {}  # the first query of each (query, head order)
        for query in queries:
            distinct.setdefault((query, query.head_order), query)
        first_query: dict = {}  # node -> index of the first query using it
        cross_query: set = set()
        occurrences = 0
        with self.observer.span("dag.build", queries=len(distinct)):
            for index, query in enumerate(distinct.values()):
                stack = engine._plans(
                    query, "single" if opts.single_plan else "minimal", False
                )
                while stack:
                    node = stack.pop()
                    occurrences += 1
                    if first_query.setdefault(node, index) != index:
                        cross_query.add(node)
                    stack.extend(node.children())
        self.metrics.inc("service.dag.node_occurrences", occurrences)
        self.metrics.inc("service.dag.distinct_nodes", len(first_query))
        self.metrics.inc("service.dag.cross_query_nodes", len(cross_query))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness of the worker pool, for operators and chaos tests.

        ``wedged`` lists threads that were still alive when ``close()``
        gave up joining them — a worker stuck inside an evaluation that
        never returned. ``failed`` means the restart budget is exhausted
        and no live worker remains; the service is terminally dead.
        """
        with self._supervisor:
            live = sorted(
                t.name for t in self._live_workers if t.is_alive()
            )
            last = self._last_worker_error
            return {
                "live_workers": len(live),
                "workers": live,
                "configured_workers": self.service_config.workers,
                "worker_restarts": self._worker_restarts,
                "worker_crashes": self._worker_crashes,
                "max_worker_restarts": (
                    self.service_config.max_worker_restarts
                ),
                "last_worker_error": repr(last) if last is not None else None,
                "failed": self._failed,
                "closed": self._closed,
                "wedged": list(self._wedged),
            }

    def _collect_sessions(self) -> list[dict]:
        """What each worker thread served, beside the engine's cache
        counters, which every worker shares.

        The observer collector is this, deliberately *not*
        :meth:`stats` — that reads the metrics registry back, and a
        collector that snapshots the registry it is registered on
        would recurse.
        """
        cache = self.engine.cache_stats()
        plan_memo = self.engine.plan_memo_stats()
        with self._supervisor:
            served = [(t, list(c)) for t, c in self._served.items()]
        return [
            {
                "name": thread.name,
                "batches": batches,
                "queries": queries,
                "cache": cache,
                "plan_memo": plan_memo,
            }
            for thread, (batches, queries) in served
        ]

    def stats(self) -> dict:
        """Scheduling, sharing, and cache statistics of the service.

        The scheduling counters are read back from the metrics registry
        (``service.*`` names) rather than a bespoke counter dict — the
        registry is the single source of truth, so this report and
        ``Observer.snapshot()`` can never disagree.
        """
        counters = self.metrics.snapshot()["counters"]

        def count(name: str):
            return counters.get(name, 0)

        prefix = "service.batch_occupancy."
        occupancy = dict(
            sorted(
                (int(name[len(prefix):]), value)
                for name, value in counters.items()
                if name.startswith(prefix)
            )
        )
        batches = count("service.batches")
        queries = count("service.queries")
        occurrences = count("service.dag.node_occurrences")
        distinct = count("service.dag.distinct_nodes")
        dag = {
            "node_occurrences": occurrences,
            "distinct_nodes": distinct,
            "cross_query_nodes": count("service.dag.cross_query_nodes"),
            "dedup_ratio": (
                occurrences / distinct if distinct else 1.0
            ),
        }
        poison_queries = count("service.poison_queries")
        batch_retries = count("service.batch_retries")
        timeouts = count("service.timeouts")
        mutations = count("service.mutations")
        with self._supervisor:
            worker_restarts = self._worker_restarts
            worker_crashes = self._worker_crashes
        report = {
            "backend": self.backend,
            "submitted": self._batcher.submitted,
            "rejected": self._batcher.rejected,
            "pending": len(self._batcher),
            "batches": batches,
            "queries": queries,
            "mutations": mutations,
            "rolled_back_mutations": count("service.mutations.rolled_back"),
            "tainted_mutations": count("service.mutations.tainted"),
            "mean_batch_size": (queries / batches) if batches else 0.0,
            "batch_occupancy": occupancy,
            "poison_queries": poison_queries,
            "batch_retries": batch_retries,
            "timeouts": timeouts,
            "worker_restarts": worker_restarts,
            "worker_crashes": worker_crashes,
            "dag": dag,
            "write_factor": self.engine.write_factor,
            "sessions": self._collect_sessions(),
        }
        if self.faults is not None:
            report["faults"] = self.faults.stats()
        return report
