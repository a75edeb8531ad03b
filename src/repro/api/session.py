"""``repro.connect()`` — the unified session facade.

One entry point over the whole dissociation stack: a :class:`Session`
wraps either the serial :class:`~repro.engine.DissociationEngine`
(``concurrent=False``, the default) or the micro-batching
:class:`~repro.service.DissociationService` (``concurrent=True``)
behind the *same* interface, fronted by an epoch-keyed
:class:`~repro.api.cache.ResultCache`:

>>> session = repro.connect(db)
>>> handle = session.query("q() :- R(x), S(x,y)")
>>> handle.scores()                      # {answer: rho}
>>> handle.result()                      # full EvaluationResult
>>> handle.explain()                     # planning report
>>> handle.exact()                       # ground-truth baseline

Every method yields the exact objects the underlying engine/service
produce, so code migrating from the old entry points sees bit-identical
results; the result cache serves a repeated ``(query, optimizations,
config, epoch)`` without touching the engine at all (its counters — and
the engine's ``evaluation_count`` — prove it).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future
from typing import Callable, Mapping, Sequence

from ..core.parser import parse_query
from ..core.plans import Plan
from ..core.query import ConjunctiveQuery
from ..db.database import ProbabilisticDatabase
from ..engine import DissociationEngine, EvaluationResult, Optimizations
from ..obs import resolve_observer
from ..service import DissociationService
from .cache import ResultCache
from .config import UNSET, EngineConfig, ServiceConfig
from .keys import result_key

__all__ = ["Session", "QueryHandle", "connect"]


def connect(
    db: ProbabilisticDatabase | None = None,
    config: EngineConfig | None = None,
    *,
    path: "str | None" = None,
    url: "str | None" = None,
    fsync: str | None = None,
    checkpoint_every: int | None = None,
    concurrent: bool = False,
    service: ServiceConfig | None = None,
    optimizations: Optimizations | None = None,
    result_cache_size: int | None = 1024,
):
    """Open a :class:`Session` over ``db`` — or a durable one at ``path``,
    or a :class:`~repro.net.RemoteSession` at a ``repro://`` ``url``.

    Parameters
    ----------
    db:
        The tuple-independent probabilistic database. Mutually
        exclusive with ``path`` and ``url``. A ``"repro://host:port"``
        string here is treated as ``url=`` (URL dispatch).
    url:
        ``"repro://host:port"`` — connect to a running
        ``python -m repro serve`` instance instead of opening a local
        database; returns a :class:`~repro.net.RemoteSession` with the
        same ``evaluate``/``submit``/``mutate``/``stats``/``trace``
        surface. Only ``config`` and ``optimizations`` apply.
    config:
        The frozen :class:`EngineConfig` (backend, caches, join
        ordering, ...); ``None`` uses the defaults.
    path:
        A durable store directory (see :mod:`repro.db.journal`). The
        session recovers the database to its last committed mutation
        — truncating any torn journal tail — keeps it durable while
        open (every committed ``mutate()`` is journaled), and closes
        it with the session.
    fsync / checkpoint_every:
        Durability knobs, only with ``path``: the journal fsync policy
        (``"commit"``/``"off"``, default from ``REPRO_JOURNAL_FSYNC``)
        and how many journaled operations trigger a snapshot
        checkpoint.
    concurrent:
        ``False`` (default): queries run on one serial engine in the
        calling thread. ``True``: queries are submitted to a
        :class:`~repro.service.DissociationService` — concurrent
        callers are micro-batched and share subplans across queries.
    service:
        Serving-layer knobs (:class:`ServiceConfig`); only meaningful
        with ``concurrent=True``.
    optimizations:
        The session's default :class:`~repro.engine.Optimizations`
        (individual queries can override).
    result_cache_size:
        LRU cap of the session's :class:`ResultCache` (``None``
        unbounded, ``0`` disables result caching).

    Use the session as a context manager (or call :meth:`Session.close`)
    to release service workers, the SQLite snapshot, and the durable
    store's journal handle.
    """
    if isinstance(db, str) and db.startswith("repro://"):
        db, url = None, db
    if url is not None:
        if db is not None or path is not None:
            raise ValueError("pass either db, path=, or url=, not several")
        if fsync is not None or checkpoint_every is not None or concurrent:
            raise ValueError(
                "fsync/checkpoint_every/concurrent do not apply to "
                "connect(url=...) — the server owns those knobs"
            )
        from ..net.client import RemoteSession

        return RemoteSession(url, config, optimizations=optimizations)
    owns_db = False
    if path is not None:
        if db is not None:
            raise ValueError("pass either db or path=, not both")
        db = ProbabilisticDatabase.open(
            path, fsync=fsync, checkpoint_every=checkpoint_every
        )
        owns_db = True
    elif fsync is not None or checkpoint_every is not None:
        raise ValueError(
            "fsync/checkpoint_every only apply to connect(path=...)"
        )
    elif db is None:
        raise ValueError("connect() needs a db or a path=")
    return Session(
        db,
        config,
        concurrent=concurrent,
        service=service,
        optimizations=optimizations,
        result_cache_size=result_cache_size,
        _owns_db=owns_db,
    )


class Session:
    """A unified handle on the dissociation stack (see :func:`connect`)."""

    def __init__(
        self,
        db: ProbabilisticDatabase,
        config: EngineConfig | None = None,
        *,
        concurrent: bool = False,
        service: ServiceConfig | None = None,
        optimizations: Optimizations | None = None,
        result_cache_size: int | None = 1024,
        _owns_db: bool = False,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(f"config must be an EngineConfig, got {config!r}")
        if service is not None and not concurrent:
            raise ValueError(
                "service=ServiceConfig(...) only applies to "
                "connect(..., concurrent=True)"
            )
        self.db = db
        self.config = config
        self.concurrent = concurrent
        self._owns_db = _owns_db
        self.default_optimizations = optimizations or Optimizations()
        self.results = ResultCache(max_entries=result_cache_size)
        self._closed = False
        self._service: DissociationService | None = None
        # one observer for the whole stack: the engine config names it
        # for every layer; a service-only observer is honoured too
        observer = config.observer
        if observer is None and service is not None:
            observer = service.observer
        self.observer = resolve_observer(observer)
        if concurrent:
            self._service = DissociationService(
                db, config, service or ServiceConfig()
            )
            self._engine = self._service.engine
        else:
            self._engine = DissociationEngine(db, config)
        if self.observer.enabled:
            # mutation counters and journal/rollback spans hang off the
            # database; cache and engine statistics are pulled at
            # snapshot time (collectors), never pushed on the hot path
            self.db.observer = self.observer
            self.observer.register_collector(
                "result_cache", self.results.stats
            )
            self.observer.register_collector("engine", self._collect_engine)
            self.observer.register_collector("db", self._collect_db)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the service (if any) and drop backend resources."""
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            # releases the engine once its workers are gone
            self._service.close()
        else:
            self._engine.release()
        if self._owns_db:
            # connect(path=...) opened the durable store; closing it
            # releases the journal handle (committed state is already
            # on disk — close() never writes)
            self.db.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def engine(self) -> DissociationEngine:
        """The session's one engine — the service's in concurrent mode.

        ``explain()`` / ``per_plan()`` / ``lineage()`` / ``exact()``
        run on it in the calling thread, sharing the plan memo and the
        executors' caches (memory cache or SQLite snapshot) with the
        serving path.
        """
        self._check_open()
        return self._engine

    @property
    def service(self) -> DissociationService | None:
        """The batching service (``None`` unless ``concurrent=True``)."""
        return self._service

    def _check_open(self) -> None:
        # the engine property would otherwise lazily resurrect backend
        # resources (the SQLite snapshot) close() released
        if self._closed:
            raise RuntimeError("session is closed")

    def _query_epoch(self, query: ConjunctiveQuery):
        # The per-table epoch vector of the query's relations — the
        # lookup key axis. Reading it can race a concurrent structural
        # mutation (add_table) and raise mid-read — retry until a
        # stable snapshot is read. A torn-but-successful read can only
        # produce a vector matching no stored epoch (a miss), never a
        # wrong hit: epochs are monotonic, and results are filed under
        # the vector stamped by the engine, which runs inside the
        # service's mutation-quiescence gate.
        while True:
            try:
                return self.db.epoch_vector(query.relations)
            except RuntimeError:
                continue

    def _current_table_epochs(self) -> Mapping:
        # Same retry discipline as _query_epoch.
        while True:
            try:
                return self.db.table_epochs()
            except RuntimeError:
                continue

    def _resolve(
        self, query: "ConjunctiveQuery | str"
    ) -> ConjunctiveQuery:
        self._check_open()
        if isinstance(query, str):
            return parse_query(query)
        if isinstance(query, ConjunctiveQuery):
            return query
        raise TypeError(
            f"query must be a ConjunctiveQuery or a Datalog string, "
            f"got {query!r}"
        )

    # ------------------------------------------------------------------
    # the query surface
    # ------------------------------------------------------------------
    def query(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
    ) -> "QueryHandle":
        """A :class:`QueryHandle` for ``query`` (str or value object)."""
        return QueryHandle(
            self,
            self._resolve(query),
            optimizations or self.default_optimizations,
        )

    def evaluate(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> EvaluationResult:
        """Evaluate through the result cache.

        A repeat of the same canonical query under the same
        optimizations, config, and database epoch is served from the
        :class:`ResultCache` (``result.cached`` is ``True``) with zero
        engine evaluations; otherwise the engine (serial) or the
        service (concurrent) computes it and the result is stored under
        the epoch it actually ran under.

        ``timeout`` (concurrent mode) bounds how long the request may
        wait in the admission queue — see
        :meth:`~repro.service.DissociationService.submit`. Serial
        sessions evaluate inline in the calling thread, so there is no
        queue for a deadline to bound and the value is ignored.
        """
        resolved = self._resolve(query)
        opts = optimizations or self.default_optimizations
        if self.observer.enabled:
            return self._evaluate_traced(resolved, opts, timeout)
        key = result_key(resolved, opts, self.config, self._query_epoch(resolved))
        hit = self.results.get(key)
        if hit is not None:
            return hit
        result = self._dispatch(resolved, opts, timeout).result()
        self._store(resolved, opts, result)
        return result

    def _dispatch(
        self,
        resolved: ConjunctiveQuery,
        opts: Optimizations,
        timeout,
    ) -> "Future[EvaluationResult]":
        """The one miss path: a future for evaluating ``resolved``.

        Concurrent sessions hand the request to the service's admission
        queue (which captures the caller's active span frames); serial
        sessions evaluate inline and return an already-resolved future.
        """
        if self._service is not None:
            return self._service.submit(resolved, opts, timeout=timeout)
        done: "Future[EvaluationResult]" = Future()
        try:
            done.set_result(self.engine.evaluate(resolved, opts))
        except Exception as exc:  # noqa: BLE001 - future protocol
            # KeyboardInterrupt/SystemExit propagate: the caller's own
            # thread ran the evaluation, so swallowing them into a
            # maybe-never-inspected future would lose the interrupt
            # entirely
            done.set_exception(exc)
        return done

    def _evaluate_traced(
        self,
        resolved: ConjunctiveQuery,
        opts: Optimizations,
        timeout,
    ) -> EvaluationResult:
        """:meth:`evaluate` under an observer: one trace per request.

        The root ``session.evaluate`` span covers canonicalization, the
        result-cache lookup, and — on a miss — the evaluation itself;
        in concurrent mode the service records the queue wait and batch
        spans into this same trace across the worker hop (the request
        carries the span frames captured here).
        """
        obs = self.observer
        trace_id = obs.new_trace()
        started = time.perf_counter()
        with obs.activate([(trace_id, None)]):
            with obs.span(
                "session.evaluate", backend=self.config.backend
            ) as root:
                with obs.span("session.canonicalize"):
                    key = result_key(
                        resolved,
                        opts,
                        self.config,
                        self._query_epoch(resolved),
                    )
                with obs.span("result_cache.lookup") as lookup:
                    result = self.results.get(key)
                    lookup.note(hit=result is not None)
                root.note(cached=result is not None)
                if result is None:
                    result = self._dispatch(resolved, opts, timeout).result()
                    self._store(resolved, opts, result)
        result.trace_id = trace_id
        obs.record_request(
            trace_id, resolved, time.perf_counter() - started
        )
        return result

    def submit(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> "Future[EvaluationResult]":
        """The future-returning flavour of :meth:`evaluate`.

        Cache hits resolve immediately; misses go to the service's
        admission queue (concurrent mode, where ``timeout`` bounds the
        queue wait) or evaluate inline (serial mode, ``timeout``
        ignored), and completed results are stored in the cache either
        way.
        """
        resolved = self._resolve(query)
        opts = optimizations or self.default_optimizations
        if self.observer.enabled:
            return self._submit_traced(resolved, opts, timeout)
        key = result_key(resolved, opts, self.config, self._query_epoch(resolved))
        hit = self.results.get(key)
        if hit is not None:
            done: "Future[EvaluationResult]" = Future()
            done.set_result(hit)
            return done
        future = self._dispatch(resolved, opts, timeout)
        future.add_done_callback(
            lambda f: (
                self._store(resolved, opts, f.result())
                if not f.cancelled() and f.exception() is None
                else None
            )
        )
        return future

    def _submit_traced(
        self,
        resolved: ConjunctiveQuery,
        opts: Optimizations,
        timeout,
    ) -> "Future[EvaluationResult]":
        """:meth:`submit` under an observer.

        The request is closed (slow log, latency histogram) from the
        future's done callback: at once for a serial session, whose
        miss evaluates inline, and from the worker for a concurrent
        one, whose service request carries the span frames captured
        here.
        """
        obs = self.observer
        trace_id = obs.new_trace()
        started = time.perf_counter()

        def _finish(f: "Future[EvaluationResult]") -> None:
            if f.cancelled() or f.exception() is not None:
                return
            result = f.result()
            result.trace_id = trace_id
            self._store(resolved, opts, result)
            obs.record_request(
                trace_id, resolved, time.perf_counter() - started
            )

        with obs.activate([(trace_id, None)]):
            with obs.span(
                "session.submit", backend=self.config.backend
            ) as root:
                with obs.span("session.canonicalize"):
                    key = result_key(
                        resolved,
                        opts,
                        self.config,
                        self._query_epoch(resolved),
                    )
                with obs.span("result_cache.lookup") as lookup:
                    hit = self.results.get(key)
                    lookup.note(hit=hit is not None)
                root.note(cached=hit is not None)
                if hit is not None:
                    hit.trace_id = trace_id
                    obs.record_request(
                        trace_id, resolved, time.perf_counter() - started
                    )
                    done: "Future[EvaluationResult]" = Future()
                    done.set_result(hit)
                    return done
                # inside the spans on purpose: the service captures the
                # active frames into the request, which the worker
                # re-activates across the queue hop
                future = self._dispatch(resolved, opts, timeout)
                future.add_done_callback(_finish)
                return future

    def _store(
        self,
        query: ConjunctiveQuery,
        opts: Optimizations,
        result: EvaluationResult,
    ) -> None:
        # keyed by the epoch the evaluation actually ran under (the
        # token stamped on the result), not the one observed at submit
        # time — a mutation racing the evaluation can therefore never
        # leave a result filed under the wrong epoch
        self.results.put(
            result_key(query, opts, self.config, result.epoch), result
        )

    def scores(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
    ) -> dict[tuple, float]:
        """``ρ(q)`` per answer tuple (through the result cache)."""
        return self.evaluate(query, optimizations).scores

    def evaluate_many(
        self,
        queries: Sequence["ConjunctiveQuery | str"],
        optimizations: Optimizations | None = None,
        timeout=UNSET,
    ) -> list[EvaluationResult]:
        """Evaluate several queries, batching the cache misses.

        In concurrent mode all misses are submitted before the first
        gather, so the admission controller can pack them into shared
        micro-batches.
        """
        futures = [
            self.submit(q, optimizations, timeout=timeout) for q in queries
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[[ProbabilisticDatabase], object]):
        """Apply ``fn(db)`` transactionally and invalidate cached results.

        Concurrent sessions quiesce in-flight batches first
        (:meth:`~repro.service.DissociationService.mutate`); serial
        sessions run :meth:`~repro.db.database.ProbabilisticDatabase.mutate`
        directly. On commit the epochs of the touched tables move, so
        result-cache entries over those tables become unreachable —
        they are additionally evicted eagerly to reclaim memory.
        Entries keyed purely on untouched relations stay cached and
        keep serving hits.

        If ``fn`` raises, the undo log rolls the database back to its
        bit-identical pre-mutation state: no epoch moves and *nothing*
        is evicted — every cached result stays warm and correct. Only
        when the undo replay itself fails (so the per-table
        fingerprints cannot certify it) does the database taint every
        epoch, evicting everything. Inspect ``session.db.last_mutation``
        for which path ran.
        """
        self._check_open()
        try:
            if self._service is not None:
                return self._service.mutate(fn)
            return self.db.mutate(fn)
        finally:
            self.results.evict_stale(self._current_table_epochs())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Result-cache, plan-memo, statement-template, and backend
        statistics.

        ``"engine"`` is the session's one engine in both modes: the
        serving engine, whose counters also include what ``explain()``
        / ``per_plan()`` did on it. Concurrent sessions add the
        scheduling view under ``"service"``.
        """
        out: dict = {
            "concurrent": self.concurrent,
            "config": self.config,
            "result_cache": self.results.stats(),
            "engine": self._collect_engine(),
        }
        if self._service is not None:
            out["service"] = self._service.stats()
        return out

    def trace(self, target) -> dict | None:
        """The span tree of one request.

        ``target`` is a trace id string, an
        :class:`~repro.engine.EvaluationResult` (its ``trace_id``
        stamp), or a :class:`QueryHandle` (the trace of its most recent
        ``result()``). Returns the
        :meth:`~repro.obs.Tracer.tree` structure — ``{"trace_id",
        "dropped_spans", "roots": [...]}`` — or ``None`` when no
        observer is configured, the target carries no trace id, or the
        trace has been evicted from the bounded store.
        """
        if isinstance(target, str):
            trace_id = target
        elif isinstance(target, QueryHandle):
            trace_id = target.last_trace_id
        else:
            trace_id = getattr(target, "trace_id", None)
        if trace_id is None:
            return None
        return self.observer.trace_tree(trace_id)

    def _collect_engine(self) -> dict:
        engine = self._engine
        return {
            "evaluations": engine.evaluation_count,
            "cache": engine.cache_stats(),
            "plan_memo": engine.plan_memo_stats(),
            "statements": engine.statement_stats(),
        }

    def _collect_db(self) -> dict:
        out: dict = {"durable": self.db.durable}
        last = self.db.last_mutation
        if last is not None:
            out["last_mutation"] = dataclasses.asdict(last)
        store = self.db._durability
        if store is not None:
            out["journal"] = store.stats()
        return out


class QueryHandle:
    """One query bound to a session — every surface in one place.

    The handle is cheap and stateless (evaluation state lives in the
    session's caches); keep it around and call it repeatedly.
    """

    def __init__(
        self,
        session: Session,
        query: ConjunctiveQuery,
        optimizations: Optimizations,
    ) -> None:
        self.session = session
        self.query = query
        self.optimizations = optimizations
        #: Trace id of the most recent :meth:`result` call (``None``
        #: until then, or without an observer) — what
        #: ``session.trace(handle)`` resolves.
        self.last_trace_id: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryHandle({self.query!s})"

    # -- evaluation ----------------------------------------------------
    def result(self) -> EvaluationResult:
        """The full :class:`~repro.engine.EvaluationResult` (cached)."""
        result = self.session.evaluate(self.query, self.optimizations)
        self.last_trace_id = result.trace_id
        return result

    def scores(self) -> dict[tuple, float]:
        """``ρ(q)`` per answer tuple."""
        return self.result().scores

    def ranking(self) -> list[tuple]:
        """Answers ordered by decreasing propagation score."""
        return self.result().ranking()

    def submit(self) -> "Future[EvaluationResult]":
        return self.session.submit(self.query, self.optimizations)

    # -- planning surfaces ---------------------------------------------
    def plans(self) -> list[Plan]:
        """The minimal plans (memoized on the engine)."""
        return self.session.engine.minimal_plans(self.query)

    def is_safe(self) -> bool:
        return self.session.engine.is_safe(self.query)

    def explain(self) -> dict:
        """Planning/materialization report
        (:meth:`~repro.engine.DissociationEngine.explain`)."""
        return self.session.engine.explain(self.query, self.optimizations)

    def per_plan(
        self, semijoin: bool | None = None
    ) -> dict[Plan, dict[tuple, float]]:
        """Each minimal plan's scores separately
        (:meth:`~repro.engine.DissociationEngine.score_per_plan`).

        ``semijoin`` defaults to this handle's optimizations.
        """
        if semijoin is None:
            semijoin = self.optimizations.semijoin
        return self.session.engine.score_per_plan(
            self.query, semijoin=semijoin
        )

    # -- baselines ------------------------------------------------------
    def lineage(self):
        """The query's lineage
        (:meth:`~repro.engine.DissociationEngine.lineage`)."""
        return self.session.engine.lineage(self.query)

    def exact(self) -> dict[tuple, float]:
        """Ground-truth probabilities by exact model counting."""
        return self.session.engine.exact(self.query)

    def monte_carlo(
        self, samples: int, seed: int | None = None
    ) -> dict[tuple, float]:
        return self.session.engine.monte_carlo(self.query, samples, seed)

    def probability_bounds(self) -> Mapping[tuple, tuple[float, float]]:
        return self.session.engine.probability_bounds(self.query)
