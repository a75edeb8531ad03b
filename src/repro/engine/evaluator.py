"""The end-to-end dissociation engine (the system of the paper).

:class:`DissociationEngine` wires together Algorithm 1/2 plan enumeration,
the schema knowledge (deterministic relations, FDs), the three multi-query
optimizations, and the two evaluation backends:

* ``"memory"`` — the pure-Python extensional evaluator;
* ``"sqlite"`` — plans compiled to SQL and executed inside SQLite, the
  paper's "everything runs in the database engine" mode.

Its central entry point is :meth:`propagation_score`, computing
``ρ(q)`` per answer tuple; :meth:`exact`, :meth:`monte_carlo` and
:meth:`lineage` provide the baselines of the experimental section.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from ..core.canonical import canonical_form, rename_plan, schema_flags
from ..core.minplans import minimal_plans
from ..core.plans import Plan
from ..core.query import ConjunctiveQuery
from ..core.singleplan import single_plan
from ..db.database import ProbabilisticDatabase
from ..db.sqlite_backend import SQLiteBackend
from ..lineage.build import Lineage, lineage_of
from ..lineage.exact import ExactEvaluator
from ..lineage.mc import monte_carlo_many
from ..obs import StatsLRU, resolve_observer
from .extensional import (
    EvaluationCache,
    deterministic_answers,
    plan_scores,
    plan_scores_min_combined,
)
from .semijoin import reduce_database, semijoin_statements
from .sql import (
    SQLCompiler,
    StatementScope,
    deterministic_sql,
    lineage_sql,
    subplan_reference_counts,
)
from .stats import (
    DEFAULT_DP_THRESHOLD,
    DEFAULT_WRITE_FACTOR,
    MaterializationPolicy,
    SQLiteStatisticsCatalog,
    estimate_plan,
)
from ..api.config import EngineConfig

__all__ = ["Optimizations", "EvaluationResult", "DissociationEngine"]

Backend = Literal["memory", "sqlite"]

#: SQLite's compound-SELECT term limit defaults to 500; chunk the
#: all-plans min-combining union well below it.
_MAX_UNION_BRANCHES = 100


@dataclass(frozen=True)
class Optimizations:
    """Which of the Sec. 4 optimizations to apply.

    * ``single_plan`` — Opt. 1: merge all minimal plans into one plan with
      ``min`` pushed into the leaves (Algorithm 2);
    * ``reuse_views`` — Opt. 2: share common subplans (views / cached
      subresults) — within the merged plan, across the separate plans
      of the "all plans" mode, and across queries;
    * ``semijoin`` — Opt. 3: deterministic semi-join reduction of the
      input relations before probabilistic evaluation.
    """

    single_plan: bool = True
    reuse_views: bool = True
    semijoin: bool = False

    @classmethod
    def none(cls) -> "Optimizations":
        """Evaluate every minimal plan separately (the "all plans" mode)."""
        return cls(single_plan=False, reuse_views=False, semijoin=False)

    @classmethod
    def all(cls) -> "Optimizations":
        return cls(single_plan=True, reuse_views=True, semijoin=True)


@dataclass
class EvaluationResult:
    """Scores plus provenance of one evaluation run."""

    scores: dict[tuple, float]
    plan_count: int
    optimizations: Optimizations
    backend: str
    seconds: float
    sql: str | None = None
    #: The per-table epoch vector the evaluation ran under — sorted
    #: ``(relation, (creation_stamp, mutation_counter))`` pairs covering
    #: exactly the query's relations. The service layer uses it to prove
    #: results were never served from a stale cache epoch; it changes
    #: iff one of *this query's* tables changed.
    epoch: tuple | None = None
    #: True when this result was served from a session-level
    #: :class:`~repro.api.cache.ResultCache` instead of an engine
    #: evaluation (the scores are a snapshot of the original run).
    cached: bool = False
    #: The request trace id this result was produced (or served) under,
    #: stamped by the session when an :class:`repro.obs.Observer` is
    #: configured — feed it to ``session.trace()`` for the span tree.
    trace_id: str | None = None

    def ranking(self) -> list[tuple]:
        """Answers ordered by decreasing score (ties by value order)."""
        return sorted(self.scores, key=lambda a: (-self.scores[a], repr(a)))


class DissociationEngine:
    """Approximate probabilistic query evaluation by dissociation.

    Parameters
    ----------
    db:
        The tuple-independent probabilistic database.
    config:
        A frozen :class:`~repro.api.EngineConfig` — the canonical way to
        configure the engine (backend, schema knowledge, cache sizes,
        join ordering, write factor). ``None`` uses the defaults.
    view_namespace:
        Optional shared temp-view name authority handed through to the
        SQLite backend's view registry — the service layer passes one
        per-service object so all worker sessions share a consistent
        view namespace. (Runtime wiring, deliberately not part of the
        hashable config.)
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`. When set,
        the engine fires the ``"evaluate"`` hook once per query (in
        :meth:`evaluate` and per distinct query of
        :meth:`evaluate_batch`), the ``"batch"`` hook once per
        :meth:`evaluate_batch` call, and threads the injector into the
        SQLite backend's ``"statement"`` hook. ``None`` (the default)
        costs a single ``is not None`` check. Runtime wiring like
        ``view_namespace`` — not part of the hashable config.

    The resolved configuration is exposed as :attr:`config`; the
    individual fields stay readable as instance attributes
    (``engine.backend``, ``engine.cache_size``, ...) for
    compatibility. ``write_factor`` alone may diverge from the config
    at runtime: :meth:`calibrate_write_factor` installs a measured
    value.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        config: EngineConfig | None = None,
        *,
        view_namespace=None,
        faults=None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise TypeError(
                "config must be an EngineConfig (the old positional "
                f"backend argument is gone), got {config!r}"
            )
        self.db = db
        self.config = config
        self.backend: Backend = config.backend  # type: ignore[assignment]
        self.use_schema_knowledge = config.use_schema_knowledge
        self.cache_size = config.cache_size
        self.join_ordering = config.join_ordering
        self.join_dp_threshold = (
            config.join_dp_threshold
            if config.join_dp_threshold is not None
            else DEFAULT_DP_THRESHOLD
        )
        self.write_factor = config.write_factor
        self.view_namespace = view_namespace
        self.faults = faults
        #: The instrumentation sink (``repro.obs``): spans for
        #: evaluation stages and per-subplan work, counters for
        #: evaluations. Defaults to the no-op observer; hot paths guard
        #: on ``observer.enabled``.
        self.observer = resolve_observer(config.observer)
        #: Queries actually evaluated by this engine (``evaluate`` adds
        #: one, ``evaluate_batch`` adds the batch size). The session
        #: result cache's acceptance tests assert this stays flat on a
        #: cache hit. Incremented under a lock: the service shares one
        #: memory engine across all worker threads.
        self.evaluation_count = 0
        self._count_lock = threading.Lock()
        self._sqlite: SQLiteBackend | None = None
        self._memory_cache: EvaluationCache | None = None
        self._sqlite_stats: SQLiteStatisticsCatalog | None = None
        # Counters of view registries dropped by rebuilds, so sqlite
        # cache_stats() stays cumulative like the memory cache's.
        self._sqlite_stats_base = {"hits": 0, "misses": 0, "evictions": 0}
        # minimal_plans/single_plan memo keyed by (flavor, canonical
        # query key, schema flags) — plans depend on query structure and
        # schema knowledge only, so the memo survives data mutations.
        # Storage + hit/miss/eviction counters live in the shared
        # StatsLRU core; renamed hits are a memo-specific refinement.
        self._plan_memo_lock = threading.RLock()
        self._plan_memo = StatsLRU(
            config.plan_memo_size, lock=self._plan_memo_lock
        )
        self._plan_memo_renamed = 0

    # ------------------------------------------------------------------
    # schema plumbing
    # ------------------------------------------------------------------
    def _schema_args(self) -> tuple[frozenset[str], Mapping]:
        if not self.use_schema_knowledge:
            return frozenset(), {}
        schema = self.db.schema
        return schema.deterministic_relations, schema.fds_by_relation

    @property
    def sqlite(self) -> SQLiteBackend:
        """The lazily-materialized SQLite backend.

        The materialization is a snapshot of ``db``: whenever the
        database's version token has moved since it was built, the
        snapshot is *refreshed in place* — only the tables whose
        per-table epochs moved are reloaded, and only the registered
        subplan views scanning those tables are dropped
        (:meth:`SQLiteBackend.refresh`), so mutating ``db`` between
        queries can never serve stale SQLite results while views and
        statistics over untouched relations stay warm (mirroring the
        memory cache's per-table ``validate()``).
        """
        if self._sqlite is None:
            self._sqlite = SQLiteBackend(
                self.db,
                view_cache_size=self.cache_size,
                view_namespace=self.view_namespace,
                fault_injector=self.faults,
            )
            self._sqlite.observer = self.observer
        else:
            self._sqlite.refresh()  # a no-op unless the version moved
        return self._sqlite

    def invalidate_sqlite(self) -> None:
        """Drop the materialized SQLite copy (closing a session does);
        a moved database only ever *refreshes* it, see :attr:`sqlite`."""
        if self._sqlite is not None:
            registry = self._sqlite._view_registry
            if registry is not None:
                stats = registry.cache_stats()
                for key in self._sqlite_stats_base:
                    self._sqlite_stats_base[key] += stats[key]
                # closing the connection destroys the temp views; tell
                # the shared namespace so its live-view census stays
                # exact across snapshot rebuilds
                registry.detach()
            self._sqlite.close()
            self._sqlite = None
            self._sqlite_stats = None

    def _cache_for(self, db: ProbabilisticDatabase) -> EvaluationCache:
        """The persistent cross-query cache (for the engine's own ``db``).

        Semi-join reduction materializes a throwaway database per call,
        so those get a throwaway cache; the engine's database keeps one
        long-lived cache that survives across queries and is dropped
        automatically when the database's version token moves.
        """
        cache = self._memory_cache if db is self.db else None
        if cache is not None and cache.db is db:
            cache.validate()
            return cache
        cache = EvaluationCache(
            db,
            max_plans=self.cache_size,
            join_ordering=self.join_ordering,
            dp_threshold=self.join_dp_threshold,
        )
        cache.observer = self.observer
        if db is self.db:
            self._memory_cache = cache
        return cache

    def cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the active backend's Opt.-2 cache.

        One shape for both backends: ``hits``/``misses``/``evictions``
        (cumulative — they survive invalidation by database mutation on
        both backends), ``size`` (currently cached subplan results or
        materialized views) and ``max_size`` (the LRU cap, ``None`` when
        unbounded). Zeros before the first evaluation.
        """
        if self.backend == "memory":
            if self._memory_cache is not None:
                return self._memory_cache.cache_stats()
            return {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "size": 0,
                "max_size": self.cache_size,
            }
        if self._sqlite is not None:
            stats = self._sqlite.view_registry.cache_stats()
        else:
            stats = {"size": 0, "max_size": self.cache_size}
        base = self._sqlite_stats_base
        return {
            "hits": stats.get("hits", 0) + base["hits"],
            "misses": stats.get("misses", 0) + base["misses"],
            "evictions": stats.get("evictions", 0) + base["evictions"],
            "size": stats["size"],
            "max_size": stats["max_size"],
        }

    # ------------------------------------------------------------------
    # plan-level API
    # ------------------------------------------------------------------
    def _memoized_plans(
        self, query: ConjunctiveQuery, flavor: str
    ) -> list[Plan]:
        """Enumerate (or recall) plans for ``query``.

        The memo key is ``(flavor, canonical query key, schema flags)``:
        the canonical key (:func:`repro.core.canonical.query_key`) makes
        repeats hit regardless of atom order, and the flags restrict
        schema sensitivity to the query's own relations. Plans depend
        only on query structure and schema knowledge, never on the data,
        so the memo survives database mutations — this kills the
        per-request enumeration cost that dominated the warm serial
        path (~16ms on chain-7).

        An *identical* repeat gets the very plan objects of the first
        call (bit-identical evaluation, shared structural cache keys); a
        repeat that differs only by a variable renaming gets the
        memoized plans renamed through the canonical numbering instead
        of a fresh enumeration.
        """
        deterministic, fds = self._schema_args()
        memo_size = self.config.plan_memo_size
        if memo_size == 0:
            return self._enumerate(query, flavor, deterministic, fds)
        key0, numbering = canonical_form(query)
        key = (flavor, key0, schema_flags(query, deterministic, fds))
        entry = self._plan_memo.get(key)
        if entry is not None:
            stored_query, stored_numbering, plans = entry
            if stored_query == query:
                return list(plans)
            # same canonical structure, different variable names: the
            # two numberings compose into a bijection stored -> ours
            with self._plan_memo_lock:
                self._plan_memo_renamed += 1
            inverse = {index: v for v, index in numbering.items()}
            mapping = {
                stored_var: inverse[index]
                for stored_var, index in stored_numbering.items()
            }
            return [rename_plan(plan, mapping) for plan in plans]
        plans = self._enumerate(query, flavor, deterministic, fds)
        self._plan_memo.put(key, (query, numbering, tuple(plans)))
        return plans

    @staticmethod
    def _enumerate(
        query: ConjunctiveQuery, flavor: str, deterministic, fds
    ) -> list[Plan]:
        if flavor == "single":
            return [single_plan(query, deterministic=deterministic, fds=fds)]
        return minimal_plans(query, deterministic=deterministic, fds=fds)

    def plan_memo_stats(self) -> dict:
        """Hit/miss counters of the plan-enumeration memo.

        ``renamed_hits`` counts hits served by renaming the memoized
        plans of a structurally identical query with different variable
        names (a subset of ``hits``).
        """
        stats = self._plan_memo.stats()
        with self._plan_memo_lock:
            renamed = self._plan_memo_renamed
        return {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "renamed_hits": renamed,
            "evictions": stats["evictions"],
            "size": stats["size"],
            "max_size": self.config.plan_memo_size,
        }

    def minimal_plans(self, query: ConjunctiveQuery) -> list[Plan]:
        """All minimal plans of ``query`` under the schema knowledge."""
        return self._memoized_plans(query, "minimal")

    def single_plan(self, query: ConjunctiveQuery) -> Plan:
        """The Opt. 1 merged plan (a DAG with shared subplans)."""
        return self._memoized_plans(query, "single")[0]

    def is_safe(self, query: ConjunctiveQuery) -> bool:
        """True iff the query has a single (exact) plan under the schema."""
        return len(self.minimal_plans(query)) == 1

    # ------------------------------------------------------------------
    # dissociation evaluation
    # ------------------------------------------------------------------
    def propagation_score(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
    ) -> dict[tuple, float]:
        """``ρ(q)`` per answer tuple (Def. 14)."""
        return self.evaluate(query, optimizations).scores

    def evaluate(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
    ) -> EvaluationResult:
        """Compute the propagation score with full provenance."""
        opts = optimizations or Optimizations()
        if self.faults is not None:
            self.faults.fire("evaluate", query)
        obs = self.observer
        started = time.perf_counter()
        with self._count_lock:
            self.evaluation_count += 1
        with obs.span("engine.evaluate", backend=self.backend) as span:
            epoch = self.query_epoch(query)
            with obs.span("plan.enumerate"):
                plans = self.minimal_plans(query)
            if self.backend == "memory":
                scores = self._evaluate_memory(query, plans, opts)
                sql = None
            else:
                scores, sql = self._evaluate_sqlite(query, plans, opts)
            span.note(plan_count=len(plans), answers=len(scores))
        elapsed = time.perf_counter() - started
        if obs.enabled:
            obs.inc("engine.evaluations")
            obs.observe("engine.evaluate.seconds", elapsed)
        return EvaluationResult(
            scores=scores,
            plan_count=len(plans),
            optimizations=opts,
            backend=self.backend,
            seconds=elapsed,
            sql=sql,
            epoch=epoch,
        )

    def query_epoch(self, query: ConjunctiveQuery) -> tuple:
        """The per-table epoch vector of ``query``'s relations, now.

        The staleness token for anything derived from evaluating
        ``query`` on the current database: it moves iff one of the
        query's own tables is mutated, dropped, re-added, or tainted
        by :meth:`ProbabilisticDatabase.touch`.
        """
        return self.db.epoch_vector(query.relations)

    def evaluate_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        optimizations: Optimizations | None = None,
    ) -> list[EvaluationResult]:
        """Evaluate a batch of queries under one shared cache epoch.

        The batch entry point behind the dissociation service: all
        queries are canonicalized into their minimal plans, structurally
        equal queries collapse to a single evaluation (results fan back
        out position-wise, so duplicates in ``queries`` are free), and
        — with view reuse enabled — the cross-query subplan DAG is
        priced *batch-wide*: a subplan referenced by several queries of
        the batch counts every reference site, so the Algorithm-3
        policy materializes it once for the whole batch instead of
        re-deriving it per query. On the memory backend the shared
        structural cache plays the same role. Per-query results are
        bit-identical to evaluating the queries one at a time on this
        engine (sharing changes *when* a subplan is computed, never the
        floats the memory engine produces; on SQLite, materialization
        decisions may reorder aggregate inputs, which both paths bound
        below 1e-12).

        Scores, plan counts, and SQL are reported per query, in request
        order; every result carries the per-table epoch vector
        (``epoch``) of its own relations as of this batch. Mutating the
        database while a batch is in flight is not detected here — the
        service layer quiesces batches around mutations.
        """
        opts = optimizations or Optimizations()
        started = time.perf_counter()
        queries = list(queries)
        with self._count_lock:
            self.evaluation_count += len(queries)
        # dedupe on (structural equality, declared head order): equal
        # queries with different head orders need different columns
        index_of: dict[tuple, int] = {}
        distinct: list[ConjunctiveQuery] = []
        positions: list[int] = []
        for query in queries:
            key = (query, query.head_order)
            at = index_of.get(key)
            if at is None:
                at = len(distinct)
                index_of[key] = at
                distinct.append(query)
            positions.append(at)
        if self.faults is not None:
            # one "batch" firing per call, one "evaluate" per *distinct*
            # query — so a poison rule keyed on a query fails both the
            # batch containing it and its individual re-evaluation
            self.faults.fire("batch", tuple(distinct))
            for query in distinct:
                self.faults.fire("evaluate", query)
        obs = self.observer
        with obs.span(
            "engine.evaluate_batch",
            backend=self.backend,
            size=len(queries),
            distinct=len(distinct),
        ):
            with obs.span("plan.enumerate"):
                plans_per = [self.minimal_plans(q) for q in distinct]
            epoch_per = [self.query_epoch(q) for q in distinct]
            if self.backend == "memory":
                scores_per = self._evaluate_memory_batch(
                    distinct, plans_per, opts
                )
                sql_per: list[str | None] = [None] * len(distinct)
            else:
                scores_per, sql_per = self._evaluate_sqlite_batch(
                    distinct, plans_per, opts
                )
        elapsed = time.perf_counter() - started
        if obs.enabled:
            obs.inc("engine.evaluations", len(queries))
            obs.observe("engine.evaluate_batch.seconds", elapsed)
        # per-result seconds carry the batch's amortized wall time (the
        # batch is the unit of execution, so exact per-query attribution
        # does not exist); summing over the results recovers the batch
        share = elapsed / len(queries) if queries else 0.0
        return [
            EvaluationResult(
                scores=dict(scores_per[at]),
                plan_count=len(plans_per[at]),
                optimizations=opts,
                backend=self.backend,
                seconds=share,
                sql=sql_per[at],
                epoch=epoch_per[at],
            )
            for at in positions
        ]

    def calibrate_write_factor(
        self, sample_rows: int = 4096, repeats: int = 3
    ) -> float:
        """Replace the materialization gate's write factor with a
        measured one.

        Times temp-table writes vs. reads on the SQLite backend's own
        connection (see
        :meth:`~repro.db.sqlite_backend.SQLiteBackend.measure_write_factor`)
        and installs the ratio as this engine's ``write_factor`` — the
        service runs this once at startup so the Algorithm-3 cost gate
        tracks the machine it is deployed on.
        """
        if self.backend != "sqlite":
            raise ValueError(
                "write-factor calibration measures the SQLite backend; "
                "construct the engine with backend='sqlite'"
            )
        self.write_factor = self.sqlite.measure_write_factor(
            sample_rows, repeats
        )
        return self.write_factor

    def score_per_plan(
        self, query: ConjunctiveQuery, semijoin: bool = False
    ) -> dict[Plan, dict[tuple, float]]:
        """Each minimal plan's scores separately (needed by the ``avg[d]``
        ranking experiments, Result 6)."""
        db = reduce_database(query, self.db) if semijoin else self.db
        cache = self._cache_for(db)
        return {
            plan: plan_scores(plan, query, db, cache=cache)
            for plan in self.minimal_plans(query)
        }

    def explain(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
    ) -> dict:
        """The planning decisions for ``query``, with their quality.

        Evaluates the plan(s) on the columnar engine with a recorder
        attached and returns, per plan, one entry for every executed
        join: the scheduling method (``cost-dp``, ``greedy``, or
        ``greedy-fallback`` above the DP threshold), the chosen order,
        and the **estimated vs. actual** cardinality of every fold step.
        Shared subplans are evaluated (and reported) once per plan.

        For the SQLite backend the report additionally carries the
        Algorithm-3 materialization analysis of the same plan batch:
        per shared subplan, its reference count, cost estimate, and
        whether the policy would materialize it against the current
        view registry. Semi-join mode is excluded from that section —
        its registry keys carry a per-call content token of the reduced
        tables, so there is no meaningful registry state to report
        without performing the reduction.
        """
        opts = optimizations or Optimizations()
        db = reduce_database(query, self.db) if opts.semijoin else self.db
        base = self._cache_for(db)
        plans = self.minimal_plans(query)
        targets = (
            [self.single_plan(query)] if opts.single_plan else list(plans)
        )
        entries = []
        for plan in targets:
            # fresh memo scope per plan: every join of the plan executes
            # (cached results would skip scheduling and leave gaps)
            recorder: list[dict] = []
            plan_started = time.perf_counter()
            plan_scores(
                plan, query, db, cache=base.plan_scope(), recorder=recorder
            )
            entries.append(
                {
                    "plan": plan.pretty(),
                    "joins": recorder,
                    "seconds": time.perf_counter() - plan_started,
                }
            )
        report = {
            "query": str(query),
            "backend": self.backend,
            "join_ordering": self.join_ordering,
            "dp_threshold": self.join_dp_threshold,
            "optimizations": opts,
            "plan_count": len(plans),
            "plans": entries,
        }
        if self.backend == "sqlite" and opts.reuse_views and not opts.semijoin:
            registry = self.sqlite.view_registry
            estimator = self._plan_estimator()
            policy = MaterializationPolicy(estimator=estimator)
            decisions = []
            for node, count in subplan_reference_counts(targets).items():
                prior = registry.request_count(hash(node))
                estimate = estimator(node)
                decisions.append(
                    {
                        "subplan": str(node),
                        "references": count,
                        "prior_requests": prior,
                        "estimated_rows": estimate.rows,
                        "estimated_cost": estimate.cost,
                        "materialize": node in registry
                        or policy.should_materialize(node, count, prior),
                    }
                )
            report["materialization"] = decisions
        return report

    def _evaluate_memory(
        self,
        query: ConjunctiveQuery,
        plans: Sequence[Plan],
        opts: Optimizations,
    ) -> dict[tuple, float]:
        db = reduce_database(query, self.db) if opts.semijoin else self.db
        base = self._cache_for(db)
        # Opt. 2 (view reuse) is the shared plan-result memo: with it on,
        # one structural cache spans all plans of this call *and* — for the
        # engine's own database — later calls. With it off, each plan gets
        # a fresh memo scope (encoded relations are representation, not an
        # optimization, so those stay shared either way); the DAG produced
        # by Algorithm 2 still shares nodes within one plan.
        if opts.single_plan:
            merged = self.single_plan(query)
            cache = base if opts.reuse_views else base.plan_scope()
            return plan_scores(merged, query, db, cache=cache)
        # all-plans min-combining stays columnar (one decode for the
        # whole call instead of one per plan — the warm path's cost)
        caches = (
            base
            if opts.reuse_views
            else [base.plan_scope() for _ in plans]
        )
        with self.observer.span("combine.min", plans=len(plans)):
            return plan_scores_min_combined(plans, query, db, caches)

    def _evaluate_memory_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        plans_per: Sequence[Sequence[Plan]],
        opts: Optimizations,
    ) -> list[dict[tuple, float]]:
        # One validated epoch for the whole batch: the persistent cache
        # is touched once up front, and every query of the batch then
        # evaluates against the same encoded tables — cross-query
        # subplan sharing is the structural plan-result layer itself.
        # (Semi-join mode reduces per query, so each query keeps its
        # per-reduction throwaway cache, exactly as in serial mode.)
        if not opts.semijoin:
            self._cache_for(self.db)
        return [
            self._evaluate_memory(query, plans, opts)
            for query, plans in zip(queries, plans_per)
        ]

    def _plan_estimator(
        self,
        table_names: Mapping[str, str] | None = None,
        stats_token: object = None,
    ):
        """A memoized ``Plan -> PlanEstimate`` closure for the SQLite
        materialization policy.

        Statistics come from SQL aggregates on the backend's own
        connection (:class:`SQLiteStatisticsCatalog`), so a sqlite-only
        deployment never builds in-RAM encodings of its tables just to
        price subplans. ``table_names`` redirects scans to their
        physical tables — semi-join mode passes the reduced ``_red_*``
        map together with the reduction's content token
        (``stats_token``), so reduced instances are priced with the
        *reduced* tables' statistics instead of the base tables'
        pessimistic upper bounds.
        """
        backend = self.sqlite
        if self._sqlite_stats is None or self._sqlite_stats.backend is not backend:
            self._sqlite_stats = SQLiteStatisticsCatalog(backend)
        catalog = self._sqlite_stats
        names = dict(table_names or {})

        def stats_for(relation: str):
            physical = names.get(relation, relation)
            # Base tables are tokened by their snapshot epoch, not the
            # whole source version: statistics of untouched tables
            # survive an incremental refresh.
            token = (
                stats_token
                if relation in names
                else backend.table_epoch(relation)
            )
            return catalog.table_stats(physical, token)

        memo: dict[Plan, object] = {}
        return lambda plan: estimate_plan(
            plan, stats_for, catalog.code_of, memo
        )

    def _policy(self, estimator) -> MaterializationPolicy:
        factor = (
            self.write_factor
            if self.write_factor is not None
            else DEFAULT_WRITE_FACTOR
        )
        return MaterializationPolicy(
            estimator=estimator,
            write_factor=factor,
            observer=self.observer,
        )

    def _evaluate_sqlite(
        self,
        query: ConjunctiveQuery,
        plans: Sequence[Plan],
        opts: Optimizations,
    ) -> tuple[dict[tuple, float], str]:
        backend = self.sqlite
        table_names: dict[str, str] = {}
        statements: list[str] = []
        if opts.semijoin:
            statements, table_names = semijoin_statements(
                query, self.db.schema
            )
            backend.run_statements(statements)
        compiler = SQLCompiler(
            self.db.schema,
            table_names=table_names,
            reuse_views=opts.reuse_views,
            native_ior=backend.has_math_functions,
        )
        targets = (
            [self.single_plan(query)] if opts.single_plan else list(plans)
        )
        if not opts.reuse_views:
            executed: list[str] = []
            scores: dict[tuple, float] = {}
            for plan in targets:
                sql = compiler.compile(plan, query)
                executed.append(sql)
                self._merge_min(
                    scores, self._collect(backend.execute(sql), query)
                )
            return scores, ";\n\n".join(executed)
        # Opt. 2 + Algorithm 3 across statements and queries: subplans
        # worth sharing are materialized once as temp views on the
        # connection (keyed by structural plan hash, like the memory
        # cache); one-shot subplans stay inline, so the cold path never
        # pays the write cost of a view nothing else will read. In
        # semi-join mode the views additionally carry a content token of
        # the per-query reduced temp tables, so structurally identical
        # subplans over *differently* reduced inputs can never collide
        # while repeats of the same reduction reuse their views — and
        # the policy prices subplans with the *reduced* tables' stats.
        token = (
            backend.reduction_token(statements, table_names.values())
            if opts.semijoin
            else None
        )
        key_of = (
            (lambda node: (node, token)) if token is not None else (lambda node: node)
        )
        estimator = self._plan_estimator(
            table_names=table_names, stats_token=token
        )
        [(scores, sql)] = self._run_selective_sqlite(
            compiler, [(query, targets)], key_of, estimator
        )
        return scores, sql

    def _evaluate_sqlite_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        plans_per: Sequence[Sequence[Plan]],
        opts: Optimizations,
    ) -> tuple[list[dict[tuple, float]], list[str]]:
        if opts.semijoin or not opts.reuse_views:
            # Semi-join reduction rebuilds the per-query temp tables, so
            # those queries run back to back (their cross-query sharing
            # happens through the content-token registry keys); without
            # view reuse there is nothing to share by construction.
            results = [
                self._evaluate_sqlite(query, plans, opts)
                for query, plans in zip(queries, plans_per)
            ]
            return [scores for scores, _ in results], [
                sql for _, sql in results
            ]
        backend = self.sqlite
        compiler = SQLCompiler(
            self.db.schema,
            reuse_views=True,
            native_ior=backend.has_math_functions,
        )
        targets_per = [
            [self.single_plan(query)] if opts.single_plan else list(plans)
            for query, plans in zip(queries, plans_per)
        ]
        batch = list(zip(queries, targets_per))
        key_of = lambda node: node  # noqa: E731 - trivial default
        pairs = self._run_selective_sqlite(
            compiler, batch, key_of, self._plan_estimator()
        )
        return [scores for scores, _ in pairs], [sql for _, sql in pairs]

    def _run_selective_sqlite(
        self,
        compiler: SQLCompiler,
        batch: Sequence[tuple[ConjunctiveQuery, Sequence[Plan]]],
        key_of,
        estimator,
    ) -> list[tuple[dict[tuple, float], str]]:
        """Compile and run a batch of (query, target plans) selectively.

        The Algorithm-3 policy prices the whole batch at once:
        ``subplan_reference_counts`` spans every target of every query,
        so a subplan shared by several queries counts all its reference
        sites and is materialized exactly once for the batch. Each
        query's targets then combine into per-query statements (the
        final SELECT, or chunked ``UNION ALL`` + ``MIN``); inline
        subplans shared *within* one statement — common join prefixes
        and plan tops the cost gate kept out of the registry — are
        factored into per-statement CTEs (:class:`StatementScope`), so
        they are computed once per statement rather than once per union
        branch.
        """
        backend = self.sqlite
        registry = backend.view_registry
        all_targets = [t for _, targets in batch for t in targets]
        references = subplan_reference_counts(all_targets)
        # Request history is keyed by hash, not by structural equality:
        # repeated deep-plan comparisons would dominate the warm path,
        # and a collision merely promotes a subplan early — the *view*
        # registry stays structurally keyed, so correctness never
        # depends on this map.
        prior = {
            node: registry.request_count(hash(key_of(node)))
            for node in references
        }
        for node in references:
            registry.note_request(hash(key_of(node)))
        policy = self._policy(estimator)

        def decide(node: Plan) -> bool:
            return policy.should_materialize(
                node, references.get(node, 1), prior.get(node, 0)
            )

        out: list[tuple[dict[tuple, float], str]] = []
        # The outer pin scope keeps every view alive until the combining
        # SELECTs have run (pin_scope is re-entrant); the LRU cap is
        # enforced when it exits.
        with registry.pin_scope():
            for query, targets in batch:
                executed: list[str] = []
                scores: dict[tuple, float] = {}
                for start in range(0, len(targets), _MAX_UNION_BRANCHES):
                    chunk = list(targets[start : start + _MAX_UNION_BRANCHES])
                    scope = StatementScope(
                        subplan_reference_counts(chunk, include_joins=True)
                    )
                    compiled: list[str] = []
                    for plan in chunk:
                        created, ref = compiler.compile_selective(
                            plan, registry, decide, key_of=key_of, scope=scope
                        )
                        executed.extend(created)
                        compiled.append(ref)
                    if len(chunk) == 1:
                        sql = compiler.select_statement(
                            compiled[0], query, scope=scope
                        )
                    else:
                        # min-combine the per-answer scores inside the
                        # engine with UNION ALL + MIN instead of one
                        # fetch-and-merge round trip per plan
                        sql = compiler.min_union_sql(
                            compiled, query, scope=scope
                        )
                    executed.append(sql)
                    if self.observer.enabled and scope.cte_count:
                        self.observer.inc(
                            "sql.ctes_shared", scope.cte_count
                        )
                    self._merge_min(
                        scores, self._collect(backend.execute(sql), query)
                    )
                out.append((scores, ";\n\n".join(executed)))
        return out

    @staticmethod
    def _merge_min(
        into: dict[tuple, float], update: Mapping[tuple, float]
    ) -> None:
        for answer, score in update.items():
            previous = into.get(answer)
            if previous is None or score < previous:
                into[answer] = score

    @staticmethod
    def _collect(
        rows: list[tuple], query: ConjunctiveQuery
    ) -> dict[tuple, float]:
        width = len(query.head_order)
        out: dict[tuple, float] = {}
        for row in rows:
            probability = row[width]
            if probability is None:
                continue  # empty Boolean aggregate
            out[tuple(row[:width])] = probability
        return out

    # ------------------------------------------------------------------
    # baselines (Sec. 5)
    # ------------------------------------------------------------------
    def lineage(self, query: ConjunctiveQuery) -> Lineage:
        return lineage_of(query, self.db)

    def exact(self, query: ConjunctiveQuery) -> dict[tuple, float]:
        """Ground-truth probabilities by exact model counting."""
        lineage = self.lineage(query)
        evaluator = ExactEvaluator(lineage.probabilities)
        return {
            answer: evaluator.probability(formula)
            for answer, formula in lineage.by_answer.items()
        }

    def monte_carlo(
        self,
        query: ConjunctiveQuery,
        samples: int,
        seed: int | None = None,
    ) -> dict[tuple, float]:
        """MC(x): sampled probabilities over shared possible worlds."""
        lineage = self.lineage(query)
        answers = list(lineage.by_answer)
        estimates = monte_carlo_many(
            [lineage.by_answer[a] for a in answers],
            lineage.probabilities,
            samples,
            seed,
        )
        return dict(zip(answers, estimates))

    def probability_bounds(
        self, query: ConjunctiveQuery
    ) -> dict[tuple, tuple[float, float]]:
        """Certified intervals ``(low, high)`` per answer (extension).

        ``high`` is the propagation score ρ (upper bound, Cor. 19);
        ``low`` comes from the oblivious *lower* bounds of the TODS 2014
        companion paper: each minimal plan's dissociation is replayed on
        the lineage with copy-adjusted marginals ``1 − (1−p)^{1/k}``, and
        the best plan wins. Unlike :meth:`propagation_score` this needs
        the lineage, so it does not run purely inside the SQL engine.
        """
        from ..lineage.lower import oblivious_lower_bounds

        lineage = lineage_of(query, self.db, record_assignments=True)
        plans = self.minimal_plans(query)
        lows = oblivious_lower_bounds(query, lineage, plans)
        highs = self.propagation_score(query)
        return {
            answer: (min(lows[answer], highs[answer]), highs[answer])
            for answer in highs
        }

    def answers(self, query: ConjunctiveQuery) -> set[tuple]:
        """Deterministic answer set (standard SQL semantics)."""
        return deterministic_answers(query, self.db)

    def deterministic_sql(self, query: ConjunctiveQuery) -> str:
        return deterministic_sql(query, self.db.schema)

    def lineage_sql(self, query: ConjunctiveQuery) -> str:
        return lineage_sql(query, self.db.schema)
