"""The end-to-end dissociation engine (the system of the paper).

:class:`DissociationEngine` wires together Algorithm 1/2 plan enumeration,
the schema knowledge (deterministic relations, FDs), the three multi-query
optimizations, and the two plan executors of :mod:`.executors`:

* ``"memory"`` — the pure-Python extensional evaluator;
* ``"sqlite"`` — plans compiled to SQL and executed inside SQLite, the
  paper's "everything runs in the database engine" mode.

The engine enumerates and memoizes plans (they depend on the query and
the schema only); ``config.backend`` picks the executor that runs them.
Its central entry point is :meth:`propagation_score`, computing
``ρ(q)`` per answer tuple; :meth:`exact`, :meth:`monte_carlo` and
:meth:`lineage` provide the baselines of the experimental section.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from ..api.config import EngineConfig
from ..core.canonical import bind_plans, canonical_shape, schema_flags
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
from .executors import MemoryExecutor, SQLiteExecutor
from .extensional import Scope, deterministic_answers, plan_scores
from .semijoin import semijoin_masks
from .sql import deterministic_sql, lineage_sql

__all__ = ["Optimizations", "EvaluationResult", "DissociationEngine"]


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


#: What ``optimizations=None`` means (frozen, so safe to share).
_DEFAULT_OPTIMIZATIONS = Optimizations()


class _PlanTemplate(NamedTuple):
    """A plan-memo entry: its memo key, the first-seen query of the
    shape, that query's canonical numbering, and the plans enumerated
    for it. An engine without a memo has no shape identity: ``key`` and
    ``numbering`` are ``None``."""

    key: "tuple | None"
    query: ConjunctiveQuery
    numbering: "dict | None"
    plans: tuple[Plan, ...]


class _Targets:
    """The target plans of one request, bound when first read.

    An executor gets a sequence of plans, as the contract says; this one
    also says which plan template it is a binding of (``key``), so an
    executor that recognises the request by its shape never makes the
    engine rebuild the plans over the request's atoms.
    """

    __slots__ = ("key", "_bind", "_plans")

    def __init__(self, key: "tuple | None", bind) -> None:
        self.key = key
        self._bind = bind
        self._plans: "list[Plan] | None" = None

    def _bound(self) -> list[Plan]:
        if self._plans is None:
            self._plans = self._bind()
        return self._plans

    def __iter__(self):
        return iter(self._bound())

    def __len__(self) -> int:
        return len(self._bound())

    def __getitem__(self, index):
        return self._bound()[index]


class DissociationEngine:
    """Approximate probabilistic query evaluation by dissociation.

    Parameters
    ----------
    db:
        The tuple-independent probabilistic database.
    config:
        A frozen :class:`~repro.api.EngineConfig` — the canonical way to
        configure the engine (backend, schema knowledge, cache sizes,
        write factor). ``None`` uses the defaults.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`. When set,
        the engine fires the ``"evaluate"`` hook once per query (in
        :meth:`evaluate` and per distinct query of
        :meth:`evaluate_batch`), the ``"batch"`` hook once per
        :meth:`evaluate_batch` call, and threads the injector into the
        SQLite backend's ``"statement"`` hook. ``None`` (the default)
        costs a single ``is not None`` check. Runtime wiring, not part
        of the hashable config.

    The resolved configuration is exposed as :attr:`config`; the
    individual fields stay readable as instance attributes
    (``engine.backend``, ``engine.cache_size``, ...) for
    compatibility. ``write_factor`` alone may diverge from the config
    at runtime: :meth:`calibrate_write_factor` installs a measured
    value.

    One engine serves any number of threads on either backend (see
    :mod:`.executors`): they share its plan memo, its memory cache and
    its one SQLite snapshot, which :meth:`release` closes.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        config: EngineConfig | None = None,
        *,
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
        self.backend: str = config.backend
        self.use_schema_knowledge = config.use_schema_knowledge
        self.cache_size = config.cache_size
        self.faults = faults
        #: The instrumentation sink (``repro.obs``): spans for
        #: evaluation stages and per-subplan work, counters for
        #: evaluations. Defaults to the no-op observer; hot paths guard
        #: on ``observer.enabled``.
        self.observer = resolve_observer(config.observer)
        #: Both executors exist on every engine (their resources are
        #: lazy); :attr:`executor` is the one ``config.backend`` names.
        self.memory_executor = MemoryExecutor(db, config, self.observer)
        self.sqlite_executor = SQLiteExecutor(
            db, config, self.observer, faults
        )
        self.executor = {
            "memory": self.memory_executor,
            "sqlite": self.sqlite_executor,
        }[config.backend]
        #: Queries actually evaluated by this engine (``evaluate`` adds
        #: one, ``evaluate_batch`` adds the batch size). The session
        #: result cache's acceptance tests assert this stays flat on a
        #: cache hit. Incremented under a lock: the service shares one
        #: engine across all worker threads.
        self.evaluation_count = 0
        self._count_lock = threading.Lock()
        # minimal_plans/single_plan memo keyed by (flavor, query shape,
        # schema flags) — plans depend on query structure and schema
        # knowledge only, so the memo survives data mutations.
        # Storage + hit/miss/eviction counters live in the shared
        # StatsLRU core; renamed hits are a memo-specific refinement.
        self._plan_memo_lock = threading.RLock()
        self._plan_memo = StatsLRU(
            config.plan_memo_size, lock=self._plan_memo_lock
        )
        self._plan_memo_renamed = 0
        self._enumerate_lock = threading.Lock()

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
        """The engine's SQLite snapshot of ``db`` (created on first use,
        refreshed in place when the database moved — see
        :meth:`~repro.engine.executors.SQLiteExecutor.snapshot`)."""
        return self.sqlite_executor.snapshot().backend

    def invalidate_sqlite(self) -> None:
        """Close the engine's SQLite snapshot; a moved database only
        ever *refreshes* it, see :attr:`sqlite`."""
        self.sqlite_executor.release()

    def release(self) -> None:
        """Drop the serving executor's resources (on SQLite: close the
        engine's one snapshot), from any thread."""
        self.executor.release()

    @property
    def write_factor(self) -> float | None:
        """The Algorithm-3 write factor in force (``None``: default)."""
        return self.sqlite_executor.write_factor

    def cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the serving executor's Opt.-2
        cache.

        One shape for both backends: ``hits``/``misses``/``evictions``
        (cumulative — they survive invalidation by database mutation
        and, on SQLite, a released snapshot), ``size`` (currently
        cached subplan results or materialized views) and ``max_size``
        (the LRU cap, ``None`` when unbounded). Zeros before the first
        evaluation.
        """
        return self.executor.cache_stats()

    def statement_stats(self) -> dict:
        """Counters of the SQLite executor's statement templates, in the
        shape of :meth:`cache_stats` (zeros on an engine that never ran
        SQL): ``hits`` ran a stored statement, ``misses`` compiled one
        (:meth:`~repro.engine.executors.SQLiteExecutor.statement_stats`).
        """
        return self.sqlite_executor.statement_stats()

    # ------------------------------------------------------------------
    # plan-level API
    # ------------------------------------------------------------------
    def _template(
        self, query: ConjunctiveQuery, flavor: str, schema_args=None, count=True
    ) -> "tuple[_PlanTemplate, dict | None]":
        """Enumerate (or recall) the plans of ``query``'s *shape*.

        The memo key is ``(flavor, shape, schema flags)``: the shape
        (:func:`repro.core.canonical.canonical_shape`) is the canonical
        key with the constants taken out, so repeats hit regardless of
        atom order, variable names and selection constants — Algorithms
        1 and 2 ask of a term only whether it is a variable — and the
        flags restrict schema sensitivity to the query's own relations.
        Plans depend only on query structure and schema knowledge, never
        on the data, so the memo survives database mutations.

        Returns ``(template, numbering)``: the memo entry of the shape —
        which :meth:`_bind` rebuilds over any other query of the shape —
        and ``query``'s own numbering. ``count=False`` moves no counter
        and stores nothing.
        """
        deterministic, fds = schema_args or self._schema_args()
        if self.config.plan_memo_size == 0:
            plans = self._enumerate(query, flavor, deterministic, fds)
            return _PlanTemplate(None, query, None, tuple(plans)), None
        shape, _, numbering = canonical_shape(query)
        key = (flavor, shape, schema_flags(query, deterministic, fds))
        entry = self._plan_memo.get(key, count_hit=count, count_miss=False)
        if entry is None and not count:
            plans = self._enumerate(query, flavor, deterministic, fds)
            return _PlanTemplate(None, query, None, tuple(plans)), None
        if entry is None:
            # one enumeration per shape however many threads ask at
            # once: the latecomers wait, then count a hit
            with self._enumerate_lock:
                entry = self._plan_memo.get(key)
                if entry is None:
                    plans = self._enumerate(query, flavor, deterministic, fds)
                    entry = _PlanTemplate(
                        key, query, numbering, tuple(plans)
                    )
                    self._plan_memo.put(key, entry)
        return entry, numbering

    def _bind(
        self,
        template: _PlanTemplate,
        numbering: "dict | None",
        query: ConjunctiveQuery,
        count=True,
    ) -> list[Plan]:
        """A template's plans over ``query`` (``numbering`` is its own).

        The first-seen query gets the very plan objects of its
        enumeration (bit-identical evaluation, shared structural cache
        keys); any other query of the shape gets them rebuilt over its
        own variables and atoms, sharing every untouched subplan.
        """
        if template.query == query:
            return list(template.plans)
        # same shape: the two numberings compose into a bijection
        # stored -> ours
        inverse = {index: v for v, index in numbering.items()}
        mapping = {
            stored_var: inverse[index]
            for stored_var, index in template.numbering.items()
        }
        if count and any(a != b for a, b in mapping.items()):
            with self._plan_memo_lock:
                self._plan_memo_renamed += 1
        return bind_plans(template.plans, mapping, query)

    def _targets(
        self,
        query: ConjunctiveQuery,
        template: _PlanTemplate,
        numbering: "dict | None",
    ) -> _Targets:
        """A template's plans over ``query`` as an executor takes them."""
        return _Targets(
            template.key, lambda: self._bind(template, numbering, query)
        )

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
        return self._plans(query, "minimal")

    def single_plan(self, query: ConjunctiveQuery) -> Plan:
        """The Opt. 1 merged plan (a DAG with shared subplans)."""
        return self._plans(query, "single")[0]

    def _plans(self, query: ConjunctiveQuery, flavor: str, count=True):
        """``count=False``: read without moving :meth:`plan_memo_stats`."""
        template, numbering = self._template(query, flavor, count=count)
        return self._bind(template, numbering, query, count)

    def is_safe(self, query: ConjunctiveQuery) -> bool:
        """True iff the query has a single (exact) plan under the schema."""
        template, _ = self._template(query, "minimal")
        return len(template.plans) == 1

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
        if self.faults is not None:
            self.faults.fire("evaluate", query)
        started = time.perf_counter()
        with self._count_lock:
            self.evaluation_count += 1
        return self._evaluate(
            (query,), (0,), optimizations, started, "engine.evaluate"
        )[0]

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
        structural cache plays the same role for constant-free
        subplans, and one per-call memo shared by the batch's queries
        for those beneath a selection constant. Per-query results are
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
        started = time.perf_counter()
        queries = list(queries)
        with self._count_lock:
            self.evaluation_count += len(queries)
        # dedupe on (structural equality, declared head order): equal
        # queries with different head orders need different columns
        index_of: dict[tuple, int] = {}
        positions = [
            index_of.setdefault((q, q.head_order), len(index_of))
            for q in queries
        ]
        distinct = [query for query, _ in index_of]
        if self.faults is not None:
            # one "batch" firing per call, one "evaluate" per *distinct*
            # query — so a poison rule keyed on a query fails both the
            # batch containing it and its individual re-evaluation
            self.faults.fire("batch", tuple(distinct))
            for query in distinct:
                self.faults.fire("evaluate", query)
        return self._evaluate(
            distinct,
            positions,
            optimizations,
            started,
            "engine.evaluate_batch",
            size=len(queries),
            distinct=len(distinct),
        )

    def _evaluate(
        self,
        queries: Sequence[ConjunctiveQuery],
        positions: Sequence[int],
        optimizations: Optimizations | None,
        started: float,
        name: str,
        **span_meta,
    ) -> list[EvaluationResult]:
        """The one evaluation body: enumerate (or recall) the plans of
        every (distinct) query, stamp the epochs, hand ``(query, target
        plans)`` pairs to the serving executor — the plans bind when the
        executor first reads them — and build one result per requested
        position (``positions[i]`` indexes ``queries``)."""
        opts = optimizations or _DEFAULT_OPTIMIZATIONS
        obs = self.observer
        schema_args = self._schema_args()  # read once for the whole call
        plan_counts = []
        batch = []
        with obs.span(name, backend=self.backend, **span_meta) as span:
            with obs.span("plan.enumerate"):
                for query in queries:
                    # the minimal plans are always counted; what runs
                    # is bound when the executor first reads it
                    template, numbering = self._template(
                        query, "minimal", schema_args
                    )
                    plan_counts.append(len(template.plans))
                    if opts.single_plan:
                        template, numbering = self._template(
                            query, "single", schema_args
                        )
                    batch.append(
                        (query, self._targets(query, template, numbering))
                    )
            epoch_per = [self.query_epoch(query) for query in queries]
            pairs = self.executor.run(batch, opts)
            if obs.enabled:
                span.note(
                    plan_count=sum(plan_counts),
                    answers=sum(len(scores) for scores, _ in pairs),
                )
        elapsed = time.perf_counter() - started
        total = len(positions)
        if obs.enabled:
            obs.inc("engine.evaluations", total)
            obs.observe(name + ".seconds", elapsed)
        # per-result seconds carry the call's amortized wall time (the
        # batch is the unit of execution, so exact per-query attribution
        # does not exist); summing over the results recovers the call
        share = elapsed / total if total else 0.0
        backend = self.backend
        first_use = [True] * len(batch)
        results = []
        for at in positions:
            scores, sql = pairs[at]
            if first_use[at]:
                first_use[at] = False
            else:
                scores = dict(scores)  # duplicates must not share a dict
            results.append(
                EvaluationResult(
                    scores,
                    plan_counts[at],
                    opts,
                    backend,
                    share,
                    sql,
                    epoch_per[at],
                )
            )
        return results

    def calibrate_write_factor(
        self, sample_rows: int = 4096, repeats: int = 3
    ) -> float:
        """Replace the materialization gate's write factor with a
        measured one.

        Times temp-table writes vs. reads on the engine's SQLite
        connection (see
        :meth:`~repro.db.sqlite_backend.SQLiteBackend.measure_write_factor`)
        and installs the ratio as this engine's ``write_factor`` — the
        service runs this once at startup so the Algorithm-3 cost gate
        tracks the machine it is deployed on.
        """
        if not self.runs_sql:
            raise ValueError(
                "write-factor calibration measures the SQLite backend; "
                "construct the engine with backend='sqlite'"
            )
        return self.sqlite_executor.calibrate_write_factor(
            sample_rows, repeats
        )

    @property
    def runs_sql(self) -> bool:
        """Whether plans run as SQL — where the write factor and the
        materialization analysis of :meth:`explain` exist."""
        return self.executor is self.sqlite_executor

    def score_per_plan(
        self, query: ConjunctiveQuery, semijoin: bool = False
    ) -> dict[Plan, dict[tuple, float]]:
        """Each minimal plan's scores separately (needed by the ``avg[d]``
        ranking experiments, Result 6); with ``semijoin``, under
        ``query``'s Opt.-3 row masks. The plans share one memo, as in
        all-plans mode."""
        cache = self.memory_executor.cache_for()
        masks = semijoin_masks(query, cache) if semijoin else None
        scope = Scope({}, masks)
        return {
            plan: plan_scores(plan, query, self.db, cache, scope=scope)
            for plan in self.minimal_plans(query)
        }

    def explain(
        self,
        query: ConjunctiveQuery,
        optimizations: Optimizations | None = None,
    ) -> dict:
        """The planning decisions for ``query``, with their quality.

        Evaluates the plan(s) on the columnar engine (under the Opt.-3
        row masks in semi-join mode) with a recorder attached and
        returns, per plan, one entry for every executed join: the fold
        order and the **estimated vs. actual** cardinality of every
        fold step.
        Shared subplans are evaluated (and reported) once per plan.

        For the SQLite backend the report additionally carries the
        Algorithm-3 materialization analysis of the same plan batch
        (``"materialization"``: per shared subplan, its reference count,
        cost estimate, and whether the policy would materialize it
        against the current view registry) and ``"statement_template"``:
        whether the request would be served from a stored statement
        template instead of being compiled. Semi-join mode is excluded
        from both: its requests never touch the registry or the
        template store.
        """
        opts = optimizations or _DEFAULT_OPTIMIZATIONS
        cache = self.memory_executor.cache_for()
        # no memo: every join of every plan executes (a result served
        # from a store would skip scheduling and leave gaps)
        masks = semijoin_masks(query, cache) if opts.semijoin else None
        scope = Scope(None, masks)
        template, numbering = self._template(query, "minimal")
        plan_count = len(template.plans)
        if opts.single_plan:
            template, numbering = self._template(query, "single")
        targets = self._targets(query, template, numbering)
        entries = []
        for plan in targets:
            recorder: list[dict] = []
            plan_started = time.perf_counter()
            plan_scores(plan, query, self.db, cache, recorder, scope)
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
            "optimizations": opts,
            "plan_count": plan_count,
            "plans": entries,
        }
        if self.runs_sql and opts.reuse_views and not opts.semijoin:
            report.update(self.sqlite_executor.explain(query, targets))
        return report

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
