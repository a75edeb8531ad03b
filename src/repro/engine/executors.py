"""The two plan executors behind the engine's one batch contract.

:class:`~repro.engine.DissociationEngine` enumerates and memoizes plans;
an *executor* runs them. The contract has three members:

* ``run(batch, opts)`` — ``[(query, target plans), ...]`` (the engine
  already chose between the merged Opt.-1 plan and the separate minimal
  plans) to ``[(scores, sql | None), ...]`` in batch order. The target
  plans bind to the query when they are first read, and say which plan
  template they come from (``targets.key``): the SQLite executor serves
  a request whose statement it already holds without reading them;
* ``cache_stats()`` — cumulative counters of the Opt.-2 layer, one
  shape for both executors;
* ``release()`` — drop the executor's resources, from any thread.

Every thread shares an executor's one cache or snapshot. Both are cheap
to construct (no cache, no connection until first use), so every engine
carries both — baselines read ``engine.sqlite`` on memory engines,
``explain()`` runs columnar on SQLite ones — and ``config.backend`` only
picks which one serves. Neither holds a reference back to the engine: a
cycle would keep a dropped engine and its encoded tables alive until a
gen-2 collection.
"""

from __future__ import annotations

import threading
from typing import Mapping, NamedTuple, Sequence

from ..core.plans import Plan
from ..core.query import ConjunctiveQuery
from ..db.database import ProbabilisticDatabase
from ..db.sqlite_backend import MAX_STATEMENT_TEMPLATES, SQLiteBackend
from ..obs import StatsLRU
from .extensional import (
    EvaluationCache,
    Scope,
    plan_scores,
    plan_scores_min_combined,
)
from .semijoin import semijoin_masks, semijoin_statements
from .sql import (
    Parameters,
    SQLCompiler,
    Statement,
    StatementScope,
    bindable,
    subplan_reference_counts,
)
from .stats import (
    DEFAULT_WRITE_FACTOR,
    MaterializationPolicy,
    SQLiteStatisticsCatalog,
    estimate_plan,
)

__all__ = ["MemoryExecutor", "SQLiteExecutor", "Snapshot"]

#: The counters a cache keeps for life (its ``size`` is a level).
_CUMULATIVE = ("hits", "misses", "evictions")

#: SQLite's compound-SELECT term limit defaults to 500; chunk the
#: all-plans min-combining union well below it.
_MAX_UNION_BRANCHES = 100

Batch = Sequence[tuple[ConjunctiveQuery, Sequence[Plan]]]


class MemoryExecutor:
    """Columnar in process: the pure-Python extensional evaluator."""

    def __init__(self, db: ProbabilisticDatabase, config, observer) -> None:
        self.db = db
        self.cache_size = config.cache_size
        self.observer = observer
        #: The persistent cross-query cache of ``db`` (built on first
        #: use). Assigning ``None`` drops it; the forked pool workers
        #: install a pre-seeded one after every snapshot (re)attach.
        self.cache: EvaluationCache | None = None

    def cache_for(self) -> EvaluationCache:
        """The persistent cross-query cache of ``db``: one long-lived
        cache that validates itself per table when the database's
        version token moves."""
        if self.cache is None:
            self.cache = EvaluationCache(self.db, max_plans=self.cache_size)
            self.cache.observer = self.observer
        else:
            self.cache.validate()
        return self.cache

    def run(self, batch: Batch, opts) -> list[tuple[dict, None]]:
        out = []
        # A retaining call (Opt. 2 on, Opt. 3 off) shares the persistent
        # cache's constant-free results with every call, and the batch's
        # queries share one memo of the selective ones, so a selection
        # two queries share is computed once; a new database version
        # starts a new memo. Opt. 2 off gives each plan only its own DAG
        # memo; Opt. 3 masks the scans, so that request keeps its
        # results in a memo of its own.
        shared: dict = {}
        version = None
        for query, targets in batch:
            cache = self.cache_for()
            masks = semijoin_masks(query, cache) if opts.semijoin else None
            if not opts.reuse_views:
                scope = Scope(None, masks)
            elif masks is not None:
                scope = Scope({}, masks)
            else:
                current = self.db.version
                if current != version:
                    shared, version = {}, current
                scope = Scope(shared)
            if opts.single_plan:
                scores = plan_scores(
                    targets[0], query, self.db, cache, scope=scope
                )
            else:
                # all-plans min-combining stays columnar (one decode for
                # the whole call instead of one per plan — the warm
                # path's cost)
                with self.observer.span("combine.min", plans=len(targets)):
                    scores = plan_scores_min_combined(
                        targets, query, self.db, cache, scope=scope
                    )
            out.append((scores, None))
        return out

    def cache_stats(self) -> dict:
        if self.cache is not None:
            return self.cache.cache_stats()
        return {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "max_size": self.cache_size,
        }

    def release(self) -> None:
        """Nothing to close: the cache holds no connection."""


class _StatementKey(NamedTuple):
    """Everything the text of a request's statements depends on (README,
    "Statement templates": why each component is here)."""

    template: tuple  # the plan-memo key: flavour, shape, schema flags
    frequencies: tuple[float, ...]  # per slot, as the cost model reads it
    epochs: tuple  # of every scanned table
    write_factor: "float | None"
    generation: int  # of the view registry


class _StatementTemplate(NamedTuple):
    """The statements of one key (one, or the chunks of an all-plans
    union) and the registry key of every view lookup their compilation
    made — the touches a rerun repeats."""

    statements: tuple[Statement, ...]
    views: tuple


class _Request(NamedTuple):
    """One query of a batch. ``key``: its statement key (``None``: not
    templated)."""

    query: ConjunctiveQuery
    targets: Sequence[Plan]
    parameters: Parameters
    key: "_StatementKey | None" = None


class Snapshot:
    """The engine's SQLite copy of the database, its temp-view registry,
    its statistics catalog and the statement templates compiled against
    them (their text names the registry's views and is prepared on the
    connection, so they live and die with it)."""

    __slots__ = ("backend", "registry", "catalog", "statements")

    def __init__(self, backend: SQLiteBackend) -> None:
        self.backend = backend
        self.registry = backend.view_registry
        self.catalog = SQLiteStatisticsCatalog(backend)
        self.statements = StatsLRU(MAX_STATEMENT_TEMPLATES)


class SQLiteExecutor:
    """Plans compiled to SQL on a connection — one snapshot per engine.

    Every thread shares the snapshot, so a view or a template one worker
    builds serves every other; one lock serializes every use of it (SQL
    from concurrent callers runs one batch at a time). A released
    snapshot's counters fold into a cumulative base, so
    :meth:`cache_stats` keeps counting across releases.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        config,
        observer,
        faults=None,
    ) -> None:
        self.db = db
        self.cache_size = config.cache_size
        #: The Algorithm-3 write factor in force (``None``: the default
        #: constant); the engine's calibration installs a measured one.
        self.write_factor = config.write_factor
        self.observer = observer
        self.faults = faults
        self._lock = threading.RLock()
        self._snapshot: Snapshot | None = None
        # what released snapshots counted
        self._released = {
            name: dict.fromkeys(_CUMULATIVE, 0)
            for name in ("views", "statements")
        }

    # ------------------------------------------------------------------
    # the snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The engine's snapshot of ``db``, created on first use and
        *refreshed in place* when the database's version token moved:
        only tables whose epochs moved are reloaded and only the views
        scanning them dropped (:meth:`SQLiteBackend.refresh`, the memory
        cache's per-table ``validate()``)."""
        with self._lock:
            if self._snapshot is None:
                backend = SQLiteBackend(
                    self.db,
                    view_cache_size=self.cache_size,
                    fault_injector=self.faults,
                )
                backend.observer = self.observer
                self._snapshot = Snapshot(backend)
            else:
                # a no-op unless the version moved
                self._snapshot.backend.refresh()
            return self._snapshot

    def release(self) -> None:
        """Close the snapshot (no-op without one); its counters fold
        into the cumulative base."""
        with self._lock:
            snapshot, self._snapshot = self._snapshot, None
            if snapshot is None:
                return
            for name, live in _counters(snapshot).items():
                for key in _CUMULATIVE:
                    self._released[name][key] += live[key]
            # closing the connection destroys the temp views with it
            snapshot.backend.close()

    def cache_stats(self) -> dict:
        """The view registry's counters, released snapshots' included."""
        return self._totals("views", self.cache_size)

    def statement_stats(self) -> dict:
        """Counters of the statement templates, in the shape of
        :meth:`cache_stats`: a hit ran a stored statement, a miss
        compiled one (requests that are not templated count as
        neither)."""
        return self._totals("statements", MAX_STATEMENT_TEMPLATES)

    def _totals(self, name: str, max_size) -> dict:
        with self._lock:
            out = dict(self._released[name], size=0, max_size=max_size)
            if self._snapshot is not None:
                live = _counters(self._snapshot)[name]
                for key in (*_CUMULATIVE, "size"):
                    out[key] += live[key]
            return out

    def calibrate_write_factor(self, sample_rows: int, repeats: int) -> float:
        """Measure the write factor on the connection and install it."""
        with self._lock:
            backend = self.snapshot().backend
            self.write_factor = backend.measure_write_factor(
                sample_rows, repeats
            )
        return self.write_factor

    # ------------------------------------------------------------------
    # Algorithm-3 pricing
    # ------------------------------------------------------------------
    def plan_estimator(self):
        """A memoized ``Plan -> PlanEstimate`` closure for the
        materialization policy and the join order.

        Statistics come from SQL aggregates on the snapshot's own
        connection (:class:`SQLiteStatisticsCatalog`), so a sqlite-only
        deployment never builds in-RAM encodings of its tables just to
        price subplans. They are the base tables' — a semi-join request
        orders its joins over the reduced copies with them too: the
        reduction only shrinks what they estimate.
        """
        snapshot = self.snapshot()
        backend, catalog = snapshot.backend, snapshot.catalog

        def stats_for(relation: str):
            # tokened by the snapshot epoch, not the whole source
            # version: statistics of untouched tables survive an
            # incremental refresh
            return catalog.table_stats(
                relation, backend.table_epoch(relation)
            )

        memo: dict[Plan, object] = {}
        return lambda plan: estimate_plan(plan, stats_for, memo)

    def _policy(self, estimator, observer=None) -> MaterializationPolicy:
        """The Algorithm-3 policy under the write factor in force — the
        one :meth:`run` decides with and :meth:`explain` reports."""
        factor = self.write_factor
        if factor is None:
            factor = DEFAULT_WRITE_FACTOR
        return MaterializationPolicy(estimator, factor, observer)

    # ------------------------------------------------------------------
    # statement templates
    # ------------------------------------------------------------------
    def _request(self, snapshot: Snapshot, query, targets) -> _Request:
        """``query`` as a request of the template store (counters
        untouched).

        With equal statement keys ``estimate_plan``, ``greedy_order``
        and ``MaterializationPolicy`` cannot tell two requests apart, so
        a stored statement is byte for byte the one a compile would
        produce. No key when the request cannot be templated: an engine
        without a plan memo has no shape identity (``targets.key``), and
        a constant ``sqlite3`` cannot bind is part of the text.
        """
        parameters = Parameters(query)
        memo_key = getattr(targets, "key", None)
        if memo_key is None or not all(
            map(bindable, parameters.constants)
        ):
            return _Request(query, targets, parameters)
        backend, catalog = snapshot.backend, snapshot.catalog
        frequencies = []
        for (relation, position), value in zip(
            parameters.slots, parameters.constants
        ):
            epoch = backend.table_epoch(relation)
            columns = (
                catalog.table_stats(relation, epoch).columns
                if epoch is not None
                else ()
            )
            if position >= len(columns):
                # unknown relation or wrong arity: compiling says which
                return _Request(query, targets, parameters)
            frequencies.append(columns[position].frequency(value))
        _, (atoms, _), _ = memo_key
        key = _StatementKey(
            memo_key,
            tuple(frequencies),
            tuple(backend.table_epoch(relation) for relation, _, _ in atoms),
            self.write_factor,
            snapshot.registry.generation,
        )
        return _Request(query, targets, parameters, key)

    def _run_template(self, snapshot: Snapshot, request: _Request):
        """Answer ``request`` with its stored statements, or ``None``
        when its key holds no template (nothing stored yet, or an epoch,
        the write factor or the registry moved).

        A hit repeats the registry lookups the compilation made: hits
        counted, LRU touched, views pinned until the statements ran.
        """
        registry = snapshot.registry
        template = snapshot.statements.get(request.key)
        if self.observer.enabled:
            outcome = "misses" if template is None else "hits"
            self.observer.inc("sql.template." + outcome)
        if template is None:
            return None
        scores: dict[tuple, float] = {}
        with registry.pin_scope():
            for view in template.views:
                registry.lookup(view)
            executed = [
                _execute(snapshot.backend, statement, request, scores, "hit")
                for statement in template.statements
            ]
        return scores, ";\n\n".join(executed)

    def explain(self, query, targets: Sequence[Plan]) -> dict:
        """What :meth:`run` would do with the request, against the
        current registry and template store:
        ``"statement_template"`` — whether a stored statement would
        serve it — and ``"materialization"`` — per shared subplan of
        ``targets``, its references, cost estimate, and whether the
        policy would materialize it."""
        with self._lock:
            snapshot = self.snapshot()
            registry = snapshot.registry
            request = self._request(snapshot, query, targets)
            estimator = self.plan_estimator()
            policy = self._policy(estimator)
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
            return {
                "statement_template": request.key in snapshot.statements,
                "materialization": decisions,
            }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, batch: Batch, opts) -> list[tuple[dict, str]]:
        # one batch at a time on the one connection: a template hit,
        # a compile's view DDL and a semi-join request's ``_red_*``
        # tables never interleave with another caller's
        with self._lock:
            snapshot = self.snapshot()
            if opts.semijoin or not opts.reuse_views:
                # Semi-join reduction rebuilds the per-query temp
                # tables, so those queries run back to back and share
                # nothing; without view reuse there is nothing to share
                # by construction.
                return [
                    self._run_query(snapshot, query, targets, opts)
                    for query, targets in batch
                ]
            # Requests whose statement is stored are answered first;
            # the rest are compiled together, so what the batch shares
            # is priced batch-wide as before.
            out: list = []
            pending: dict[int, _Request] = {}  # by position in the batch
            for query, targets in batch:
                request = self._request(snapshot, query, targets)
                pair = None
                if request.key is not None:
                    pair = self._run_template(snapshot, request)
                if pair is None:
                    pending[len(out)] = request
                out.append(pair)
            if pending:
                compiler = SQLCompiler(
                    self.db.schema,
                    reuse_views=True,
                    native_ior=snapshot.backend.has_math_functions,
                    estimator=self.plan_estimator(),
                )
                pairs = self._run_selective(
                    snapshot, compiler, list(pending.values())
                )
                for at, pair in zip(pending, pairs):
                    out[at] = pair
            return out

    def _run_query(
        self, snapshot: Snapshot, query, targets, opts
    ) -> tuple[dict[tuple, float], str]:
        """A request that touches no view registry: a semi-join request
        reduces, runs and keeps nothing; without view reuse every plan
        is its own statement."""
        backend = snapshot.backend
        table_names: dict[str, str] = {}
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
            estimator=self.plan_estimator(),
        )
        executed: list[str] = []
        scores: dict[tuple, float] = {}
        if not opts.reuse_views:
            for plan in targets:
                sql = compiler.compile(plan, query)
                executed.append(sql)
                _merge_min(scores, _collect(backend.execute(sql), query))
        else:
            request = _Request(query, targets, Parameters(query))
            for _, statement, _ in self._statements(compiler, request):
                executed.append(
                    _execute(backend, statement, request, scores, "none")
                )
        return scores, ";\n\n".join(executed)

    def _statements(
        self,
        compiler: SQLCompiler,
        request: _Request,
        registry=None,
        decide=None,
    ):
        """Compile ``request`` into one statement per
        ``_MAX_UNION_BRANCHES`` targets, yielding ``(DDL executed,
        statement, scope)`` per chunk before compiling the next."""
        targets = request.targets
        for start in range(0, len(targets), _MAX_UNION_BRANCHES):
            chunk = list(targets[start : start + _MAX_UNION_BRANCHES])
            scope = StatementScope(
                subplan_reference_counts(chunk, include_joins=True),
                request.parameters,
            )
            created: list[str] = []
            compiled: list[str] = []
            for plan in chunk:
                ddl, ref = compiler.compile_selective(
                    plan, registry, decide, scope
                )
                created.extend(ddl)
                compiled.append(ref)
            if len(chunk) == 1:
                statement = compiler.select_statement(
                    compiled[0], request.query, scope=scope
                )
            else:
                # min-combine the per-answer scores inside the engine
                # with UNION ALL + MIN instead of one fetch-and-merge
                # round trip per plan
                statement = compiler.min_union_sql(
                    compiled, request.query, scope=scope
                )
            if self.observer.enabled and scope.cte_count:
                self.observer.inc("sql.ctes_shared", scope.cte_count)
            yield created, statement, scope

    def _run_selective(
        self,
        snapshot: Snapshot,
        compiler: SQLCompiler,
        batch: Sequence[_Request],
    ) -> list[tuple[dict[tuple, float], str]]:
        """Compile and run a batch of requests selectively.

        Opt. 2 + Algorithm 3 across statements and queries: subplans
        worth sharing are materialized once as temp views on the
        connection (keyed by structural plan hash, like the memory
        cache); one-shot subplans stay inline, so the cold path never
        pays the write cost of a view nothing else will read. The
        policy prices the whole batch at once:
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

        A request with a statement key leaves its statements behind as
        the key's template when no later request of the key would come
        out differently: no DDL ran (the registry generation is the
        key's), and no constant-free subplan was seen for the first time
        (from its second request on it counts one more reference and may
        earn a view). A selective subplan never earns one.
        """
        backend, registry = snapshot.backend, snapshot.registry
        all_targets = [t for request in batch for t in request.targets]
        references = subplan_reference_counts(all_targets)
        # Request history is keyed by hash, not by structural equality:
        # repeated deep-plan comparisons would dominate the warm path,
        # and a collision merely promotes a subplan early — the *view*
        # registry stays structurally keyed, so correctness never
        # depends on this map. Only constant-free subplans are noted.
        prior = {
            node: registry.request_count(hash(node))
            for node in references
            if not node.selective()
        }
        for node in prior:
            registry.note_request(hash(node))
        # the compiler's: one memo prices a subplan and orders its joins
        estimator = compiler.estimator
        policy = self._policy(estimator, self.observer)
        out: list[tuple[dict[tuple, float], str]] = []
        # The outer pin scope keeps every view alive until the combining
        # SELECTs have run (pin_scope is re-entrant); the LRU cap is
        # enforced when it exits.
        with registry.pin_scope():
            for request in batch:
                first_seen: list[Plan] = []

                def decide(node: Plan) -> bool:
                    before = prior.get(node, 0)
                    if not (before or node.selective()):
                        first_seen.append(node)
                    return policy.should_materialize(
                        node, references.get(node, 1), before
                    )

                executed: list[str] = []
                statements: list[Statement] = []
                views: list = []
                scores: dict[tuple, float] = {}
                for created, statement, scope in self._statements(
                    compiler, request, registry, decide
                ):
                    executed.extend(created)
                    statements.append(statement)
                    views.extend(scope.views)
                    executed.append(
                        _execute(
                            backend,
                            statement,
                            request,
                            scores,
                            "none" if request.key is None else "miss",
                        )
                    )
                if (
                    request.key is not None
                    and request.key.generation == registry.generation
                    and not first_seen
                ):
                    snapshot.statements.put(
                        request.key,
                        _StatementTemplate(tuple(statements), tuple(views)),
                    )
                out.append((scores, ";\n\n".join(executed)))
        return out


def _execute(
    backend: SQLiteBackend,
    statement: Statement,
    request: _Request,
    scores: dict[tuple, float],
    template: str,
) -> str:
    """Run one finished statement with the request's constants bound and
    min-merge its rows into ``scores``; returns the statement as it
    reads with the constants written out."""
    literal = statement.literal(request.parameters.constants)
    rows = backend.execute(
        statement.text,
        request.parameters.values,
        literal=literal,
        template=template,
    )
    _merge_min(scores, _collect(rows, request.query))
    return literal


def _counters(snapshot: Snapshot) -> dict[str, dict]:
    """A snapshot's view-registry and statement-template counters."""
    return {
        "views": snapshot.registry.cache_stats(),
        "statements": snapshot.statements.stats(),
    }


def _merge_min(
    into: dict[tuple, float], update: Mapping[tuple, float]
) -> None:
    for answer, score in update.items():
        previous = into.get(answer)
        if previous is None or score < previous:
            into[answer] = score


def _collect(rows: list[tuple], query: ConjunctiveQuery) -> dict[tuple, float]:
    width = len(query.head_order)
    out: dict[tuple, float] = {}
    for row in rows:
        probability = row[width]
        if probability is None:
            continue  # empty Boolean aggregate
        out[tuple(row[:width])] = probability
    return out
