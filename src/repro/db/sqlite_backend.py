"""SQLite materialization of probabilistic databases.

The paper pushes all probability computation into a standard relational
engine (PostgreSQL / SQL Server); here the engine is SQLite via the stdlib
``sqlite3`` module. Every relation becomes a table whose data columns carry
the schema's column names plus a probability column ``_p``. The
independent-project combine ``1 − ∏(1 − p)`` is registered as the custom
aggregate ``ior`` so generated plans are plain ``GROUP BY`` queries.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ..obs import NULL_OBSERVER, StatsLRU
from .database import ProbabilisticDatabase

__all__ = [
    "SQLiteBackend",
    "SQLiteViewRegistry",
    "IorAggregate",
    "index_statements",
    "sql_literal",
    "PROB_COLUMN",
]

#: Name of the probability column in materialized tables.
PROB_COLUMN = "_p"

#: Cap of the SQLite executor's per-connection statement-template store
#: (:mod:`repro.engine.executors`; the plan memo's default size). The
#: connection keeps twice as many statements prepared — a template runs
#: one statement, or the two chunks of a large all-plans union — so a
#: template hit is also a prepared-statement hit.
MAX_STATEMENT_TEMPLATES = 256


class IorAggregate:
    """SQLite aggregate: independent-or of probabilities, ``1 − ∏(1 − p)``."""

    def __init__(self) -> None:
        self._complement = 1.0

    def step(self, value: float | None) -> None:
        if value is None:
            return
        self._complement *= 1.0 - value

    def finalize(self) -> float:
        return 1.0 - self._complement


def sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal (strings get quote-doubling)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def index_statements(table: str, columns: Iterable[str]) -> list[str]:
    """One single-column index per data column of ``table``: the index
    rule for base tables, subplan views and semi-join-reduced copies
    alike (without it SQLite joins temp tables by nested full scans)."""
    return [
        f"CREATE INDEX {_quote_ident(f'ix_{table}_{column}')} "
        f"ON {_quote_ident(table)} ({_quote_ident(column)})"
        for column in columns
        if column != PROB_COLUMN
    ]


def _key_relations(key: Hashable) -> frozenset[str] | None:
    """The relation footprint of a registry key (a plan node), or
    ``None`` if unknown."""
    relations = getattr(key, "relations", None)
    return frozenset(relations()) if callable(relations) else None


class SQLiteViewRegistry:
    """Materialized subplan views on one connection (Optimization 2).

    SQLite has no materialized views, so "materializing a temp view"
    means ``CREATE TEMP TABLE dissoc_<structural-hash> AS <subplan
    select>``: each registered subplan is computed exactly once per
    connection and every later statement — other plans of the same "all
    plans" call, or later queries — reads the stored result. Entries are
    keyed by the plan nodes' structural hash/equality, the same key the
    memory :class:`~repro.engine.extensional.EvaluationCache` uses, so
    the two backends share one notion of "same subplan".

    ``max_views`` bounds the registry LRU-style: once exceeded, the
    least-recently-used views are dropped (materialized tables snapshot
    their data, so dropping a child never corrupts an already-built
    parent). ``None`` means unbounded; ``0`` keeps nothing beyond the
    current compilation. Views referenced while a :meth:`pin_scope` is
    open are pinned — never evicted mid-compilation, because the pending
    ``CREATE TEMP TABLE`` statements still reference them by name — and
    the cap is (re-)enforced when the outermost scope exits.

    The registry also tracks *requests* — how often each constant-free
    key was part of a compilation batch, whether or not it was
    materialized. The Algorithm-3 policy reads this signal to promote a
    subplan that was inline in an earlier batch but is being requested
    again: cross-call reuse the batch-local reference count cannot see.
    Request history is LRU-bounded independently of the views.

    :meth:`cache_stats` exposes hit/miss/eviction counters in the same
    shape as ``EvaluationCache.cache_stats()``.

    The registry is **thread-safe**: every public method holds an
    internal re-entrant lock (``pin_scope`` holds it only around the
    depth bookkeeping, not across the scope's body), so a registry on a
    ``check_same_thread=False`` connection can serve concurrent callers
    without corrupting the LRU or the counters. View names only have
    to be unique on the one connection: ``dissoc_<digest>``, with a
    local suffix on a hash collision.
    """

    #: Bound on the request-history map (not on the views themselves).
    #: The history is a promotion hint — a forgotten entry costs one
    #: more inline evaluation. Only compiles note entries, one per
    #: constant-free subplan of the batch, so a shape's entries stay
    #: put under a stream of its constants; a statement-template hit
    #: notes none.
    MAX_REQUEST_ENTRIES = 4096

    def __init__(
        self,
        connection: sqlite3.Connection,
        max_views: int | None = None,
        observer=None,
    ) -> None:
        if max_views is not None and max_views < 0:
            raise ValueError("max_views must be None or >= 0")
        self._connection = connection
        self._lock = threading.RLock()
        self._observer = observer if observer is not None else NULL_OBSERVER
        # storage + counters in the shared StatsLRU core: dropping an
        # entry (cap eviction, invalidation, clear) tears the temp table
        # down through the on_evict callback; pinned views are shielded
        # from cap enforcement by the evictable predicate.
        self._views = StatsLRU(
            max_views,
            lock=self._lock,
            on_evict=self._drop_view,
            evictable=lambda _plan, name: name not in self._pinned,
        )
        self._names: set[str] = set()
        #: view name -> relation names its subplan scans (``None`` when
        #: the key's footprint could not be determined — such views are
        #: invalidated on *every* relation change, conservatively).
        self._relations: dict[str, frozenset[str] | None] = {}
        self._pinned: set[str] = set()
        self._pin_depth = 0
        self._requests: OrderedDict[Hashable, int] = OrderedDict()
        #: Moves whenever a view is registered or dropped: statement
        #: text that names views is good for one generation.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, plan: Hashable) -> bool:
        """Whether ``plan`` has a live view (no hit counted, no pin)."""
        return plan in self._views

    # ------------------------------------------------------------------
    # request history (the Algorithm-3 cross-call reuse signal)
    # ------------------------------------------------------------------
    def note_request(self, plan: Hashable) -> None:
        """Record that a compilation batch asked for ``plan``."""
        with self._lock:
            self._requests[plan] = self._requests.get(plan, 0) + 1
            self._requests.move_to_end(plan)
            while len(self._requests) > self.MAX_REQUEST_ENTRIES:
                self._requests.popitem(last=False)

    def request_count(self, plan: Hashable) -> int:
        """How many batches have asked for ``plan`` so far."""
        with self._lock:
            return self._requests.get(plan, 0)

    @property
    def max_views(self) -> int | None:
        return self._views.max_entries

    @contextmanager
    def pin_scope(self) -> Iterator["SQLiteViewRegistry"]:
        """Protect views referenced inside the scope from eviction."""
        with self._lock:
            self._pin_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._pin_depth -= 1
                if self._pin_depth == 0:
                    self._pinned.clear()
                    self._views.enforce_cap()

    def lookup(self, plan: Hashable) -> str | None:
        """The view name of ``plan`` if registered (counts a hit), else
        ``None`` (the miss is counted by the :meth:`register` that must
        follow)."""
        with self._lock:
            name = self._views.get(plan, count_miss=False)
            if name is None:
                return None
            self._pin(name)
            return name

    def register(self, plan: Hashable, sql: str) -> tuple[str, str]:
        """Materialize ``sql`` as the view of ``plan``.

        ``sql`` binds nothing: a view is constant-free (Algorithm 3
        materializes no subplan beneath a selection constant).

        Every data column of the view gets a single-column index:
        materialized views join with base tables and with each other,
        and without an index SQLite falls back to nested full scans of
        the temp tables (it has no statistics for them). Dropping the
        view drops its indexes with it.

        Returns ``(view name, executed DDL)``.
        """
        with self._lock:
            self._views.add_miss()
            name = self._name_for(sql)
            ddl = f"CREATE TEMP TABLE {name} AS\n{sql}"
            with self._observer.span("sqlite.materialize_view", view=name):
                self._connection.execute(ddl)
                columns = self._connection.execute(
                    f"SELECT name FROM pragma_table_info('{name}')"
                ).fetchall()
                for statement in index_statements(
                    name, [column for (column,) in columns]
                ):
                    self._connection.execute(statement)
            if self._observer.enabled:
                self._observer.inc("sqlite.views_materialized")
            self._names.add(name)
            self._relations[name] = _key_relations(plan)
            self._pin(name)
            self.generation += 1
            self._views.put(plan, name)
            return name, ddl

    def cache_stats(self) -> dict:
        stats = self._views.stats()
        return {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "evictions": stats["evictions"],
            "invalidations": stats["invalidations"],
            "size": stats["size"],
            "max_size": stats["max_entries"],
        }

    def invalidate_relations(self, relations: Iterable[str]) -> int:
        """Drop only the views whose subplans scan a changed relation.

        The epoch-vector counterpart of :meth:`clear`: after an
        incremental snapshot refresh, views over untouched relations
        snapshot data that is still exact, so they stay. Views whose
        relation footprint is unknown are dropped conservatively.
        Returns the number of views dropped (counted separately from
        LRU evictions, as ``invalidations`` in :meth:`cache_stats`).
        """
        changed = frozenset(relations)

        def stale(_plan: Hashable, name: str) -> bool:
            deps = self._relations.get(name)
            return deps is None or bool(deps & changed)

        return self._views.remove_where(stale, count="invalidation")

    def clear(self) -> None:
        """Drop every registered view (the drops count as evictions)."""
        self._views.clear(count="eviction")

    # ------------------------------------------------------------------
    # internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _pin(self, name: str) -> None:
        if self._pin_depth:
            self._pinned.add(name)

    def _name_for(self, sql: str) -> str:
        """``dissoc_<digest>`` of the view's body.

        A stable digest, not ``hash()``, so the same request names the
        same view under any ``PYTHONHASHSEED``.
        """
        digest = hashlib.blake2b(sql.encode(), digest_size=8).hexdigest()
        name = f"dissoc_{digest}"
        suffix = 0
        while name in self._names:  # a live view already has this body
            suffix += 1
            name = f"dissoc_{digest}_{suffix}"
        return name

    def _drop_view(self, plan: Hashable, name: str) -> None:
        """StatsLRU eviction callback: tear the temp table down."""
        self.generation += 1
        self._names.discard(name)
        self._relations.pop(name, None)
        self._connection.execute(f"DROP TABLE IF EXISTS {name}")


class SQLiteBackend:
    """Materializes a :class:`ProbabilisticDatabase` into SQLite.

    Parameters
    ----------
    db:
        The source database.
    path:
        SQLite database path; defaults to a private in-memory database.
    view_cache_size:
        LRU cap of the materialized-subplan view registry
        (:class:`SQLiteViewRegistry`); ``None`` means unbounded.

    The materialization is a snapshot: ``source_version`` records the
    source database's version token at build time, so callers (the
    engine) can detect that the source moved on and rebuild.
    """

    def __init__(
        self,
        db: ProbabilisticDatabase,
        path: str = ":memory:",
        view_cache_size: int | None = None,
        fault_injector=None,
    ) -> None:
        self.source = db
        self.source_version = db.version
        #: Optional :class:`~repro.service.faults.FaultInjector`; when
        #: set, :meth:`execute` fires the ``"statement"`` hook with the
        #: SQL text — the place to script transient lock contention.
        self.fault_injector = fault_injector
        #: Instrumentation sink (``repro.obs``): :meth:`execute` records
        #: one ``sqlite.statement`` span per statement when enabled; the
        #: engine installs its observer here after construction.
        self.observer = NULL_OBSERVER
        # one connection serves every thread of an engine; the SQLite
        # executor's lock serializes its use
        self.connection = sqlite3.connect(
            path,
            cached_statements=2 * MAX_STATEMENT_TEMPLATES,
            check_same_thread=False,
        )
        # Temp objects (semi-join reductions, materialized subplan views)
        # otherwise spill to a file-backed temp database even for
        # in-memory connections.
        self.connection.execute("PRAGMA temp_store = MEMORY")
        self.connection.create_aggregate("ior", 1, IorAggregate)
        self._view_registry: SQLiteViewRegistry | None = None
        self._view_cache_size = view_cache_size
        self._has_math_functions: bool | None = None
        self._table_epochs: dict[str, tuple] = {}
        self._table_schemas: dict[str, tuple] = {}
        self._materialize()

    @property
    def has_math_functions(self) -> bool:
        """Whether this SQLite build ships ``LN``/``EXP``.

        Gates the compiler's C-native independent-or form; builds
        without ``SQLITE_ENABLE_MATH_FUNCTIONS`` fall back to the
        registered Python ``ior`` aggregate.
        """
        if self._has_math_functions is None:
            try:
                self.connection.execute("SELECT LN(1.0), EXP(0.0)")
                self._has_math_functions = True
            except sqlite3.OperationalError:
                self._has_math_functions = False
        return self._has_math_functions

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        cur = self.connection.cursor()
        for table in self.source:
            self._create_table(cur, table)
        self.connection.commit()

    @staticmethod
    def _schema_signature(table) -> tuple:
        return (table.arity, tuple(table.schema.columns))

    def _create_table(self, cur: sqlite3.Cursor, table) -> None:
        cols = list(table.schema.columns)
        if PROB_COLUMN in cols:
            raise ValueError(
                f"column name {PROB_COLUMN!r} is reserved "
                f"(table {table.name})"
            )
        decls = ", ".join(
            [f"{_quote_ident(c)}" for c in cols] + [f"{PROB_COLUMN} REAL"]
        )
        cur.execute(f"CREATE TABLE {_quote_ident(table.name)} ({decls})")
        self._insert_rows(cur, table)
        for statement in index_statements(table.name, cols):
            cur.execute(statement)
        self._table_epochs[table.name] = table.epoch
        self._table_schemas[table.name] = self._schema_signature(table)

    def _insert_rows(self, cur: sqlite3.Cursor, table) -> None:
        placeholders = ", ".join("?" for _ in range(table.arity + 1))
        cur.executemany(
            f"INSERT INTO {_quote_ident(table.name)} VALUES ({placeholders})",
            (row + (p,) for row, p in table),
        )

    def table_epoch(self, name: str) -> tuple | None:
        """The source-table epoch this snapshot's copy of ``name`` holds.

        The per-table staleness token for anything derived from the
        snapshot's copy of one relation (e.g. the SQL statistics
        catalog); ``None`` when the snapshot holds no such table.
        """
        return self._table_epochs.get(name)

    def refresh(self) -> frozenset[str]:
        """Bring the snapshot up to date, rebuilding only changed tables.

        Diffs the source's per-table epochs against the epochs captured
        at materialization: dropped tables are dropped, new tables are
        created, and mutated tables are reloaded in place (``DELETE`` +
        re-insert when the schema is unchanged, so their indexes
        survive; drop + recreate otherwise). Registered subplan views
        whose relation footprint intersects the changed tables are
        invalidated; all others stay warm.

        Returns the set of relations whose snapshot copies were
        rebuilt (empty when the source has not moved).
        """
        version = self.source.version
        if version == self.source_version:
            return frozenset()
        old = dict(self._table_epochs)
        current = self.source.table_epochs()
        # an epoch is a tuple, so ``None`` can only mean "table absent"
        changed = {
            name
            for name in set(old) | set(current)
            if old.get(name) != current.get(name)
        }
        cur = self.connection.cursor()
        for name in changed:
            exists = name in old
            live = name in current
            if exists and live:
                table = self.source.table(name)
                if self._table_schemas.get(name) == self._schema_signature(
                    table
                ):
                    cur.execute(f"DELETE FROM {_quote_ident(name)}")
                    self._insert_rows(cur, table)
                    self._table_epochs[name] = table.epoch
                else:
                    cur.execute(f"DROP TABLE IF EXISTS {_quote_ident(name)}")
                    self._create_table(cur, table)
            elif exists:
                cur.execute(f"DROP TABLE IF EXISTS {_quote_ident(name)}")
                self._table_epochs.pop(name, None)
                self._table_schemas.pop(name, None)
            else:
                self._create_table(cur, self.source.table(name))
        self.connection.commit()
        if self._view_registry is not None and changed:
            self._view_registry.invalidate_relations(changed)
        self.source_version = version
        return frozenset(changed)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def view_registry(self) -> SQLiteViewRegistry:
        """The connection's materialized-subplan registry (lazily built).

        Temp views live and die with the connection, so the registry
        never outlives the snapshot it was built over.
        """
        if self._view_registry is None:
            self._view_registry = SQLiteViewRegistry(
                self.connection,
                self._view_cache_size,
                observer=self.observer,
            )
        return self._view_registry

    def execute(
        self,
        sql: str,
        parameters: Mapping | Sequence = (),
        *,
        literal: str | None = None,
        **note,
    ) -> list[tuple]:
        """Run a query and fetch all rows.

        ``literal`` is ``sql`` with its ``parameters`` written out: the
        text the ``"statement"`` fault hook and the ``sqlite.statement``
        span report, so both keep seeing a statement that runs as it
        reads. ``note`` goes onto the span.
        """
        shown = sql if literal is None else literal
        if self.fault_injector is not None:
            self.fault_injector.fire("statement", shown)
        obs = self.observer
        if obs.enabled:
            with obs.span("sqlite.statement", sql=shown[:200], **note) as span:
                rows = self.connection.execute(sql, parameters).fetchall()
                span.note(rows=len(rows))
            obs.inc("sqlite.statements")
            return rows
        cur = self.connection.execute(sql, parameters)
        return cur.fetchall()

    # ------------------------------------------------------------------
    # pure-SQL statistics (no in-RAM encodings)
    # ------------------------------------------------------------------
    def column_summaries(
        self, name: str, mcv_size: int = 8
    ) -> tuple[int, list[dict]]:
        """Row count plus per-column summaries via SQL aggregates.

        Everything the cost model needs — ``COUNT(*)``, per-column
        ``COUNT(DISTINCT)``, and a most-common-value sketch via
        ``GROUP BY ... ORDER BY COUNT(*) DESC LIMIT k`` — computed by
        the engine on the existing connection, so a sqlite-only
        deployment never builds in-RAM encodings of its tables. The
        sketch keeps the same convention as the in-memory catalog:
        values occurring once enter it only when the whole column fits.
        """
        quoted = _quote_ident(name)
        (rows,) = self.execute(f"SELECT COUNT(*) FROM {quoted}")[0]
        summaries: list[dict] = []
        for (column,) in self.execute(
            f"SELECT name FROM pragma_table_info('{name}')"
        ):
            if column == PROB_COLUMN:
                continue
            qc = _quote_ident(column)
            (distinct,) = self.execute(
                f"SELECT COUNT(DISTINCT {qc}) FROM {quoted}"
            )[0]
            mcv = [
                (value, int(count))
                for value, count in self.execute(
                    f"SELECT {qc}, COUNT(*) AS n FROM {quoted} "
                    f"GROUP BY {qc} ORDER BY n DESC, {qc} LIMIT {mcv_size}"
                )
                if count > 1 or distinct <= mcv_size
            ]
            summaries.append(
                {"column": column, "distinct": int(distinct), "mcv": mcv}
            )
        return int(rows), summaries

    # ------------------------------------------------------------------
    # write-throughput calibration
    # ------------------------------------------------------------------
    def measure_write_factor(
        self, sample_rows: int = 4096, repeats: int = 3
    ) -> float:
        """Measured cost ratio of writing vs. reading temp-table rows.

        Generates ``sample_rows`` rows with a recursive CTE, then times
        (a) scanning and aggregating them and (b) materializing them as
        an indexed ``TEMP`` table — the exact operation the Algorithm-3
        policy prices with ``write_factor``. The returned ratio
        (best-of-``repeats``, clamped to ``[0.5, 16]``) feeds
        :class:`~repro.engine.stats.MaterializationPolicy` so the cost
        gate reflects this machine's actual storage speed instead of a
        baked-in constant.
        """
        generate = (
            "WITH RECURSIVE gen(i) AS ("
            "SELECT 1 UNION ALL SELECT i + 1 FROM gen WHERE i < {n}) "
            "SELECT i AS k, (i * 7919) % 104729 AS v, "
            "0.5 AS _p FROM gen".format(n=max(int(sample_rows), 16))
        )
        read_time = float("inf")
        write_time = float("inf")
        cur = self.connection.cursor()
        for _ in range(max(repeats, 1)):
            started = time.perf_counter()
            cur.execute(
                f"SELECT COUNT(*), SUM(v) FROM ({generate})"
            ).fetchall()
            read_time = min(read_time, time.perf_counter() - started)
            started = time.perf_counter()
            cur.execute(f"CREATE TEMP TABLE _calib AS {generate}")
            cur.execute("CREATE INDEX _ix_calib_k ON _calib (k)")
            cur.execute("CREATE INDEX _ix_calib_v ON _calib (v)")
            write_time = min(write_time, time.perf_counter() - started)
            cur.execute("DROP TABLE _calib")
        if read_time <= 0.0:
            return 2.0
        return min(max(write_time / read_time, 0.5), 16.0)

    def run_statements(self, statements: Iterable[str]) -> None:
        cur = self.connection.cursor()
        for stmt in statements:
            cur.execute(stmt)
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
