"""Plan → SQL compilation (Sec. 4: evaluating plans inside the engine).

Every plan node becomes a ``SELECT``:

* scan — project the atom's columns to variable aliases, filter constants
  and repeated variables, pass the probability column through;
* join — equi-join on shared variables with the probability product,
  the parts in the nested-loop order the executor's estimator picks,
  pinned with ``CROSS JOIN`` (SQLite has no statistics for temp views);
* projection — ``GROUP BY`` retained variables with the custom ``ior``
  aggregate (``1 − ∏(1 − p)``);
* ``min`` — ``MIN(p)`` over a ``UNION ALL`` of the branches (Opt. 1).

With ``reuse_views=True`` (Optimization 2 / Algorithm 3), plan nodes that
are referenced more than once in the plan DAG are emitted exactly once as
``WITH`` common table expressions and referenced by name everywhere else.
:meth:`SQLCompiler.compile_selective` extends the same optimization
*across* statements with the Algorithm-3 policy: subplans that a
reference-count + cost analysis deems worth sharing become materialized
temp views (``dissoc_<structural-hash>`` tables managed by a
:class:`~repro.db.sqlite_backend.SQLiteViewRegistry`), shared by all
plans of an "all plans" evaluation and by later queries on the same
connection, while one-shot subplans stay inline and never pay the
temp-table write cost. Without a registry (semi-join requests, whose
scans read per-request reduced copies) it emits one self-contained
statement: shared nodes become CTEs, everything else is inlined.

A selection constant is compiled as the named parameter of its *slot*
(``:k<i>``, ``i`` its index among the query's constants in canonical
order — :class:`Parameters`), so the text of a statement depends on the
query's shape and not on the values it selects; :class:`Statement` is a
finished statement, executable with the parameters bound and spelled
out with literals for everything that reports it.

The compiler also produces the deterministic baselines of Sec. 5:
``deterministic_sql`` (``SELECT DISTINCT`` of the answers) and
``lineage_sql`` (retrieve all join witnesses — the minimum work any
probabilistic method outside the engine must pay for).
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from typing import Mapping, Sequence

from ..core.canonical import canonical_shape
from ..core.plans import Join, MinPlan, Plan, Project, Scan
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.schema import Schema
from ..db.sqlite_backend import PROB_COLUMN, sql_literal
from .stats import greedy_order

__all__ = [
    "Parameters",
    "SQLCompiler",
    "Statement",
    "StatementScope",
    "bindable",
    "deterministic_sql",
    "lineage_sql",
    "subplan_reference_counts",
]


def _q(name: str) -> str:
    """Quote an identifier."""
    return '"' + name.replace('"', '""') + '"'


#: Delimits a slot number in text under compilation. ``sqlite3`` refuses
#: a statement that contains NUL, so no identifier or literal of an
#: executable statement can hold one and splitting on it is exact — no
#: pattern is ever matched against names the schema chose.
_SLOT = "\x00"


def bindable(value: object) -> bool:
    """Whether ``sqlite3`` binds ``value`` as the very value it is.

    Exactly ``str``, ``float`` and an ``int`` that fits SQLite's 64-bit
    INTEGER. Everything else — ``bool`` (spelled ``1``/``0``), ``None``
    (``= NULL`` selects nothing), a wider ``int`` (``OverflowError`` on
    bind; the literal compares as a REAL), any other type — keeps the
    spelling :func:`~repro.db.sqlite_backend.sql_literal` gives it.
    """
    kind = type(value)
    return (
        kind is str
        or kind is float
        or (kind is int and -(1 << 63) <= value < (1 << 63))
    )


class Parameters:
    """One query's selection constants, by slot.

    Slot ``i`` is the ``i``-th constant of the canonical scan
    (:func:`~repro.core.canonical.canonical_shape`): every spelling of a
    query — and every query of its shape — numbers its constants alike.
    A relation name identifies its atom, so ``(relation, column
    position)`` identifies the slot and no placeholder term is needed.
    ``Parameters()`` knows no slot: every constant is then a literal.
    """

    __slots__ = ("constants", "slots", "values")

    def __init__(self, query: ConjunctiveQuery | None = None) -> None:
        atoms, constants = (), ()
        if query is not None:
            (atoms, _), constants, _ = canonical_shape(query)
        #: the constant values in slot order
        self.constants: tuple = constants
        #: ``(relation, column position) -> slot``, in slot order
        self.slots: dict[tuple[str, int], int] = {
            (relation, position): term[1]
            for relation, terms, _ in atoms
            for position, term in enumerate(terms)
            if term[0] == "c"
        }
        #: what ``sqlite3`` binds: a mapping may name more than a
        #: statement uses, positional values may not
        self.values: dict[str, object] = {
            f"k{slot}": value for slot, value in enumerate(constants)
        }

    def render(self, relation: str, position: int, value: object) -> str:
        """The one place a selection constant is rendered: its slot's
        parameter when it has one and the value binds, else a literal."""
        slot = self.slots.get((relation, position))
        if slot is None or not bindable(value):
            return sql_literal(value)
        return f"{_SLOT}{slot}{_SLOT}"


class Statement:
    """A finished statement: executable text plus its literal spelling.

    Built once from compiler output, which marks every bound constant
    with its slot number; :attr:`text` names the slots ``:k<i>`` for
    ``sqlite3``, :meth:`literal` joins the same segments around the
    values — what ``EvaluationResult.sql``, the ``"statement"`` fault
    hook and the ``sqlite.statement`` span show, and what runs as it
    reads on a bare connection.
    """

    __slots__ = ("text", "_segments", "_slots")

    def __init__(self, marked: str) -> None:
        parts = marked.split(_SLOT)
        self._segments = parts[0::2]
        self._slots = [int(slot) for slot in parts[1::2]]
        self.text = self._spell([f":k{slot}" for slot in self._slots])

    def _spell(self, fills: Sequence[str]) -> str:
        out = [self._segments[0]]
        for fill, segment in zip(fills, self._segments[1:]):
            out += (fill, segment)
        return "".join(out)

    def literal(self, constants: Sequence) -> str:
        """The text with ``constants[slot]`` written into every slot."""
        return self._spell([sql_literal(constants[s]) for s in self._slots])


class StatementScope:
    """What the plans compiled into one SQL statement share: its common
    table expressions, its parameters, the views it reads.

    The Algorithm-3 cost gate keeps cheap subplans *inline* — but a
    subplan referenced from several branches of the same statement (the
    plan tops of an all-plans ``UNION ALL`` + ``MIN`` combiner, or the
    shared nodes of one merged Algorithm-2 DAG) would then be pasted —
    and recomputed — once per branch. A scope factors those shared
    inline nodes into named CTEs of the statement instead: SQLite
    materializes a CTE referenced more than once exactly once for the
    statement's lifetime, so the subplan is computed once *without*
    paying the durable temp-table write (plus indexing) cost that the
    cost gate rejected. This is the "share across plan tops" lever: the
    common join prefixes of the union's branches collapse into one
    computation per statement.

    One scope spans one statement; passing the same scope to several
    :meth:`SQLCompiler.compile_selective` calls makes their plans share
    CTEs (all their references must then be combined into a single
    statement, e.g. by :meth:`SQLCompiler.min_union_sql`).

    ``references`` maps plan nodes to their statement-wide reference-site
    counts (:func:`subplan_reference_counts` over every plan of the
    statement); nodes with at least two sites earn a CTE, single-use
    nodes stay pasted inline as before. ``parameters`` are the
    statement's query's (none: constants compile to literals).
    """

    __slots__ = (
        "references",
        "parameters",
        "names",
        "defs",
        "cte_nodes",
        "views",
    )

    def __init__(
        self,
        references: Mapping[Plan, int] | None = None,
        parameters: Parameters | None = None,
    ) -> None:
        self.references: Mapping[Plan, int] = references or {}
        self.parameters = parameters or Parameters()
        #: node -> CTE name, shared by all plans of the statement
        self.names: dict[Plan, str] = {}
        #: CTE definitions in dependency (bottom-up emission) order
        self.defs: list[tuple[str, str]] = []
        #: the nodes that were factored into CTEs (observability/tests)
        self.cte_nodes: list[Plan] = []
        #: registry key of every view lookup that hit, in lookup order —
        #: the registry touches a rerun of the statement has to repeat
        self.views: list = []

    @property
    def cte_count(self) -> int:
        """How many shared subplans this statement factored into CTEs."""
        return len(self.defs)

    def wants_cte(self, node: Plan) -> bool:
        return self.references.get(node, 1) >= 2

    def add_cte(self, node: Plan, sql: str) -> str:
        name = f"shared_{len(self.defs)}"
        self.defs.append((name, sql))
        self.cte_nodes.append(node)
        self.names[node] = name
        return name

    def with_clause(self) -> str:
        """``WITH name AS (...), ...\n`` — empty when nothing was shared."""
        if not self.defs:
            return ""
        ctes = ",\n".join(f"{name} AS (\n{sql}\n)" for name, sql in self.defs)
        return f"WITH {ctes}\n"

    def defs_for(self, sql: str) -> list[tuple[str, str]]:
        """The CTE definitions ``sql`` (transitively) references.

        A node the cost gate *does* materialize may have children that
        were already factored into scope CTEs; its ``CREATE TEMP TABLE``
        runs as its own statement, where the final statement's ``WITH``
        clause is not visible — so the registration must inline the
        referenced definitions itself. Names are ``shared_<n>`` tokens,
        matched on word boundaries; definitions can reference earlier
        definitions, hence the fixpoint.
        """
        needed: set[str] = set()

        def scan(text: str) -> bool:
            grew = False
            for name, _ in self.defs:
                if name not in needed and re.search(
                    rf"\b{name}\b", text
                ):
                    needed.add(name)
                    grew = True
            return grew

        scan(sql)
        grew = True
        while grew:
            grew = False
            for name, definition in self.defs:
                if name in needed and scan(definition):
                    grew = True
        return [(n, d) for n, d in self.defs if n in needed]

    def inline_into(self, sql: str) -> str:
        """Prefix ``sql`` with the CTE definitions it references."""
        needed = self.defs_for(sql)
        if not needed:
            return sql
        ctes = ",\n".join(f"{name} AS (\n{d}\n)" for name, d in needed)
        return f"WITH {ctes}\n{sql}"


class SQLCompiler:
    """Compiles plans over a given schema into SQLite SQL.

    Parameters
    ----------
    schema:
        Table schemas (column names per relation).
    table_names:
        Optional physical-name override per relation — how Optimization 3
        redirects scans to the semi-join-reduced temporary tables. A
        compiler with overrides must not feed a view registry (its views
        would be keyed by plan but read the request's reduced copies):
        call :meth:`compile_selective` without one.
    reuse_views:
        Emit shared plan nodes as ``WITH`` views (Optimization 2).
    native_ior:
        Compile the independent-or combine as the C-native
        ``1 − EXP(SUM(LN(1 − p)))`` form (with an exact guard for
        ``p = 1``) instead of the registered Python ``ior`` aggregate.
        The native form avoids one Python callback per grouped row —
        the dominant per-row cost of grouped subplans — at a worst-case
        relative rounding cost of a few ULPs per group member. Disable
        to reproduce the historical (pre-PR-3) compilation byte for
        byte, e.g. for the benchmark baseline arms.
    estimator:
        The executor's ``Plan -> PlanEstimate`` closure
        (:meth:`~repro.engine.executors.SQLiteExecutor.plan_estimator`).
        With it every join is emitted in nested-loop order and pinned
        with ``CROSS JOIN`` (see :meth:`_join_sql`); without it — or for
        a join over a relation that has no statistics — joins are plain
        comma joins and SQLite's planner orders the loops.

    One emitter serves both ways out. :meth:`compile` returns text with
    its constants as literals, ready for a bare ``execute``;
    :meth:`compile_selective` followed by :meth:`select_statement` /
    :meth:`min_union_sql` returns a :class:`Statement` whose constants
    are the named parameters of their :class:`Parameters` slots. There
    is no mode to set: a constant is a parameter exactly when the
    statement's scope knows its slot and ``sqlite3`` can bind its value.
    """

    def __init__(
        self,
        schema: Schema,
        table_names: Mapping[str, str] | None = None,
        reuse_views: bool = True,
        native_ior: bool = True,
        *,
        estimator=None,
    ) -> None:
        self._schema = schema
        self._table_names = dict(table_names or {})
        self._reuse_views = reuse_views
        self._native_ior = native_ior
        self.estimator = estimator

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, plan: Plan, query: ConjunctiveQuery) -> str:
        """A complete ``SELECT`` returning head columns plus ``_p``.

        Column order follows ``query.head_order``; the probability column
        is last. Every operator node is emitted as a ``WITH`` common table
        expression — one per *node* with ``reuse_views`` (Optimization 2:
        shared subplans computed once), or one per *occurrence* without it
        (repeated subplans recomputed, as when evaluating plans naively).
        CTE form also keeps expression nesting flat, which deep single
        plans need (fully inlined SQL overflows SQLite's parser stack).

        The text carries its constants as literals: it runs as it reads
        on a bare connection.
        """
        views: list[tuple[str, str]] = []
        emitted: dict[int, str] = {}
        literals = Parameters()

        def reference(node: Plan) -> str:
            if isinstance(node, Scan):
                return "(\n" + self._scan_sql(node, literals) + "\n)"
            if self._reuse_views:
                cached = emitted.get(id(node))
                if cached is not None:
                    return cached
            sql = self._node_sql(node, reference)
            name = f"v{len(views)}"
            views.append((name, sql))
            if self._reuse_views:
                emitted[id(node)] = name
            return name

        top = reference(plan)
        body = self._final_select(top, query)
        if views:
            with_clause = ",\n".join(
                f"{name} AS (\n{sql}\n)" for name, sql in views
            )
            return f"WITH {with_clause}\n{body}"
        return body

    def compile_selective(
        self,
        plan: Plan,
        registry=None,
        decide=None,
        scope: "StatementScope | None" = None,
    ) -> tuple[list[str], str]:
        """Compile ``plan`` with Algorithm-3 selective materialization.

        Walks the plan bottom-up. Projection and ``min`` nodes already
        in ``registry`` are referenced by view name; missing ones are
        passed to ``decide`` — a ``Plan -> bool`` callback embodying the
        (cost × reuse)-based policy: ``True`` registers the node as a
        ``CREATE TEMP TABLE dissoc_<hash>`` view shared across
        statements and queries, ``False`` keeps it as an inline
        subquery of its parent, computed once by the enclosing statement
        and never written out. ``decide`` approves constant-free nodes
        only (:meth:`Plan.selective` is false): a view belongs to every
        binding of the query's parameters and binds none. Scans and
        joins always stay inline (the base tables are the scans'
        materialization; a join feeds exactly one grouped node, so
        storing it pays its full write cost for no reuse).

        Without a ``registry`` nothing is looked up, decided or
        registered: the statement is self-contained, which is what a
        semi-join request needs — its scans read per-request reduced
        copies (``table_names``), so no view over them may outlive it.

        ``scope``, when given, factors inline nodes with two or more
        statement-wide reference sites into shared CTEs of the enclosing
        statement (see :class:`StatementScope`); it also carries the
        node → reference memo across the several plans of one statement,
        so a plan top emitted for one union branch is referenced — not
        recompiled — by every later branch. With the scope's
        ``parameters`` every constant that has a slot there compiles to
        that slot's parameter.

        Returns ``(executed DDL statements, reference)``: the DDL as it
        ran, and a view name, CTE name, or inline subquery for the
        plan's top, to be finished by
        :meth:`select_statement` / :meth:`min_union_sql`. Runs inside
        ``registry.pin_scope()`` so LRU eviction can never drop a view a
        pending statement references.
        """
        if not self._reuse_views:
            raise ValueError("compile_selective() requires reuse_views=True")
        if scope is None:
            scope = StatementScope()  # nothing is shared, nothing bound
        parameters = scope.parameters
        created: list[str] = []
        # per-plan memo; the scope's CTE name map spans plans, while
        # registry views are re-looked-up per plan so the hit counters
        # keep reporting cross-plan reuse
        emitted: dict[Plan, str] = {}

        def reference(node: Plan) -> str:
            cached = emitted.get(node)
            if cached is not None:
                return cached
            if isinstance(node, Scan):
                return "(\n" + self._scan_sql(node, parameters) + "\n)"
            shared = scope.names.get(node)
            if shared is not None:
                emitted[node] = shared
                return shared
            # a join is never a view, only a CTE when structurally
            # distinct parents share it: computed once per statement
            viewable = registry is not None and not isinstance(node, Join)
            name = registry.lookup(node) if viewable else None
            if name is not None:
                scope.views.append(node)
            else:
                sql = self._node_sql(node, reference)
                if viewable and decide(node):
                    # the DDL runs as its own statement: scope CTEs the
                    # subtree references must be inlined into it (they
                    # only exist in the final statement's WITH clause)
                    name, ddl = registry.register(
                        node, scope.inline_into(sql)
                    )
                    created.append(ddl)
                elif scope.wants_cte(node):
                    name = scope.add_cte(node, sql)
                else:
                    # inline: the parent (or final SELECT) computes it
                    name = "(\n" + sql + "\n)"
            emitted[node] = name
            return name

        with registry.pin_scope() if registry is not None else nullcontext():
            top = reference(plan)
        return created, top

    def select_statement(
        self,
        reference: str,
        query: ConjunctiveQuery,
        scope: "StatementScope | None" = None,
    ) -> Statement:
        """The final ``SELECT`` over a compiled reference (view or inline)."""
        prefix = scope.with_clause() if scope is not None else ""
        return Statement(prefix + self._final_select(reference, query))

    def min_union_sql(
        self,
        references: Sequence[str],
        query: ConjunctiveQuery,
        scope: "StatementScope | None" = None,
    ) -> Statement:
        """Min-combine per-plan results inside the engine (all-plans mode).

        ``references`` are view names / inline subqueries that all
        compute the same answer set (every minimal plan returns exactly
        the query's answers); the result takes the per-answer minimum
        score, i.e. the tightest upper bound, in one statement instead
        of one fetch-and-merge round-trip per plan.

        ``scope`` must be the :class:`StatementScope` the branches were
        compiled under (if any): its shared CTEs — the factored common
        join prefixes and plan tops of the branches — are prepended as
        the statement's ``WITH`` clause.
        """
        columns = [_q(v.name) for v in query.head_order]
        cols = ", ".join(columns + [PROB_COLUMN])
        branches = "\nUNION ALL\n".join(
            f"SELECT {cols} FROM {ref} b" for ref in references
        )
        outer = ", ".join(
            columns + [f"MIN({PROB_COLUMN}) AS {PROB_COLUMN}"]
        )
        group = f"\nGROUP BY {', '.join(columns)}" if columns else ""
        prefix = scope.with_clause() if scope is not None else ""
        return Statement(
            f"{prefix}SELECT {outer} FROM (\n{branches}\n) u{group}"
        )

    # ------------------------------------------------------------------
    # node compilation
    # ------------------------------------------------------------------
    def _node_sql(self, node: Plan, reference) -> str:
        if isinstance(node, Project):
            return self._project_sql(node, reference)
        if isinstance(node, Join):
            return self._join_sql(node, reference)
        if isinstance(node, MinPlan):
            return self._min_sql(node, reference)
        raise TypeError(f"unknown plan node {node!r}")  # pragma: no cover

    def _scan_sql(self, node: Scan, parameters: Parameters) -> str:
        atom = node.atom
        table_schema = self._schema[atom.relation]
        if table_schema.arity != atom.arity:
            raise ValueError(
                f"atom {atom} has arity {atom.arity} but table "
                f"{atom.relation} has arity {table_schema.arity}"
            )
        physical = self._table_names.get(atom.relation, atom.relation)
        selects: list[str] = []
        conditions: list[str] = []
        seen: dict[Variable, str] = {}
        for position, (column, term) in enumerate(
            zip(table_schema.columns, atom.terms)
        ):
            if isinstance(term, Constant):
                constant = parameters.render(
                    atom.relation, position, term.value
                )
                conditions.append(f"{_q(column)} = {constant}")
            elif term in seen:
                conditions.append(f"{_q(column)} = {_q(seen[term])}")
            else:
                seen[term] = column
                selects.append(f"{_q(column)} AS {_q(term.name)}")
        selects.append(f"{PROB_COLUMN}")
        where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT {', '.join(selects)} FROM {_q(physical)}{where}"

    def _ior_expression(self) -> str:
        if not self._native_ior:
            return f"ior({PROB_COLUMN})"
        # 1 − ∏(1 − p) as 1 − EXP(SUM(LN(1 − p))): p = 1 maps to an
        # effectively −∞ addend so the product collapses to exactly 0.
        # Like the Python aggregate, the expression is NULL on empty
        # input (SUM over no rows) — the "empty Boolean aggregate"
        # convention the engine's row collection depends on.
        return (
            "1.0 - EXP(SUM(CASE WHEN "
            f"{PROB_COLUMN} >= 1.0 THEN -1e308 "
            f"ELSE LN(1.0 - {PROB_COLUMN}) END))"
        )

    def _project_sql(self, node: Project, reference) -> str:
        child_ref = reference(node.child)
        retained = sorted(v.name for v in node.head)
        columns = [f"{_q(v)}" for v in retained]
        select_list = ", ".join(
            columns + [f"{self._ior_expression()} AS {PROB_COLUMN}"]
        )
        group = f"\nGROUP BY {', '.join(columns)}" if columns else ""
        return f"SELECT {select_list} FROM {child_ref} s{group}"

    def _join_sql(self, node: Join, reference) -> str:
        """The one join emitter (``compile`` and ``compile_selective``).

        SQLite cannot order these loops itself: it has no statistics for
        temp views or subqueries, and to spare a ``GROUP BY`` sorter it
        will walk a 10 000-row view in group-key index order and probe
        the handful of rows a selection produced. The engine has the
        statistics, so the parts are emitted in the order an index
        nested-loop join wants — smallest estimated input outermost,
        then the smallest part sharing a variable with the ones before
        it (:func:`~repro.engine.stats.greedy_order`, the order
        ``estimate_plan`` prices and the memory fold takes for three or
        more parts) — and joined with ``CROSS JOIN``, which SQLite
        documents as never reordered. The largest input first, pinned
        here, is 4× slower than no pin at all.
        """
        # compiled in plan order whatever the loop order: shared CTEs
        # keep their numbering, an unknown relation its ``KeyError``
        parts = [(part, reference(part)) for part in node.parts]
        separator = ",\n     "
        if self.estimator is not None:
            try:
                estimates = [self.estimator(part) for part in node.parts]
            except KeyError:
                pass  # a relation without statistics: SQLite's own order
            else:
                order = greedy_order(
                    [e.rows for e in estimates],
                    [e.profile.variables for e in estimates],
                )
                parts = [parts[i] for i in order]
                separator = "\n     CROSS JOIN "
        aliases = [f"t{i}" for i in range(len(parts))]
        provider: dict[Variable, str] = {}
        froms: list[str] = []
        conditions: list[str] = []
        for alias, (part, part_reference) in zip(aliases, parts):
            froms.append(f"{part_reference} {alias}")
            for v in sorted(part.head_variables):
                if v in provider:
                    conditions.append(
                        f"{provider[v]}.{_q(v.name)} = {alias}.{_q(v.name)}"
                    )
                else:
                    provider[v] = alias
        selects = [
            f"{alias}.{_q(v.name)} AS {_q(v.name)}"
            for v, alias in sorted(provider.items())
        ]
        prob = " * ".join(f"{alias}.{PROB_COLUMN}" for alias in aliases)
        selects.append(f"{prob} AS {PROB_COLUMN}")
        where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
        return (
            f"SELECT {', '.join(selects)}\nFROM "
            + separator.join(froms)
            + where
        )

    def _min_sql(self, node: MinPlan, reference) -> str:
        columns = sorted(v.name for v in node.head_variables)
        branches = []
        for part in node.parts:
            cols = ", ".join(
                [_q(c) for c in columns] + [PROB_COLUMN]
            )
            branches.append(f"SELECT {cols} FROM {reference(part)} b")
        union = "\nUNION ALL\n".join(branches)
        outer_cols = [f"{_q(c)}" for c in columns]
        select_list = ", ".join(
            outer_cols + [f"MIN({PROB_COLUMN}) AS {PROB_COLUMN}"]
        )
        group = f"\nGROUP BY {', '.join(outer_cols)}" if outer_cols else ""
        return f"SELECT {select_list} FROM (\n{union}\n) u{group}"

    # ------------------------------------------------------------------
    # final shaping
    # ------------------------------------------------------------------
    def _final_select(self, top_reference: str, query: ConjunctiveQuery) -> str:
        head_cols = [
            f"{_q(v.name)}" for v in query.head_order
        ]
        select_list = ", ".join(head_cols + [PROB_COLUMN])
        return f"SELECT {select_list} FROM {top_reference} result"


# ----------------------------------------------------------------------
# Algorithm-3 reference analysis
# ----------------------------------------------------------------------
def subplan_reference_counts(
    plans: Sequence[Plan], include_joins: bool = False
) -> dict[Plan, int]:
    """How often each projection/``min`` subplan is referenced by a batch.

    Counts *statement reference sites* across all ``plans`` of one
    evaluation batch: each plan's top counts once (the final SELECT or
    the all-plans union references it), and every child reference from a
    structurally distinct parent counts once. Structurally equal
    parents collapse — within one plan *and* across the plans of the
    batch — because they compile to a single shared view referencing
    the child once. The result feeds the Algorithm-3 materialization
    policy: a subplan with one reference site is never worth a temp
    table in this batch. (The count is exact when every shared parent
    is materialized; a shared parent the cost gate keeps inline would
    re-reference its children per occurrence, which only errs toward
    materializing them — never toward recomputation.)

    ``include_joins`` additionally counts join nodes — joins are never
    materialized as registry views, but a join referenced by two
    structurally distinct projections can still be factored into a
    shared per-statement CTE (:class:`StatementScope`).
    """
    counts: dict[Plan, int] = {}
    seen: set[Plan] = set()
    grain = (Project, MinPlan, Join) if include_joins else (Project, MinPlan)
    for plan in plans:
        if isinstance(plan, grain):
            counts[plan] = counts.get(plan, 0) + 1
        stack: list[Plan] = [plan]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for child in node.children():
                if isinstance(child, grain):
                    counts[child] = counts.get(child, 0) + 1
                stack.append(child)
    return counts


# ----------------------------------------------------------------------
# deterministic baselines
# ----------------------------------------------------------------------
def _query_join_parts(
    query: ConjunctiveQuery, schema: Schema
) -> tuple[list[str], list[str], dict[Variable, str]]:
    """FROM items, WHERE conditions, and variable → ``alias.column`` map."""
    froms: list[str] = []
    conditions: list[str] = []
    provider: dict[Variable, str] = {}
    for i, atom in enumerate(query.atoms):
        alias = f"a{i}"
        froms.append(f"{_q(atom.relation)} {alias}")
        table_schema = schema[atom.relation]
        local_seen: dict[Variable, str] = {}
        for column, term in zip(table_schema.columns, atom.terms):
            qualified = f"{alias}.{_q(column)}"
            if isinstance(term, Constant):
                conditions.append(f"{qualified} = {sql_literal(term.value)}")
            elif term in local_seen:
                conditions.append(f"{qualified} = {local_seen[term]}")
            elif term in provider:
                conditions.append(f"{qualified} = {provider[term]}")
                local_seen[term] = qualified
            else:
                provider[term] = qualified
                local_seen[term] = qualified
    return froms, conditions, provider


def deterministic_sql(query: ConjunctiveQuery, schema: Schema) -> str:
    """``SELECT DISTINCT`` of the answers — the standard-SQL baseline."""
    froms, conditions, provider = _query_join_parts(query, schema)
    if query.head_order:
        select_list = ", ".join(
            f"{provider[v]} AS {_q(v.name)}" for v in query.head_order
        )
    else:
        select_list = "1"
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    return f"SELECT DISTINCT {select_list}\nFROM {', '.join(froms)}{where}"


def lineage_sql(query: ConjunctiveQuery, schema: Schema) -> str:
    """Retrieve every join witness (head values + all atom columns).

    The cost of this query lower-bounds any probabilistic method that
    computes probabilities outside the database engine (Sec. 5.1).
    """
    froms, conditions, provider = _query_join_parts(query, schema)
    selects: list[str] = [
        f"{provider[v]} AS {_q(v.name)}" for v in query.head_order
    ]
    for i, atom in enumerate(query.atoms):
        table_schema = schema[atom.relation]
        for column in table_schema.columns:
            selects.append(f"a{i}.{_q(column)} AS {_q(f'{atom.relation}_{column}')}")
        selects.append(f"a{i}.{PROB_COLUMN} AS {_q(f'{atom.relation}_p')}")
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    return f"SELECT {', '.join(selects)}\nFROM {', '.join(froms)}{where}"
