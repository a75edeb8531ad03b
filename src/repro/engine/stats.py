"""Column statistics, cardinality estimation, and cost-based planning.

The statistics catalog (:class:`SQLiteStatisticsCatalog`) summarizes
every base relation of a SQLite snapshot with SQL aggregates: row count
and, per column, distinct count and a most-common-value (MCV) sketch.
Each table's summary is keyed by that table's own epoch, so touching one
relation never invalidates the statistics of the others. The memory
executor needs no catalog: its fold orders joins by actual row counts,
and ``engine.explain()`` estimates from the actual input profiles.

On top of the catalog sit the planning components of this module:

* a textbook cardinality model (`scan_profile` / `join_profile`) with
  *pessimistic caps*: repeated variables and constants divide by the
  largest applicable distinct count, estimates never exceed the product
  bound, and per-variable distinct counts are capped by the estimated
  row count;
* :func:`greedy_order` — the one join order: smallest input first, then
  the smallest input connected to the ones taken (cross products only
  when the query graph forces them). SQL emits every join in it, the
  memory fold takes it over actual row counts, and
  :func:`estimate_plan` prices every join in it;
* :func:`estimate_plan` — bottom-up cost/cardinality estimation for a
  whole plan, used by the SQLite executor's Algorithm-3 materialization
  policy, its join order and ``engine.explain()``;
* :class:`MaterializationPolicy` — the Algorithm-3 decision rule: a
  subplan is worth a ``CREATE TEMP TABLE`` only when no selection
  constant sits beneath it and the recomputation cost it saves across
  its references beats the cost of writing its rows out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.plans import Join, MinPlan, Plan, Project, Scan
from ..core.symbols import Constant, Variable

__all__ = [
    "DEFAULT_WRITE_FACTOR",
    "ColumnStats",
    "TableStats",
    "SQLiteStatisticsCatalog",
    "JoinProfile",
    "scan_profile",
    "join_profile",
    "greedy_order",
    "PlanEstimate",
    "estimate_plan",
    "MaterializationPolicy",
]

#: Default write-vs-read cost ratio of the Algorithm-3 materialization
#: gate; :meth:`~repro.db.sqlite_backend.SQLiteBackend.measure_write_factor`
#: replaces it with a measured value (``DissociationEngine.
#: calibrate_write_factor`` / service startup calibration).
DEFAULT_WRITE_FACTOR = 2.0

#: Size of the most-common-value sketch kept per column.
DEFAULT_MCV_SIZE = 8


# ----------------------------------------------------------------------
# the statistics catalog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column."""

    count: int
    distinct: int
    #: Most common values: ``((value, count), ...)``, count-descending.
    mcv: tuple[tuple[object, int], ...]

    def frequency(self, value) -> float:
        """Estimated number of rows holding ``value``.

        Values in the MCV sketch use their exact counts; the remaining
        rows are assumed uniform over the remaining distinct values.
        """
        for common, count in self.mcv:
            if common == value:
                return float(count)
        covered = sum(count for _, count in self.mcv)
        remaining_distinct = max(self.distinct - len(self.mcv), 1)
        return max((self.count - covered) / remaining_distinct, 0.0)


@dataclass(frozen=True)
class TableStats:
    """Per-table summary: row count plus one :class:`ColumnStats` each."""

    name: str
    rows: int
    columns: tuple[ColumnStats, ...]


class SQLiteStatisticsCatalog:
    """Per-table statistics computed with SQL aggregates.

    ``COUNT(*)``, per-column distinct counts and MCV sketches, computed
    on the backend's own connection over *raw* values, so a sqlite-only
    deployment never builds in-RAM encodings of its tables just to price
    subplans; :func:`scan_profile` prices constants directly against
    the sketch.

    Entries are keyed by an explicit ``token`` — the executor passes
    the snapshot's per-table epoch — so a table's summary is computed
    once per epoch and recomputed transparently after it moves. Only
    base tables are summarized: the semi-join-reduced ``_red_*`` copies
    are priced with their base tables' statistics.
    """

    __slots__ = ("backend", "mcv_size", "_stats", "recomputations")

    def __init__(self, backend, mcv_size: int = DEFAULT_MCV_SIZE) -> None:
        self.backend = backend
        self.mcv_size = mcv_size
        self._stats: dict[str, tuple[object, TableStats]] = {}
        self.recomputations = 0

    def table_stats(self, physical: str, token: object = None) -> TableStats:
        """The summary of the physical table ``physical`` under ``token``."""
        entry = self._stats.get(physical)
        if entry is not None and entry[0] == token:
            return entry[1]
        rows, summaries = self.backend.column_summaries(
            physical, self.mcv_size
        )
        columns = tuple(
            ColumnStats(
                count=rows,
                distinct=summary["distinct"],
                mcv=tuple(summary["mcv"]),
            )
            for summary in summaries
        )
        stats = TableStats(name=physical, rows=rows, columns=columns)
        self._stats[physical] = (token, stats)
        self.recomputations += 1
        return stats


# ----------------------------------------------------------------------
# cardinality model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinProfile:
    """Estimated shape of a relation entering a join.

    ``rows`` is the (estimated or actual) cardinality; ``distinct`` maps
    each head variable to its (estimated or actual) distinct count.
    """

    rows: float
    distinct: Mapping[Variable, float]

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(self.distinct)


def scan_profile(atom, stats: TableStats) -> JoinProfile:
    """Estimated output of scanning ``atom`` against ``stats``.

    Constants select by MCV-aware frequency
    (:meth:`ColumnStats.frequency`); a variable repeated within the
    atom divides by the *largest* distinct count among its positions —
    the pessimistic cap.
    """
    rows = float(stats.rows)
    positions: dict[Variable, list[int]] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            col = stats.columns[i] if i < len(stats.columns) else None
            if col is None or col.count == 0:
                rows = 0.0
                continue
            rows *= col.frequency(term.value) / col.count
        else:
            positions.setdefault(term, []).append(i)
    for ps in positions.values():
        if len(ps) > 1:
            widest = max(
                (stats.columns[i].distinct for i in ps if i < len(stats.columns)),
                default=1,
            )
            rows /= max(widest, 1)
    distinct = {}
    for v, ps in positions.items():
        d = min(
            (stats.columns[i].distinct for i in ps if i < len(stats.columns)),
            default=1,
        )
        distinct[v] = max(min(float(d), rows), 0.0)
    return JoinProfile(max(rows, 0.0), distinct)


def join_profile(left: JoinProfile, right: JoinProfile) -> JoinProfile:
    """Estimated join of two profiles (containment assumption).

    ``|L ⋈ R| = |L|·|R| / ∏ max(d_L(v), d_R(v))`` over the shared
    variables; with none shared this is the cross product. Distinct
    counts of shared variables take the smaller side and every distinct
    count is capped by the estimated row count.
    """
    rows = left.rows * right.rows
    for v in left.distinct:
        if v in right.distinct:
            rows /= max(left.distinct[v], right.distinct[v], 1.0)
    distinct: dict[Variable, float] = {}
    for v, d in left.distinct.items():
        other = right.distinct.get(v)
        distinct[v] = min(d, other) if other is not None else d
    for v, d in right.distinct.items():
        distinct.setdefault(v, d)
    rows = max(rows, 0.0)
    return JoinProfile(rows, {v: min(d, rows) for v, d in distinct.items()})


def profile_of_columnar(order, columns, n: int) -> JoinProfile:
    """Exact profile of a materialized columnar relation."""
    distinct = {
        v: float(np.unique(col).shape[0]) if n else 0.0
        for v, col in zip(order, columns)
    }
    return JoinProfile(float(n), distinct)


# ----------------------------------------------------------------------
# join order
# ----------------------------------------------------------------------
def greedy_order(
    sizes: Sequence[float], varsets: Sequence[frozenset[Variable]]
) -> list[int]:
    """The smallest-connected-input order.

    Starts from the smallest input, then repeatedly folds in the
    smallest input sharing a variable with the ones taken so far,
    falling back to the smallest disconnected one (a cross product).
    Ties keep input order.
    """
    by_size = sorted(range(len(sizes)), key=lambda i: sizes[i])
    taken = [False] * len(sizes)
    first = by_size[0]
    taken[first] = True
    order = [first]
    bound = set(varsets[first])
    for _ in range(len(sizes) - 1):
        choice = None
        for i in by_size:
            if taken[i]:
                continue
            if choice is None:
                choice = i
            if bound & varsets[i]:
                choice = i
                break
        taken[choice] = True
        order.append(choice)
        bound.update(varsets[choice])
    return order


# ----------------------------------------------------------------------
# whole-plan estimation (the SQL side and explain())
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanEstimate:
    """Estimated output cardinality and total work of a plan subtree.

    ``cost`` counts the rows every operator in the subtree is estimated
    to produce or group — the recomputation price of *not* having the
    subtree materialized.
    """

    rows: float
    cost: float
    profile: JoinProfile


def estimate_plan(
    plan: Plan,
    table_stats: Callable[[str], TableStats],
    memo: "dict[Plan, PlanEstimate] | None" = None,
) -> PlanEstimate:
    """Bottom-up cost/cardinality estimate of ``plan`` from the catalog.

    ``table_stats`` resolves a relation name to its summary. ``memo``
    may be shared across calls to avoid re-estimating common subplans
    of a DAG.
    """
    if memo is None:
        memo = {}
    cached = memo.get(plan)
    if cached is not None:
        return cached
    if isinstance(plan, Scan):
        stats = table_stats(plan.atom.relation)
        profile = scan_profile(plan.atom, stats)
        estimate = PlanEstimate(profile.rows, float(stats.rows), profile)
    elif isinstance(plan, Project):
        child = estimate_plan(plan.child, table_stats, memo)
        bound = 1.0
        for v in plan.head:
            bound *= max(child.profile.distinct.get(v, 1.0), 1.0)
            if bound > child.rows:
                bound = child.rows
                break
        rows = min(child.rows, max(bound, 0.0)) if plan.head else min(
            child.rows, 1.0
        )
        profile = JoinProfile(
            rows,
            {
                v: min(child.profile.distinct.get(v, rows), rows)
                for v in plan.head
            },
        )
        # grouping reads every child row once
        estimate = PlanEstimate(rows, child.cost + child.rows, profile)
    elif isinstance(plan, Join):
        children = [
            estimate_plan(part, table_stats, memo)
            for part in plan.parts
        ]
        profiles = [c.profile for c in children]
        # priced in the order SQL emits the join (``SQLCompiler._join_sql``)
        order = greedy_order(
            [p.rows for p in profiles], [p.variables for p in profiles]
        )
        cost = sum(c.cost for c in children)
        profile = profiles[order[0]]
        for j in order[1:]:
            profile = join_profile(profile, profiles[j])
            cost += profile.rows
        estimate = PlanEstimate(profile.rows, cost, profile)
    elif isinstance(plan, MinPlan):
        children = [
            estimate_plan(part, table_stats, memo)
            for part in plan.parts
        ]
        rows = max(c.rows for c in children)
        # min-combining unions all branches and groups them once
        cost = sum(c.cost for c in children) + sum(
            c.rows for c in children
        )
        estimate = PlanEstimate(rows, cost, children[0].profile)
    else:  # pragma: no cover - sealed hierarchy
        raise TypeError(f"unknown plan node {plan!r}")
    memo[plan] = estimate
    return estimate


# ----------------------------------------------------------------------
# Algorithm-3 materialization policy
# ----------------------------------------------------------------------
class MaterializationPolicy:
    """Decides which subplans earn a ``CREATE TEMP TABLE`` (Algorithm 3).

    A subplan referenced once is never worth materializing in the
    current batch — inlining it costs exactly one evaluation, while a
    temp table pays the same evaluation *plus* writing every output row.
    A subplan referenced ``r ≥ 2`` times saves ``(r − 1) ×`` its
    recomputation cost; it is materialized when that saving beats the
    write cost ``write_factor × rows``. A subplan that was already
    requested by an *earlier* batch on the same connection counts one
    extra reference — the cross-query reuse signal that converges the
    warm path to full materialization.

    Sharing *within* a statement costs no write — the compiler factors a
    subplan referenced twice into a per-statement CTE — so a temp table
    has to be paid for by reuse *across* statements. A subplan beneath
    which a selection constant sits (:meth:`Plan.selective`) belongs to
    one binding of the query's parameters, so it is never materialized,
    whatever its references or history: the rule the memory cache
    admits by. A view is therefore always constant-free, and a stream
    of parameterised requests runs one statement each and leaves
    nothing on the connection once the shape's constant-free views
    exist.

    Without an estimator the rule degrades to pure reference counting
    (materialize iff effectively referenced at least twice).

    ``observer``, when given, counts every decision
    (``materialize.decisions`` / ``materialize.approved``) so the cost
    gate's selectivity is visible in the metrics snapshot.
    """

    __slots__ = ("estimator", "write_factor", "observer")

    def __init__(
        self,
        estimator: "Callable[[Plan], PlanEstimate] | None" = None,
        write_factor: float = DEFAULT_WRITE_FACTOR,
        observer=None,
    ) -> None:
        self.estimator = estimator
        self.write_factor = write_factor
        self.observer = observer

    def should_materialize(
        self, node: Plan, references: int, prior_requests: int
    ) -> bool:
        verdict = self._decide(node, references, prior_requests)
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.inc("materialize.decisions")
            if verdict:
                obs.inc("materialize.approved")
        return verdict

    def _decide(
        self, node: Plan, references: int, prior_requests: int
    ) -> bool:
        if node.selective():
            return False
        effective = references + (1 if prior_requests > 0 else 0)
        if effective < 2:
            return False
        if self.estimator is None:
            return True
        estimate = self.estimator(node)
        saved = estimate.cost * (effective - 1)
        return saved >= self.write_factor * estimate.rows
