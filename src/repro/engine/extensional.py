"""Columnar, vectorized in-memory extensional evaluation (Def. 4).

Evaluates a plan bottom-up over a :class:`ProbabilisticDatabase` with
set-at-a-time operators instead of the seed's row-at-a-time interpreter
(preserved in :mod:`repro.engine.reference`):

* intermediate relations are *column stores* — one ``int64`` code array
  per head variable plus a contiguous ``float64`` score column
  (:class:`_Columnar`); tuple values are interned once per database into
  a shared dictionary, so all joins and group-bys run on integers;
* scan — mask-filter the cached encoded relation (tuple probability),
  the scope's Opt.-3 row mask included;
* join — vectorized sort-probe join folded smallest input first
  (:func:`_fold_order`): the accumulating side's keys are
  ``searchsorted`` into the next input's sorted keys, which that input
  sorts once and keeps (:meth:`_Columnar.sorted_keys`), so a cached
  constant-free view is probed, not re-sorted, by every request that
  reads it; scores multiply (independence assumption), and the
  multiplication runs in *canonical part order* so every join schedule
  produces bit-identical scores;
* projection with duplicate elimination — grouped independent-or
  ``1 − ∏(1 − s_i)`` via ``np.multiply.reduceat`` over stably sorted
  group runs;
* ``min`` — per-tuple minimum over alternative subplans (Opt. 1),
  aligned by sorting both children on their full row keys.

Shared plan nodes are evaluated once: results are memoized in an
:class:`EvaluationCache` keyed by the plans' *structural* hash/equality
(not object identity), so Optimization 2 view reuse extends across the
separate plans of the "all plans" mode and — when the cache is threaded
through :class:`repro.engine.DissociationEngine` — across queries. What
one call may reuse is its :class:`Scope`: the call's memo and its Opt.-3
row masks. Only a call that shares one memo across its plans and masks
nothing reads and writes the cache's LRU, and then only for results no
selection constant reaches (:meth:`Plan.selective`); every other result
lives in the call's memo. The cache snapshots the database's version
token and clears itself when the database mutates.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..core.atoms import Atom
from ..core.plans import Join, MinPlan, Plan, Project, Scan
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.database import ProbabilisticDatabase
from ..obs import NULL_OBSERVER, StatsLRU
from .stats import JoinProfile, greedy_order, join_profile, profile_of_columnar

__all__ = [
    "EvaluationCache",
    "Scope",
    "evaluate_plan",
    "plan_scores",
    "plan_scores_min_combined",
    "deterministic_answers",
]

#: Radix-combined row keys must fit a signed 64-bit integer.
_KEY_BITS = 62


class _Columnar:
    """An intermediate relation in columnar layout.

    ``columns[i]`` holds the interned codes of variable ``order[i]`` for
    every row; ``scores`` is the parallel score column. Rows are always
    distinct (scans are injective after filtering, joins concatenate
    distinct inputs, projections group). Arrays are treated as immutable
    and may be shared between results.

    A result probed by a join keeps the sorted row keys of the probed
    columns (:meth:`sorted_keys`); they live and die with the result, so
    whatever drops a cached result drops its sort memo too.
    """

    __slots__ = ("order", "columns", "scores", "_profile", "_sorted")

    def __init__(
        self,
        order: tuple[Variable, ...],
        columns: tuple[np.ndarray, ...],
        scores: np.ndarray,
    ) -> None:
        self.order = order
        self.columns = columns
        self.scores = scores
        self._profile: JoinProfile | None = None
        # key-column positions -> (radix, perm, keys[perm])
        self._sorted: dict | None = None

    def __len__(self) -> int:
        return self.scores.shape[0]

    def profile(self) -> JoinProfile:
        """Exact cardinality profile (rows + per-variable distinct counts).

        Computed once per result and cached — cached plan results carry
        their profile across joins and across calls.
        """
        if self._profile is None:
            self._profile = profile_of_columnar(
                self.order, self.columns, len(self)
            )
        return self._profile

    def sorted_keys(
        self, positions: tuple[int, ...], radix: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(perm, keys[perm])`` of the row keys over ``positions``.

        Built on the first probe and kept: a cached result is sorted
        once however many requests probe it. A composite key depends on
        ``radix`` (:func:`_radix`), so an entry built under an older one
        is replaced, never kept beside the new. Two threads building the
        same entry store identical arrays.
        """
        memo = self._sorted
        if memo is None:
            memo = self._sorted = {}
        entry = memo.get(positions)
        if entry is None or entry[0] != radix:
            key = _radix_key(
                tuple(self.columns[i] for i in positions), len(self), radix
            )
            perm = np.argsort(key, kind="stable")
            entry = memo[positions] = (radix, perm, key[perm])
        return entry[1], entry[2]


def _empty(order: tuple[Variable, ...]) -> _Columnar:
    return _Columnar(
        order,
        tuple(np.empty(0, dtype=np.int64) for _ in order),
        np.empty(0, dtype=np.float64),
    )


class Scope(NamedTuple):
    """What one evaluation call may reuse besides the persistent cache.

    ``memo`` is the call's store of plan results, shared by all its
    plans (Opt. 2); ``None`` gives each plan only its own DAG memo
    (Opt. 2 off). ``masks`` maps a relation to the boolean row mask
    every scan of it applies (Opt. 3); ``None`` masks nothing.

    A call *retains* exactly when it shares a memo and masks nothing:
    then the cache's LRU serves and keeps its constant-free results and
    its memo the selective ones. Any other call reads and writes only
    its memo and moves none of the cache's counters.
    """

    memo: dict[Plan, _Columnar] | None = None
    masks: dict[str, np.ndarray] | None = None


class EvaluationCache:
    """Shared evaluation state for one database.

    Three layers, from representation to optimization:

    * a value dictionary interning tuple constants to ``int64`` codes
      (append-only, never invalidated — codes stay valid across clears);
    * encoded base relations, one set of code columns + a score column
      per relation (built lazily on first scan);
    * plan results keyed by the plan nodes' structural hash/equality —
      this is what realizes Opt. 2 across plans and across queries.
      Only a retaining :class:`Scope` reads and writes them, and only
      for plans no selection constant reaches: a plan beneath one
      (:meth:`Plan.selective`) belongs to one binding of the query's
      parameters (Algorithm 3's ``selective`` rule) and lives in the
      call's memo, which the memory executor shares across one batch.

    The cache records ``db.version`` when created; :meth:`validate`
    drops the encoded tables and plan results whenever the token moved.

    ``max_plans`` bounds the admitted plan results LRU-style: ``None`` is
    unbounded, ``0`` retains nothing across calls (shared DAG nodes
    still evaluate once *within* a plan), ``N`` keeps the ``N`` most
    recently used results. :meth:`cache_stats` exposes cumulative
    hit/miss/eviction counters of retaining calls (every subplan such a
    call evaluates counts a miss, a selective one included) — the same
    shape the SQLite backend's view registry reports, so both backends
    share one cache interface.

    The cache is **thread-safe** at the entry level: interning, encoded
    tables, and the plan-result LRU are guarded by one re-entrant lock.
    Evaluation itself runs outside the lock, so two
    threads racing on the same uncached subplan may both compute it —
    the results are bit-identical (evaluation is a pure function of the
    plan and the encoded tables) and the second store is a no-op
    overwrite, so correctness never depends on winning the race.
    Mutating the *database* concurrently with evaluation is not
    protected here; the service layer serializes mutations against
    in-flight batches (and direct multi-threaded engine users must do
    the same, as with any shared store).
    """

    __slots__ = (
        "db",
        "_code_of",
        "_values",
        "_tables",
        "_plans",
        "_token",
        "_lock",
        "observer",
    )

    def __init__(
        self, db: ProbabilisticDatabase, max_plans: int | None = None
    ) -> None:
        if max_plans is not None and max_plans < 0:
            raise ValueError("max_plans must be None or >= 0")
        self.db = db
        self._code_of: dict = {}
        self._values: list = []
        # name -> (table epoch at encode time, (columns, scores))
        self._tables: dict[str, tuple] = {}
        self._lock = threading.RLock()
        #: Per-subplan tracing hook (``repro.obs``); the engine installs
        #: its observer here so ``_evaluate`` can record
        #: cache-hit-vs-compute spans without threading a parameter
        #: through every operator.
        self.observer = NULL_OBSERVER
        # plan -> (epoch vector of the plan's relations at store time,
        #          result): validate() drops exactly the entries whose
        #          relations moved. Storage and counters live in the
        #          shared StatsLRU core.
        self._plans = StatsLRU(max_plans, lock=self._lock)
        self._token = db.version

    def validate(self) -> None:
        """Drop cached state belonging to tables that changed.

        Per-table, not all-or-nothing: when the database token moved,
        only encoded tables whose epochs differ are re-encoded and only
        plan results touching a changed relation are dropped — a write
        to ``R`` leaves every ``S⋈T`` plan result warm.
        """
        with self._lock:
            token = self.db.version
            if token == self._token:
                return
            epochs = self.db.table_epochs()
            for name, entry in list(self._tables.items()):
                if entry[0] != epochs.get(name):
                    del self._tables[name]
            self._plans.remove_where(
                lambda _plan, entry: any(
                    epochs.get(r) != ep for r, ep in entry[0]
                ),
                count=None,
            )
            self._token = token

    # ------------------------------------------------------------------
    # plan-result layer (Opt. 2), LRU-bounded
    # ------------------------------------------------------------------
    @property
    def max_plans(self) -> int | None:
        return self._plans.max_entries

    def lookup_plan(self, plan: Plan, scope: Scope) -> "_Columnar | None":
        """The memoized result of ``plan`` for a call in ``scope``, or
        ``None`` (a miss).

        A retaining call looks a constant-free plan up in the LRU,
        marking it most recently used, and a selective one in its memo,
        counting only the miss. Any other call reads its memo alone.
        """
        memo = scope.memo
        if memo is None or scope.masks is not None:  # not retaining
            return None if memo is None else memo.get(plan)
        if not plan.selective():
            entry = self._plans.get(plan)
            return None if entry is None else entry[1]
        result = memo.get(plan)
        if result is None:
            self._plans.add_miss()
        return result

    def store_plan(
        self, plan: Plan, result: "_Columnar", scope: Scope
    ) -> None:
        """Keep ``result`` where :meth:`lookup_plan` finds it again."""
        memo = scope.memo
        if memo is None:
            return
        if scope.masks is not None or plan.selective():
            memo[plan] = result
        elif self.max_plans != 0:
            vector = self.db.epoch_vector(plan.relations())
            self._plans.put(plan, (vector, result))

    def cache_stats(self) -> dict:
        """Cumulative counters (they survive :meth:`validate` clears)."""
        stats = self._plans.stats()
        return {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "evictions": stats["evictions"],
            "size": stats["size"],
            "max_size": stats["max_entries"],
        }

    # ------------------------------------------------------------------
    # value interning
    # ------------------------------------------------------------------
    def encode(self, value) -> int:
        with self._lock:
            code = self._code_of.get(value)
            if code is None:
                code = len(self._values)
                self._code_of[value] = code
                self._values.append(value)
            return code

    def encoded_table(self, name: str) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The relation ``name`` as interned code columns + score column."""
        with self._lock:
            table = self.db.table(name)
            epoch = table.epoch
            entry = self._tables.get(name)
            if entry is not None and entry[0] == epoch:
                return entry[1]
            rows = table.rows
            n = len(rows)
            scores = np.fromiter(rows.values(), dtype=np.float64, count=n)
            code_of = self._code_of
            values = self._values
            columns: list[np.ndarray] = []
            for raw in zip(*rows) if n else ((),) * table.arity:
                codes = []
                append = codes.append
                for v in raw:
                    code = code_of.get(v)
                    if code is None:
                        code = len(values)
                        code_of[v] = code
                        values.append(v)
                    append(code)
                columns.append(np.fromiter(codes, dtype=np.int64, count=n))
            encoded = (tuple(columns), scores)
            self._tables[name] = (epoch, encoded)
            return encoded


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def evaluate_plan(
    plan: Plan,
    db: ProbabilisticDatabase,
    output_order: Iterable[Variable] | None = None,
    cache: EvaluationCache | None = None,
    recorder: "list[dict] | None" = None,
    scope: Scope | None = None,
) -> dict[tuple, float]:
    """Score every output tuple of ``plan`` on ``db``.

    Keys are tuples of the plan's head-variable values, ordered by
    ``output_order`` when given (e.g. a query's ``head_order``), otherwise
    by variable name. For Boolean plans the single key is ``()``.

    ``cache`` shares interning, encoded relations, and plan results
    across calls; it must have been built for the same ``db``. ``scope``
    is the call's own state (:class:`Scope`); the default is a fresh
    memo and no masks, a call that retains. Pass one scope to several
    calls on one cache to share its memo while nothing moves the
    database.

    ``recorder``, when given, collects one dict per *executed* join node
    (chosen order and estimated vs. actual
    cardinality per fold step) — the raw material of
    ``DissociationEngine.explain``. Joins served from the plan cache do
    not re-execute and are not recorded.
    """
    cache = _validated(cache, db)
    if scope is None:
        scope = Scope({})
    result = _evaluate(plan, cache, scope, {}, recorder)
    return _shape_scores(result, cache, output_order)


def _validated(
    cache: EvaluationCache | None, db: ProbabilisticDatabase
) -> EvaluationCache:
    if cache is None:
        return EvaluationCache(db)
    if cache.db is not db:
        raise ValueError("evaluation cache was built for a different database")
    cache.validate()
    return cache


def _shape_scores(
    result: "_Columnar",
    cache: EvaluationCache,
    output_order: Iterable[Variable] | None,
) -> dict[tuple, float]:
    """Reorder a columnar result to ``output_order`` and decode it."""
    if output_order is None:
        order = tuple(sorted(result.order))
    else:
        order = tuple(output_order)
        if frozenset(order) != frozenset(result.order):
            raise ValueError(
                f"output order {order} does not match plan head {result.order}"
            )
    if order == result.order:
        columns = result.columns
    else:
        positions = [result.order.index(v) for v in order]
        columns = tuple(result.columns[i] for i in positions)
    return _decode(cache, columns, result.scores)


def plan_scores(
    plan: Plan,
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    cache: EvaluationCache | None = None,
    recorder: "list[dict] | None" = None,
    scope: Scope | None = None,
) -> dict[tuple, float]:
    """``evaluate_plan`` keyed in the query's declared head order."""
    return evaluate_plan(
        plan, db, query.head_order, cache=cache, recorder=recorder, scope=scope
    )


def plan_scores_min_combined(
    plans: Sequence[Plan],
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    cache: EvaluationCache,
    recorder: "list[dict] | None" = None,
    scope: Scope | None = None,
) -> dict[tuple, float]:
    """All-plans evaluation with the min-combining kept *columnar*.

    The historical all-plans path decoded every plan's result into a
    Python dict and min-merged the dicts — per request, even when every
    plan result was served from the cache; for a chain-7 query that is
    132 decodes and 131 dict merges per call. Here every plan evaluates
    to its columnar result, the per-answer minimum is taken in the code
    domain exactly like the ``min`` operator (align children on their
    full-row keys, ``np.minimum`` the score columns), and the single
    combined result is decoded once. Scores are bit-identical to the
    dict path: ``min`` is associative and exact — no floating-point
    reassociation is involved.

    The plans evaluate in one ``scope`` (default as in
    :func:`evaluate_plan`): they share its memo, or — without one —
    each keeps only its own DAG memo.
    """
    plans = list(plans)
    if not plans:
        return {}
    cache = _validated(cache, db)
    if scope is None:
        scope = Scope({})
    results = [_evaluate(plan, cache, scope, {}, recorder) for plan in plans]
    combined = _aligned_min(results, cache)
    return _shape_scores(combined, cache, query.head_order)


def _decode(
    cache: EvaluationCache,
    columns: Sequence[np.ndarray],
    scores: np.ndarray,
) -> dict[tuple, float]:
    n = scores.shape[0]
    if not columns:
        return {} if n == 0 else {(): float(scores[0])}
    values = cache._values
    decoded = [[values[c] for c in col.tolist()] for col in columns]
    return dict(zip(zip(*decoded), scores.tolist()))


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def _evaluate(
    plan: Plan,
    cache: EvaluationCache,
    scope: Scope,
    local: dict[Plan, _Columnar],
    recorder: "list[dict] | None" = None,
) -> _Columnar:
    # ``local`` memoizes within one plan: shared nodes of an
    # Algorithm-2 DAG evaluate once, and count once, whatever the scope
    # (max_plans=0 bounds *retained* state, not the intra-plan sharing
    # the algorithm relies on).
    result = local.get(plan)
    if result is not None:
        return result
    obs = cache.observer
    result = cache.lookup_plan(plan, scope)
    if result is None:
        if obs.enabled:
            with obs.span("subplan") as span:
                result = _operate(plan, cache, scope, local, recorder)
                span.note(
                    kind=type(plan).__name__.lower(),
                    cached=False,
                    rows=len(result),
                )
        else:
            result = _operate(plan, cache, scope, local, recorder)
        cache.store_plan(plan, result, scope)
    elif obs.enabled:
        with obs.span("subplan") as span:
            span.note(
                kind=type(plan).__name__.lower(), cached=True, rows=len(result)
            )
    local[plan] = result
    return result


def _operate(
    plan: Plan,
    cache: EvaluationCache,
    scope: Scope,
    local: dict[Plan, _Columnar],
    recorder: "list[dict] | None",
) -> _Columnar:
    """Run ``plan``'s own operator (its children through
    :func:`_evaluate`)."""
    if isinstance(plan, Scan):
        return _scan(plan, cache, scope.masks)
    if isinstance(plan, Project):
        return _project(plan, cache, scope, local, recorder)
    if isinstance(plan, Join):
        return _join(plan, cache, scope, local, recorder)
    if isinstance(plan, MinPlan):
        return _min(plan, cache, scope, local, recorder)
    raise TypeError(f"unknown plan node {plan!r}")  # pragma: no cover


def _scan(
    plan: Scan, cache: EvaluationCache, masks: "dict | None"
) -> _Columnar:
    positions, columns, scores, mask = _atom_selection(plan.atom, cache, masks)
    order = tuple(positions)
    keep = [positions[v] for v in order]
    if mask is None:
        return _Columnar(order, tuple(columns[i] for i in keep), scores)
    idx = np.flatnonzero(mask)
    return _Columnar(order, tuple(columns[i][idx] for i in keep), scores[idx])


def _atom_selection(
    atom: Atom, cache: EvaluationCache, masks: "dict | None" = None
):
    """The rows of ``atom``'s encoded relation that the atom selects.

    Returns ``(positions, columns, scores, mask)``: the first column of
    every variable, the relation's code and score columns, and the
    boolean row mask of its constants, its repeated variables and the
    relation's Opt.-3 mask in ``masks`` (``None`` when nothing filters).
    :func:`_scan` applies it; :func:`~repro.engine.semijoin.semijoin_masks`
    seeds its fixpoint with it.
    """
    table = cache.db.table(atom.relation)
    if table.arity != atom.arity:
        raise ValueError(
            f"atom {atom} has arity {atom.arity} but table "
            f"{atom.relation} has arity {table.arity}"
        )
    columns, scores = cache.encoded_table(atom.relation)
    mask = None if masks is None else masks.get(atom.relation)
    positions: dict[Variable, int] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            check = columns[i] == cache.encode(term.value)
        elif term in positions:
            check = columns[positions[term]] == columns[i]
        else:
            positions[term] = i
            continue
        mask = check if mask is None else mask & check
    return positions, columns, scores, mask


def _project(
    plan: Project,
    cache: EvaluationCache,
    scope: Scope,
    local: dict[Plan, _Columnar],
    recorder: "list[dict] | None" = None,
) -> _Columnar:
    child = _evaluate(plan.child, cache, scope, local, recorder)
    order = tuple(v for v in child.order if v in plan.head)
    keep = [child.order.index(v) for v in order]
    n = len(child)
    if n == 0:
        return _empty(order)
    if not keep:
        complements = 1.0 - child.scores
        if n > 1:
            # canonical multiply order: sort by full-row key so the
            # rounding is identical under every join schedule
            (full,) = _row_keys(cache, [(child.columns, n)])
            complements = complements[np.argsort(full)]
        total = float(np.multiply.reduce(complements))
        return _Columnar((), (), np.array([1.0 - total]))
    key_cols = tuple(child.columns[i] for i in keep)
    (key,) = _row_keys(cache, [(key_cols, n)])
    uniq, inverse = np.unique(key, return_inverse=True)
    if uniq.shape[0] == n:
        # duplicate-free: independent-or degenerates to the identity
        return _Columnar(order, key_cols, child.scores)
    # Canonical within-group order: rows are distinct, so the full-row
    # key is a content-determined tie-break — group members multiply in
    # the same order whatever row order the join schedule produced.
    (full,) = _row_keys(cache, [(child.columns, n)])
    perm = np.lexsort((full, inverse))
    counts = np.bincount(inverse)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    grouped = np.multiply.reduceat((1.0 - child.scores)[perm], starts)
    representatives = perm[starts]
    # a singleton group keeps its score, as in the duplicate-free case:
    # ``1 − (1 − s)`` may round, and a group's score must not depend on
    # whether other groups have duplicates
    return _Columnar(
        order,
        tuple(col[representatives] for col in key_cols),
        np.where(counts == 1, child.scores[representatives], 1.0 - grouped),
    )


def _join(
    plan: Join,
    cache: EvaluationCache,
    scope: Scope,
    local: dict[Plan, _Columnar],
    recorder: "list[dict] | None" = None,
) -> _Columnar:
    results = [
        _evaluate(part, cache, scope, local, recorder) for part in plan.parts
    ]
    order = _fold_order(results)
    profiles: "list[JoinProfile] | None" = None
    record: dict | None = None
    fold_started = 0.0
    if recorder is not None:
        profiles = [r.profile() for r in results]
        record = {
            "join": str(plan),
            "order": list(order),
            "parts": [str(p) for p in plan.parts],
            "input_rows": [len(r) for r in results],
            "steps": [],
            # wall-clock seconds of this join's own fold (children are
            # recorded by their own entries), filled in below
            "seconds": 0.0,
        }
        recorder.append(record)
        fold_started = time.perf_counter()
    # Fold in the chosen order, tracking per-part gather indices instead
    # of multiplying scores pairwise: the final score column multiplies
    # the parts in canonical (plan) order, so every schedule produces
    # bit-identical floating-point scores.
    first = order[0]
    state_order = results[first].order
    state_columns = results[first].columns
    indices: dict[int, np.ndarray] = {
        first: np.arange(len(results[first]), dtype=np.int64)
    }
    rows = len(results[first])
    estimate = profiles[first] if profiles is not None else None
    step_started = fold_started
    for j in order[1:]:
        state_order, state_columns, indices, rows = _fold_join(
            state_order, state_columns, indices, rows,
            results[j], j, cache,
        )
        if record is not None:
            now = time.perf_counter()
            estimate = join_profile(estimate, profiles[j])
            record["steps"].append(
                {
                    "joined": str(plan.parts[j]),
                    "estimated_rows": estimate.rows,
                    "actual_rows": rows,
                    "seconds": now - step_started,
                }
            )
            step_started = now
    if rows == 0:
        if record is not None:
            record["seconds"] = time.perf_counter() - fold_started
        return _empty(tuple(sorted(state_order)))
    scores: np.ndarray | None = None
    for part, idx in sorted(indices.items()):
        gathered = results[part].scores[idx]
        scores = gathered if scores is None else scores * gathered
    # canonical output column order, independent of the schedule
    final_order = tuple(sorted(state_order))
    positions = [state_order.index(v) for v in final_order]
    if record is not None:
        record["seconds"] = time.perf_counter() - fold_started
    return _Columnar(
        final_order,
        tuple(state_columns[i] for i in positions),
        scores,
    )


def _fold_order(results: "Sequence[_Columnar]") -> list[int]:
    """The order ``_join`` folds its inputs in: ``greedy_order`` over
    the inputs' actual row counts, the rule SQL emits its joins in over
    estimated ones, for every arity.

    The smallest input accumulates and probes; each later input is the
    sorted side, and keeps its sort (:meth:`_Columnar.sorted_keys`). The
    large input is usually a cached constant-free view that every
    request of the shape re-reads, so it is sorted once per cache
    lifetime.
    """
    return greedy_order(
        [len(r) for r in results], [frozenset(r.order) for r in results]
    )


def _fold_join(
    order: tuple[Variable, ...],
    columns: tuple[np.ndarray, ...],
    indices: dict[int, np.ndarray],
    rows: int,
    right: _Columnar,
    right_part: int,
    cache: EvaluationCache,
) -> tuple[tuple[Variable, ...], tuple[np.ndarray, ...], dict[int, np.ndarray], int]:
    """One pairwise hash-join step of the fold, propagating gather indices."""
    shared = [v for v in right.order if v in order]
    right_new = [v for v in right.order if v not in order]
    right_keep = [right.order.index(v) for v in right_new]
    out_order = order + tuple(right_new)
    nl, nr = rows, len(right)
    if nl == 0 or nr == 0:
        empty_idx = np.empty(0, dtype=np.int64)
        return (
            out_order,
            tuple(np.empty(0, dtype=np.int64) for _ in out_order),
            {part: empty_idx for part in (*indices, right_part)},
            0,
        )
    if not shared:
        li = np.repeat(np.arange(nl), nr)
        ri = np.tile(np.arange(nr), nl)
    else:
        left_columns = tuple(columns[order.index(v)] for v in shared)
        rpos = tuple(right.order.index(v) for v in shared)
        # one radix for both sides: every code either holds was interned
        # before this read, so it is below the radix
        radix = _radix(cache, len(shared))
        if radix is None:
            lk, rk = _row_keys(
                cache,
                [
                    (left_columns, nl),
                    (tuple(right.columns[i] for i in rpos), nr),
                ],
            )
            perm = np.argsort(rk, kind="stable")
            rk_sorted = rk[perm]
        else:
            perm, rk_sorted = right.sorted_keys(rpos, radix)
            lk = _radix_key(left_columns, nl, radix)
        starts = np.searchsorted(rk_sorted, lk, side="left")
        ends = np.searchsorted(rk_sorted, lk, side="right")
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            empty_idx = np.empty(0, dtype=np.int64)
            return (
                out_order,
                tuple(np.empty(0, dtype=np.int64) for _ in out_order),
                {part: empty_idx for part in (*indices, right_part)},
                0,
            )
        li = np.repeat(np.arange(nl), counts)
        run_starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        ri = perm[np.repeat(starts, counts) + offsets]
    out_columns = tuple(col[li] for col in columns) + tuple(
        right.columns[i][ri] for i in right_keep
    )
    out_indices = {part: idx[li] for part, idx in indices.items()}
    out_indices[right_part] = ri
    return out_order, out_columns, out_indices, int(li.shape[0])


def _min(
    plan: MinPlan,
    cache: EvaluationCache,
    scope: Scope,
    local: dict[Plan, _Columnar],
    recorder: "list[dict] | None" = None,
) -> _Columnar:
    results = [
        _evaluate(part, cache, scope, local, recorder) for part in plan.parts
    ]
    return _aligned_min(results, cache)


def _aligned_min(
    results: "list[_Columnar]", cache: EvaluationCache
) -> _Columnar:
    """Per-tuple minimum over columnar results of the same tuple set."""
    base = results[0]
    n = len(base)
    aligned: list[tuple[tuple[np.ndarray, ...], int]] = []
    for other in results:
        if other.order == base.order:
            cols = other.columns
        else:
            positions = [other.order.index(v) for v in base.order]
            cols = tuple(other.columns[i] for i in positions)
        aligned.append((cols, len(other)))
    if any(m != n for _, m in aligned):
        raise ValueError(
            "min children produced different tuple sets; "
            "they must compute the same subquery"
        )
    if n == 0 or len(results) == 1:
        return base
    keys = _row_keys(cache, aligned)
    base_perm = np.argsort(keys[0], kind="stable")
    base_sorted = keys[0][base_perm]
    scores = base.scores
    for other, key in zip(results[1:], keys[1:]):
        perm = np.argsort(key, kind="stable")
        if not np.array_equal(base_sorted, key[perm]):
            raise ValueError(
                "min children produced different tuple sets; "
                "they must compute the same subquery"
            )
        realigned = np.empty(n, dtype=np.float64)
        realigned[base_perm] = other.scores[perm]
        scores = np.minimum(scores, realigned)
    return _Columnar(base.order, base.columns, scores)


# ----------------------------------------------------------------------
# row keys
# ----------------------------------------------------------------------
def _row_keys(
    cache: EvaluationCache,
    column_sets: Sequence[tuple[tuple[np.ndarray, ...], int]],
) -> list[np.ndarray]:
    """One ``int64`` key per row, consistent across all ``column_sets``.

    Each set is ``(columns, row_count)`` with the same column width.
    Codes are radix-combined (``key = ((c0·B) + c1)·B + ...`` with ``B``
    the interning-table size) so equal rows — within or across sets —
    get equal keys and distinct rows distinct keys. When the combined
    width would overflow 62 bits, falls back to ranking row tuples in
    sorted order, shared by all sets.

    Keys are *order-isomorphic to row content* on both paths (radix
    combination preserves the lexicographic code order; the fallback
    ranks sorted rows), which the projection operators rely on for their
    canonical, schedule-independent combine order.
    """
    radix = _radix(cache, len(column_sets[0][0]))
    if radix is not None:
        return [_radix_key(cols, n, radix) for cols, n in column_sets]
    rows_per_set = [list(zip(*(c.tolist() for c in cols))) for cols, _ in column_sets]
    mapping = {
        row: rank
        for rank, row in enumerate(sorted(set().union(*map(set, rows_per_set))))
    }
    out = []
    for rows, (_, n) in zip(rows_per_set, column_sets):
        codes = np.empty(n, dtype=np.int64)
        for i, row in enumerate(rows):
            codes[i] = mapping[row]
        out.append(codes)
    return out


def _radix(cache: EvaluationCache, width: int) -> "int | None":
    """The radix that combines ``width`` code columns into one key.

    ``0`` when ``width`` ≤ 1 needs none (the key is the code column
    itself), ``None`` when the combined key would overflow 62 bits. It
    grows with the interning table, so a key built under one radix is
    comparable only with keys built under the same one.
    """
    if width <= 1:
        return 0
    radix = max(len(cache._values), 2)
    if width * (radix - 1).bit_length() <= _KEY_BITS:
        return radix
    return None


def _radix_key(
    columns: tuple[np.ndarray, ...], n: int, radix: int
) -> np.ndarray:
    """``((c0·radix) + c1)·radix + ...`` per row of ``columns``."""
    if not columns:
        return np.zeros(n, dtype=np.int64)
    if len(columns) == 1:
        return columns[0]
    key = columns[0].astype(np.int64, copy=True)
    for col in columns[1:]:
        key *= radix
        key += col
    return key


def deterministic_answers(
    query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> set[tuple]:
    """Standard (non-probabilistic) evaluation: the set of answer tuples.

    The "deterministic SQL" baseline of the experiments; also used by the
    test suite to check that every plan returns exactly the query's
    answers.
    """
    from ..lineage.build import lineage_of

    return set(lineage_of(query, db).by_answer)
