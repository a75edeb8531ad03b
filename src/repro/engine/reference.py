"""The seed row-at-a-time extensional evaluator (reference implementation).

This is the original dict-of-tuples interpreter that shipped with the
repository seed, preserved verbatim (modulo the ``_min`` error class) as
the ground truth the vectorized columnar engine in
:mod:`repro.engine.extensional` is property-tested against.

It is *not* wired into :class:`repro.engine.DissociationEngine`; use the
public ``evaluate_plan`` / ``plan_scores`` for production evaluation.
"""

from __future__ import annotations

from typing import Iterable

from ..core.plans import Join, MinPlan, Plan, Project, Scan
from ..core.query import ConjunctiveQuery
from ..core.symbols import Constant, Variable
from ..db.database import ProbabilisticDatabase

__all__ = ["evaluate_plan_reference", "plan_scores_reference"]


class _Result:
    """An intermediate relation: ordered columns + scored rows."""

    __slots__ = ("order", "rows")

    def __init__(self, order: tuple[Variable, ...], rows: dict[tuple, float]) -> None:
        self.order = order
        self.rows = rows


def evaluate_plan_reference(
    plan: Plan,
    db: ProbabilisticDatabase,
    output_order: Iterable[Variable] | None = None,
) -> dict[tuple, float]:
    """Score every output tuple of ``plan`` on ``db`` (row-at-a-time)."""
    result = _evaluate(plan, db, {})
    if output_order is None:
        order = tuple(sorted(result.order))
    else:
        order = tuple(output_order)
        if frozenset(order) != frozenset(result.order):
            raise ValueError(
                f"output order {order} does not match plan head {result.order}"
            )
    if order == result.order:
        return dict(result.rows)
    positions = [result.order.index(v) for v in order]
    return {
        tuple(row[i] for i in positions): score
        for row, score in result.rows.items()
    }


def plan_scores_reference(
    plan: Plan, query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> dict[tuple, float]:
    """``evaluate_plan_reference`` keyed in the query's declared head order."""
    return evaluate_plan_reference(plan, db, query.head_order)


def _evaluate(
    plan: Plan, db: ProbabilisticDatabase, memo: dict[int, _Result]
) -> _Result:
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    if isinstance(plan, Scan):
        result = _scan(plan, db)
    elif isinstance(plan, Project):
        result = _project(plan, db, memo)
    elif isinstance(plan, Join):
        result = _join(plan, db, memo)
    elif isinstance(plan, MinPlan):
        result = _min(plan, db, memo)
    else:  # pragma: no cover - sealed hierarchy
        raise TypeError(f"unknown plan node {plan!r}")
    memo[id(plan)] = result
    return result


def _scan(plan: Scan, db: ProbabilisticDatabase) -> _Result:
    atom = plan.atom
    table = db.table(atom.relation)
    if table.arity != atom.arity:
        raise ValueError(
            f"atom {atom} has arity {atom.arity} but table "
            f"{atom.relation} has arity {table.arity}"
        )
    var_positions: dict[Variable, int] = {}
    all_positions: dict[Variable, list[int]] = {}
    constant_checks: list[tuple[int, object]] = []
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_checks.append((i, term.value))
        else:
            all_positions.setdefault(term, []).append(i)
            var_positions.setdefault(term, i)
    repeat_groups = [ps for ps in all_positions.values() if len(ps) > 1]
    order = tuple(var_positions)
    keep = [var_positions[v] for v in order]
    rows: dict[tuple, float] = {}
    for row, p in table:
        if any(row[i] != value for i, value in constant_checks):
            continue
        if any(row[ps[0]] != row[q] for ps in repeat_groups for q in ps[1:]):
            continue
        rows[tuple(row[i] for i in keep)] = p
    return _Result(order, rows)


def _project(
    plan: Project, db: ProbabilisticDatabase, memo: dict[int, _Result]
) -> _Result:
    child = _evaluate(plan.child, db, memo)
    order = tuple(v for v in child.order if v in plan.head)
    keep = [child.order.index(v) for v in order]
    complements: dict[tuple, float] = {}
    for row, score in child.rows.items():
        key = tuple(row[i] for i in keep)
        complements[key] = complements.get(key, 1.0) * (1.0 - score)
    rows = {key: 1.0 - c for key, c in complements.items()}
    return _Result(order, rows)


def _join(
    plan: Join, db: ProbabilisticDatabase, memo: dict[int, _Result]
) -> _Result:
    results = [_evaluate(part, db, memo) for part in plan.parts]
    # Greedy order: start small, then always join a connected input when one
    # exists (avoids intermediate cross products in collapsed plans).
    remaining = sorted(results, key=lambda r: len(r.rows))
    current = remaining.pop(0)
    while remaining:
        bound = set(current.order)
        connected = [r for r in remaining if bound & set(r.order)]
        nxt = connected[0] if connected else remaining[0]
        remaining.remove(nxt)
        current = _hash_join(current, nxt)
    return current


def _hash_join(left: _Result, right: _Result) -> _Result:
    shared = [v for v in right.order if v in left.order]
    right_new = [v for v in right.order if v not in left.order]
    left_key = [left.order.index(v) for v in shared]
    right_key = [right.order.index(v) for v in shared]
    right_keep = [right.order.index(v) for v in right_new]

    index: dict[tuple, list[tuple[tuple, float]]] = {}
    for row, score in right.rows.items():
        key = tuple(row[i] for i in right_key)
        index.setdefault(key, []).append(
            (tuple(row[i] for i in right_keep), score)
        )

    order = left.order + tuple(right_new)
    rows: dict[tuple, float] = {}
    for row, score in left.rows.items():
        key = tuple(row[i] for i in left_key)
        for extension, right_score in index.get(key, ()):
            rows[row + extension] = score * right_score
    return _Result(order, rows)


def _min(
    plan: MinPlan, db: ProbabilisticDatabase, memo: dict[int, _Result]
) -> _Result:
    results = [_evaluate(part, db, memo) for part in plan.parts]
    base = results[0]
    rows = dict(base.rows)
    for other in results[1:]:
        if other.order == base.order:
            aligned = other.rows
        else:
            positions = [other.order.index(v) for v in base.order]
            aligned = {
                tuple(row[i] for i in positions): score
                for row, score in other.rows.items()
            }
        if aligned.keys() != rows.keys():
            raise ValueError(
                "min children produced different tuple sets; "
                "they must compute the same subquery"
            )
        for key, score in aligned.items():
            if score < rows[key]:
                rows[key] = score
    return _Result(base.order, rows)
