"""Oblivious *lower* bounds via dissociation (extension).

The VLDB 2015 paper evaluates only the upper-bound direction of
dissociation; its foundation — Gatterbauer & Suciu, "Oblivious bounds on
the probability of Boolean functions" (TODS 2014) — also gives lower
bounds: when a variable ``X`` with probability ``p`` dissociates into
``k`` copies in *disjunctive* position, assigning each copy

    ``p' = 1 − (1 − p)^{1/k}``

(the symmetric choice with ``∏(1 − p'_i) = 1 − p``) makes the dissociated
probability a **lower** bound: ``P(F'[p']) ≤ P(F) ≤ P(F'[p])``.

Lifted to queries: every minimal plan ``P`` of ``q`` determines the
dissociation ``∆_P``; replaying it on the lineage with copy-adjusted
probabilities yields per-answer lower bounds. The dissociated formula of a
*safe* dissociation is read-once, and the exact evaluator's component
split finds the same structure, so the evaluation stays cheap. Taking
the max over minimal plans and pairing it with the propagation score gives
certified intervals ``low ≤ P ≤ ρ`` for every answer —
:meth:`repro.engine.DissociationEngine.probability_bounds`.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..core.dissociation import dissociation_of_plan
from ..core.plans import Plan
from ..core.query import ConjunctiveQuery
from .build import Lineage
from .exact import ExactEvaluator
from .formula import DNF

__all__ = [
    "symmetric_lower_probability",
    "dissociated_lineage_by_plan",
    "plan_lower_bounds",
    "oblivious_lower_bounds",
]


def symmetric_lower_probability(p: float, copies: int) -> float:
    """The symmetric oblivious-lower-bound marginal ``1 − (1−p)^{1/k}``."""
    if copies < 1:
        raise ValueError("a variable has at least one copy")
    if copies == 1:
        return p
    if p >= 1.0:
        return 1.0
    return 1.0 - (1.0 - p) ** (1.0 / copies)


def dissociated_lineage_by_plan(
    lineage: Lineage,
    answer: tuple,
    plan: Plan,
) -> tuple[DNF, dict[Hashable, float]]:
    """Replay the plan's dissociation ``∆_P`` on one answer's lineage.

    Every tuple of a relation dissociated on variables ``Y`` splits into
    one copy per distinct value of ``θ(Y)`` among the clauses containing
    it; copies carry the lower-bound marginals of
    :func:`symmetric_lower_probability`. Requires the lineage to have been
    built with ``record_assignments=True``.
    """
    if answer not in lineage.assignments:
        raise ValueError(
            "lineage must be built with record_assignments=True"
        )
    delta = dissociation_of_plan(plan)
    extras = {rel: sorted(vs) for rel, vs in delta.extras.items()}
    formula = lineage.by_answer[answer]
    thetas = lineage.assignments[answer]

    # first pass: name the copies and count them per original variable
    copies_of: dict[Hashable, set] = {}
    copy_original: dict[Hashable, Hashable] = {}
    renamed_clauses: list[list[Hashable]] = []
    for clause, theta in zip(formula.clauses, thetas):
        renamed = []
        for ref in clause:
            relation = ref[0]
            if relation in extras:
                key = tuple(theta[v] for v in extras[relation])
                copy = (ref, key)
                copies_of.setdefault(ref, set()).add(copy)
                copy_original[copy] = ref
                renamed.append(copy)
            else:
                renamed.append(ref)
        renamed_clauses.append(renamed)

    adjusted: dict[Hashable, float] = {}
    for clause in renamed_clauses:
        for variable in clause:
            if variable in adjusted:
                continue
            original = copy_original.get(variable)
            if original is not None:
                adjusted[variable] = symmetric_lower_probability(
                    lineage.probabilities[original],
                    len(copies_of[original]),
                )
            else:
                adjusted[variable] = lineage.probabilities[variable]
    return DNF(renamed_clauses), adjusted


def plan_lower_bounds(
    lineage: Lineage,
    plan: Plan,
) -> dict[tuple, float]:
    """Per-answer lower bounds from one minimal plan's dissociation."""
    out: dict[tuple, float] = {}
    for answer in lineage.by_answer:
        formula, adjusted = dissociated_lineage_by_plan(lineage, answer, plan)
        out[answer] = ExactEvaluator(adjusted).probability(formula)
    return out


def oblivious_lower_bounds(
    query: ConjunctiveQuery,
    lineage: Lineage,
    plans: list[Plan],
) -> dict[tuple, float]:
    """The best (max) lower bound over all minimal plans, per answer."""
    best: dict[tuple, float] = {}
    for plan in plans:
        for answer, value in plan_lower_bounds(lineage, plan).items():
            if value > best.get(answer, -1.0):
                best[answer] = value
    return best
