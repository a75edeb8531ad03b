"""Evaluation backends: in-memory extensional, SQL compilation, engine."""

from .evaluator import DissociationEngine, EvaluationResult, Optimizations
from .extensional import (
    EvaluationCache,
    Scope,
    deterministic_answers,
    evaluate_plan,
    plan_scores,
    plan_scores_min_combined,
)
from .reference import evaluate_plan_reference, plan_scores_reference
from .semijoin import reduced_name, semijoin_masks, semijoin_statements
from .sql import (
    SQLCompiler,
    StatementScope,
    deterministic_sql,
    lineage_sql,
    subplan_reference_counts,
)
from .stats import (
    DEFAULT_WRITE_FACTOR,
    MaterializationPolicy,
    SQLiteStatisticsCatalog,
    estimate_plan,
    greedy_order,
)

__all__ = [
    "DEFAULT_WRITE_FACTOR",
    "DissociationEngine",
    "EvaluationCache",
    "EvaluationResult",
    "MaterializationPolicy",
    "Optimizations",
    "SQLCompiler",
    "SQLiteStatisticsCatalog",
    "Scope",
    "StatementScope",
    "deterministic_answers",
    "deterministic_sql",
    "estimate_plan",
    "evaluate_plan",
    "evaluate_plan_reference",
    "greedy_order",
    "lineage_sql",
    "plan_scores",
    "plan_scores_min_combined",
    "plan_scores_reference",
    "reduced_name",
    "semijoin_masks",
    "semijoin_statements",
    "subplan_reference_counts",
]
