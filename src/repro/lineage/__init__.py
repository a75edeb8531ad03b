"""Lineage: provenance DNFs, exact model counting, sampling, bounds."""

from .bounds import (
    DissociatedFormula,
    dissociate_variable,
    dissociation_is_oblivious,
)
from .build import Lineage, lineage_of, lineage_sizes
from .exact import ExactEvaluator, exact_probability
from .formula import DNF
from .lower import (
    dissociated_lineage_by_plan,
    oblivious_lower_bounds,
    plan_lower_bounds,
    symmetric_lower_probability,
)
from .mc import monte_carlo_many, monte_carlo_probability

__all__ = [
    "DNF",
    "DissociatedFormula",
    "ExactEvaluator",
    "Lineage",
    "dissociate_variable",
    "dissociation_is_oblivious",
    "exact_probability",
    "lineage_of",
    "lineage_sizes",
    "dissociated_lineage_by_plan",
    "monte_carlo_many",
    "oblivious_lower_bounds",
    "plan_lower_bounds",
    "symmetric_lower_probability",
    "monte_carlo_probability",
]
