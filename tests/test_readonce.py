"""Read-once lineages under the generic model counter.

A monotone formula is *read-once* when it factors into independent ands
and ors that read every variable once. Safe queries have read-once
lineages, and so do the dissociated formulas ``lineage/lower.py``
evaluates. There is no separate factorizer for them: the plain
:class:`~repro.lineage.ExactEvaluator` handles them, its component split
playing the independent-or and the expansion on the most frequent
variable the common factor. These tests pin that it is exact on
read-once shapes — against their closed forms, brute force, and safe
plans.
"""

import random

import pytest

from repro.lineage import DNF, exact_probability, lineage_of

from .test_formula import brute_force_probability


def _ior(*values: float) -> float:
    complement = 1.0
    for value in values:
        complement *= 1.0 - value
    return 1.0 - complement


def _random_read_once(rng: random.Random, variables: list, probs: dict):
    """A random read-once formula over ``variables``: its DNF clauses and
    its probability computed along the factor tree."""
    if len(variables) == 1:
        (v,) = variables
        return [[v]], probs[v]
    split = rng.randint(1, len(variables) - 1)
    left, p_left = _random_read_once(rng, variables[:split], probs)
    right, p_right = _random_read_once(rng, variables[split:], probs)
    if rng.random() < 0.5:
        return left + right, _ior(p_left, p_right)
    return [a + b for a in left for b in right], p_left * p_right


class TestPositiveCases:
    def test_single_variable(self):
        assert exact_probability(DNF([["a"]]), {"a": 0.3}) == 0.3

    def test_single_clause(self):
        probs = {"a": 0.5, "b": 0.3, "c": 0.8}
        value = exact_probability(DNF([["a", "b", "c"]]), probs)
        assert value == pytest.approx(0.5 * 0.3 * 0.8, abs=1e-15)

    def test_disjoint_or(self):
        probs = {"a": 0.5, "b": 0.3, "c": 0.8}
        value = exact_probability(DNF([["a", "b"], ["c"]]), probs)
        assert value == pytest.approx(_ior(0.5 * 0.3, 0.8), abs=1e-15)

    def test_common_factor(self):
        # x(y ∨ z) — the classic read-once shape
        probs = {"x": 0.5, "y": 0.3, "z": 0.8}
        value = exact_probability(DNF([["x", "y"], ["x", "z"]]), probs)
        assert value == pytest.approx(0.5 * _ior(0.3, 0.8), abs=1e-15)

    def test_and_of_ors(self):
        # (a ∨ b)(c ∨ d) expanded
        f = DNF([["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
        probs = {v: 0.4 for v in "abcd"}
        value = exact_probability(f, probs)
        assert value == pytest.approx(_ior(0.4, 0.4) ** 2, abs=1e-15)
        assert value == pytest.approx(brute_force_probability(f, probs), abs=1e-12)

    def test_nested_structure(self):
        # x(y ∨ z) ∨ w : or of independent parts
        probs = {"x": 0.5, "y": 0.3, "z": 0.8, "w": 0.1}
        value = exact_probability(DNF([["x", "y"], ["x", "z"], ["w"]]), probs)
        assert value == pytest.approx(
            _ior(0.5 * _ior(0.3, 0.8), 0.1), abs=1e-15
        )

    def test_absorption_applied_first(self):
        # xy ∨ x ≡ x
        assert exact_probability(DNF([["x", "y"], ["x"]]), {"x": 0.7, "y": 0.2}) == 0.7

    def test_hierarchical_query_lineage_is_read_once(self):
        # safe queries have read-once lineages on every instance
        from repro.core import parse_query, safe_plan
        from repro.db import ProbabilisticDatabase
        from repro.engine import plan_scores

        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.6)])
        db.add_table("S", [((1, 3), 0.2), ((1, 4), 0.9), ((2, 3), 0.4)])
        q = parse_query("q() :- R(x), S(x,y)")
        lineage = lineage_of(q, db)
        value = exact_probability(lineage.by_answer[()], lineage.probabilities)
        closed_form = _ior(0.5 * _ior(0.2, 0.9), 0.6 * 0.4)
        assert value == pytest.approx(closed_form, abs=1e-15)
        assert value == pytest.approx(plan_scores(safe_plan(q), q, db)[()], abs=1e-15)


class TestNegativeCases:
    def test_rst_lineage_not_read_once(self):
        # the canonical non-read-once formula: x1y1 ∨ y1x2 ∨ x2y2 (path P4)
        # — no factorization exists, the expansion alone must be exact
        f = DNF([["x1", "y1"], ["x2", "y1"], ["x2", "y2"]])
        probs = {"x1": 0.3, "y1": 0.6, "x2": 0.45, "y2": 0.8}
        assert exact_probability(f, probs) == pytest.approx(
            brute_force_probability(f, probs), abs=1e-12
        )


class TestSoundness:
    """On every read-once formula the counter matches the factor tree."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        variables = [f"v{i}" for i in range(rng.randint(2, 8))]
        rng.shuffle(variables)
        probs = {v: rng.random() for v in variables}
        clauses, closed_form = _random_read_once(rng, variables, probs)
        f = DNF(clauses)
        assert exact_probability(f, probs) == pytest.approx(closed_form, abs=1e-12)
        assert exact_probability(f, probs) == pytest.approx(
            brute_force_probability(f, probs), abs=1e-9
        )

    def test_safe_query_lineages_random(self):
        """On safe query lineages the exact probability matches the safe
        plan's score."""
        from repro.core import is_hierarchical, safe_plan
        from repro.engine import plan_scores

        from .helpers import random_database_for, random_query

        rng = random.Random(5)
        checked = 0
        for _ in range(80):
            q = random_query(rng, max_atoms=3, head_vars=0)
            if not is_hierarchical(q):
                continue
            db = random_database_for(q, rng, domain_size=2)
            lineage = lineage_of(q, db)
            if () not in lineage.by_answer:
                continue
            formula = lineage.by_answer[()]
            value = exact_probability(formula, lineage.probabilities)
            checked += 1
            score = plan_scores(safe_plan(q), q, db)[()]
            assert abs(value - score) < 1e-9
        assert checked > 10
