"""Tests for DNF formulas, exact probability, and Monte Carlo."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.lineage import (
    DNF,
    ExactEvaluator,
    exact_probability,
    monte_carlo_many,
    monte_carlo_probability,
)
from repro.lineage.exact import _condition


def brute_force_probability(formula: DNF, probs: dict) -> float:
    """Reference implementation: sum over all assignments."""
    variables = sorted(formula.variables(), key=repr)
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(variables)):
        world = {v for v, b in zip(variables, bits) if b}
        weight = 1.0
        for v, b in zip(variables, bits):
            weight *= probs[v] if b else 1.0 - probs[v]
        if formula.evaluate(world):
            total += weight
    return total


class TestDNF:
    def test_false_and_true(self):
        assert DNF().is_false()
        assert DNF([[]]).is_true_constant()

    def test_deduplication(self):
        f = DNF([["a", "b"], ["b", "a"], ["c"]])
        assert len(f) == 2

    def test_variables(self):
        assert DNF([["a", "b"], ["c"]]).variables() == {"a", "b", "c"}

    def test_absorb(self):
        f = DNF([["a", "b"], ["a"], ["c", "d"]]).absorb()
        assert set(f.clauses) == {frozenset(["a"]), frozenset(["c", "d"])}

    def test_condition_true(self):
        f = DNF([["a", "b"], ["c"]]).condition("a", True)
        assert set(f.clauses) == {frozenset(["b"]), frozenset(["c"])}

    def test_condition_false(self):
        f = DNF([["a", "b"], ["c"]]).condition("a", False)
        assert set(f.clauses) == {frozenset(["c"])}

    def test_evaluate(self):
        f = DNF([["a", "b"], ["c"]])
        assert f.evaluate({"a", "b"})
        assert f.evaluate({"c"})
        assert not f.evaluate({"a"})

    def test_or(self):
        f = DNF([["a"]]).or_(DNF([["b"]]))
        assert len(f) == 2


class TestExactProbability:
    def test_example_7(self):
        # F = XY ∨ XZ: P = pq + pr − pqr
        probs = {"X": 0.5, "Y": 0.3, "Z": 0.8}
        f = DNF([["X", "Y"], ["X", "Z"]])
        p, q, r = probs["X"], probs["Y"], probs["Z"]
        assert abs(exact_probability(f, probs) - (p * q + p * r - p * q * r)) < 1e-12

    def test_false_formula(self):
        assert exact_probability(DNF(), {}) == 0.0

    def test_true_formula(self):
        assert exact_probability(DNF([[]]), {}) == 1.0

    def test_single_variable(self):
        assert exact_probability(DNF([["a"]]), {"a": 0.25}) == 0.25

    def test_certain_variable_stripped(self):
        f = DNF([["a", "b"]])
        assert exact_probability(f, {"a": 1.0, "b": 0.5}) == 0.5

    def test_impossible_variable_kills_clause(self):
        f = DNF([["a", "b"], ["c"]])
        assert (
            exact_probability(f, {"a": 0.0, "b": 0.5, "c": 0.25}) == 0.25
        )

    def test_independent_clauses(self):
        f = DNF([["a"], ["b"]])
        probs = {"a": 0.5, "b": 0.5}
        assert abs(exact_probability(f, probs) - 0.75) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(2, 7)
        variables = [f"v{i}" for i in range(n_vars)]
        probs = {v: rng.random() for v in variables}
        clauses = [
            rng.sample(variables, rng.randint(1, min(3, n_vars)))
            for _ in range(rng.randint(1, 6))
        ]
        f = DNF(clauses)
        expected = brute_force_probability(f, probs)
        assert abs(exact_probability(f, probs) - expected) < 1e-9

    @pytest.mark.parametrize("components", [False])
    @pytest.mark.parametrize("memo", [False, True])
    def test_ablations_agree(self, components, memo):
        rng = random.Random(99)
        variables = [f"v{i}" for i in range(8)]
        probs = {v: rng.random() for v in variables}
        clauses = [rng.sample(variables, 2) for _ in range(8)]
        f = DNF(clauses)
        full = exact_probability(f, probs)
        ablated = exact_probability(
            f, probs, use_components=components, use_memo=memo
        )
        assert abs(full - ablated) < 1e-9

    def test_evaluator_memo_shared_across_formulas(self):
        probs = {"a": 0.5, "b": 0.5, "c": 0.5}
        ev = ExactEvaluator(probs)
        f1 = DNF([["a", "b"], ["b", "c"]])
        f2 = DNF([["a", "b"], ["b", "c"], ["a", "c"]])
        ev.probability(f1)
        memo_before = len(ev._memo)
        ev.probability(f2)
        assert len(ev._memo) >= memo_before


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 6),
    st.booleans(),
)
def test_condition_equals_absorbed_naive_cofactor(clauses, variable, value):
    """The cofactor tests only the pairs that can absorb, and still
    yields the absorbed naive cofactor of an absorbed DNF."""
    formula = DNF(clauses).absorb()
    want = formula.condition(variable, value).absorb()
    got = _condition(frozenset(formula.clauses), variable, value)
    assert got == frozenset(want.clauses)


class TestMonteCarlo:
    def test_converges_to_exact(self):
        rng = random.Random(7)
        variables = [f"v{i}" for i in range(6)]
        probs = {v: rng.random() for v in variables}
        clauses = [rng.sample(variables, 2) for _ in range(5)]
        f = DNF(clauses)
        exact = exact_probability(f, probs)
        estimate = monte_carlo_probability(f, probs, 60_000, seed=1)
        assert abs(estimate - exact) < 0.02

    def test_deterministic_given_seed(self):
        f = DNF([["a", "b"]])
        probs = {"a": 0.5, "b": 0.5}
        e1 = monte_carlo_probability(f, probs, 1000, seed=5)
        e2 = monte_carlo_probability(f, probs, 1000, seed=5)
        assert e1 == e2

    def test_true_and_false_formulas(self):
        assert monte_carlo_probability(DNF([[]]), {}, 10, seed=0) == 1.0
        assert monte_carlo_probability(DNF(), {}, 10, seed=0) == 0.0

    def test_many_shares_worlds(self):
        probs = {"a": 0.5}
        estimates = monte_carlo_many(
            [DNF([["a"]]), DNF([["a"]])], probs, 500, seed=3
        )
        assert estimates[0] == estimates[1]

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_probability(DNF([["a"]]), {"a": 0.5}, 0)
