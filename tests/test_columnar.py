"""Equivalence tests for the columnar vectorized engine (PR 1).

The vectorized evaluator in :mod:`repro.engine.extensional` must return
scores equal (within 1e-12) to the preserved seed row-at-a-time
implementation (:mod:`repro.engine.reference`) on randomized instances,
for every plan and for every engine optimization combination, and the
memory and sqlite backends must agree. Also covers the
:class:`EvaluationCache` lifecycle: structural (cross-object) plan hits,
cross-query reuse, and invalidation when the database mutates.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import Atom, Project, Variable, Scan, parse_query
from repro.core.minplans import minimal_plans
from repro.core.singleplan import single_plan
from repro.db import ProbabilisticDatabase
from repro.engine import (
    DissociationEngine,
    EvaluationCache,
    Scope,
    evaluate_plan,
    plan_scores,
    plan_scores_reference,
)

from .helpers import (
    assert_backends_agree,
    random_database_for,
    random_query,
)

TOLERANCE = 1e-12


def _assert_equal_scores(left: dict, right: dict, context: str) -> None:
    assert set(left) == set(right), context
    for answer in left:
        assert abs(left[answer] - right[answer]) <= TOLERANCE, (
            f"{context}: {answer}: {left[answer]} != {right[answer]}"
        )


class TestVectorizedEquivalence:
    def test_per_plan_scores_match_reference(self):
        rng = random.Random(101)
        for trial in range(40):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=3)
            for plan in minimal_plans(q):
                want = plan_scores_reference(plan, q, db)
                got = plan_scores(plan, q, db)
                _assert_equal_scores(got, want, f"trial {trial}: {q}")

    def test_single_plan_scores_match_reference(self):
        rng = random.Random(102)
        for trial in range(40):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=3)
            merged = single_plan(q)
            want = plan_scores_reference(merged, q, db)
            got = plan_scores(merged, q, db)
            _assert_equal_scores(got, want, f"trial {trial}: {q}")

    def test_all_backends_agree_for_all_optimization_combos(self):
        # the differential harness: reference vs columnar vs SQLite
        # under every Optimizations combination, persistent engines
        rng = random.Random(103)
        for _ in range(12):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=2)
            assert_backends_agree(q, db)


class TestEvaluationCache:
    def test_structural_hits_across_distinct_plan_objects(self):
        x, y = Variable("x"), Variable("y")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.5), ((1, 3), 0.25)])
        cache = EvaluationCache(db)
        first = evaluate_plan(Scan(Atom("R", (x, y))), db, cache=cache)
        # a structurally equal but distinct plan object must hit the cache
        before = len(cache._plans)
        second = evaluate_plan(Scan(Atom("R", (x, y))), db, cache=cache)
        assert first == second
        assert len(cache._plans) == before

    def test_cross_query_reuse_in_engine(self):
        rng = random.Random(105)
        q = random_query(rng, max_atoms=3, head_vars=1)
        db = random_database_for(q, rng, domain_size=3)
        engine = DissociationEngine(db)
        first = engine.propagation_score(q)
        assert engine.memory_executor.cache is not None
        cached_plans = len(engine.memory_executor.cache._plans)
        assert cached_plans > 0
        second = engine.propagation_score(q)
        _assert_equal_scores(first, second, "repeat evaluation")

    def test_cache_invalidated_when_database_mutates(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        q = parse_query("q(x) :- R(x)")
        engine = DissociationEngine(db)
        assert engine.propagation_score(q) == {(1,): 0.5}
        db.insert("R", (2,), 0.25)
        assert engine.propagation_score(q) == {(1,): 0.5, (2,): 0.25}

    def test_cache_rejects_foreign_database(self):
        x = Variable("x")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        other = ProbabilisticDatabase()
        other.add_table("R", [((1,), 0.5)])
        cache = EvaluationCache(db)
        with pytest.raises(ValueError):
            evaluate_plan(Scan(Atom("R", (x,))), other, cache=cache)

    def test_a_scope_shares_encodings_but_not_results(self):
        x, y = Variable("x"), Variable("y")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.5)])
        cache = EvaluationCache(db)
        scan = Scan(Atom("R", (x, y)))
        evaluate_plan(scan, db, cache=cache)
        encoded = cache.encoded_table("R")
        stats = cache.cache_stats()
        memo: dict = {}
        evaluate_plan(scan, db, cache=cache, scope=Scope(memo, {}))
        assert cache.encoded_table("R") is encoded
        assert list(memo) == [scan]
        assert cache.cache_stats() == stats  # untouched by the scope

    def test_a_scope_masks_its_scans_with_or_without_a_memo(self):
        x, y = Variable("x"), Variable("y")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.5), ((3, 4), 0.25)])
        cache = EvaluationCache(db)
        scan = Scan(Atom("R", (x, y)))
        masks = {"R": np.array([False, True])}
        for memo in ({}, None):
            scope = Scope(memo, masks)
            assert evaluate_plan(scan, db, cache=cache, scope=scope) == {
                (3, 4): 0.25
            }
        assert len(evaluate_plan(scan, db, cache=cache)) == 2


class TestProjection:
    def test_singleton_group_keeps_its_score(self):
        # 1 − (1 − 0.1) rounds to 0.09999999999999998: a one-member
        # group scores its row whether or not another group has
        # duplicates, so removing other groups' rows cannot move it
        x, y = Variable("x"), Variable("y")
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 1), 0.1), ((2, 1), 0.5), ((2, 2), 0.5)])
        scores = evaluate_plan(Project([x], Scan(Atom("R", (x, y)))), db)
        assert scores == {(1,): 0.1, (2,): 0.75}
