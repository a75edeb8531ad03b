"""The statistics catalog, the cost model, and cost-based planning.

Covers the :mod:`repro.engine.stats` units (column summaries, MCV
sketches, per-table epoch tokens, the join order, the Algorithm-3
materialization policy), ``engine.explain()``'s
estimated-vs-actual reporting, and seeded hypothesis property tests
asserting that the memory fold's join order cannot change a score: a
random connected order gives **bit-identical** scores across all eight
optimization combinations on random chain and star workloads.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig
from repro.core import Variable, parse_query
from repro.core.plans import Join, Project, Scan
from repro.db import ProbabilisticDatabase, SQLiteBackend
from repro.engine import DissociationEngine, Optimizations, extensional
from repro.engine.stats import (
    JoinProfile,
    MaterializationPolicy,
    PlanEstimate,
    SQLiteStatisticsCatalog,
    estimate_plan,
    greedy_order,
    join_profile,
    scan_profile,
)

from .helpers import ALL_OPTIMIZATION_COMBOS


def _db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_table(
        "R",
        [((1, 10), 0.5), ((1, 20), 0.5), ((2, 10), 0.5), ((3, 30), 0.5)],
    )
    db.add_table("S", [((10, 7), 0.5), ((20, 7), 0.5)])
    return db


@pytest.fixture
def backend():
    backend = SQLiteBackend(_db())
    yield backend
    backend.close()


class TestStatisticsCatalog:
    def test_table_stats_summary(self, backend):
        stats = SQLiteStatisticsCatalog(backend).table_stats("R")
        assert stats.rows == 4
        assert stats.columns[0].distinct == 3  # values 1, 2, 3
        assert stats.columns[1].distinct == 3  # values 10, 20, 30
        # value 1 appears twice in column 0 and leads the MCV sketch
        assert stats.columns[0].mcv[0] == (1, 2)
        assert stats.columns[0].frequency(1) == 2.0

    def test_stats_cached_while_table_unchanged(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        first = catalog.table_stats("R", backend.table_epoch("R"))
        assert catalog.table_stats("R", backend.table_epoch("R")) is first
        assert catalog.recomputations == 1

    def test_mutation_invalidates_only_the_mutated_table(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)

        def stats(name):
            return catalog.table_stats(name, backend.table_epoch(name))

        stats_r, stats_s = stats("R"), stats("S")
        backend.source.insert("R", (4, 40), 0.5)
        backend.refresh()  # only R's epoch moved
        new_r = stats("R")
        assert new_r is not stats_r
        assert new_r.rows == 5
        assert new_r.columns[0].distinct == 4
        # S was untouched: its summary survives the incremental refresh
        assert stats("S") is stats_s


class TestCardinalityModel:
    def test_scan_profile_constant_uses_mcv(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        q = parse_query("q(y) :- R(1, y)")
        profile = scan_profile(q.atoms[0], catalog.table_stats("R"))
        assert profile.rows == pytest.approx(2.0)  # exact MCV count

    def test_scan_profile_unseen_constant_is_empty(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        q = parse_query("q(y) :- R(99, y)")
        profile = scan_profile(q.atoms[0], catalog.table_stats("R"))
        # the column fits its sketch: no rows are left for other values
        assert profile.rows == 0.0

    def test_scan_profile_repeated_variable_pessimistic_cap(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        q = parse_query("q(x) :- R(x, x)")
        profile = scan_profile(q.atoms[0], catalog.table_stats("R"))
        # divided by the larger distinct count of the two positions
        assert profile.rows == pytest.approx(4 / 3)

    def test_join_profile_containment(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        left = JoinProfile(100.0, {x: 10.0, y: 50.0})
        right = JoinProfile(30.0, {y: 25.0, z: 30.0})
        joined = join_profile(left, right)
        assert joined.rows == pytest.approx(100 * 30 / 50)
        assert joined.distinct[y] == pytest.approx(25.0)
        assert joined.distinct[x] == pytest.approx(10.0)


class TestGreedyOrder:
    def test_avoids_cross_products_when_connected(self):
        x, y = Variable("x"), Variable("y")
        order = greedy_order([10.0, 10.0, 10.0], [{x}, {y}, {x, y}])
        # whichever side starts, the second input must connect to it
        assert 2 in order[:2]


class TestExplain:
    def test_every_join_reports_estimated_and_actual(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(4)
        db = chain_database(4, 50, seed=2, p_max=0.5)
        engine = DissociationEngine(db)
        report = engine.explain(
            q, Optimizations(single_plan=False, reuse_views=True)
        )
        assert report["plan_count"] == len(engine.minimal_plans(q))
        assert len(report["plans"]) == report["plan_count"]
        total_joins = 0
        for entry in report["plans"]:
            for join in entry["joins"]:
                total_joins += 1
                assert join["steps"], "every join folds at least once"
                for step in join["steps"]:
                    assert step["estimated_rows"] >= 0.0
                    assert isinstance(step["actual_rows"], int)
        assert total_joins > 0
        # every executed join node of every plan is covered
        for entry, plan in zip(
            report["plans"],
            engine.minimal_plans(q),
        ):
            joins_in_plan = {
                str(node)
                for node in plan.walk()
                if isinstance(node, Join)
            }
            assert {j["join"] for j in entry["joins"]} == joins_in_plan

    def test_explain_estimates_match_actuals_on_uniform_data(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(3)
        db = chain_database(3, 200, seed=7, p_max=0.5)
        report = DissociationEngine(db).explain(q)
        for entry in report["plans"]:
            for join in entry["joins"]:
                for step in join["steps"]:
                    if step["actual_rows"] == 0:
                        continue
                    ratio = step["estimated_rows"] / step["actual_rows"]
                    assert 0.2 <= ratio <= 5.0, (
                        "estimates should track actuals on uniform data"
                    )

    def test_sqlite_explain_includes_materialization_analysis(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(4)
        db = chain_database(4, 30, seed=3, p_max=0.5)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        report = engine.explain(
            q, Optimizations(single_plan=False, reuse_views=True)
        )
        decisions = report["materialization"]
        assert decisions, "chain plans share subplans"
        shared = [d for d in decisions if d["references"] >= 2]
        one_shot = [d for d in decisions if d["references"] == 1]
        assert shared and one_shot
        assert all(d["materialize"] for d in shared)
        assert all(
            d["estimated_cost"] >= 0.0 and d["estimated_rows"] >= 0.0
            for d in decisions
        )


class TestMaterializationPolicy:
    FREE = Project(
        [Variable("x")], Scan(parse_query("q(x) :- R(x, y)").atoms[0])
    )
    SELECTIVE = Project(
        [Variable("y")], Scan(parse_query("q(y) :- R(1, y)").atoms[0])
    )

    def test_single_reference_never_materializes(self):
        policy = MaterializationPolicy()
        assert not policy.should_materialize(self.FREE, 1, 0)

    def test_shared_reference_materializes_without_estimator(self):
        policy = MaterializationPolicy()
        assert policy.should_materialize(self.FREE, 2, 0)

    def test_prior_request_promotes_one_shot(self):
        policy = MaterializationPolicy()
        assert policy.should_materialize(self.FREE, 1, 1)

    def test_cost_gate_declines_cheap_subplans(self):
        cheap = PlanEstimate(rows=100.0, cost=100.0, profile=None)
        policy = MaterializationPolicy(
            estimator=lambda node: cheap, write_factor=2.0
        )
        # saving one evaluation (cost 100) does not beat writing 100 rows
        assert not policy.should_materialize(self.FREE, 2, 0)
        # three references save 200 ≥ 2 × 100
        assert policy.should_materialize(self.FREE, 3, 0)

    def test_a_selective_subplan_never_materializes(self):
        def unpriced(node):
            raise AssertionError("a selective subplan needs no estimate")

        for estimator in (None, unpriced):
            policy = MaterializationPolicy(estimator, write_factor=0.0)
            for references, prior in ((1, 0), (2, 0), (1, 1), (50, 9)):
                assert not policy.should_materialize(
                    self.SELECTIVE, references, prior
                )


@contextlib.contextmanager
def _scrambled_fold(seed: int):
    """Patch the memory fold's order function to a seeded random order.

    Each join takes a connected input whenever one is left, as
    ``greedy_order`` does, so no test pays a cross product. It never
    gets the order the fold would pick when another connected one
    exists. Yields a list that counts the joins whose order moved.
    """
    rng = random.Random(seed)
    usual = extensional._fold_order
    moved: list[int] = []

    def random_connected(results) -> list[int]:
        varsets = [frozenset(r.order) for r in results]
        rest = list(range(len(results)))
        order = [rest.pop(rng.randrange(len(rest)))]
        bound = set(varsets[order[0]])
        while rest:
            pick = rng.choice([i for i in rest if bound & varsets[i]] or rest)
            rest.remove(pick)
            order.append(pick)
            bound |= varsets[pick]
        return order

    def scrambled(results) -> list[int]:
        default = usual(results)
        for _ in range(8):
            order = random_connected(results)
            if order != default:
                moved.append(1)
                return order
        return default

    with mock.patch.object(extensional, "_fold_order", scrambled):
        yield moved


class TestDifferentialOrdering:
    """The memory fold's join order cannot change a score.

    Respelled-query reuse and memory/SQLite agreement rest on this:
    joins multiply part scores in canonical part order and projections
    combine group members in canonical row order. Each test runs an
    engine under :func:`_scrambled_fold` and asserts ``==`` against an
    unpatched one.
    """

    @staticmethod
    def _assert_schedule_free(q, db, seed):
        plain = DissociationEngine(db)
        want = [plain.propagation_score(q, o) for o in ALL_OPTIMIZATION_COMBOS]
        with _scrambled_fold(seed) as moved:
            engine = DissociationEngine(db)
            for opts, scores in zip(ALL_OPTIMIZATION_COMBOS, want):
                assert engine.propagation_score(q, opts) == scores, opts
        assert moved, "no join ran in another order"

    @given(
        k=st.integers(2, 4),
        n=st.integers(5, 30),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_chain_workloads_bit_identical(self, k, n, seed):
        from repro.workloads import chain_database, chain_query

        db = chain_database(k, n, seed=seed, p_max=0.6)
        self._assert_schedule_free(chain_query(k), db, seed)

    @given(
        k=st.integers(1, 3),
        n=st.integers(5, 25),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_star_workloads_bit_identical(self, k, n, seed):
        from repro.workloads import star_database, star_query

        db = star_database(k, n, seed=seed, p_max=0.6)
        self._assert_schedule_free(star_query(k), db, seed)

    @given(
        k=st.integers(3, 5),
        n=st.integers(5, 25),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_wide_join_workloads_bit_identical(self, k, n, seed):
        # chains and stars join two parts at a time, where the product
        # commutes exactly; a (k+1)-part join is where the order shows
        arms = ", ".join(f"R{i}(x,y{i})" for i in range(k))
        q = parse_query(f"q(z) :- {arms}, S(x,z)")
        rng = random.Random(seed)
        db = ProbabilisticDatabase()
        for atom in q.atoms:
            rows = {(rng.randrange(6), rng.randrange(4)) for _ in range(n)}
            db.add_table(atom.relation, [(r, rng.uniform(0.05, 0.95)) for r in rows])
        self._assert_schedule_free(q, db, seed)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_score_per_plan_shares_ordering_decisions(self, seed):
        from repro.workloads import chain_database, chain_query

        q = chain_query(3)
        db = chain_database(3, 20, seed=seed, p_max=0.6)
        plain = DissociationEngine(db)
        want = [plain.score_per_plan(q, semijoin=s) for s in (False, True)]
        with _scrambled_fold(seed) as moved:
            engine = DissociationEngine(db)
            got = [engine.score_per_plan(q, semijoin=s) for s in (False, True)]
        assert got == want
        assert moved, "no join ran in another order"


class TestEstimatePlan:
    def test_plan_estimate_is_finite_and_positive(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(4)
        db = chain_database(4, 40, seed=9, p_max=0.5)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        estimator = engine.sqlite_executor.plan_estimator()
        for plan in engine.minimal_plans(q):
            estimate = estimator(plan)
            assert np.isfinite(estimate.rows) and estimate.rows >= 0
            assert np.isfinite(estimate.cost) and estimate.cost > 0
            # cost dominates output size: computing a subtree reads at
            # least what it emits
            assert estimate.cost >= estimate.rows
        engine.release()

    def test_scan_estimate_matches_table(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        q = parse_query("q(x, y) :- R(x, y)")
        scan = Scan(q.atoms[0])
        estimate = estimate_plan(scan, catalog.table_stats)
        assert estimate.rows == 4.0


class TestSQLiteStatisticsCatalog:
    """The pure-SQL statistics path: no in-RAM encodings for sqlite-only
    deployments, and token-keyed invalidation."""

    def test_identity_code_of_prices_constants(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        q = parse_query("q(y) :- R(1, y)")
        profile = scan_profile(q.atoms[0], catalog.table_stats("R"))
        # value 1 occurs twice among four rows
        assert profile.rows == pytest.approx(2.0)

    def test_token_keyed_invalidation(self, backend):
        catalog = SQLiteStatisticsCatalog(backend)
        first = catalog.table_stats("R", token="a")
        assert catalog.table_stats("R", token="a") is first  # cached
        assert catalog.recomputations == 1
        second = catalog.table_stats("R", token="b")  # token moved
        assert catalog.recomputations == 2
        assert second.rows == first.rows

    def test_sqlite_evaluation_builds_no_ram_encodings(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(3)
        db = chain_database(3, 40, seed=22, p_max=0.5)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        engine.propagation_score(
            q, Optimizations(single_plan=False, reuse_views=True)
        )
        engine.propagation_score(q, Optimizations())
        # pricing went through SQL aggregates: the memory-side cache
        # (and with it the encoded copies of every table) was never built
        assert engine.memory_executor.cache is None


class TestReducedTableStatistics:
    """Semi-join evaluation over a selective reduction stays correct."""

    def _selective_db(self):
        db = ProbabilisticDatabase()
        # R is large but only one tuple of R survives the semi-join with S
        db.add_table(
            "R", [((i, i + 1000), 0.5) for i in range(200)]
        )
        db.add_table("S", [((1000, 5), 0.5)])
        return db

    def test_semijoin_evaluation_still_correct(self):
        db = self._selective_db()
        q = parse_query("q() :- R(x, y), S(y, z)")
        for opts in (
            Optimizations.all(),
            Optimizations(single_plan=False, reuse_views=True, semijoin=True),
        ):
            got = DissociationEngine(db, EngineConfig(backend="sqlite")).propagation_score(
                q, opts
            )
            want = DissociationEngine(db).propagation_score(q, opts)
            assert set(got) == set(want)
            for answer in want:
                assert got[answer] == pytest.approx(want[answer], abs=1e-12)


class TestWriteFactorCalibration:
    """Satellite: the materialization gate's write factor is measured,
    not baked in."""

    def test_measure_write_factor_in_clamp_range(self):
        from repro.db import SQLiteBackend

        db = _db()
        backend = SQLiteBackend(db)
        factor = backend.measure_write_factor(sample_rows=512, repeats=2)
        assert 0.5 <= factor <= 16.0
        backend.close()

    def test_engine_calibration_installs_the_factor(self):
        from repro.workloads import chain_database

        db = chain_database(3, 20, seed=23, p_max=0.5)
        engine = DissociationEngine(db, EngineConfig(backend="sqlite"))
        assert engine.write_factor is None
        factor = engine.calibrate_write_factor(sample_rows=512, repeats=2)
        assert engine.write_factor == factor
        assert 0.5 <= factor <= 16.0

    def test_memory_backend_cannot_calibrate(self):
        db = _db()
        with pytest.raises(ValueError):
            DissociationEngine(db).calibrate_write_factor()

    def test_write_factor_steers_the_policy(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(5)
        db = chain_database(5, 40, seed=24, p_max=0.5)
        all_plans = Optimizations(single_plan=False, reuse_views=True)
        stingy = DissociationEngine(
            db, EngineConfig(backend="sqlite", write_factor=1e12)
        )
        stingy.propagation_score(q, all_plans)
        assert stingy.cache_stats()["misses"] == 0  # nothing materialized
        eager = DissociationEngine(db, EngineConfig(backend="sqlite", write_factor=0.0))
        eager.propagation_score(q, all_plans)
        assert eager.cache_stats()["misses"] > 0  # every shared subplan

    def test_explain_reports_the_write_factor_in_force(self):
        from repro.workloads import chain_database, chain_query

        q = chain_query(4)
        db = chain_database(4, 30, seed=3, p_max=0.5)
        all_plans = Optimizations(single_plan=False, reuse_views=True)
        for factor in (0.0, 1000.0):
            engine = DissociationEngine(
                db, EngineConfig(backend="sqlite", write_factor=factor)
            )
            nodes, stack = {}, list(engine.minimal_plans(q))
            while stack:
                node = stack.pop()
                nodes[str(node)] = node
                stack.extend(node.children())
            engine.propagation_score(q, all_plans)  # a request history
            decisions = engine.explain(q, all_plans)["materialization"]
            assert any(d["references"] >= 2 for d in decisions)
            engine.propagation_score(q, all_plans)
            registry = engine.sqlite.view_registry
            for decision in decisions:
                made = nodes[decision["subplan"]] in registry
                assert decision["materialize"] == made, (factor, decision)
