"""Tests for the in-memory extensional plan evaluator."""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig
from repro.core import Atom, Constant, Join, MinPlan, Project, Scan, Variable, parse_query
from repro.db import ProbabilisticDatabase
from repro.db.generators import random_table_rows, uniform_probabilities
from repro.engine import (
    DissociationEngine,
    deterministic_answers,
    evaluate_plan,
    extensional,
    plan_scores,
)
from repro.workloads import chain_database

from .helpers import (
    ALL_OPTIMIZATION_COMBOS,
    random_database_for,
    random_query,
    reference_scores,
)

x, y = Variable("x"), Variable("y")


class TestScan:
    def test_basic(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.3), ((2,), 0.6)])
        scores = evaluate_plan(Scan(Atom("R", (x,))), db)
        assert scores == {(1,): 0.3, (2,): 0.6}

    def test_constant_filter(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [(("a", 1), 0.3), (("b", 2), 0.6)])
        scores = evaluate_plan(Scan(Atom("R", (Constant("a"), x))), db)
        assert scores == {(1,): 0.3}

    def test_repeated_variable_filter(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 1), 0.3), ((1, 2), 0.6)])
        scores = evaluate_plan(Scan(Atom("R", (x, x))), db)
        assert scores == {(1,): 0.3}


class TestJoin:
    def test_scores_multiply(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((1, 2), 0.4)])
        plan = Join([Scan(Atom("R", (x,))), Scan(Atom("S", (x, y)))])
        scores = evaluate_plan(plan, db)
        assert scores == {(1, 2): 0.2}

    def test_no_match_empty(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((9, 2), 0.4)])
        plan = Join([Scan(Atom("R", (x,))), Scan(Atom("S", (x, y)))])
        assert evaluate_plan(plan, db) == {}

    def test_cross_product(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        db.add_table("S", [((2,), 0.4)])
        plan = Join([Scan(Atom("R", (x,))), Scan(Atom("S", (y,)))])
        scores = evaluate_plan(plan, db, output_order=(x, y))
        assert scores == {(1, 2): 0.2}


class TestProject:
    def test_independent_or(self):
        db = ProbabilisticDatabase()
        db.add_table("S", [((1, 4), 0.5), ((1, 5), 0.5), ((2, 4), 0.3)])
        plan = Project([x], Scan(Atom("S", (x, y))))
        scores = evaluate_plan(plan, db)
        assert abs(scores[(1,)] - 0.75) < 1e-12
        assert abs(scores[(2,)] - 0.3) < 1e-12

    def test_boolean_projection(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5), ((2,), 0.5)])
        plan = Project([], Scan(Atom("R", (x,))))
        assert abs(evaluate_plan(plan, db)[()] - 0.75) < 1e-12


class TestMin:
    def test_per_tuple_minimum(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 4), 0.9), ((1, 5), 0.1)])
        a = Project([x], Scan(Atom("R", (x, y))))
        # identical subplans: min degenerates but exercises alignment
        plan = MinPlan([a, Project([x], Scan(Atom("R", (x, y))))])
        scores = evaluate_plan(plan, db)
        assert abs(scores[(1,)] - (1 - 0.1 * 0.9)) < 1e-12

    def test_aligned_reorder_branch(self):
        # children with *different column orders*: Scan(R(x,y)) produces
        # order (x, y) while Scan(R(y,x)) produces (y, x); on a symmetric
        # instance they compute the same tuple set, so min must realign
        # the second child before comparing scores.
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.3), ((2, 1), 0.8)])
        plan = MinPlan([Scan(Atom("R", (x, y))), Scan(Atom("R", (y, x)))])
        scores = evaluate_plan(plan, db, output_order=(x, y))
        # (1,2): min(base 0.3, aligned-from-(2,1) 0.8) = 0.3
        # (2,1): min(base 0.8, aligned-from-(1,2) 0.3) = 0.3
        assert scores == {(1, 2): 0.3, (2, 1): 0.3}

    def test_mismatched_tuple_sets_raise_value_error(self):
        # an asymmetric instance: Scan(R(y,x)) aligned back to (x, y)
        # yields {(2,1)} while the base child yields {(1,2)}
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.3)])
        plan = MinPlan([Scan(Atom("R", (x, y))), Scan(Atom("R", (y, x)))])
        with pytest.raises(ValueError, match="different tuple sets"):
            evaluate_plan(plan, db)

    def test_mismatched_row_counts_raise_value_error(self):
        # π_x R(x,y) dedupes to one row while π_x R(y,x) keeps two, so the
        # children disagree already on row *count* (not just tuple values)
        db = ProbabilisticDatabase()
        db.add_table("R", [((1, 2), 0.3), ((1, 3), 0.4)])
        plan = MinPlan(
            [
                Project([x], Scan(Atom("R", (x, y)))),
                Project([x], Scan(Atom("R", (y, x)))),
            ]
        )
        with pytest.raises(ValueError, match="different tuple sets"):
            evaluate_plan(plan, db)


class TestOutputOrder:
    def test_head_order_respected(self):
        db = ProbabilisticDatabase()
        db.add_table("S", [((1, 2), 0.4)])
        q = parse_query("q(y, x) :- S(x, y)")
        scores = plan_scores(Scan(Atom("S", (x, y))), q, db)
        assert scores == {(2, 1): 0.4}

    def test_mismatched_order_rejected(self):
        db = ProbabilisticDatabase()
        db.add_table("R", [((1,), 0.5)])
        with pytest.raises(ValueError):
            evaluate_plan(Scan(Atom("R", (x,))), db, output_order=(y,))


class TestAgainstAnswers:
    def test_plans_return_exactly_the_answers(self):
        rng = random.Random(50)
        from repro.core import minimal_plans

        for _ in range(30):
            q = random_query(rng, head_vars=rng.randint(0, 2))
            db = random_database_for(q, rng, domain_size=2)
            answers = deterministic_answers(q, db)
            for plan in minimal_plans(q):
                scores = plan_scores(plan, q, db)
                assert set(scores) == answers, str(q)

    def test_scores_are_probabilities(self):
        rng = random.Random(51)
        from repro.core import minimal_plans

        for _ in range(20):
            q = random_query(rng, head_vars=1)
            db = random_database_for(q, rng, domain_size=2)
            for plan in minimal_plans(q):
                for score in plan_scores(plan, q, db).values():
                    assert -1e-12 <= score <= 1.0 + 1e-12


def _chain_text(constants: dict, k: int = 3) -> str:
    """A k-chain whose term at ``(relation index, position)`` is replaced
    by the constant ``constants`` maps it to; head ``x{k}``."""
    atoms = []
    for i in range(1, k + 1):
        terms = [
            repr(constants[(i, p)]) if (i, p) in constants else f"x{i - 1 + p}"
            for p in (0, 1)
        ]
        atoms.append(f"R{i}({', '.join(terms)})")
    return f"q(x{k}) :- " + ", ".join(atoms)


def _cached_results(engine) -> list:
    """The results the engine's subplan cache holds."""
    cache = engine.memory_executor.cache
    return [cache._plans.peek(plan)[1] for plan in list(cache._plans)]


@contextlib.contextmanager
def _probes():
    """Records every probe of a result as ``(result, positions, built)``."""
    probes: list = []
    real = extensional._Columnar.sorted_keys

    def spy(result, positions, radix):
        entry = (result._sorted or {}).get(positions)
        probes.append((result, positions, entry is None or entry[0] != radix))
        return real(result, positions, radix)

    with mock.patch.object(extensional._Columnar, "sorted_keys", spy):
        yield probes


class TestProbe:
    """A join probes the larger input's kept sort with the smaller side."""

    def test_a_binary_join_accumulates_on_the_smaller_input(self):
        results = [
            extensional._Columnar(
                (y,), (np.arange(n, dtype=np.int64),), np.full(n, 0.5)
            )
            for n in (50, 3)
        ]
        assert extensional._fold_order(results) == [1, 0]
        assert extensional._fold_order(results[::-1]) == [0, 1]

    def test_a_cached_result_probed_by_two_requests_is_sorted_once(self):
        db = chain_database(3, 300, seed=5)
        values = sorted(db.table("R1").column_values(0))
        engine = DissociationEngine(db)
        with _probes() as probes:
            for value in values[:2]:
                engine.evaluate(parse_query(_chain_text({(1, 0): value})))
        cached = {id(result) for result in _cached_results(engine)}
        probed: dict = {}
        for result, positions, built in probes:
            if id(result) in cached:
                probed.setdefault((id(result), positions), []).append(built)
        # the selection is the small side: it probes the cached views
        assert probed
        for builds in probed.values():
            assert builds[0] and not any(builds[1:]), builds
        assert any(len(builds) >= 2 for builds in probed.values())

    def test_composite_keys_survive_a_growing_radix(self):
        rng = random.Random(3)
        db = ProbabilisticDatabase()
        db.add_table(
            "R",
            uniform_probabilities(
                rng, random_table_rows(rng, 120, 3, 6), 0.9
            ),
        )
        db.add_table(
            "S",
            uniform_probabilities(rng, random_table_rows(rng, 30, 2, 6), 0.9),
        )
        engine = DissociationEngine(db)
        anchors = sorted(db.table("R").column_values(0))
        # the middle request interns a constant the database does not
        # hold, so the radix of the (x, y) key grows between the others
        for value in (anchors[0], "absent", anchors[1], anchors[0]):
            query = parse_query(f"q(x) :- R({value!r}, x, y), S(x, y)")
            want = DissociationEngine(db).evaluate(query).scores
            assert engine.evaluate(query).scores == want
            if value == anchors[1]:
                assert want, "the request must match rows to test the key"
        memos = [
            result._sorted
            for result in _cached_results(engine)
            if result._sorted
        ]
        assert memos, "the cached S scan was never probed"
        for memo in memos:
            # one entry per key-column set: a stale radix is replaced
            assert len(memo) == len(set(memo)) == 1

    def test_a_batch_computes_a_shared_selection_once(self):
        db = chain_database(3, 200, seed=8)
        value = sorted(db.table("R1").column_values(0))[0]
        selection = Scan(Atom("R1", (Constant(value), Variable("x1"))))
        queries = [
            parse_query(_chain_text({(1, 0): value}, k=2)),
            parse_query(_chain_text({(1, 0): value}, k=3)),
        ]
        scans: list = []
        real = extensional._scan

        def counting_scan(plan, *args):
            if plan.selective():
                scans.append(plan)
            return real(plan, *args)

        engine = DissociationEngine(db)
        with mock.patch.object(extensional, "_scan", counting_scan):
            batch = engine.evaluate_batch(queries)
        assert [str(p) for p in scans] == [str(selection)]
        for query, result in zip(queries, batch):
            assert result.scores == DissociationEngine(db).evaluate(query).scores


@st.composite
def _shape_requests(draw):
    """A chain or star shape, a small database for it, and three
    requests of the shape binding 0–2 of its terms to constants (some
    absent from the database, which grows the interning radix)."""
    kind = draw(st.sampled_from(["chain", "star"]))
    k = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 10_000)))
    domain = draw(st.integers(2, 5))
    if kind == "chain":
        atoms = [(f"R{i}", [f"x{i - 1}", f"x{i}"]) for i in range(1, k + 1)]
    else:
        atoms = [(f"R{i}", [f"x{i}"]) for i in range(1, k + 1)]
        atoms.append(("R0", [f"x{i}" for i in range(1, k + 1)]))
    db = ProbabilisticDatabase()
    for name, terms in atoms:
        rows = random_table_rows(
            rng, rng.randint(1, 3 * domain), len(terms), domain
        )
        db.add_table(name, uniform_probabilities(rng, rows, 0.9))
    sites = [(a, p) for a, (_, terms) in enumerate(atoms) for p in range(len(terms))]
    bound = draw(
        st.lists(st.sampled_from(sites), min_size=0, max_size=2, unique=True)
    )
    boolean = draw(st.booleans())
    texts = []
    for _ in range(3):
        values = {site: rng.randint(1, domain + 1) for site in bound}
        body = []
        for a, (name, terms) in enumerate(atoms):
            spelled = [
                str(values[(a, p)]) if (a, p) in values else term
                for p, term in enumerate(terms)
            ]
            body.append(f"{name}({', '.join(spelled)})")
        left = sorted(
            {
                term
                for a, (_, terms) in enumerate(atoms)
                for p, term in enumerate(terms)
                if (a, p) not in values
            }
        )
        head = "" if boolean or not left else left[-1]
        texts.append(f"q({head}) :- " + ", ".join(body))
    opts = draw(st.sampled_from(ALL_OPTIMIZATION_COMBOS))
    return db, texts, opts


@settings(max_examples=60, deadline=None)
@given(_shape_requests())
def test_cache_admission_and_probing_change_no_score(case):
    """Default, uncached, evicting and unbounded memory engines agree
    bit for bit on every request of a shape, and with the row-at-a-time
    reference within 1e-12."""
    db, texts, opts = case
    engines = [
        DissociationEngine(db),
        DissociationEngine(db, EngineConfig(cache_size=0)),
        DissociationEngine(db, EngineConfig(cache_size=4)),
        DissociationEngine(db, EngineConfig(cache_size=None)),
    ]
    for text in texts:
        query = parse_query(text)
        default, *others = [
            engine.evaluate(query, opts).scores for engine in engines
        ]
        for scores in others:
            assert scores == default, text
        want = reference_scores(query, db, opts)
        assert set(default) == set(want), text
        for answer, score in want.items():
            assert abs(default[answer] - score) <= 1e-12, text
