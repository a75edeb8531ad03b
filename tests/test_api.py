"""The unified session API: configs, canonical keys, result cache, facade.

Covers the PR-5 surface:

* ``EngineConfig`` / ``ServiceConfig`` / ``Optimizations`` hashability,
  equality, and validation;
* canonical query keys — stability under variable renaming and atom
  reordering, sensitivity to head order and constants;
* the engine-level ``minimal_plans`` memo (identical and renamed
  repeats, schema-flag sensitivity);
* ``ResultCache`` hit/miss/eviction counters and epoch invalidation —
  including under concurrent service traffic with mid-stream
  ``mutate()`` calls;
* the legacy-kwarg deprecation shims and the ``**engine_kwargs`` typo
  validation;
* bit-identity of every facade surface against the direct engine and
  service calls, across all 8 optimization combos on both backends.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro import (
    ConjunctiveQuery,
    DissociationEngine,
    DissociationService,
    EngineConfig,
    Optimizations,
    ResultCache,
    ServiceConfig,
    connect,
    parse_query,
    query_key,
)
from repro.api.keys import canonical_form, result_key
from repro.core import Variable, rename_query
from repro.core.canonical import rename_plan
from repro.workloads import chain_database

from .helpers import (
    ALL_OPTIMIZATION_COMBOS,
    assert_backends_agree,
    random_database_for,
    random_query,
)


def small_db():
    db = repro.ProbabilisticDatabase()
    db.add_table("R", [((1,), 0.5), ((2,), 0.7)])
    db.add_table("S", [((1, 4), 0.5), ((1, 5), 0.3), ((2, 4), 0.8)])
    db.add_table("T", [((4,), 0.6), ((5,), 0.9)])
    return db


CHAIN = "q(x,y) :- R(x), S(x,y), T(y)"


def _strip_timings(obj):
    """Drop wall-clock ``seconds`` fields so explains compare structurally."""
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v) for k, v in obj.items() if k != "seconds"
        }
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------
class TestConfigs:
    def test_engine_config_hashable_and_equal(self):
        a = EngineConfig(backend="sqlite", cache_size=8)
        b = EngineConfig(backend="sqlite", cache_size=8)
        c = EngineConfig(backend="sqlite", cache_size=9)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2
        assert {a: "x"}[b] == "x"

    def test_service_config_hashable_and_equal(self):
        a = ServiceConfig(workers=3)
        b = ServiceConfig(workers=3)
        assert a == b and hash(a) == hash(b)
        assert a != ServiceConfig(workers=4)

    def test_optimizations_hashable(self):
        assert len(set(ALL_OPTIMIZATION_COMBOS)) == 8
        assert Optimizations() == Optimizations(
            single_plan=True, reuse_views=True, semijoin=False
        )

    def test_engine_config_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.backend = "sqlite"  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "pg"},
            {"join_ordering": "greedy"},
            {"cache_size": -1},
            {"join_dp_threshold": 10},
            {"write_factor": -0.5},
            {"plan_memo_size": -1},
        ],
    )
    def test_engine_config_validation(self, kwargs):
        # the two join-order knobs are gone: passing one fails loudly
        removed = {"join_ordering", "join_dp_threshold"}
        with pytest.raises(TypeError if removed & kwargs.keys() else ValueError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_batch_size": 0},
            {"max_batch_delay": -1.0},
            {"max_pending": 0},
        ],
    )
    def test_service_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(backend="sqlite").backend == "sqlite"
        with pytest.raises(ValueError):
            config.replace(backend="pg")

    def test_from_kwargs_rejects_unknown(self):
        with pytest.raises(TypeError, match="cache_sise"):
            EngineConfig.from_kwargs(cache_sise=8)


# ----------------------------------------------------------------------
# canonical query keys
# ----------------------------------------------------------------------
class TestQueryKey:
    def test_stable_under_variable_renaming(self):
        q1 = parse_query("q(x) :- R(x,y), S(y,z), T(z)")
        q2 = parse_query("q(a) :- R(a,b), S(b,c), T(c)")
        assert query_key(q1) == query_key(q2)

    def test_stable_under_atom_reordering(self):
        q1 = parse_query("q() :- R(x), S(x,y), T(y)")
        q2 = parse_query("q() :- T(y), R(x), S(x,y)")
        assert query_key(q1) == query_key(q2)

    def test_stable_under_both(self):
        q1 = parse_query("q(u) :- R(u,v), S(v,w)")
        q2 = parse_query("q(p) :- S(q,r), R(p,q)")
        assert query_key(q1) == query_key(q2)

    def test_head_order_distinguishes(self):
        body = "R(x,y)"
        q1 = parse_query(f"q(x,y) :- {body}")
        q2 = parse_query(f"q(y,x) :- {body}")
        assert query_key(q1) != query_key(q2)

    def test_head_set_distinguishes(self):
        q1 = parse_query("q(x) :- R(x,y)")
        q2 = parse_query("q(y) :- R(x,y)")
        q3 = parse_query("q() :- R(x,y)")
        assert len({query_key(q1), query_key(q2), query_key(q3)}) == 3

    def test_constants_distinguish(self):
        q1 = parse_query("q() :- R('a',x)")
        q2 = parse_query("q() :- R('b',x)")
        q3 = parse_query("q() :- R(y,x)")
        assert len({query_key(q1), query_key(q2), query_key(q3)}) == 3

    def test_structure_distinguishes(self):
        q1 = parse_query("q() :- R(x,y), S(y,z)")  # chain
        q2 = parse_query("q() :- R(x,y), S(x,z)")  # star
        assert query_key(q1) != query_key(q2)

    def test_name_is_ignored(self):
        q1 = parse_query("q() :- R(x)")
        q2 = parse_query("other() :- R(x)")
        assert query_key(q1) == query_key(q2)

    def test_dissociated_atoms_distinguish(self):
        q = parse_query("q() :- R(x), S(x,y)")
        dissociated = q.dissociate({"R": frozenset([Variable("y")])})
        assert query_key(q) != query_key(dissociated)
        renamed = parse_query("q() :- R(a), S(a,b)").dissociate(
            {"R": frozenset([Variable("b")])}
        )
        assert query_key(dissociated) == query_key(renamed)

    def test_random_queries_rename_reorder_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            query = random_query(rng, max_atoms=4, max_vars=4, head_vars=2)
            mapping = {
                v: Variable(f"w{i}")
                for i, v in enumerate(sorted(query.variables))
            }
            reordered = ConjunctiveQuery(
                tuple(reversed(query.atoms)), query.head_order
            )
            renamed = rename_query(reordered, mapping)
            assert query_key(query) == query_key(renamed)

    def test_canonical_form_composes_to_bijection(self):
        q1 = parse_query("q(x) :- R(x,y), S(y,z)")
        q2 = parse_query("q(c) :- S(b,a), R(c,b)")
        key1, n1 = canonical_form(q1)
        key2, n2 = canonical_form(q2)
        assert key1 == key2
        inverse = {i: v for v, i in n2.items()}
        mapping = {v: inverse[i] for v, i in n1.items()}
        renamed = {rename_plan(p, mapping) for p in repro.minimal_plans(q1)}
        assert renamed == set(repro.minimal_plans(q2))


# ----------------------------------------------------------------------
# the engine-level plan memo
# ----------------------------------------------------------------------
class TestPlanMemo:
    def test_identical_repeat_returns_same_plans_without_reenumeration(
        self, monkeypatch
    ):
        db = small_db()
        engine = DissociationEngine(db)
        query = parse_query(CHAIN)
        first = engine.minimal_plans(query)
        calls = []
        import repro.engine.evaluator as evaluator_module

        original = evaluator_module.minimal_plans
        monkeypatch.setattr(
            evaluator_module,
            "minimal_plans",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        second = engine.minimal_plans(query)
        assert not calls, "repeat must not re-enumerate"
        assert [id(p) for p in first] == [id(p) for p in second]
        stats = engine.plan_memo_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_renamed_repeat_served_by_renaming(self, monkeypatch):
        db = small_db()
        engine = DissociationEngine(db)
        query = parse_query(CHAIN)
        engine.minimal_plans(query)
        import repro.engine.evaluator as evaluator_module

        monkeypatch.setattr(
            evaluator_module,
            "minimal_plans",
            lambda *a, **k: pytest.fail("renamed repeat re-enumerated"),
        )
        renamed = parse_query("q(a,b) :- R(a), S(a,b), T(b)")
        plans = engine.minimal_plans(renamed)
        assert engine.plan_memo_stats()["renamed_hits"] == 1
        monkeypatch.undo()  # the comparison engines enumerate for real
        fresh = DissociationEngine(small_db()).minimal_plans(renamed)
        assert set(plans) == set(fresh)
        # and evaluation through the renamed plans matches a fresh
        # engine's enumeration, bit for bit
        assert (
            engine.propagation_score(renamed)
            == DissociationEngine(db).propagation_score(renamed)
        )

    def test_memo_survives_unrelated_schema_growth_and_mutation(self):
        db = small_db()
        engine = DissociationEngine(db)
        query = parse_query(CHAIN)
        first = engine.minimal_plans(query)
        db.add_table("Z", [((1,), 0.5)])  # unrelated relation
        db.insert("R", (9,), 0.5)  # data mutation
        second = engine.minimal_plans(query)
        # plans depend on query structure + relevant schema only — both
        # changes leave the memo entry valid (and identical)
        assert [id(p) for p in first] == [id(p) for p in second]
        assert engine.plan_memo_stats()["misses"] == 1

    def test_memo_disabled(self):
        engine = DissociationEngine(
            small_db(), EngineConfig(plan_memo_size=0)
        )
        query = parse_query(CHAIN)
        a = engine.minimal_plans(query)
        b = engine.minimal_plans(query)
        assert engine.plan_memo_stats()["size"] == 0
        assert set(a) == set(b)

    def test_memo_lru_eviction(self):
        engine = DissociationEngine(
            small_db(), EngineConfig(plan_memo_size=1)
        )
        q1 = parse_query("q() :- R(x), S(x,y)")
        q2 = parse_query("q() :- S(x,y), T(y)")
        engine.minimal_plans(q1)
        engine.minimal_plans(q2)
        stats = engine.plan_memo_stats()
        assert stats["size"] == 1 and stats["evictions"] >= 1


# ----------------------------------------------------------------------
# plan templates: one enumeration per query shape, bound per request
# ----------------------------------------------------------------------
def param_chain(constant, k: int = 4, names: str = "x") -> str:
    """``q(xk) :- R1(c,x1), R2(x1,x2), ..., Rk(x{k-1},xk)``."""
    tail = ", ".join(
        f"R{t}({names}{t - 1},{names}{t})" for t in range(2, k + 1)
    )
    return f"q({names}{k}) :- R1({constant},{names}1), {tail}"


def chain_constants(db, count: int) -> list:
    values = sorted(db.table("R1").column_values(0))
    assert len(values) >= count
    return values[:count]


class TestPlanTemplates:
    def test_fifty_constants_enumerate_once_per_flavour(self):
        db = chain_database(4, 120, seed=5, p_max=0.5)
        with connect(db) as session:
            for constant in chain_constants(db, 50):
                assert not session.evaluate(param_chain(constant)).cached
            stats = session.stats()
        memo = stats["engine"]["plan_memo"]
        # two flavours per request: the minimal plans (plan count) and
        # the merged single plan (the target)
        assert (memo["misses"], memo["size"], memo["hits"]) == (2, 2, 98)
        assert memo["renamed_hits"] == 0
        assert stats["result_cache"]["hits"] == 0

    @pytest.mark.parametrize(
        "config, service",
        [
            (EngineConfig(), ServiceConfig(workers=4)),
            (EngineConfig(backend="sqlite"), ServiceConfig(workers=2)),
        ],
        ids=["memory", "sqlite"],
    )
    def test_single_flight_enumeration_is_per_shape(self, config, service):
        db = chain_database(4, 120, seed=6, p_max=0.5)
        texts = [param_chain(c) for c in chain_constants(db, 48)]
        observed: list = []
        with connect(db, config, concurrent=True, service=service) as session:

            def client(mine) -> None:
                for text in mine:
                    observed.append((text, session.evaluate(text).scores))

            clients = [
                threading.Thread(target=client, args=(texts[i::8],))
                for i in range(8)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in clients)
            stats = session.stats()
        assert len(observed) == len(texts)
        serial = DissociationEngine(db, EngineConfig(plan_memo_size=0))
        for text, scores in observed:
            expected = serial.propagation_score(parse_query(text))
            assert scores.keys() == expected.keys()
            for answer, score in expected.items():
                assert abs(scores[answer] - score) <= 1e-12
        assert stats["engine"]["evaluations"] == len(texts)
        assert stats["engine"]["plan_memo"]["misses"] == 2

    def test_bindings_share_constant_free_subplans_by_identity(self):
        db = chain_database(4, 120, seed=7, p_max=0.5)
        c1, c2, c3 = chain_constants(db, 3)
        engine = DissociationEngine(db)
        first = engine.single_plan(parse_query(param_chain(c1)))
        second = engine.single_plan(parse_query(param_chain(c2)))
        third = engine.single_plan(parse_query(param_chain(c3)))
        template_nodes = {id(node) for node in first.walk()}
        second_nodes = {id(node): node for node in second.walk()}
        bound = [n for n in second_nodes.values() if "R1" in n.relations()]
        shared = [n for n in second_nodes.values() if "R1" not in n.relations()]
        assert bound and shared
        # a binding never aliases a node over the parameterised atom —
        # neither the template's nor another binding's
        third_nodes = {id(node) for node in third.walk()}
        for node in bound:
            assert id(node) not in template_nodes
            assert id(node) not in third_nodes
        # every other subplan IS the template's (and the other binding's)
        for node in shared:
            assert id(node) in template_nodes and id(node) in third_nodes
        # so the subplan cache recomputes exactly the parameterised
        # nodes for a new constant and hits on the rest
        engine.evaluate(parse_query(param_chain(c1)))
        before = engine.cache_stats()
        engine.evaluate(parse_query(param_chain(c2)))
        after = engine.cache_stats()
        assert after["misses"] - before["misses"] == len(bound)
        assert after["hits"] > before["hits"]

    def test_memo_capacity_counts_shapes(self, monkeypatch):
        db = chain_database(4, 60, seed=8, p_max=0.5)
        constants = chain_constants(db, 3)
        long = [parse_query(param_chain(c)) for c in constants]
        short = [parse_query(param_chain(c, k=3)) for c in constants]
        engine = DissociationEngine(db, EngineConfig(plan_memo_size=1))
        for query in (long[0], long[1], short[0], short[1], long[2]):
            engine.minimal_plans(query)
        stats = engine.plan_memo_stats()
        # one slot, three shape changes: long, short (evicts), long again
        assert (stats["misses"], stats["hits"]) == (3, 2)
        assert (stats["evictions"], stats["size"]) == (2, 1)

        import repro.engine.evaluator as evaluator_module

        calls = []
        original = evaluator_module.minimal_plans
        monkeypatch.setattr(
            evaluator_module,
            "minimal_plans",
            lambda *a, **k: calls.append(1) or original(*a, **k),
        )
        unmemoized = DissociationEngine(db, EngineConfig(plan_memo_size=0))
        for query in (long[0], long[0], long[1]):
            unmemoized.minimal_plans(query)
        stats = unmemoized.plan_memo_stats()
        assert len(calls) == 3
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_renamed_hits_count_variable_renamings_only(self):
        db = chain_database(4, 60, seed=9, p_max=0.5)
        c1, c2, c3 = chain_constants(db, 3)
        engine = DissociationEngine(db)
        engine.minimal_plans(parse_query(param_chain(c1)))
        engine.minimal_plans(parse_query(param_chain(c2)))
        assert engine.plan_memo_stats()["renamed_hits"] == 0
        renamed = parse_query(param_chain(c3, names="y"))
        plans = engine.minimal_plans(renamed)
        stats = engine.plan_memo_stats()
        assert (stats["misses"], stats["hits"]) == (1, 2)
        assert stats["renamed_hits"] == 1
        assert set(plans) == set(repro.minimal_plans(renamed))

    def test_service_batch_shares_the_constant_free_subplans(self):
        db = chain_database(4, 120, seed=10, p_max=0.5)
        distinct = [
            parse_query(param_chain(c)) for c in chain_constants(db, 4)
        ]
        with DissociationService(
            db,
            service=ServiceConfig(
                workers=1,
                max_batch_size=8,
                max_batch_delay=0.5,
                collect_dag_stats=True,
            ),
        ) as service:
            results = service.evaluate_many(distinct * 2)
            stats = service.stats()
            memo = service.engine.plan_memo_stats()
            cache = service.engine.cache_stats()
        engine = DissociationEngine(db, EngineConfig(plan_memo_size=0))
        for query, result in zip(distinct * 2, results):
            assert result.scores == engine.propagation_score(query)
        assert memo["misses"] == 2
        trees = [list(engine.single_plan(query).walk()) for query in distinct]
        distinct_nodes = {node for tree in trees for node in tree}
        constant_free = sum(
            "R1" not in node.relations()
            for node in set(engine.single_plan(distinct[0]).walk())
        )
        assert constant_free > 0
        # each constant evaluated once: every distinct subplan of the
        # merged DAG is one cache miss, the constant-free ones included
        assert cache["misses"] == len(distinct_nodes)
        assert stats["dag"]["distinct_nodes"] == len(distinct_nodes)
        assert stats["dag"]["node_occurrences"] == sum(map(len, trees))
        assert stats["dag"]["cross_query_nodes"] == constant_free


# ----------------------------------------------------------------------
# ResultCache mechanics
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_eviction_counters(self):
        db = small_db()
        engine = DissociationEngine(db)
        cache = ResultCache(max_entries=2)
        queries = [
            parse_query("q() :- R(x), S(x,y)"),
            parse_query("q() :- S(x,y), T(y)"),
            parse_query("q() :- R(x), S(x,y), T(y)"),
        ]
        opts = Optimizations()
        config = EngineConfig()
        keys = [result_key(q, opts, config, db.version) for q in queries]
        assert cache.get(keys[0]) is None
        for key, query in zip(keys, queries):
            cache.put(key, engine.evaluate(query, opts))
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["size"] == 2  # LRU evicted the first entry
        assert stats["evictions"] == 1
        assert cache.get(keys[0]) is None  # evicted
        hit = cache.get(keys[2])
        assert hit is not None and hit.cached
        assert cache.stats()["hits"] == 1

    def test_snapshot_isolation(self):
        db = small_db()
        engine = DissociationEngine(db)
        cache = ResultCache()
        query = parse_query(CHAIN)
        result = engine.evaluate(query)
        cache.put("k", result)
        result.scores.clear()  # caller corruption must not reach the cache
        served = cache.get("k")
        assert served.scores and served.cached
        served.scores.clear()
        assert cache.get("k").scores  # nor must served copies

    def test_a_served_copy_is_the_stored_result_marked_cached(self):
        import dataclasses

        from repro.engine import EvaluationResult

        result = DissociationEngine(small_db()).evaluate(parse_query(CHAIN))
        result.trace_id = "t-1"
        result.sql = "SELECT 1"
        cache = ResultCache()
        cache.put("k", result)
        served = cache.get("k")
        assert type(served) is EvaluationResult and served is not result
        assert served.cached and not result.cached
        for field in dataclasses.fields(EvaluationResult):
            if field.name != "cached":
                assert getattr(served, field.name) == getattr(
                    result, field.name
                ), field.name
        assert served.scores is not result.scores
        served.scores[("injected",)] = 1.0
        served.scores.pop(next(iter(result.scores)))
        assert cache.get("k").scores == result.scores

    def test_disabled_cache(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", DissociationEngine(small_db()).evaluate(
            parse_query(CHAIN)
        ))
        assert len(cache) == 0 and cache.get("k") is None

    def test_evict_stale(self):
        cache = ResultCache()
        result = DissociationEngine(small_db()).evaluate(parse_query(CHAIN))
        # keys end in epoch vectors: only entries naming a relation
        # whose epoch moved (or that was dropped) are evicted
        cache.put(("a", (("R", (1, 3)),)), result)
        cache.put(("b", (("R", (1, 3)), ("S", (2, 5)))), result)
        cache.put(("c", (("S", (2, 5)),)), result)
        cache.put(("d", "no-vector"), result)
        evicted = cache.evict_stale({"R": (1, 9), "S": (2, 5)})
        assert evicted == 2  # the two entries naming R
        assert len(cache) == 2 and cache.stats()["evictions"] == 2
        # a dropped relation is a disagreement too
        assert cache.evict_stale({"R": (1, 9)}) == 1  # "c" names gone S
        assert cache.get(("d", "no-vector")) is not None


# ----------------------------------------------------------------------
# deprecation shims and kwarg validation
# ----------------------------------------------------------------------
class TestRemovedLegacyKwargs:
    """The PR-5 deprecation shims are gone: config objects only."""

    def test_engine_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="backend"):
            DissociationEngine(small_db(), backend="sqlite")

    def test_engine_rejects_non_config_positional(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            DissociationEngine(small_db(), "sqlite")

    def test_engine_config_spelling_works(self):
        engine = DissociationEngine(
            small_db(), EngineConfig(backend="sqlite")
        )
        assert engine.config == EngineConfig(backend="sqlite")

    def test_service_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="workers"):
            DissociationService(small_db(), workers=1)
        with pytest.raises(TypeError, match="cache_size"):
            DissociationService(small_db(), cache_size=16)

    def test_service_rejects_non_config_positional(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            DissociationService(small_db(), "sqlite")
        with pytest.raises(TypeError, match="ServiceConfig"):
            DissociationService(small_db(), EngineConfig(), "nope")

    def test_service_config_spelling_works(self):
        service = DissociationService(
            small_db(),
            EngineConfig(cache_size=16),
            ServiceConfig(workers=1),
        )
        try:
            assert service.config.cache_size == 16
            assert service.service_config.workers == 1
        finally:
            service.close()


# ----------------------------------------------------------------------
# the Session facade
# ----------------------------------------------------------------------
class TestSession:
    def test_repeat_served_from_cache_with_zero_engine_evaluations(self):
        db = small_db()
        with connect(db) as session:
            handle = session.query(CHAIN)
            first = handle.result()
            evaluations = session.engine.evaluation_count
            assert evaluations == 1 and not first.cached
            second = handle.result()
            assert session.engine.evaluation_count == evaluations
            assert second.cached
            assert second.scores == first.scores  # bit-identical
            stats = session.results.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1

    def test_a_repeated_text_hits_without_parsing(self, monkeypatch):
        import repro.core.parser as parser_module

        text = "hit(x,y) :- R(x),  S(x,y),  T(y)"  # a text no other test sends
        parses = []
        original = parser_module._Parser
        monkeypatch.setattr(
            parser_module,
            "_Parser",
            lambda text: parses.append(text) or original(text),
        )
        with connect(small_db()) as session:
            first = session.evaluate(text)
            assert not first.cached and parses == [text]
            served = [
                session.evaluate(text),
                session.submit(text).result(),
                session.query(text).result(),
                *session.evaluate_many([text, text]),
            ]
            assert all(r.cached and r.scores == first.scores for r in served)
            assert session.scores(text) == first.scores
        assert parses == [text]  # every repeat skipped the parser

    def test_renamed_and_reordered_repeat_hits(self):
        db = small_db()
        with connect(db) as session:
            first = session.evaluate("q(x,y) :- R(x), S(x,y), T(y)")
            renamed = session.evaluate("q(a,b) :- T(b), R(a), S(a,b)")
            assert renamed.cached and renamed.scores == first.scores
            assert session.engine.evaluation_count == 1

    def test_distinct_optimizations_miss(self):
        with connect(small_db()) as session:
            session.evaluate(CHAIN, Optimizations())
            result = session.evaluate(CHAIN, Optimizations.none())
            assert not result.cached
            assert session.engine.evaluation_count == 2

    def test_query_accepts_string_and_object(self):
        query = parse_query(CHAIN)
        with connect(small_db()) as session:
            assert (
                session.query(CHAIN).scores()
                == session.query(query).scores()
            )

    def test_invalid_query_type(self):
        with connect(small_db()) as session:
            with pytest.raises(TypeError, match="ConjunctiveQuery"):
                session.query(42)  # type: ignore[arg-type]

    def test_mutation_invalidates(self):
        db = small_db()
        with connect(db) as session:
            before = session.query(CHAIN).result()
            session.mutate(lambda d: d.insert("R", (3,), 0.9))
            after = session.query(CHAIN).result()
            assert not after.cached and after.epoch != before.epoch
            assert session.results.stats()["size"] == 1  # stale evicted
            fresh = DissociationEngine(db).propagation_score(
                parse_query(CHAIN)
            )
            assert after.scores == fresh

    def test_facade_methods_match_direct_engine(self):
        db = small_db()
        query = parse_query(CHAIN)
        direct = DissociationEngine(db)
        with connect(db) as session:
            handle = session.query(CHAIN)
            assert handle.scores() == direct.propagation_score(query)
            assert handle.ranking() == direct.evaluate(query).ranking()
            assert handle.exact() == direct.exact(query)
            assert handle.monte_carlo(200, seed=1) == direct.monte_carlo(
                query, 200, seed=1
            )
            assert handle.per_plan() == direct.score_per_plan(query)
            assert set(handle.plans()) == set(direct.minimal_plans(query))
            assert handle.is_safe() == direct.is_safe(query)
            assert (
                handle.lineage().by_answer
                == direct.lineage(query).by_answer
            )
            mine = handle.explain()
            theirs = direct.explain(query)
            assert _strip_timings(mine["plans"]) == _strip_timings(
                theirs["plans"]
            )
            assert mine["plan_count"] == theirs["plan_count"]
            bounds = handle.probability_bounds()
            assert bounds == direct.probability_bounds(query)

    def test_submit_serial_and_cached(self):
        with connect(small_db()) as session:
            a = session.submit(CHAIN).result()
            b = session.submit(CHAIN).result()
            assert not a.cached and b.cached
            assert a.scores == b.scores

    def test_evaluate_many(self):
        queries = [CHAIN, "q() :- R(x), S(x,y)", CHAIN]
        with connect(small_db()) as session:
            results = session.evaluate_many(queries)
            assert results[0].scores == results[2].scores
            assert session.engine.evaluation_count == 2

    def test_service_config_requires_concurrent(self):
        with pytest.raises(ValueError, match="concurrent"):
            connect(small_db(), service=ServiceConfig())

    def test_closed_session_refuses_work(self):
        session = connect(small_db(), EngineConfig(backend="sqlite"))
        handle = session.query(CHAIN)
        handle.result()
        session.close()
        # neither new evaluations nor lazy engine resurrection after
        # close(): the handle and the session must both refuse
        with pytest.raises(RuntimeError, match="closed"):
            session.evaluate(CHAIN)
        with pytest.raises(RuntimeError, match="closed"):
            handle.explain()
        with pytest.raises(RuntimeError, match="closed"):
            session.mutate(lambda d: None)

    def test_stats_shape(self):
        with connect(small_db()) as session:
            session.query(CHAIN).result()
            stats = session.stats()
            assert stats["result_cache"]["misses"] == 1
            assert stats["engine"]["evaluations"] == 1
            assert not stats["concurrent"]

    def test_sqlite_facade(self):
        db = small_db()
        with connect(db, EngineConfig(backend="sqlite")) as session:
            result = session.query(CHAIN).result()
            assert result.sql is not None
            repeat = session.query(CHAIN).result()
            assert repeat.cached and repeat.scores == result.scores


class TestSessionConcurrent:
    def test_concurrent_repeat_served_from_cache(self):
        db = small_db()
        with connect(db, concurrent=True) as session:
            first = session.query(CHAIN).result()
            second = session.query(CHAIN).result()
            assert not first.cached and second.cached
            assert second.scores == first.scores
            stats = session.stats()
            assert stats["result_cache"]["hits"] == 1
            assert stats["service"]["queries"] == 1  # one engine evaluation

    def test_concurrent_matches_serial_bit_identical(self):
        queries = [
            CHAIN,
            "q() :- R(x), S(x,y)",
            "q(y) :- S(x,y)",
            "q() :- R(x), S(x,y), T(y)",
        ]
        with connect(small_db()) as serial:
            expected = [serial.query(q).scores() for q in queries]
        with connect(small_db(), concurrent=True) as session:
            futures = [session.submit(q) for q in queries]
            for future, want in zip(futures, expected):
                assert future.result().scores == want

    def test_concurrent_submit_populates_cache(self):
        with connect(small_db(), concurrent=True) as session:
            session.submit(CHAIN).result()
            # the done-callback stores asynchronously-completed results
            assert session.results.stats()["size"] == 1
            assert session.query(CHAIN).result().cached

    def test_mutation_invalidation_under_concurrent_traffic(self):
        db = small_db()
        queries = [
            parse_query(CHAIN),
            parse_query("q() :- R(x), S(x,y)"),
            parse_query("q(y) :- S(x,y)"),
        ]
        opts = Optimizations()

        def expected_for_epoch():
            # keyed by each query's own epoch vector: queries untouched
            # by a mutation keep their pre-mutation key (and scores)
            engine = DissociationEngine(db)
            return {
                (db.epoch_vector(q.relations), q, q.head_order): (
                    engine.propagation_score(q, opts)
                )
                for q in queries
            }

        expected = expected_for_epoch()
        observed: list = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        with connect(
            db, concurrent=True, service=ServiceConfig(workers=2)
        ) as session:

            def client(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for _ in range(25):
                        query = rng.choice(queries)
                        result = session.query(query, opts).result()
                        with lock:
                            observed.append((query, result))
                except BaseException as exc:  # noqa: BLE001
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for step in range(3):
                session.mutate(
                    lambda d: d.insert("R", (100 + step,), 0.5)
                )
                # epochs are stable until the next mutate(): compute
                # this epoch's ground truth while clients keep running
                expected.update(expected_for_epoch())
            for thread in threads:
                thread.join()
            assert not errors, errors
            assert len(observed) == 4 * 25
            for query, result in observed:
                # bit-identity per epoch: a result served from a stale
                # cache entry after a mutate() would fail here
                key = (result.epoch, query, query.head_order)
                assert key in expected, "result from unknown epoch"
                assert result.scores == expected[key]
            # post-traffic: the cache only holds current-epoch entries,
            # and a repeat is served from it
            final = session.query(CHAIN, opts).result()
            chain = queries[0]
            assert final.scores == expected[
                (db.epoch_vector(chain.relations), chain, chain.head_order)
            ]
            assert session.query(CHAIN, opts).result().cached


# ----------------------------------------------------------------------
# facade bit-identity, all 8 combos, both backends
# ----------------------------------------------------------------------
class TestFacadeDifferential:
    def test_chain_query_all_combos_both_backends(self):
        query = parse_query(CHAIN)
        assert_backends_agree(query, small_db(), compare_facade=True)

    def test_boolean_hard_query_all_combos_both_backends(self):
        query = parse_query("q() :- R(x), S(x,y), T(y)")
        assert_backends_agree(query, small_db(), compare_facade=True)

    def test_random_queries_facade(self):
        rng = random.Random(20260730)
        for _ in range(5):
            query = random_query(rng, max_atoms=3, max_vars=3, head_vars=1)
            db = random_database_for(query, rng)
            assert_backends_agree(query, db, compare_facade=True)
