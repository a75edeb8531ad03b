"""PR 9: the observability stack — metrics, tracing, unified LRU.

Covers the :mod:`repro.obs` primitives in isolation (StatsLRU,
Histogram, MetricsRegistry, Tracer, Observer) and the end-to-end
wiring: traced requests through the serial session and the concurrent
service, span-tree parenting across the worker hop, journal/mutation
counters, the slow-query log, Prometheus rendering, and the <2%
no-op-observer overhead bound on the chain-7 warm loop.
"""

import threading
import time

import pytest

import repro
from repro import EngineConfig, Optimizations, ServiceConfig, connect
from repro.core.parser import parse_query
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_OBSERVER,
    NullObserver,
    Observer,
    StatsLRU,
    Tracer,
    resolve_observer,
)


def small_db():
    db = repro.ProbabilisticDatabase()
    db.add_table("R", [((1,), 0.5), ((2,), 0.7)])
    db.add_table("S", [((1, 4), 0.5), ((1, 5), 0.3), ((2, 4), 0.8)])
    db.add_table("T", [((4,), 0.6), ((5,), 0.9)])
    return db


def chain_database(k=7, rows=24, seed=11):
    """A k-relation chain database (the benchmark workload's shape)."""
    import random

    rng = random.Random(seed)
    db = repro.ProbabilisticDatabase()
    for i in range(1, k + 1):
        db.add_table(
            f"R{i}",
            [
                ((v, (v * 7 + i) % rows), round(rng.uniform(0.1, 0.9), 3))
                for v in range(rows)
            ],
        )
    return db


def chain_query(k=7):
    atoms = ", ".join(
        f"R{i}(x{i-1}, x{i})" for i in range(1, k + 1)
    )
    return parse_query(f"q() :- {atoms}")


BOOL_CHAIN = "q() :- R(x), S(x,y), T(y)"


# ----------------------------------------------------------------------
# StatsLRU — the consolidated cache core
# ----------------------------------------------------------------------
class TestStatsLRU:
    def test_basic_hit_miss_eviction(self):
        lru = StatsLRU(2)
        assert lru.get("a") is None  # miss
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # hit; a now MRU
        lru.put("c", 3)  # evicts b (LRU)
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "invalidations": 0,
            "size": 2,
            "max_entries": 2,
        }

    def test_zero_capacity_stores_nothing(self):
        lru = StatsLRU(0)
        lru.put("a", 1)
        assert len(lru) == 0
        assert lru.get("a") is None
        assert lru.stats()["misses"] == 1
        assert lru.stats()["evictions"] == 0

    def test_unbounded(self):
        lru = StatsLRU(None)
        for i in range(100):
            lru.put(i, i)
        assert len(lru) == 100
        assert lru.stats()["evictions"] == 0

    def test_lru_order_iteration(self):
        lru = StatsLRU()
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        lru.get("a")  # refresh a to MRU
        assert list(lru) == ["b", "c", "a"]

    def test_on_evict_callback(self):
        dropped = []
        lru = StatsLRU(1, on_evict=lambda k, v: dropped.append((k, v)))
        lru.put("a", 1)
        lru.put("b", 2)
        assert dropped == [("a", 1)]
        lru.pop("b", count="eviction")
        assert dropped == [("a", 1), ("b", 2)]

    def test_evictable_predicate_pins(self):
        pinned = {"a"}
        lru = StatsLRU(1, evictable=lambda k, v: k not in pinned)
        lru.put("a", 1)
        lru.put("b", 2)  # over cap, but a is pinned → b evicted? no:
        # enforce_cap walks LRU-first; a is protected so b (the newest)
        # would only go if the cap still overflows after skipping a
        assert "a" in lru
        pinned.clear()
        lru.enforce_cap()
        assert len(lru) == 1

    def test_remove_where_counts_selected_counter(self):
        lru = StatsLRU()
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert lru.remove_where(lambda k, v: v >= 2, count="invalidation") == 2
        stats = lru.stats()
        assert stats["invalidations"] == 2 and stats["evictions"] == 0
        lru.put("d", 4)
        assert lru.remove_where(lambda k, v: True, count=None) == 2
        assert lru.stats()["evictions"] == 0

    def test_clear_counts_and_calls_back(self):
        dropped = []
        lru = StatsLRU(on_evict=lambda k, v: dropped.append(k))
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.clear(count="eviction") == 2
        assert lru.stats()["evictions"] == 2 and dropped == ["a", "b"]
        lru.put("c", 3)
        assert lru.clear(count=None) == 1
        assert lru.stats()["evictions"] == 2 and dropped == ["a", "b", "c"]

    def test_counting_opt_outs(self):
        lru = StatsLRU()
        lru.get("missing", count_miss=False)
        lru.put("a", 1)
        lru.get("a", count_hit=False)
        lru.add_miss(3)
        stats = lru.stats()
        assert stats == {
            "hits": 0,
            "misses": 3,
            "evictions": 0,
            "invalidations": 0,
            "size": 1,
            "max_entries": None,
        }

    def test_none_is_a_legal_value(self):
        lru = StatsLRU()
        lru.put("a", None)
        assert "a" in lru
        assert lru.get("a") is None
        assert lru.stats()["hits"] == 1  # counted as a hit, not a miss

    def test_mapping_equality(self):
        lru = StatsLRU()
        lru.put("a", 1)
        assert lru == {"a": 1}
        other = StatsLRU(8)
        other.put("a", 1)
        assert lru == other
        assert lru != {"a": 2}

    def test_invalid_count_kind_rejected(self):
        lru = StatsLRU()
        with pytest.raises(ValueError):
            lru.pop("a", count="bogus")
        with pytest.raises(ValueError):
            StatsLRU(-1)

    def test_thread_safety_smoke(self):
        lru = StatsLRU(64)
        stop = threading.Event()
        errors = []

        def worker(base):
            try:
                while not stop.is_set():
                    for i in range(32):
                        lru.put((base, i), i)
                        lru.get((base, (i * 7) % 32))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) <= 64


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------
class TestHistogram:
    def test_exact_lifetime_stats(self):
        h = Histogram(window=4)
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == pytest.approx(21.0)
        assert snap["min"] == 1.0 and snap["max"] == 6.0
        assert snap["window"] == 4  # ring keeps the most recent 4

    def test_quantile_interpolation(self):
        h = Histogram()
        for v in [10.0, 20.0, 30.0, 40.0]:
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(25.0)
        assert h.quantile(0.0) == pytest.approx(10.0)
        assert h.quantile(1.0) == pytest.approx(40.0)
        assert h.quantile(0.95) == pytest.approx(38.5)

    def test_quantile_recent_bias(self):
        h = Histogram(window=3)
        for v in [100.0, 1.0, 2.0, 3.0]:
            h.observe(v)  # 100.0 has been overwritten
        assert h.quantile(1.0) == pytest.approx(3.0)
        assert h.max == 100.0  # lifetime max survives the window

    def test_empty_and_single(self):
        h = Histogram()
        assert h.quantile(0.5) is None
        assert h.snapshot() == {"count": 0, "sum": 0.0}
        h.observe(7.0)
        assert h.quantile(0.99) == 7.0
        snap = h.snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 7.0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram(window=0)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["p50"] == pytest.approx(2.0)
        assert reg.counter("a") == 5
        assert reg.counter("absent") == 0

    def test_collectors_pull_at_snapshot(self):
        reg = MetricsRegistry()
        calls = []

        def collect():
            calls.append(1)
            return {"size": 3}

        reg.register_collector("cache", collect)
        assert calls == []  # nothing pulled until snapshot
        snap = reg.snapshot()
        assert snap["collected"]["cache"] == {"size": 3}
        assert calls == [1]
        reg.unregister_collector("cache")
        assert "cache" not in reg.snapshot()["collected"]

    def test_collector_error_isolated(self):
        reg = MetricsRegistry()
        reg.register_collector("bad", lambda: 1 / 0)
        reg.inc("fine")
        snap = reg.snapshot()
        assert snap["counters"]["fine"] == 1
        assert "error" in snap["collected"]["bad"]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.inc("engine.evaluations", 2)
        reg.set_gauge("queue.depth", 7)
        reg.observe("latency.seconds", 0.5)
        reg.register_collector(
            "cache", lambda: {"hits": 3, "nested": {"deep": 1}, "skip": "x"}
        )
        text = reg.render_prometheus()
        assert "# TYPE repro_engine_evaluations counter" in text
        assert "repro_engine_evaluations 2" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert 'repro_latency_seconds{quantile="0.5"} 0.5' in text
        assert "repro_latency_seconds_count 1" in text
        assert "repro_cache_hits 3" in text
        assert "repro_cache_nested_deep 1" in text
        assert "skip" not in text  # non-numeric leaves dropped


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_parents(self):
        tracer = Tracer()
        tid = tracer.new_trace()
        with tracer.activate([(tid, None)]):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        tree = tracer.tree(tid)
        assert len(tree["roots"]) == 1
        outer = tree["roots"][0]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == ["inner"]

    def test_no_active_trace_yields_null_span(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            assert span.span_id is None
        span.note(ignored=True)  # must be inert

    def test_multi_member_scope_records_into_every_trace(self):
        tracer = Tracer()
        a, b = tracer.new_trace(), tracer.new_trace()
        with tracer.activate([(a, None), (b, None)]):
            with tracer.span("batch"):
                pass
        for tid in (a, b):
            spans = tracer.spans(tid)
            assert [s["name"] for s in spans] == ["batch"]

    def test_record_span_cross_thread(self):
        tracer = Tracer()
        tid = tracer.new_trace()
        started = time.perf_counter() - 0.25
        tracer.record_span(
            tid, None, "queue.wait", started=started, seconds=0.25
        )
        (span,) = tracer.spans(tid)
        assert span["seconds"] == pytest.approx(0.25)

    def test_trace_eviction_lru(self):
        tracer = Tracer(max_traces=2)
        a = tracer.new_trace()
        b = tracer.new_trace()
        c = tracer.new_trace()  # evicts a
        assert tracer.tree(a) is None
        assert tracer.tree(b) is not None and tracer.tree(c) is not None
        # spans for an evicted trace drop silently
        tracer.record_span(a, None, "late", started=0.0, seconds=0.0)
        assert tracer.tree(a) is None

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        tid = tracer.new_trace()
        with tracer.activate([(tid, None)]):
            for _ in range(5):
                with tracer.span("s"):
                    pass
        tree = tracer.tree(tid)
        assert len(tree["roots"]) == 2
        assert tree["dropped_spans"] == 3

    def test_note_metadata(self):
        tracer = Tracer()
        tid = tracer.new_trace()
        with tracer.activate([(tid, None)]):
            with tracer.span("s", fixed=1) as span:
                span.note(rows=7)
        (span,) = tracer.spans(tid)
        assert span["meta"] == {"fixed": 1, "rows": 7}

    def test_breakdown_sums_by_name(self):
        tracer = Tracer()
        tid = tracer.new_trace()
        tracer.record_span(tid, None, "a", started=0.0, seconds=0.5)
        tracer.record_span(tid, None, "a", started=0.0, seconds=0.25)
        tracer.record_span(tid, None, "b", started=0.0, seconds=1.0)
        breakdown = tracer.breakdown(tid)
        assert breakdown["a"] == pytest.approx(0.75)
        assert breakdown["b"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Observer facade
# ----------------------------------------------------------------------
class TestObserver:
    def test_null_observer_is_inert(self):
        obs = NullObserver()
        assert not obs.enabled
        obs.inc("x")
        with obs.span("y") as span:
            assert span.span_id is None
        assert obs.new_trace() is None
        assert obs.snapshot()["counters"] == {}
        assert obs.render_prometheus() == ""
        assert resolve_observer(None) is NULL_OBSERVER
        real = Observer()
        assert resolve_observer(real) is real

    def test_slow_query_log_threshold(self):
        obs = Observer(slow_query_seconds=0.5)
        obs.record_request("t-1", "q1", 0.1)  # below threshold
        obs.record_request("t-2", "q2", 0.9)
        entries = obs.slow_queries()
        assert [e["trace_id"] for e in entries] == ["t-2"]
        assert entries[0]["seconds"] == pytest.approx(0.9)
        snap = obs.snapshot()
        assert snap["histograms"]["session.request.seconds"]["count"] == 2
        assert snap["counters"]["session.slow_queries"] == 1
        assert snap["slow_queries"] == entries

    def test_slow_log_disabled_and_bounded(self):
        obs = Observer()  # slow_query_seconds=None: log disabled
        obs.record_request("t-1", "q", 100.0)
        assert obs.slow_queries() == []
        bounded = Observer(slow_query_seconds=0.0, slow_log_size=2)
        for i in range(5):
            bounded.record_request(f"t-{i}", "q", 0.1)
        assert len(bounded.slow_queries()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Observer(slow_query_seconds=-1.0)
        with pytest.raises(ValueError):
            Observer(slow_log_size=0)


# ----------------------------------------------------------------------
# serial-session tracing
# ----------------------------------------------------------------------
class TestSerialTracing:
    def test_span_tree_covers_the_stack(self):
        obs = Observer()
        with connect(small_db(), EngineConfig(observer=obs)) as session:
            # single_plan=False keeps the plans separate so the engine
            # min-combines them explicitly (the combine.min span)
            handle = session.query(
                BOOL_CHAIN, Optimizations(single_plan=False)
            )
            result = handle.result()
            assert result.trace_id is not None
            tree = session.trace(handle)
        assert tree["trace_id"] == result.trace_id
        (root,) = tree["roots"]
        assert root["name"] == "session.evaluate"
        names = {c["name"] for c in root["children"]}
        assert {
            "session.canonicalize",
            "result_cache.lookup",
            "engine.evaluate",
        } <= names
        engine_span = next(
            c for c in root["children"] if c["name"] == "engine.evaluate"
        )
        child_names = [c["name"] for c in engine_span["children"]]
        assert "plan.enumerate" in child_names
        # the Boolean chain is unsafe: several plans, min-combined,
        # with the per-subplan evaluation nested inside the combine
        assert "combine.min" in child_names
        combine = next(
            c
            for c in engine_span["children"]
            if c["name"] == "combine.min"
        )
        assert combine["meta"]["plans"] == 2
        flat: list = []

        def walk(nodes):
            for node in nodes:
                flat.append(node["name"])
                walk(node["children"])

        walk(combine["children"])
        assert "subplan" in flat

    def test_cache_hit_trace_is_short_and_stamped(self):
        obs = Observer()
        with connect(small_db(), EngineConfig(observer=obs)) as session:
            first = session.evaluate(BOOL_CHAIN)
            second = session.evaluate(BOOL_CHAIN)
            assert second.cached
            assert second.trace_id is not None
            assert second.trace_id != first.trace_id
            tree = session.trace(second)
        (root,) = tree["roots"]
        assert root["meta"]["cached"] is True
        names = {c["name"] for c in root["children"]}
        assert "engine.evaluate" not in names
        assert "result_cache.lookup" in names

    def test_trace_accepts_id_result_and_handle(self):
        obs = Observer()
        with connect(small_db(), EngineConfig(observer=obs)) as session:
            handle = session.query(BOOL_CHAIN)
            result = handle.result()
            by_handle = session.trace(handle)
            by_result = session.trace(result)
            by_id = session.trace(result.trace_id)
            assert by_handle == by_result == by_id
            assert session.trace("t-99999999") is None
            fresh = session.query(BOOL_CHAIN)
            assert session.trace(fresh) is None  # never evaluated

    def test_no_observer_means_no_trace(self):
        with connect(small_db()) as session:
            handle = session.query(BOOL_CHAIN)
            result = handle.result()
            assert result.trace_id is None
            assert session.trace(handle) is None

    def test_submit_traced_serial(self):
        obs = Observer()
        with connect(small_db(), EngineConfig(observer=obs)) as session:
            result = session.submit(BOOL_CHAIN).result()
            assert result.trace_id is not None
            tree = session.trace(result)
        (root,) = tree["roots"]
        assert root["name"] == "session.submit"

    def test_snapshot_exposes_all_cache_layers(self):
        obs = Observer()
        config = EngineConfig(observer=obs)
        with connect(small_db(), config) as session:
            session.evaluate(BOOL_CHAIN)
            session.evaluate(BOOL_CHAIN)
            snap = obs.snapshot()
        collected = snap["collected"]
        # result cache: one miss then one hit
        assert collected["result_cache"]["hits"] == 1
        assert collected["result_cache"]["misses"] == 1
        # engine: subplan cache + plan memo
        engine = collected["engine"]
        assert engine["evaluations"] == 1
        assert "hits" in engine["cache"]
        assert "hits" in engine["plan_memo"]
        assert collected["db"]["durable"] is False
        assert snap["counters"]["engine.evaluations"] == 1

    def test_sqlite_statement_spans_and_counters(self):
        obs = Observer()
        config = EngineConfig(backend="sqlite", observer=obs)
        with connect(small_db(), config) as session:
            result = session.evaluate(BOOL_CHAIN)
            tree = session.trace(result)
            snap = obs.snapshot()
        assert snap["counters"]["sqlite.statements"] >= 1

        def collect_names(nodes, out):
            for node in nodes:
                out.append(node["name"])
                collect_names(node["children"], out)

        names: list = []
        collect_names(tree["roots"], names)
        assert "sqlite.statement" in names


# ----------------------------------------------------------------------
# concurrent-service tracing
# ----------------------------------------------------------------------
class TestConcurrentTracing:
    def test_acceptance_span_coverage(self):
        """The ISSUE acceptance path: cache lookup → batch → plan →
        subplan → combine for a request served by the service."""
        obs = Observer()
        with connect(
            small_db(),
            EngineConfig(observer=obs),
            concurrent=True,
            service=ServiceConfig(workers=2),
        ) as session:
            handle = session.query(
                BOOL_CHAIN, Optimizations(single_plan=False)
            )
            result = handle.result()
            tree = session.trace(handle)
        assert tree is not None and result.trace_id is not None
        (root,) = tree["roots"]
        assert root["name"] == "session.evaluate"
        top = {c["name"] for c in root["children"]}
        assert {
            "result_cache.lookup",
            "queue.wait",
            "service.batch",
        } <= top
        batch = next(
            c for c in root["children"] if c["name"] == "service.batch"
        )
        engine_batch = next(
            c
            for c in batch["children"]
            if c["name"] == "engine.evaluate_batch"
        )
        flat: list = []

        def walk(nodes):
            for node in nodes:
                flat.append(node["name"])
                walk(node["children"])

        walk(engine_batch["children"])
        assert "plan.enumerate" in flat
        assert "combine.min" in flat
        assert "subplan" in flat

    def test_no_cross_contamination_under_concurrency(self):
        obs = Observer()
        queries = [
            "q() :- R(x), S(x,y), T(y)",
            "q(x) :- R(x), S(x,y)",
            "q(y) :- S(x,y), T(y)",
            "q(x,y) :- R(x), S(x,y), T(y)",
        ]
        with connect(
            small_db(),
            EngineConfig(observer=obs),
            concurrent=True,
            service=ServiceConfig(workers=3, max_batch_delay=0.005),
        ) as session:
            results = []
            errors = []

            def run(text):
                try:
                    for _ in range(3):
                        results.append(session.evaluate(text))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(q,)) for q in queries
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            trace_ids = [r.trace_id for r in results]
            assert all(tid is not None for tid in trace_ids)
            assert len(set(trace_ids)) == len(trace_ids)  # one per request
            for tid in trace_ids:
                tree = session.trace(tid)
                if tree is None:
                    continue  # evicted from the bounded store
                # exactly one root request span per trace — no foreign
                # session.evaluate span leaked in from another request
                roots = [n["name"] for n in tree["roots"]]
                assert roots.count("session.evaluate") == 1
                # every trace has at most one batch span (its own)
                flat: list = []

                def walk(nodes):
                    for node in nodes:
                        flat.append(node["name"])
                        walk(node["children"])

                walk(tree["roots"])
                assert flat.count("service.batch") <= 1

    def test_queue_wait_recorded(self):
        obs = Observer()
        with connect(
            small_db(),
            EngineConfig(observer=obs),
            concurrent=True,
        ) as session:
            result = session.evaluate(BOOL_CHAIN)
            snap = obs.snapshot()
        hist = snap["histograms"]["service.queue.wait_seconds"]
        assert hist["count"] >= 1
        tree = session.trace(result)
        (root,) = tree["roots"]
        assert "queue.wait" in {c["name"] for c in root["children"]}

    def test_service_stats_served_from_registry(self):
        obs = Observer()
        with connect(
            small_db(),
            EngineConfig(observer=obs),
            concurrent=True,
        ) as session:
            session.evaluate(BOOL_CHAIN)
            session.evaluate("q(x) :- R(x), S(x,y)")
            stats = session.service.stats()
            snap = obs.snapshot()
        assert stats["batches"] == snap["counters"]["service.batches"]
        assert stats["queries"] == snap["counters"]["service.queries"]
        assert stats["queries"] == 2
        assert sum(stats["batch_occupancy"].values()) == stats["batches"]
        assert snap["collected"]["service.health"]["live_workers"] >= 1
        assert "service.sessions" in snap["collected"]

    def test_service_stats_shape_unchanged_without_observer(self):
        with connect(small_db(), concurrent=True) as session:
            session.evaluate(BOOL_CHAIN)
            stats = session.service.stats()
        for key in (
            "backend",
            "submitted",
            "batches",
            "queries",
            "mutations",
            "rolled_back_mutations",
            "tainted_mutations",
            "mean_batch_size",
            "batch_occupancy",
            "poison_queries",
            "batch_retries",
            "timeouts",
            "dag",
            "sessions",
        ):
            assert key in stats
        assert stats["queries"] == 1
        assert stats["batch_occupancy"] == {1: 1}
        assert stats["dag"]["dedup_ratio"] == 1.0


# ----------------------------------------------------------------------
# mutation / journal observability
# ----------------------------------------------------------------------
class TestMutationAndJournal:
    def test_mutation_counters(self):
        obs = Observer()
        with connect(small_db(), EngineConfig(observer=obs)) as session:
            session.mutate(lambda db: db.insert("R", (9,), 0.5))
            with pytest.raises(RuntimeError):
                session.mutate(self._failing)
            snap = obs.snapshot()
        assert snap["counters"]["db.mutations.committed"] == 1
        assert snap["counters"]["db.mutations.rolled_back"] == 1
        last = snap["collected"]["db"]["last_mutation"]
        assert last["rolled_back"] is True

    @staticmethod
    def _failing(db):
        db.insert("R", (10,), 0.5)  # tracked → certified rollback
        raise RuntimeError("boom")

    def test_journal_commit_and_checkpoint_counters(self, tmp_path):
        obs = Observer()
        config = EngineConfig(observer=obs)
        with connect(
            path=str(tmp_path / "store"),
            config=config,
            checkpoint_every=2,
        ) as session:
            session.mutate(
                lambda db: db.add_table("R", [((1,), 0.5), ((2,), 0.7)])
            )
            session.mutate(lambda db: db.insert("R", (3,), 0.9))
            session.mutate(lambda db: db.insert("R", (4,), 0.9))
            snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["journal.commits"] >= 2
        assert counters["journal.ops"] >= 3
        assert counters["journal.checkpoints"] >= 1
        assert counters["db.mutations.committed"] == 3
        journal = snap["collected"]["db"]["journal"]
        assert journal["committed_ops"] >= 3
        assert snap["collected"]["db"]["durable"] is True


# ----------------------------------------------------------------------
# explain timings + result trace ids
# ----------------------------------------------------------------------
class TestExplainTimings:
    def test_explain_reports_seconds(self):
        with connect(small_db()) as session:
            report = session.query(BOOL_CHAIN).explain()
        assert report["plans"]
        for entry in report["plans"]:
            assert entry["seconds"] >= 0.0
            for join in entry["joins"]:
                assert join["seconds"] >= 0.0
                for step in join["steps"]:
                    assert step["seconds"] >= 0.0
                    assert "estimated_rows" in step
                    assert "actual_rows" in step


# ----------------------------------------------------------------------
# overhead: the no-op observer must stay under 2% on the warm loop
# ----------------------------------------------------------------------
class TestOverhead:
    def test_noop_observer_overhead_under_2_percent(self):
        """Chain-7 warm-loop micro-benchmark (the ISSUE's <2% gate).

        Both arms run the *same* session code; the baseline arm
        replicates the warm path by hand (resolve → epoch → key →
        cache get), so the measured difference is exactly the
        instrumentation seam: the ``observer.enabled`` checks.
        The arms alternate (baseline, instrumented, baseline, …) and
        each takes its best round, so machine drift lands on both
        alike instead of in their difference; an absolute floor guards
        against timer jitter on sub-microsecond differences. The loop
        is long enough (≈ 14 ms on a 2-CPU box) that the floor is under
        1 % of it, so the 2 % bound, not the floor, decides. Both arms
        read the process's CPU clock, not the wall clock: another
        process competing for the CPU stretches wall time, not the CPU
        time this loop spends.
        """
        db = chain_database()
        query = chain_query()
        opts = Optimizations()
        iterations = 1600
        from repro.api.keys import result_key

        with connect(db) as session:
            session.evaluate(query)  # warm the result cache

            def instrumented():
                started = time.process_time()
                for _ in range(iterations):
                    session.evaluate(query)
                return time.process_time() - started

            def baseline():
                started = time.process_time()
                for _ in range(iterations):
                    resolved = session._resolve(query)
                    key = result_key(
                        resolved,
                        opts,
                        session.config,
                        session._query_epoch(resolved),
                    )
                    assert session.results.get(key) is not None
                return time.process_time() - started

            baseline()  # warm both code paths
            instrumented()
            base = noop = float("inf")
            for _ in range(15):
                base = min(base, baseline())
                noop = min(noop, instrumented())
        overhead = (noop - base) / base
        # <2% relative, with a 100µs absolute floor for timer noise
        assert overhead < 0.02 or (noop - base) < 100e-6, (
            f"no-op observer overhead {overhead:.2%} "
            f"(baseline {base * 1e6:.0f}µs, instrumented {noop * 1e6:.0f}µs)"
        )


# ----------------------------------------------------------------------
# unified-LRU counter parity across the adapters
# ----------------------------------------------------------------------
class TestCounterParity:
    def test_result_cache_parity_with_statslru(self):
        from repro.api.cache import ResultCache

        cache = ResultCache(max_entries=2)
        mirror = StatsLRU(2)
        with connect(small_db()) as session:
            r = session.evaluate(BOOL_CHAIN)
        for i, key in enumerate(["a", "b", "c"]):
            cache.get(key)
            mirror.get(key)
            cache.put(key, r)
            mirror.put(key, i)
        cache.get("c")
        mirror.get("c")
        expected = mirror.stats()
        got = cache.stats()
        assert got["hits"] == expected["hits"]
        assert got["misses"] == expected["misses"]
        assert got["evictions"] == expected["evictions"]
        assert got["size"] == expected["size"]

    def test_engine_cache_layers_report_through_registry(self):
        obs = Observer()
        config = EngineConfig(observer=obs, cache_size=8)
        with connect(small_db(), config) as session:
            session.evaluate(BOOL_CHAIN)
            session.evaluate("q(x) :- R(x), S(x,y)")
            engine_stats = session.engine.cache_stats()
            memo_stats = session.engine.plan_memo_stats()
            snap = obs.snapshot()
        assert snap["collected"]["engine"]["cache"] == engine_stats
        assert snap["collected"]["engine"]["plan_memo"] == memo_stats
        assert memo_stats["misses"] >= 2  # one per distinct query
