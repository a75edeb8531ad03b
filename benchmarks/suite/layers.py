"""Per-layer attribution measured from outside (the traced pass).

The traced pass keeps each measured op as one root span and *shadow-stages*
the sampled ops' inputs through every layer's public function on a rig — a
second copy of the workload's database with its own sessions, stand-alone
SQLite backend, durable store and two child servers. Each staged call is a
child span of the op it shadows. Nothing is recorded inside ``src/``.

Every workload emits every per-layer metric, so a layer's cost is visible
on the workloads that bypass it too (where the prediction is "no change").
"""

from __future__ import annotations

import time

from . import harness
from .workloads import WRITE, catalogue, param_query, session_counters

from repro import (  # noqa: E402
    DissociationEngine,
    EngineConfig,
    ProbabilisticDatabase,
    ServiceConfig,
    connect,
    minimal_plans,
    parse_query,
    query_key,
)
from repro.api.keys import result_key  # noqa: E402
from repro.core.singleplan import single_plan  # noqa: E402
from repro.db.io import save_database  # noqa: E402
from repro.db.shm import SharedSnapshotManager  # noqa: E402
from repro.db.sqlite_backend import SQLiteBackend  # noqa: E402
from repro.engine.extensional import EvaluationCache, plan_scores  # noqa: E402
from repro.engine.sql import SQLCompiler  # noqa: E402
from repro.net import RemoteSession, fork_available  # noqa: E402
from repro.net.protocol import (  # noqa: E402
    decode_frame,
    encode_frame,
    result_from_wire,
    result_to_wire,
)
from repro.obs import Observer  # noqa: E402

#: Staged children that lie on the measured op's own path, by shape; the
#: root's self time is what they leave uncovered.
_HIT = ("core.parser.parse", "api.keys.result_key", "api.result_cache.get")
_WIRE = (
    "core.parser.parse",
    "core.canonical.key",
    "net.roundtrip_ping",
    "net.protocol.encode",
    "net.protocol.decode",
)
PATHS = {
    "serial": {"hit": _HIT, "miss": _HIT + ("engine.evaluate",)},
    "concurrent": {"hit": _HIT, "miss": _HIT + ("service.submit",)},
    "remote": {"hit": _WIRE, "miss": _WIRE + ("engine.evaluate",)},
    "pool": {"hit": _WIRE, "miss": _WIRE + ("engine.evaluate",)},
}
WRITE_PATH = (
    "db.database.mutate",
    "db.journal.commit",
    "service.mutate.quiesce",
)

#: Samples a child off the measured path gets per run (on-path children are
#: staged for every sampled op the budget allows).
OFF_PATH_SAMPLES = 5
SYNTHETIC_WRITES = 30
#: Microsecond-scale children run this often back to back and count their
#: median: the measured loop runs them hot, 15 000 times a second, and one
#: cold call between two heavy stages costs half as much again.
HOT_REPEATS = 5


def _median(samples, scale: float = 1.0) -> "float | None":
    return harness.median(samples) * scale if samples else None


class Rig:
    """The staging area of one traced run."""

    def __init__(self, workload, hygiene: harness.Hygiene, spans: harness.Spans) -> None:
        self.workload = workload
        self.hygiene = hygiene
        self.spans = spans
        self.config: EngineConfig = workload.config
        self.db = workload.make_db()
        schema = self.db.schema
        self.deterministic = schema.deterministic_relations
        self.fds = schema.fds_by_relation
        self.session = connect(self.db, self.config, result_cache_size=4096)
        # its own engine: the rig session's warm-up must not warm it
        self.engine = DissociationEngine(self.db, self.config)
        self.opts = self.session.default_optimizations
        self.memory_cache = EvaluationCache(self.db)
        started = time.perf_counter()
        self.sqlite = SQLiteBackend(self.db)
        self.sqlite_load_seconds = time.perf_counter() - started
        self.compiler = SQLCompiler(
            schema, native_ior=self.sqlite.has_math_functions
        )
        # writes: an in-memory clone, a durable clone, a concurrent session
        self.memory_db = workload.make_db()
        self.store_dir = hygiene.temp_dir("rig_store")
        self.durable_db = workload.make_db()
        self.durable_db.save(self.store_dir)
        self.durable_db.close()
        self.durable_db = ProbabilisticDatabase.open(
            str(self.store_dir), fsync="commit", checkpoint_every=0
        )
        self.service_session = connect(
            workload.make_db(),
            self.config,
            concurrent=True,
            service=ServiceConfig(workers=2, collect_dag_stats=True),
            result_cache_size=0,
        )
        # The measured session is warm by the time it is timed: its backend
        # is loaded and the shared subplans of the chain are cached (on
        # SQLite, materialised after a few requests). The rig's engine and
        # service get the same warm-up, on constants the stream never uses.
        warm = [
            param_query(workload.chain_length, c)
            for c in workload.constants(self.db)[-8:]
        ]
        for text in warm:
            self.engine.evaluate(parse_query(text))
        self.service_session.evaluate_many(warm)
        # the wire: one thread-pool server over the same data
        self.data_dir = hygiene.temp_dir("rig_csv")
        save_database(self.db, self.data_dir)
        self.server = hygiene.serve(self.data_dir, "--workers", "2")
        self.remote = RemoteSession(self.server.url, timeout=60.0)
        self.remote.ping()
        self._sent: set[str] = set()
        self._counts: dict[str, int] = {}
        self._spent: dict[str, float] = {}
        #: seconds one off-path child may take in total (set by the runner)
        self.off_path_seconds = 0.3
        self._write_serial = 0
        # engine.evaluate is staged for every sampled read: the service's
        # overhead is measured against it, and the rig engine's memo and
        # subplan counters should see the stream's repeats
        self._on_path = set(WRITE_PATH) | {"engine.evaluate"}
        paths = PATHS[workload.shape]
        self._on_path.update(*paths.values())
        if "engine.evaluate" in paths["miss"]:
            self._on_path.update(
                ("core.minplans.enumerate", "core.singleplan.merge")
            )
            # the stand-alone statement execution never joins the path: see
            # _stage_engine_parts
            self._on_path.add(
                "engine.sql.compile"
                if self.config.backend == "sqlite"
                else "engine.extensional.score"
            )
        #: per sampled op: root seconds, path children seconds
        self.roots: list[tuple[float, float]] = []
        self.parents: dict[str, list[tuple[float, float]]] = {
            "api": [], "engine": [], "net": [], "service": [],
        }
        self.plans_per_query: list[int] = []
        self.frame_bytes: list[int] = []

    def close(self) -> None:
        self.remote.close()
        self.hygiene.stop(self.server)
        self.service_session.close()
        self.durable_db.close()
        self.sqlite.close()
        self.engine.invalidate_sqlite()
        self.session.close()

    # ------------------------------------------------------------------
    def _wanted(self, name: str) -> bool:
        """On-path children are staged for every sampled op; the others get
        a few samples, fewer still when one sample is expensive."""
        if name in self._on_path:
            return True
        count = self._counts.get(name, 0)
        return count < 1 or (
            count < OFF_PATH_SAMPLES
            and self._spent.get(name, 0.0) < self.off_path_seconds
        )

    def _span(self, name: str, op: int, parent, fn, *args):
        result, seconds = self.spans.record(name, op, parent, fn, *args)
        self._counts[name] = self._counts.get(name, 0) + 1
        self._spent[name] = self._spent.get(name, 0.0) + seconds
        return result, seconds

    def _hot_span(self, name: str, op: int, parent, fn, *args):
        """:meth:`_span`, ``HOT_REPEATS`` times; the median counts."""
        taken = []
        for _ in range(HOT_REPEATS):
            result, seconds = self._span(name, op, parent, fn, *args)
            taken.append(seconds)
        return result, harness.median(taken)

    # ------------------------------------------------------------------
    # one sampled op
    # ------------------------------------------------------------------
    def stage(self, op: int, sample: tuple) -> None:
        kind, text, started, seconds, cached = sample
        self.spans.add("op", op, None, started, started + seconds)
        if kind == WRITE:
            covered = self.stage_write(op, text)
        else:
            covered = self.stage_read(op, text, cached)
        self.roots.append((seconds, covered))

    def stage_read(self, op: int, text: str, cached: bool) -> float:
        took: dict[str, float] = {}
        span, hot = self._span, self._hot_span
        self.session.evaluate(text)  # the rig's result cache now holds it
        query, took["core.parser.parse"] = hot(
            "core.parser.parse", op, "op", parse_query, text
        )
        _, took["core.canonical.key"] = hot(
            "core.canonical.key", op, "api.keys.result_key", query_key, query
        )
        epoch = self.db.epoch_vector(query.relations)
        key, took["api.keys.result_key"] = hot(
            "api.keys.result_key", op, "op",
            result_key, query, self.opts, self.config, epoch,
        )
        # engine: one evaluation on the rig's engine, then its parts
        result = None
        if self._wanted("engine.evaluate"):
            memo_before = self.engine.plan_memo_stats()["misses"]
            result, took["engine.evaluate"] = span(
                "engine.evaluate", op, "op", self.engine.evaluate, query
            )
            enumerated = self.engine.plan_memo_stats()["misses"] - memo_before
            self._stage_engine_parts(op, query, took, enumerated)
        # api: a warm hit on the rig session and the lookups inside it
        _, took["api.result_cache.get"] = hot(
            "api.result_cache.get", op, "api.session.hit",
            self.session.results.get, key,
        )
        hit, took["api.session.hit"] = hot(
            "api.session.hit", op, "op", self.session.evaluate, text
        )
        self.parents["api"].append(
            (took["api.session.hit"], sum(took[name] for name in _HIT))
        )
        if result is None:
            result = hit
        # service: the same query as a miss through the batching service
        if self._wanted("service.submit") and "engine.evaluate" in took:
            _, took["service.submit"] = span(
                "service.submit", op, "op",
                lambda: self.service_session.submit(text).result(),
            )
            self.parents["service"].append(
                (took["service.submit"], took["engine.evaluate"])
            )
        # net: codec on this op's result, the socket floor, a remote hit
        if self._wanted("net.protocol.encode"):
            frame, took["net.protocol.encode"] = span(
                "net.protocol.encode", op, "op", self._encode, result
            )
            self.frame_bytes.append(len(frame))
            _, took["net.protocol.decode"] = span(
                "net.protocol.decode", op, "op", self._decode, frame
            )
            # an idle connection answers its first frame late (the server
            # sleeps in its poll); the measured loop never idles
            self.remote.ping()
            _, took["net.roundtrip_ping"] = span(
                "net.roundtrip_ping", op, "op", self.remote.ping
            )
            if text not in self._sent:
                self._sent.add(text)
                self.remote.evaluate(text)
            _, remote_hit = span(
                "net.remote.evaluate", op, "op", self.remote.evaluate, text
            )
            self.parents["net"].append(
                (remote_hit, sum(took[name] for name in _WIRE))
            )
        path = PATHS[self.workload.shape]["hit" if cached else "miss"]
        return sum(took.get(name, 0.0) for name in path)

    def _stage_engine_parts(self, op, query, took, enumerated: int) -> None:
        if not self._wanted("core.minplans.enumerate"):
            return
        span = self._span
        parent = "engine.evaluate"
        plans, took["core.minplans.enumerate"] = span(
            "core.minplans.enumerate", op, parent,
            lambda: minimal_plans(query, deterministic=self.deterministic, fds=self.fds),
        )
        self.plans_per_query.append(len(plans))
        merged, took["core.singleplan.merge"] = span(
            "core.singleplan.merge", op, parent,
            lambda: single_plan(query, deterministic=self.deterministic, fds=self.fds),
        )
        if self._wanted("engine.extensional.score"):
            _, took["engine.extensional.score"] = span(
                "engine.extensional.score", op, parent,
                plan_scores, merged, query, self.db, self.memory_cache,
            )
        if self._wanted("engine.sql.compile"):
            sql, took["engine.sql.compile"] = span(
                "engine.sql.compile", op, parent,
                self.compiler.compile, merged, query,
            )
            if self._wanted("db.sqlite_backend.execute"):
                _, took["db.sqlite_backend.execute"] = span(
                    "db.sqlite_backend.execute", op, parent,
                    self.sqlite.execute, sql,
                )
        # The engine runs its statements through a view registry that keeps
        # shared subplans materialised across queries; no public call
        # reproduces that. The stand-alone execution of the whole statement
        # costs many times the engine's entire call, so it is reported but
        # not subtracted: on SQLite the statement time stays in the engine's
        # unattributed share.
        evaluation = (
            "engine.sql.compile"
            if self.config.backend == "sqlite"
            else "engine.extensional.score"
        )
        if evaluation not in took:
            return
        # the engine re-enumerates only on a plan-memo miss (once per
        # flavour): those children count toward the parent only when it did
        children = took[evaluation]
        if enumerated >= 1:
            children += took["core.minplans.enumerate"]
        if enumerated >= 2:
            children += took["core.singleplan.merge"]
        self.parents["engine"].append((took["engine.evaluate"], children))

    @staticmethod
    def _encode(result) -> bytes:
        return encode_frame(
            {
                "id": 1, "ok": True, "trace": "srv-1", "cached": True,
                "result": result_to_wire(result),
            }
        )

    @staticmethod
    def _decode(frame: bytes):
        payload, _ = decode_frame(frame)
        return result_from_wire(payload["result"])

    def stage_write(self, op: int, relation: str) -> float:
        """One insert on the in-memory clone, the durable clone, and through
        the concurrent session; journal and quiesce costs by subtraction."""
        self._write_serial += 1
        row = (9_000_000 + self._write_serial, 1000 + self._write_serial % 500)
        insert = lambda db: db.insert(relation, row, 0.123457)  # noqa: E731
        span = self._span
        _, memory = span(
            "db.database.mutate", op, "op", self.memory_db.mutate, insert
        )
        _, durable = span(
            "db.durable.mutate", op, "op", self.durable_db.mutate, insert
        )
        _, serviced = span(
            "service.mutate", op, "op", self.service_session.mutate, insert
        )
        journal = max(durable - memory, 0.0)
        quiesce = max(serviced - memory, 0.0)
        now = time.perf_counter()
        self.spans.add("db.journal.commit", op, "db.durable.mutate", now, now + journal)
        self.spans.add("service.mutate.quiesce", op, "service.mutate", now, now + quiesce)
        return memory + journal + quiesce

    # ------------------------------------------------------------------
    # once per run
    # ------------------------------------------------------------------
    def stage_run(self, texts: list[str], seconds: float) -> dict:
        """The stages that are per run, not per op; ``texts`` are the sampled
        reads (replayed over the wire), ``seconds`` the budget for them."""
        out: dict = {}
        slice_seconds = seconds / 5.0
        for serial in range(SYNTHETIC_WRITES - self._counts.get("db.database.mutate", 0)):
            relation = f"R{1 + serial % self.workload.chain_length}"
            self.stage_write(-1, relation)
        out.update(self._journal_stages(slice_seconds))
        out["engine.stats.join_qerror_p95"] = self._qerror(slice_seconds)
        out.update(self._wire_stages(texts, slice_seconds))
        out.update(self._pool_stages(slice_seconds))
        out["obs.traced_hit_overhead_ratio"] = self._observer_overhead(texts)
        return out

    def _journal_stages(self, seconds: float) -> dict:
        checkpoints, recoveries = [], []
        deadline = time.perf_counter() + seconds
        for repeat in range(3):
            if repeat and time.perf_counter() > deadline:
                break
            started = time.perf_counter()
            self.durable_db.save()
            checkpoints.append(time.perf_counter() - started)
            self.durable_db.close()
            started = time.perf_counter()
            self.durable_db = ProbabilisticDatabase.open(
                str(self.store_dir), fsync="commit", checkpoint_every=0
            )
            recoveries.append(time.perf_counter() - started)
        return {
            "db.journal.checkpoint_ms": harness.median(checkpoints) * 1e3,
            "db.journal.recover_ms": harness.median(recoveries) * 1e3,
        }

    def _qerror(self, seconds: float) -> "float | None":
        """Estimated vs actual rows of every join step of 20 fixed queries."""
        k = self.workload.chain_length
        queries = [t for t in catalogue(k, k) if t.count("R") > 1][::3][:20]
        deadline = time.perf_counter() + seconds
        errors = []
        for index, text in enumerate(queries):
            if index >= 3 and time.perf_counter() > deadline:
                break
            report = self.engine.explain(parse_query(text))
            for plan in report["plans"]:
                for join in plan["joins"]:
                    for step in join["steps"]:
                        estimated = max(step["estimated_rows"], 1.0)
                        actual = max(step["actual_rows"], 1.0)
                        errors.append(max(estimated / actual, actual / estimated))
        errors.sort()
        return harness.percentile(errors, 95.0) if errors else None

    def _wire_stages(self, texts: list[str], seconds: float) -> dict:
        """Replay the sampled reads as wire-cache hits: CPU on both sides and
        the server's own counters (parses must equal distinct queries)."""
        out: dict = {}
        texts = texts or [param_query(self.workload.chain_length, 1)]
        for text in dict.fromkeys(texts):
            if text not in self._sent:
                self._sent.add(text)
                self.remote.evaluate(text)
        pids = self.server.pids()
        server_before = harness.cpu_seconds(pids)
        client_before = time.process_time()
        deadline = time.perf_counter() + seconds
        sent = 0
        while time.perf_counter() < deadline:
            self.remote.evaluate(texts[sent % len(texts)])
            sent += 1
        out["net.client.cpu_ms_per_op"] = (time.process_time() - client_before) / sent * 1e3
        out["net.server.cpu_ms_per_op"] = (harness.cpu_seconds(pids) - server_before) / sent * 1e3
        wire = self.remote.stats()["wire_cache"]
        out["net.server.parses"] = wire["misses"]
        # the PR-10 gate: a repeat is answered from the key alone, so the
        # server has parsed exactly once per distinct query
        self.parse_gate = (wire["misses"], len(self._sent))
        out["net.server.wire_cache.hit_ratio"] = wire["hits"] / max(wire["hits"] + wire["misses"], 1)
        return out

    def _shm_export(self) -> float:
        """Seconds ``SharedSnapshotManager.export()`` takes on the rig's
        tables: what a ``--processes`` server adds to its boot before it
        forks. ``shared_memory`` would start a resource-tracker process in
        the load generator; its registration is stubbed for the call, as
        ``repro.db.shm`` does when it attaches (segments are unlinked by the
        manager's ``close`` and, failing that, by ``Hygiene.close``)."""
        from multiprocessing import resource_tracker

        saved = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = resource_tracker.unregister = (
            lambda *args, **kwargs: None
        )
        taken = []
        try:
            for _ in range(5):
                with SharedSnapshotManager(self.db) as manager:
                    started = time.perf_counter()
                    manager.export()
                    taken.append(time.perf_counter() - started)
        finally:
            resource_tracker.register, resource_tracker.unregister = saved
        return harness.median(taken)

    def _pool_stages(self, seconds: float) -> dict:
        """Fork cost and parallel speed-up: the same distinct misses,
        pipelined 8 at a time, against a forked pool and against threads."""
        out = {"db.shm.export_ms": self._shm_export() * 1e3}
        if harness.cpu_count() < 2 or not fork_available():
            out["net.pool.speedup_ratio"] = {"unmeasured": "needs 2 CPUs and fork"}
            return out
        forked = self.hygiene.serve(
            self.data_dir, "--workers", "2", "--processes", "2"
        )
        try:
            with RemoteSession(forked.url, timeout=60.0) as pooled:
                constants = self.workload.constants(self.db)
                k = self.workload.chain_length
                half = len(constants) // 2
                rates = []
                for remote, share in (
                    (pooled, constants[:half]),
                    (self.remote, constants[half:]),
                ):
                    texts = [param_query(k, c) for c in share]
                    remote.evaluate_many(texts[:8])
                    deadline = time.perf_counter() + seconds
                    started = time.perf_counter()
                    done = 8
                    while done + 8 <= len(texts) and time.perf_counter() < deadline:
                        remote.evaluate_many(texts[done : done + 8])
                        done += 8
                    rates.append((done - 8) / (time.perf_counter() - started))
        finally:
            self.hygiene.stop(forked)
        out["net.pool.speedup_ratio"] = rates[0] / rates[1] if rates[1] else None
        return out

    def _observer_overhead(self, texts: list[str]) -> float:
        """A warm hit under ``Observer()`` over a warm hit without one — the
        server always builds an observer, so its hit path is the traced one."""
        text = texts[0] if texts else param_query(self.workload.chain_length, 1)
        observed = connect(self.db, self.config.replace(observer=Observer()))
        try:
            observed.evaluate(text)
            self.session.evaluate(text)
            clock = time.perf_counter
            plain_times, traced_times = [], []
            for _ in range(5):
                for session, sink in ((self.session, plain_times), (observed, traced_times)):
                    started = clock()
                    for _ in range(40):
                        session.evaluate(text)
                    sink.append((clock() - started) / 40)
        finally:
            observed.close()
            self.db.observer = self.session.observer
        return harness.median(traced_times) / harness.median(plain_times)

    # ------------------------------------------------------------------
    # the per-layer numbers
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Medians of the staged children, by metric name."""
        d = self.spans.durations
        memory = d("db.database.mutate")
        out = {
            "core.parser.parse_us": _median(d("core.parser.parse"), 1e6),
            "core.canonical.key_us": _median(d("core.canonical.key"), 1e6),
            "core.minplans.enumerate_ms": _median(d("core.minplans.enumerate"), 1e3),
            "core.singleplan.merge_ms": _median(d("core.singleplan.merge"), 1e3),
            "core.minplans.plans_per_query": _median(self.plans_per_query),
            "engine.evaluate_ms": _median(d("engine.evaluate"), 1e3),
            "engine.extensional.score_ms": _median(d("engine.extensional.score"), 1e3),
            "engine.sql.compile_ms": _median(d("engine.sql.compile"), 1e3),
            "db.sqlite_backend.execute_ms": _median(d("db.sqlite_backend.execute"), 1e3),
            "db.sqlite_backend.load_s": self.sqlite_load_seconds,
            "db.database.mutate_ms": _median(memory, 1e3),
            "db.journal.commit_ms": _median(d("db.journal.commit"), 1e3),
            "api.session.hit_us": _median(d("api.session.hit"), 1e6),
            "api.keys.result_key_us": _median(d("api.keys.result_key"), 1e6),
            "api.result_cache.get_us": _median(d("api.result_cache.get"), 1e6),
            "service.mutate.quiesce_ms": _median(d("service.mutate.quiesce"), 1e3),
            "net.protocol.encode_ms": _median(d("net.protocol.encode"), 1e3),
            "net.protocol.decode_ms": _median(d("net.protocol.decode"), 1e3),
            "net.protocol.frame_bytes_p50": _median(self.frame_bytes),
            "net.roundtrip_ping_ms": _median(d("net.roundtrip_ping"), 1e3),
        }
        submits = self.parents["service"]
        if submits:
            out["service.submit_overhead_ms"] = harness.median(
                [parent - child for parent, child in submits]
            ) * 1e3
        # the median over ops of (parent - children) / parent: one collector
        # pause inside a child must not decide the share
        for layer, pairs in {**self.parents, "op": self.roots}.items():
            shares = [1.0 - child / parent for parent, child in pairs if parent]
            if shares:
                out[f"{layer}.unattributed_share"] = harness.median(shares)
        # The program's counters over the sampled stream, for the workloads
        # with no engine or service of their own (their own take precedence
        # in the report). The rig submits one query at a time, so the batch
        # size read here is 1 by construction. The result cache's counters
        # are never the rig's: it repeats every lookup ``HOT_REPEATS`` times.
        out.update(
            session_counters(
                {
                    "engine": {
                        "plan_memo": self.engine.plan_memo_stats(),
                        "cache": self.engine.cache_stats(),
                    },
                    "service": self.service_session.stats()["service"],
                }
            )
        )
        return {k: v for k, v in out.items() if v is not None}
