"""The six named workloads: data, op streams, the measured call, the checks.

Every workload is a closed loop: a client issues its next op only when the
previous one returned. Inputs derive from the seed alone — the data
generator, the constants drawn, the Zipf rank permutation and the written
rows — and queries reach the program as text, as a client would send them.

A workload owns the *shape* under test (session, server child, durable
store) between :meth:`Workload.setup` and :meth:`Workload.teardown`;
:meth:`Workload.execute` is the one public call a measured op makes.
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

from . import harness  # noqa: F401 - puts src/ on sys.path first

from repro import (  # noqa: E402
    DissociationEngine,
    EngineConfig,
    ProbabilisticDatabase,
    ServiceConfig,
    connect,
    minimal_plans,
    parse_query,
)
from repro.db.io import save_database  # noqa: E402
from repro.engine.reference import plan_scores_reference  # noqa: E402
from repro.net import RemoteSession, fork_available  # noqa: E402
from repro.workloads import chain_database, chain_domain_size  # noqa: E402

READ, WRITE = "read", "write"

#: Ceiling on |score − score of the other backend| (and of the reference).
TOLERANCE = 1e-12
#: Every N-th completed op keeps its answer for the correctness pass (5 %).
VERIFY_STRIDE = 20
#: At most this many kept answers are re-evaluated after the run.
VERIFY_CAP = 24


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def chain_body(first: int, last: int) -> str:
    return ", ".join(f"R{t}(x{t - 1},x{t})" for t in range(first, last + 1))


def param_query(k: int, constant: int) -> str:
    """``q(xk) :- R1(c,x1), R2(x1,x2), ..., Rk(x{k-1},xk)``."""
    tail = chain_body(2, k)
    return f"q(x{k}) :- R1({constant},x1), {tail}"


def catalogue(k: int, max_length: int) -> list[str]:
    """Contiguous sub-chains of the k-chain × three head choices."""
    out = []
    for first in range(1, k + 1):
        for last in range(first, min(first + max_length - 1, k) + 1):
            body = chain_body(first, last)
            for head in (f"x{first - 1},x{last}", f"x{first - 1}", f"x{last}"):
                out.append(f"q({head}) :- {body}")
    return out


def shape_of(text: str) -> tuple:
    """``(atoms, head width, which end)`` — what a catalogue query costs."""
    head = text[text.index("(") + 1 : text.index(")")].split(",")
    first_atom = text[text.index(":-") + 2 :].split("(")[1].split(",")[0]
    return (text.count("R"), len(head), head[0] == first_atom)


def zipf_ranking(rng: random.Random, texts: list[str]) -> list[int]:
    """Catalogue indices by Zipf rank, permuted by the seed within shapes.

    Which *relations* are hot is the seed's choice; how heavy the hot
    queries are is not. The slots of the ranking are a fixed shuffle of the
    catalogue; the seed then permutes, among the slots of one shape (same
    sub-chain length and head choice, so statistically the same answer
    count on uniform data), which member fills which slot. A free
    permutation moved the medians by 25–45 % between seeds — the hit path
    copies the answer, 666 to 8 057 rows — and no bound could hold.
    """
    slots = list(range(len(texts)))
    random.Random(20150831).shuffle(slots)
    members: dict[tuple, list[int]] = {}
    for index in slots:
        members.setdefault(shape_of(texts[index]), []).append(index)
    for group in members.values():
        rng.shuffle(group)
    return [members[shape_of(texts[index])].pop() for index in slots]


def zipf_indices(rng: random.Random, texts: list[str], count: int) -> list[int]:
    """``count`` draws, Zipf(s=1) over :func:`zipf_ranking`."""
    ranking = zipf_ranking(rng, texts)
    weights = [1.0 / (rank + 1) for rank in range(len(ranking))]
    return rng.choices(ranking, weights=weights, k=count)


def reachable_database(db, k: int, constant: int):
    """The rows of ``R1..Rk`` on a path from ``constant``.

    A row off every such path takes part in no satisfying assignment of
    the parameterised chain and — the connecting variable staying in
    every subplan's head until it is joined — reaches no surviving group
    of any plan, so scores are unchanged. It makes the row-at-a-time
    reference affordable (9 s per chain-7 query on the full tables).
    """
    out = ProbabilisticDatabase()
    frontier = {constant}
    for index in range(1, k + 1):
        rows = [
            (row, p) for row, p in db.table(f"R{index}") if row[0] in frontier
        ]
        out.add_table(f"R{index}", rows, arity=2)
        frontier = {row[1] for row, _ in rows}
    return out


def scores_agree(mine: dict, theirs: dict) -> bool:
    if mine.keys() != theirs.keys():
        return False
    return all(abs(mine[a] - theirs[a]) <= TOLERANCE for a in mine)


def reference_scores(text: str, db) -> dict:
    """Row-at-a-time min over the minimal plans (``engine.reference``)."""
    query = parse_query(text)
    schema = db.schema
    out: dict = {}
    for plan in minimal_plans(
        query,
        deterministic=schema.deterministic_relations,
        fds=schema.fds_by_relation,
    ):
        for answer, score in plan_scores_reference(plan, query, db).items():
            if answer not in out or score < out[answer]:
                out[answer] = score
    return out


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Budget:
    """When a client stops: the deadline, but not before ``min_ops`` reads
    (so the 95th percentile always has its ten samples beyond it), and never
    past ``hard_seconds``. ``max_ops`` (fixed-count mode) overrides both."""

    def __init__(
        self,
        seconds: float,
        max_ops: "int | None" = None,
        min_ops: int = 0,
    ) -> None:
        self.max_ops = max_ops
        self.min_ops = min_ops
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.hard = self.started + 4.0 * seconds

    def expired(self, done: int) -> bool:
        if self.max_ops is not None:
            return done >= self.max_ops
        now = time.perf_counter()
        return now >= self.deadline and (done >= self.min_ops or now >= self.hard)


class Sink:
    """What one client thread observed."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = {READ: [], WRITE: []}
        self.kept: list[tuple[str, dict]] = []
        self.roots: list[tuple] = []
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.started = 0.0
        self.ended = 0.0

    @property
    def completed(self) -> int:
        return len(self.latency[READ]) + len(self.latency[WRITE])


class Workload:
    """Base class; subclasses fill in the shape and the stream."""

    name = ""
    why = ""
    #: "serial" | "concurrent" | "remote" | "pool" — which staged children
    #: lie on the measured op's path (see ``layers.PATHS``).
    shape = "serial"
    #: Ops the ISSUE sized for a 15–25 s phase, times ``SCALE`` (README).
    reference_ops = 0
    chain_length = 7
    rows = 2000
    config = EngineConfig()
    #: Replaying the stream from its start would turn misses into hits.
    wraps = True
    clients = 1
    #: Every N-th op of the traced pass is shadow-staged through the layers.
    trace_stride = 1
    #: Keep the generator, and its server, on one CPU (``harness.one_cpu``):
    #: for one blocking client, which never runs beside its server.
    one_cpu = False

    def __init__(self, seed: int, hygiene: "harness.Hygiene") -> None:
        self.seed = seed
        self.hygiene = hygiene
        self.unmeasured: "str | None" = None
        self.streams: list[list] = []
        #: where each client's next op comes from; consecutive timed phases
        #: of one set-up (the traced pass runs two) continue the stream
        self.positions: list[int] = []
        self.extra_metrics: dict = {}

    # -- data ----------------------------------------------------------
    def make_db(self):
        """A fresh copy of the seed's database (rig, cold engines)."""
        return chain_database(self.chain_length, self.rows, seed=self.seed)

    def constants(self, db) -> list[int]:
        values = sorted(db.table("R1").column_values(0))
        random.Random(self.seed * 7919 + 1).shuffle(values)
        return values

    def other_backend_engine(self, db) -> DissociationEngine:
        other = "sqlite" if self.config.backend == "memory" else "memory"
        return DissociationEngine(db, EngineConfig(backend=other))

    # -- lifecycle -----------------------------------------------------
    def precondition(self) -> "str | None":
        """Why this machine cannot measure the workload (``None``: it can)."""
        return None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def execute(self, op) -> tuple:
        """Run one op; returns ``((kind, text, started, seconds, result), ...)``."""
        raise NotImplementedError

    def op_size(self, op) -> int:
        return 1

    def is_wrong(self, text: str, result) -> bool:
        """A cheap per-op sanity check inside the loop."""
        return False

    def _set_streams(self, streams: list[list]) -> None:
        self.streams = streams
        self.positions = [0] * len(streams)

    # -- the loop ------------------------------------------------------
    def run_client(
        self, index: int, budget: Budget, sink: Sink, tracing: bool
    ) -> None:
        ops = self.streams[index]
        execute = self.execute
        reads = sink.latency[READ]
        position = self.positions[index]
        count = len(ops)
        sink.started = time.perf_counter()
        while not budget.expired(sink.completed + sink.failed):
            if position >= count:
                if not self.wraps:
                    break
                position = 0
            op = ops[position]
            position += 1
            try:
                done = execute(op)
            except Exception as exc:  # noqa: BLE001 - counted, not hidden
                sink.failed += self.op_size(op)
                if len(sink.errors) < 5:
                    sink.errors.append(repr(exc))
                continue
            for kind, text, started, seconds, result in done:
                sink.latency[kind].append(seconds)
                if kind == READ:
                    if self.is_wrong(text, result):
                        sink.wrong += 1
                    if (len(reads) - 1) % VERIFY_STRIDE == 0 and len(sink.kept) < 256:
                        sink.kept.append((text, result.scores))
                if tracing:
                    # the root span of the op, around the public call
                    sink.roots.append(
                        (kind, text, started, seconds,
                         bool(result is not None and result.cached))
                    )
        sink.ended = time.perf_counter()
        self.positions[index] = position

    def run(
        self,
        seconds: float,
        max_ops: "int | None" = None,
        min_ops: int = 0,
        tracing: bool = False,
    ) -> list[Sink]:
        """One timed phase over all clients; returns their sinks."""
        sinks = [Sink() for _ in range(self.clients)]
        per_client = None if max_ops is None else -(-max_ops // self.clients)
        floor = -(-min_ops // self.clients)
        if self.clients == 1:
            self.run_client(0, Budget(seconds, per_client, floor), sinks[0], tracing)
            return sinks
        budgets = [Budget(seconds, per_client, floor) for _ in sinks]
        threads = [
            threading.Thread(
                target=self.run_client, args=(i, budgets[i], sinks[i], tracing)
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sinks

    # -- correctness (outside the timed phase) -------------------------
    def verify(self, kept: list) -> tuple[int, int, list[str]]:
        """``(checked, wrong, notes)`` for the kept answers + references."""
        raise NotImplementedError

    def _cross_check(self, pairs, db, seconds: float = 2.0) -> tuple[int, int]:
        """Re-evaluate on a cold engine of the other backend: at least five
        answers, then as many as ``seconds`` allow."""
        engine = self.other_backend_engine(db)
        checked = wrong = 0
        deadline = time.perf_counter() + seconds
        try:
            for text, scores in pairs:
                if checked >= 5 and time.perf_counter() > deadline:
                    break
                cold = engine.evaluate(parse_query(text)).scores
                checked += 1
                if not scores_agree(scores, cold):
                    wrong += 1
        finally:
            engine.invalidate_sqlite()
        return checked, wrong

    def _verify_params(self, kept: list, db) -> tuple[int, int, list[str]]:
        """Parameterised chains: the cross-check, then the reference on the
        rows reachable from each of the first two constants."""
        pairs = kept[:VERIFY_CAP]
        checked, wrong = self._cross_check(pairs, db)
        for text, scores in pairs[:2]:
            reduced = reachable_database(
                self.db, self.chain_length, self._constant_of[text]
            )
            checked += 1
            wrong += not scores_agree(scores, reference_scores(text, reduced))
        return checked, wrong, []

    # -- counters at the public stats() surfaces -----------------------
    def public_counters(self) -> dict:
        return {}

    def server_pids(self) -> list[int]:
        return []


def _ratio(hits: float, misses: float) -> "float | None":
    total = hits + misses
    return hits / total if total else None


def session_counters(stats: dict) -> dict:
    """Flatten ``Session.stats()`` into per-layer counter names."""
    out: dict = {}
    cache = stats.get("result_cache")
    if cache:
        # a cache nothing looks up (the forked pool answers in the session's
        # place) has hit nothing: 0, not the rig's ratio
        out["api.result_cache.hit_ratio"] = (
            _ratio(cache["hits"], cache["misses"]) or 0.0
        )
        out["api.result_cache.stale_evictions"] = cache["evictions"]
    engine = stats.get("engine")
    if engine:
        memo = engine["plan_memo"]
        out["engine.plan_memo.hit_ratio"] = _ratio(memo["hits"], memo["misses"])
        sub = engine["cache"]
        out["engine.subplan_cache.hit_ratio"] = _ratio(sub["hits"], sub["misses"])
    service = stats.get("service")
    if service:
        out["service.mean_batch_size"] = service.get("mean_batch_size")
        dag = service.get("dag") or {}
        if dag.get("node_occurrences"):
            out["service.dag.dedup_ratio"] = dag.get("dedup_ratio")
    return {k: v for k, v in out.items() if v is not None}


# ----------------------------------------------------------------------
# serial parameterised workloads: every op a miss
# ----------------------------------------------------------------------
class _ParamsSerial(Workload):
    wraps = False
    warmup_ops = 8
    one_cpu = True

    def setup(self) -> None:
        self.db = self.make_db()
        self.session = connect(self.db, self.config)
        constants = self.constants(self.db)
        texts = [param_query(self.chain_length, c) for c in constants]
        # warm-up takes the tail, so the measured prefix never depends on it
        for text in texts[-self.warmup_ops:]:
            self.session.evaluate(text)
        self._set_streams([texts[: -self.warmup_ops]])
        self._constant_of = dict(zip(texts, constants))

    def teardown(self) -> None:
        self.session.close()

    def execute(self, text):
        started = time.perf_counter()
        result = self.session.evaluate(text)
        return ((READ, text, started, time.perf_counter() - started, result),)

    def is_wrong(self, text, result) -> bool:
        return result.cached  # distinct constants: a hit would be a bug

    def verify(self, kept):
        return self._verify_params(kept, self.make_db())

    def public_counters(self) -> dict:
        return session_counters(self.session.stats())


class Chain7ParamsMemory(_ParamsSerial):
    name = "chain7_params_memory"
    why = (
        "distinct constants on chain-7: every op misses every cache, 132 "
        "plans on small tables, so core plan enumeration dominates"
    )
    reference_ops = 350


class Chain5ParamsSqlite(_ParamsSerial):
    name = "chain5_params_sqlite"
    why = (
        "distinct constants on chain-5 in SQLite: 14 plans on large tables, "
        "so engine.sql and db.sqlite_backend dominate and core is idle"
    )
    chain_length = 5
    rows = 10000
    config = EngineConfig(backend="sqlite")
    reference_ops = 200


# ----------------------------------------------------------------------
# Zipf repeat traffic: every op a hit
# ----------------------------------------------------------------------
class _ZipfHits(Workload):
    stream_length = 0
    # Left to the scheduler, the remote client and its server ran on one
    # CPU or on two from run to run, and an op cost 6.2 or 7.5 ms of CPU
    # accordingly (README, "One CPU for one client").
    one_cpu = True

    def _prepare(self, evaluate) -> None:
        self.catalogue = catalogue(self.chain_length, self.chain_length)
        self.expected = {t: evaluate(t).scores for t in self.catalogue}
        rng = random.Random(self.seed * 7919 + 2)
        self._set_streams(
            [
                [
                    self.catalogue[i]
                    for i in zipf_indices(rng, self.catalogue, self.stream_length)
                ]
            ]
        )

    def is_wrong(self, text, result) -> bool:
        return not result.cached or len(result.scores) != len(self.expected[text])

    def verify(self, kept):
        wrong = sum(scores != self.expected[text] for text, scores in kept)
        checked = len(kept)
        more, bad = self._cross_check(
            list(self.expected.items()), self.make_db(), seconds=60.0
        )
        checked, wrong = checked + more, wrong + bad
        rng = random.Random(self.seed)
        short = [t for t in catalogue(self.chain_length, 3) if t.count("R") > 1]
        for text in rng.sample(short, 2):
            checked += 1
            wrong += not scores_agree(
                self.expected[text], reference_scores(text, self.db)
            )
        return checked, wrong, []


class ZipfHitsLocal(_ZipfHits):
    name = "zipf_hits_local"
    why = (
        "Zipf repeats over an 84-query catalogue that fits the result cache: "
        "the api hit path is the whole cost; control for zipf_hits_remote"
    )
    reference_ops = 150_000
    stream_length = 200_000
    trace_stride = 200

    def setup(self) -> None:
        self.db = self.make_db()
        self.session = connect(self.db, self.config, result_cache_size=1024)
        self._prepare(self.session.evaluate)

    def teardown(self) -> None:
        self.session.close()

    def execute(self, text):
        started = time.perf_counter()
        result = self.session.evaluate(text)
        return ((READ, text, started, time.perf_counter() - started, result),)

    def public_counters(self) -> dict:
        return session_counters(self.session.stats())


class _Remote(Workload):
    """A child server over the seed's CSV directory plus one connection."""

    server_args: tuple = ()

    def _boot(self) -> None:
        self.db = self.make_db()
        self.data_dir = self.hygiene.temp_dir(self.name)
        save_database(self.db, self.data_dir)
        self.server = self.hygiene.serve(self.data_dir, *self.server_args)
        self.remote = RemoteSession(self.server.url, timeout=60.0)

    def teardown(self) -> None:
        self.remote.close()
        self.hygiene.stop(self.server)

    def server_pids(self) -> list[int]:
        return self.server.pids()

    def public_counters(self) -> dict:
        stats = self.remote.stats()
        wire = stats["wire_cache"]
        out = {
            "net.server.parses": wire["misses"],
            "net.server.wire_cache.hit_ratio": _ratio(wire["hits"], wire["misses"]),
        }
        # the server's own session: its result cache has no entries (the wire
        # cache stands in its place), so it reports every lookup as a miss
        out.update(session_counters(stats.get("session") or {}))
        return {k: v for k, v in out.items() if v is not None}


class ZipfHitsRemote(_Remote, _ZipfHits):
    name = "zipf_hits_remote"
    why = (
        "the zipf_hits_local stream over one socket connection: all "
        "wire-cache hits, so net (codec, JSON, asyncio) does all the work"
    )
    shape = "remote"
    reference_ops = 1500
    stream_length = 20_000
    trace_stride = 5

    def setup(self) -> None:
        self._boot()
        self._prepare(self.remote.evaluate)
        self.distinct_sent = len(self.catalogue)

    def execute(self, text):
        started = time.perf_counter()
        result = self.remote.evaluate(text)
        return ((READ, text, started, time.perf_counter() - started, result),)


# ----------------------------------------------------------------------
# reads beside durable writes, through the batching service
# ----------------------------------------------------------------------
class RwDurableService(Workload):
    name = "rw_durable_service"
    why = (
        "96 % Zipf reads + 4 % journaled inserts from two threads: journal, "
        "undo/epochs, stale eviction and service quiesce share one path"
    )
    shape = "concurrent"
    reference_ops = 10_000
    write_share = 0.04
    #: The ISSUE's 256 scaled like the op counts, so ≈ 3 checkpoints still
    #: fall inside the run.
    checkpoint_every = 100
    stream_length = 40_000
    trace_stride = 20

    def __init__(self, seed, hygiene) -> None:
        super().__init__(seed, hygiene)
        self.clients = min(2, harness.cpu_count())

    def setup(self) -> None:
        self.path = self.hygiene.temp_dir(self.name)
        seeded = self.make_db()
        seeded.save(self.path)
        seeded.close()
        self.session = connect(
            path=str(self.path),
            concurrent=True,
            service=ServiceConfig(workers=2),
            fsync="commit",
            checkpoint_every=self.checkpoint_every,
        )
        self.db = self.session.db
        self.catalogue = catalogue(self.chain_length, 3)
        for text in self.catalogue:
            self.session.evaluate(text)
        domain = chain_domain_size(self.chain_length, self.rows)
        low = 10 ** (len(str(domain)) - 1)  # same digit count as the domain
        ranking = zipf_ranking(random.Random(self.seed * 7919 + 3), self.catalogue)
        weights = [1.0 / (rank + 1) for rank in range(len(ranking))]
        streams = []
        for client in range(self.clients):
            rng = random.Random(self.seed * 7919 + 10 + client)
            reads = iter(rng.choices(ranking, weights=weights, k=self.stream_length))
            ops = []
            for position in range(self.stream_length):
                if rng.random() < self.write_share:
                    # fixed-width values: every journal record and snapshot
                    # row has the same size whatever the thread interleaving
                    row = (
                        1_000_000 + client * 500_000 + position,
                        rng.randint(low, domain),
                    )
                    p = (100_000 + 10 * rng.randrange(39_999) + rng.randint(1, 9)) / 1e6
                    ops.append((f"R{rng.randint(1, self.chain_length)}", row, p))
                else:
                    ops.append(self.catalogue[next(reads)])
            streams.append(ops)
        self._set_streams(streams)
        self.acknowledged: list[tuple] = []
        self._write_lock = threading.Lock()
        self._journal = Path(self.path) / "journal.log"
        self._snapshot = Path(self.path) / "snapshot.json"
        self._journal_size = self._journal.stat().st_size if self._journal.exists() else 0
        self._cycle_bytes = 0
        self._cycle_writes = 0
        self._record_bytes = 0
        self.storage_bytes = 0
        self.storage_writes = 0
        self.checkpoints = 0
        self._closed = False

    def teardown(self) -> None:
        if not self._closed:
            self._closed = True
            self.session.close()

    def execute(self, op):
        if isinstance(op, str):
            started = time.perf_counter()
            result = self.session.evaluate(op)
            return ((READ, op, started, time.perf_counter() - started, result),)
        relation, row, p = op
        # one writer at a time in the generator (the service serialises
        # them anyway), so the byte accounting below is exact
        with self._write_lock:
            started = time.perf_counter()
            self.session.mutate(lambda db: db.insert(relation, row, p))
            seconds = time.perf_counter() - started
            self.acknowledged.append(op)
            self._account_storage()
        return ((WRITE, relation, started, seconds, None),)

    def _account_storage(self) -> None:
        """Journal bytes appended + snapshot bytes rewritten, from the files.

        Whole checkpoint cycles are booked when they close, so the figure
        does not depend on where inside a cycle the run happened to stop.
        """
        size = self._journal.stat().st_size
        self._cycle_writes += 1
        if size > self._journal_size:
            self._record_bytes = size - self._journal_size
            self._cycle_bytes += self._record_bytes
        else:
            # this commit folded the journal into a fresh snapshot; its own
            # record (same width as the previous one) was appended first
            self._cycle_bytes += self._record_bytes
            self.storage_bytes += self._cycle_bytes + self._snapshot.stat().st_size
            self.storage_writes += self._cycle_writes
            self.checkpoints += 1
            self._cycle_bytes = self._cycle_writes = 0
        self._journal_size = size

    def storage_bytes_per_write(self) -> "float | None":
        """Over whole cycles; journal-only when no checkpoint closed yet."""
        if self.storage_writes:
            return self.storage_bytes / self.storage_writes
        if self._cycle_writes:
            return self._cycle_bytes / self._cycle_writes
        return None

    def verify(self, kept):
        notes = []
        engine = self.other_backend_engine(self.db)
        checked = wrong = 0
        try:
            for text in self.catalogue:
                final = self.session.evaluate(text).scores
                checked += 1
                wrong += not scores_agree(
                    final, engine.evaluate(parse_query(text)).scores
                )
        finally:
            engine.invalidate_sqlite()
        rng = random.Random(self.seed)
        short = [t for t in self.catalogue if t.count("R") > 1]
        for text in rng.sample(short, 2):
            checked += 1
            wrong += not scores_agree(
                self.session.evaluate(text).scores, reference_scores(text, self.db)
            )
        # durability: close, reopen from disk, compare with the live state
        live = {t.name: t.fingerprint for t in self.db}
        self.teardown()
        started = time.perf_counter()
        reopened = ProbabilisticDatabase.open(str(self.path))
        self.extra_metrics["recover_seconds"] = time.perf_counter() - started
        try:
            same = live == {t.name: t.fingerprint for t in reopened}
            lost = sum(
                row not in reopened.table(relation)
                or reopened.table(relation).probability(row) != p
                for relation, row, p in self.acknowledged
            )
        finally:
            reopened.close()
        self.extra_metrics["recovery_ok"] = int(same and not lost)
        checked += len(self.acknowledged)
        wrong += lost
        if not same:
            notes.append("reopened store differs from the live state")
        return checked, wrong, notes

    def public_counters(self) -> dict:
        return session_counters(self.session.stats())


# ----------------------------------------------------------------------
# pipelined misses against the forked worker pool
# ----------------------------------------------------------------------
class ParamsPoolRemote(_Remote):
    name = "params_pool_remote"
    why = (
        "distinct chain-5 misses pipelined 8 at a time to a server with two "
        "forked workers: the only load on net.pool, db.shm and submit/gather"
    )
    shape = "pool"
    chain_length = 5
    rows = 20000
    wraps = False
    reference_ops = 900
    window = 8
    server_args = ("--workers", "2", "--processes", "2")
    trace_stride = 4

    def precondition(self) -> "str | None":
        if harness.cpu_count() < 2:
            return "fewer than 2 CPUs: a forked pool cannot run in parallel"
        if not fork_available():
            return "no fork start method on this platform"
        return None

    def setup(self) -> None:
        self._boot()
        kind = self.remote.hello()["pool"].get("kind")
        if kind != "process":
            self.unmeasured = f"server fell back to a {kind} pool"
            return
        constants = self.constants(self.db)
        texts = [param_query(self.chain_length, c) for c in constants]
        warm = 2 * self.window
        self.remote.evaluate_many(texts[-warm:])
        self.distinct_sent = warm
        texts = texts[:-warm]
        self._set_streams(
            [
                [
                    texts[i : i + self.window]
                    for i in range(0, len(texts) - self.window + 1, self.window)
                ]
            ]
        )
        self._constant_of = dict(zip(texts, constants))

    def teardown(self) -> None:
        if hasattr(self, "remote"):
            super().teardown()

    def op_size(self, op) -> int:
        return len(op)

    def execute(self, window):
        clock = time.perf_counter
        finished: dict = {}
        futures = []
        submitted = []
        self.distinct_sent += len(window)
        for text in window:
            submitted.append(clock())
            future = self.remote.submit(text)
            future.add_done_callback(
                lambda f, at=len(futures): finished.__setitem__(at, clock())
            )
            futures.append(future)
        results = self.remote.gather(futures)
        # a future wakes its waiters before it runs its callbacks, so the
        # last callback may not have stored its time yet
        gathered = clock()
        return tuple(
            (
                READ, text, submitted[i],
                finished.get(i, gathered) - submitted[i], results[i],
            )
            for i, text in enumerate(window)
        )

    def is_wrong(self, text, result) -> bool:
        return result.cached

    def verify(self, kept):
        return self._verify_params(kept, self.db)


WORKLOADS = {
    cls.name: cls
    for cls in (
        Chain7ParamsMemory,
        Chain5ParamsSqlite,
        ZipfHitsLocal,
        ZipfHitsRemote,
        RwDurableService,
        ParamsPoolRemote,
    )
}
