"""The multi-process worker pool over shared-memory snapshots.

``fork``-started evaluator processes, each attaching the parent's
:mod:`repro.db.shm` segments (zero-copy code/score columns) and
evaluating on its own GIL. The control plane is one duplex pipe per
worker, strictly FIFO, which is what makes the epoch handshake cheap:

* **evaluate** — the parent round-robins ``("eval", id, text, opts,
  generation)`` tasks; the worker parses, evaluates on its seeded
  memory engine, and replies with the pickled
  :class:`~repro.engine.EvaluationResult` (whose ``epoch`` carries the
  parent's real per-table epochs, so the server caches it under the
  generation it *actually* ran against).
* **refresh** — after a mutation the parent re-exports changed tables,
  sends ``("refresh", meta)`` down every pipe, and waits for each
  ``("refreshed", generation)`` ack before unlinking superseded
  segments. FIFO ordering guarantees every evaluation queued before
  the refresh still reads the old (still-linked) pages, and every one
  after it reads the new snapshot — no task can straddle generations.
* **metrics** — workers keep a private
  :class:`~repro.obs.MetricsRegistry`; the parent pulls ``snapshot()``
  dicts on demand and the server merges them into ``/metrics`` via
  :func:`repro.obs.merge_snapshots`.

A worker that dies mid-task fails its in-flight futures with
:class:`~repro.service.WorkerCrashed` and is restarted (bounded by
``max_restarts``) against the current snapshot. Platforms without
``fork`` (or non-memory backends) use
:class:`~repro.service.pool.ThreadEvaluatorPool` instead — pick via
:func:`choose_pool`.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import traceback
from concurrent.futures import Future

from ..core.parser import parse_query
from ..core.safety import UnsafeQueryError
from ..db.shm import SharedSnapshotManager, attach_snapshot, seed_cache
from ..engine import DissociationEngine, Optimizations
from ..obs import MetricsRegistry
from ..service import ServiceClosed, WorkerCrashed
from .protocol import optimizations_from_wire, wire_optimizations

__all__ = ["ProcessWorkerPool", "choose_pool", "fork_available"]

#: Worker-reported error names the parent can reconstruct faithfully.
_ERROR_TYPES: dict[str, type] = {
    "UnsafeQueryError": UnsafeQueryError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def fork_available() -> bool:
    """Whether this platform can fork workers (POSIX, not emulated)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _reseed(engine: DissociationEngine, snapshot) -> None:
    """Install a fresh seeded evaluation cache after (re)attach.

    Fresh on purpose: worker-local constant interning may have appended
    codes past the parent's value list, and a later generation could
    assign those codes to different values — dropping the cache and
    rebuilding the interner wholesale (see
    :func:`repro.db.shm.seed_cache`) removes every object that could
    reference a stale code. The plan memo stays: plans hold constants,
    not codes.
    """
    executor = engine.memory_executor
    executor.cache = None
    seed_cache(executor.cache_for(), snapshot)


def _worker_main(conn, meta, config) -> None:
    """Evaluator process body: attach, seed, serve the pipe FIFO."""
    # the parent stops workers over the pipe: a group-wide Ctrl-C must
    # not kill them mid-task, and its SIGTERM handler is not theirs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    registry = MetricsRegistry()
    snapshot = attach_snapshot(meta)
    engine = DissociationEngine(snapshot, config)
    _reseed(engine, snapshot)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "eval":
                _, task_id, text, opts_wire, generation = message
                if generation > snapshot.generation:
                    # Cannot happen under FIFO (a refresh always
                    # precedes tasks of its generation), but a typed
                    # reply beats evaluating against the wrong pages.
                    conn.send(("stale", task_id, snapshot.generation))
                    continue
                try:
                    query = parse_query(text)
                    result = engine.evaluate(
                        query, optimizations_from_wire(opts_wire)
                    )
                    registry.inc("pool.worker.evaluations")
                    registry.observe("pool.worker.seconds", result.seconds)
                    conn.send(("ok", task_id, result))
                except Exception as exc:  # noqa: BLE001 - shipped to parent
                    registry.inc("pool.worker.errors")
                    conn.send(
                        (
                            "err",
                            task_id,
                            type(exc).__name__,
                            str(exc),
                            traceback.format_exc(limit=4),
                        )
                    )
            elif op == "refresh":
                snapshot.reattach(message[1])
                _reseed(engine, snapshot)
                registry.inc("pool.worker.refreshes")
                conn.send(("refreshed", snapshot.generation))
            elif op == "metrics":
                conn.send(("metrics", message[1], registry.snapshot()))
            elif op == "stop":
                break
    finally:
        snapshot.close()
        conn.close()


class _Worker:
    """Parent-side handle: process + pipe + reader thread + in-flight."""

    def __init__(self, pool: "ProcessWorkerPool", index: int) -> None:
        self.pool = pool
        self.index = index
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, pool._manager.meta(), pool._config),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child.close()
        self.inflight: dict[int, Future] = {}
        self.refreshed = threading.Event()
        self.metrics: dict = {}
        self.metrics_ready = threading.Event()
        self.lock = threading.Lock()
        self.reader = threading.Thread(
            target=self._read_loop, daemon=True, name=f"repro-pool-rx-{index}"
        )
        self.reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ok":
                future = self._take(message[1])
                if future is not None:
                    future.set_result(message[2])
            elif kind == "err":
                future = self._take(message[1])
                if future is not None:
                    _, _, name, text, trace = message
                    exc_type = _ERROR_TYPES.get(name, RuntimeError)
                    exc = exc_type(text)
                    exc.remote_traceback = trace
                    future.set_exception(exc)
            elif kind == "stale":
                future = self._take(message[1])
                if future is not None:
                    future.set_exception(
                        WorkerCrashed(
                            "worker snapshot behind the submitted "
                            f"generation ({message[2]})"
                        )
                    )
            elif kind == "refreshed":
                self.refreshed.set()
            elif kind == "metrics":
                self.metrics = message[2]
                self.metrics_ready.set()
        self.pool._on_worker_exit(self)

    def _take(self, task_id: int) -> Future | None:
        with self.lock:
            return self.inflight.pop(task_id, None)

    def fail_inflight(self, exc: Exception) -> None:
        with self.lock:
            pending = list(self.inflight.values())
            self.inflight.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def send(self, message) -> None:
        self.conn.send(message)

    def stop(self, timeout: float = 2.0) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass


class ProcessWorkerPool:
    """Forked evaluators over one shared-memory snapshot.

    ``workers`` processes round-robin evaluate tasks;
    :meth:`refresh` is the mutate-time epoch handshake. Only the
    ``memory`` backend is supported — the SQLite backend materializes
    per-connection anyway, so processes would buy it nothing the
    thread pool doesn't already provide.
    """

    kind = "process"

    def __init__(self, db, config, workers: int = 2, max_restarts: int = 3):
        if config.backend != "memory":
            raise ValueError(
                "ProcessWorkerPool supports the memory backend only, "
                f"got {config.backend!r}"
            )
        if not fork_available():
            raise RuntimeError("platform does not support fork")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.db = db
        self._config = config
        self.max_restarts = max_restarts
        self.restarts = 0
        self._manager = SharedSnapshotManager(db)
        self._manager.export()
        self._lock = threading.Lock()
        self._task_counter = 0
        self._next_worker = 0
        self._closed = False
        self._workers = [_Worker(self, i) for i in range(workers)]

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._manager.generation

    def submit(
        self,
        query,
        optimizations: Optimizations,
        timeout=None,
    ) -> Future:
        """Evaluate ``query`` on some worker; returns a future.

        ``query`` may be a parsed query or Datalog text — the worker
        parses either way (its parse, its GIL). ``timeout`` is accepted
        for pool-interface compatibility and unused: dispatch is
        immediate (the pipe is the queue).
        """
        text = query if isinstance(query, str) else str(query)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ServiceClosed("worker pool is closed")
            self._task_counter += 1
            task_id = self._task_counter
            worker = self._workers[self._next_worker % len(self._workers)]
            self._next_worker += 1
            with worker.lock:
                worker.inflight[task_id] = future
            try:
                worker.send(
                    (
                        "eval",
                        task_id,
                        text,
                        wire_optimizations(optimizations),
                        self._manager.generation,
                    )
                )
            except (OSError, BrokenPipeError):
                with worker.lock:
                    worker.inflight.pop(task_id, None)
                future.set_exception(
                    WorkerCrashed(f"worker {worker.index} pipe is down")
                )
        return future

    def refresh(self, timeout: float = 10.0) -> None:
        """The epoch-vector handshake after a mutation.

        Re-exports changed tables, pushes the new meta to every worker,
        and blocks until all acks arrive — only then are superseded
        segments unlinked. New submits are held out for the duration
        (the dispatch lock), so no task can observe a half-refreshed
        pool.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("worker pool is closed")
            meta = self._manager.refresh()
            waiting = []
            for worker in self._workers:
                worker.refreshed.clear()
                try:
                    worker.send(("refresh", meta))
                    waiting.append(worker)
                except (OSError, BrokenPipeError):
                    continue  # exit handler restarts it with fresh meta
            for worker in waiting:
                worker.refreshed.wait(timeout)
            self._manager.release()

    def metrics_snapshots(self, timeout: float = 2.0) -> list[dict]:
        with self._lock:
            if self._closed:
                return []
            waiting = []
            for worker in self._workers:
                worker.metrics_ready.clear()
                self._task_counter += 1
                try:
                    worker.send(("metrics", self._task_counter))
                    waiting.append(worker)
                except (OSError, BrokenPipeError):
                    continue
        snapshots = []
        for worker in waiting:
            if worker.metrics_ready.wait(timeout) and worker.metrics:
                snapshots.append(worker.metrics)
        return snapshots

    def stats(self) -> dict:
        with self._lock:
            inflight = sum(len(w.inflight) for w in self._workers)
            return {
                "kind": self.kind,
                "workers": len(self._workers),
                "generation": self._manager.generation,
                "restarts": self.restarts,
                "inflight": inflight,
            }

    # ------------------------------------------------------------------
    def _on_worker_exit(self, worker: "_Worker") -> None:
        """Reader-thread callback: the worker's pipe closed."""
        worker.fail_inflight(
            WorkerCrashed(f"pool worker {worker.index} exited")
        )
        with self._lock:
            if self._closed or self._workers[worker.index] is not worker:
                return
            if self.restarts >= self.max_restarts:
                return
            self.restarts += 1
            try:
                self._workers[worker.index] = _Worker(self, worker.index)
            except Exception:  # pragma: no cover - respawn env failure
                pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            worker.fail_inflight(ServiceClosed("worker pool closed"))
            worker.stop()
        self._manager.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def choose_pool(session, db, config, processes: "int | None"):
    """The server's pool selection with graceful fallback.

    ``processes`` workers of :class:`ProcessWorkerPool` when asked for,
    the platform can fork, and the backend is ``memory``; otherwise the
    in-process :class:`~repro.service.pool.ThreadEvaluatorPool` over
    the server's session (always works).
    """
    from ..service.pool import ThreadEvaluatorPool

    if processes and processes > 0:
        if fork_available() and config.backend == "memory":
            try:
                return ProcessWorkerPool(db, config, workers=processes)
            except Exception:  # pragma: no cover - fork env failure
                pass
    return ThreadEvaluatorPool(session)
