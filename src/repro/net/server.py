"""The socket front end: asyncio accept loop over the session stack.

:func:`serve` binds a :class:`ReproServer` — an asyncio server running
on a background thread — over one :class:`~repro.api.Session` in
concurrent mode. Request frames (see :mod:`repro.net.protocol`) carry
the **canonical query key**, the optimization flags, and the client's
config digest; the server keys its wire-level
:class:`~repro.api.cache.ResultCache` on ``(key, opts, digest, epoch
vector)``, holds each result as its encoded body, and answers repeats
*without parsing the text or touching a row* — ``net.parses ==
net.encodes == distinct queries`` plus the wire cache's hit counter
prove it. Misses parse once and evaluate through the pool backend
(:func:`repro.net.pool.choose_pool`): the in-process session, or
forked workers over shared-memory snapshots.

Mutations serialize behind one lock: replay the client's change
records (:func:`~repro.db.apply_record`) inside ``session.mutate``
(transactional, journaled when durable), run the
pool's epoch handshake (:meth:`ProcessWorkerPool.refresh`), evict
stale wire-cache entries, and return the moved epoch vector so clients
observe the new generation in the same round trip.

Every response carries a server-assigned ``trace`` id; when the
observer is enabled the evaluation's own trace id rides inside the
result payload and can be fetched back with the ``trace`` op.

The optional ``metrics_port`` serves a minimal HTTP/1.0 ``GET
/metrics`` endpoint with the Prometheus exposition of
:func:`~repro.obs.merge_snapshots` over the server registry and every
pool worker's registry.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import replace

from ..api.cache import ResultCache
from ..api.config import EngineConfig, ServiceConfig
from ..api.session import Session
from ..core.parser import parse_query
from ..core.safety import UnsafeQueryError
from ..db import apply_record
from ..obs import (
    Observer,
    merge_snapshots,
    render_prometheus_snapshot,
    resolve_observer,
)
from ..service import (
    RequestTimeout,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from .pool import choose_pool
from .protocol import (
    BadMagic,
    FrameDecoder,
    PROTOCOL_VERSION,
    ProtocolError,
    config_digest,
    encode_frame,
    epoch_to_wire,
    jsonable,
    optimizations_from_wire,
    result_to_wire,
)

__all__ = ["ReproServer", "serve"]

_READ_CHUNK = 65536


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, ServiceClosed):
        return "ServiceClosed"
    if isinstance(exc, RequestTimeout):
        return "RequestTimeout"
    if isinstance(exc, WorkerCrashed):
        return "WorkerCrashed"
    if isinstance(exc, ServiceOverloaded):
        return "ServiceOverloaded"
    if isinstance(exc, UnsafeQueryError):
        return "UnsafeQueryError"
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return type(exc).__name__
    return "InternalError"


class ReproServer:
    """One serving process: socket loop + session + pool + wire cache."""

    def __init__(
        self,
        db,
        config: EngineConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics_port: "int | None" = None,
        workers: int = 2,
        processes: "int | None" = None,
        observer=None,
        result_cache_size: "int | None" = 1024,
        max_frame_bytes: "int | None" = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        if observer is None:
            observer = (
                config.observer
                if config.observer is not None
                else Observer()
            )
        self.observer = resolve_observer(observer)
        if config.observer is not observer:
            config = replace(config, observer=observer)
        self.config = config
        self.db = db
        self.digest = config_digest(config)
        self.session = Session(
            db,
            config,
            concurrent=True,
            service=ServiceConfig(workers=workers, observer=observer),
            # The wire cache is the single serving cache: disabling the
            # session's own keeps the hit/parse counters unambiguous.
            result_cache_size=0,
        )
        self.pool = choose_pool(self.session, db, config, processes)
        self.wire_cache = ResultCache(max_entries=result_cache_size)
        self.observer.register_collector(
            "net.wire_cache", self.wire_cache.stats
        )
        self.max_frame_bytes = max_frame_bytes
        self._trace_ids = itertools.count(1)
        self._connections: "set[asyncio.Task]" = set()
        self._mutate_lock: asyncio.Lock | None = None
        self._requests = 0
        self._closed = False
        self.host = host
        self.port: int | None = None
        self.metrics_port: int | None = None
        self._server = None
        self._metrics_server = None
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="repro-serve"
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._start(host, port, metrics_port), self._loop
        )
        try:
            future.result(timeout=30)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        # drain callbacks scheduled by the stop sequence
        self._loop.close()

    async def _start(self, host, port, metrics_port) -> None:
        self._mutate_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host, metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )

    @property
    def url(self) -> str:
        return f"repro://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, close the pool, the session, and the loop."""
        if self._closed:
            return
        self._closed = True

        async def _shutdown() -> None:
            servers = [
                server
                for server in (self._server, self._metrics_server)
                if server is not None
            ]
            for server in servers:
                server.close()
            # live connections would otherwise die pending with the loop
            for task in self._connections:
                task.cancel()
            await asyncio.gather(
                *self._connections,
                *(s.wait_closed() for s in servers),
                return_exceptions=True,
            )

        if self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    _shutdown(), self._loop
                ).result(timeout=10)
            except Exception:
                pass
        self.pool.close()
        self.session.close()
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        decoder = (
            FrameDecoder(self.max_frame_bytes)
            if self.max_frame_bytes
            else FrameDecoder()
        )
        self.observer.inc("net.connections")
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        # pipelined requests on one connection run concurrently — each
        # payload dispatches as its own task so a slow evaluation never
        # heads-of-line-blocks the ones queued behind it. Responses are
        # written as they complete; the client matches them back by id.
        write_lock = asyncio.Lock()
        inflight: "set[asyncio.Task]" = set()

        async def respond(payload) -> None:
            response = await self._dispatch(payload)
            async with write_lock:
                await self._write(writer, response)

        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                fatal = False
                while data is not None:
                    try:
                        payloads, data = decoder.feed(data), None
                    except BadMagic as exc:
                        payloads, data = exc.decoded, None
                        await self._send_protocol_error(writer, exc)
                        fatal = True
                    except ProtocolError as exc:
                        # FrameTooLarge / ChecksumMismatch /
                        # MalformedPayload: typed error frame, stream
                        # stays aligned, connection survives — go on
                        # with the frames buffered behind the bad one
                        payloads, data = exc.decoded, b""
                        await self._send_protocol_error(writer, exc)
                    for payload in payloads:
                        task = asyncio.ensure_future(respond(payload))
                        inflight.add(task)
                        task.add_done_callback(inflight.discard)
                if fatal:
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            # the server is closing; ending normally keeps the stream
            # protocol's done-callback (3.11 reads .exception()) quiet
            for task in inflight:
                task.cancel()
        finally:
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _write(self, writer, payload) -> None:
        frame = encode_frame(payload)
        self.observer.inc("net.bytes_out", len(frame))
        writer.write(frame)
        await writer.drain()

    async def _send_protocol_error(self, writer, exc: ProtocolError):
        self.observer.inc("net.protocol_errors")
        await self._write(
            writer,
            {
                "id": None,
                "ok": False,
                "trace": self._next_trace(),
                "error": {
                    "kind": type(exc).__name__,
                    "message": str(exc),
                },
            },
        )

    def _next_trace(self) -> str:
        return f"srv-{next(self._trace_ids)}"

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request) -> dict:
        trace = self._next_trace()
        if not isinstance(request, dict):
            return {
                "id": None,
                "ok": False,
                "trace": trace,
                "error": {
                    "kind": "BadRequest",
                    "message": "payload must be a JSON object",
                },
            }
        rid = request.get("id")
        op = request.get("op")
        handler = self._OPS.get(op)
        self._requests += 1
        self.observer.inc("net.requests")
        if handler is None:
            return {
                "id": rid,
                "ok": False,
                "trace": trace,
                "error": {
                    "kind": "BadRequest",
                    "message": f"unknown op {op!r}",
                },
            }
        try:
            body = await handler(self, request)
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            self.observer.inc("net.errors")
            return {
                "id": rid,
                "ok": False,
                "trace": trace,
                "error": {
                    "kind": _error_kind(exc),
                    "message": str(exc) or repr(exc),
                },
            }
        body.update({"id": rid, "ok": True, "trace": trace})
        return body

    async def _op_hello(self, request) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "digest": self.digest,
            "backend": self.config.backend,
            "tables": self.db.table_names,
            "pool": self.pool.stats(),
        }

    async def _op_ping(self, request) -> dict:
        return {"pong": True}

    async def _op_evaluate(self, request) -> dict:
        digest = request.get("digest")
        if digest is not None and digest != self.digest:
            raise ValueError(
                "ConfigMismatch: client config digest "
                f"{digest} != server {self.digest}"
            )
        key_text = request["key"]
        opts_wire = tuple(bool(v) for v in request["opts"])
        relations = request.get("relations") or ()
        epoch = self.db.epoch_vector(relations)
        cache_key = ("wire", key_text, opts_wire, self.digest, epoch)
        body = self.wire_cache.get(cache_key)
        if body is not None:
            # served before parse, and as the bytes encoded on the miss
            self.observer.inc("net.cache.hits")
            return {"result": body, "cached": True}
        self.observer.inc("net.cache.misses")
        self.observer.inc("net.parses")
        query = parse_query(request["query"])
        opts = optimizations_from_wire(request["opts"])
        timeout = request.get("timeout")
        future = self.pool.submit(query, opts, timeout=timeout)
        result = await asyncio.wrap_future(future)
        self.observer.inc("net.encodes")
        body = result_to_wire(result)
        # keyed under the epoch the evaluation actually ran against —
        # a racing mutation can only produce a *newer*, correct entry
        self.wire_cache.put(
            ("wire", key_text, opts_wire, self.digest, result.epoch), body
        )
        return {"result": body, "cached": False}

    async def _op_mutate(self, request) -> dict:
        records = request.get("ops") or []

        def _replay(db):
            for record in records:
                apply_record(db, record)

        loop = asyncio.get_running_loop()
        async with self._mutate_lock:
            await loop.run_in_executor(
                None, lambda: self.session.mutate(_replay)
            )
            # epoch handshake: workers re-attach before stale segments
            # are unlinked and before any new evaluation is dispatched
            await loop.run_in_executor(None, self.pool.refresh)
            self.wire_cache.evict_stale(self.db.table_epochs())
        self.observer.inc("net.mutations")
        epochs = self.db.epoch_vector(self.db.table_names)
        return {"epochs": epoch_to_wire(epochs)}

    async def _op_stats(self, request) -> dict:
        loop = asyncio.get_running_loop()
        pool_stats = self.pool.stats()
        session_stats = await loop.run_in_executor(None, self.session.stats)
        snapshot = await loop.run_in_executor(None, self.observer.snapshot)
        counters = snapshot["counters"]
        return {
            "stats": jsonable(
                {
                    "requests": self._requests,
                    "net": {
                        name: counters.get(f"net.{name}", 0)
                        for name in ("parses", "encodes", "bytes_out")
                    },
                    "wire_cache": self.wire_cache.stats(),
                    "pool": pool_stats,
                    "session": session_stats,
                }
            )
        }

    async def _op_trace(self, request) -> dict:
        tree = self.session.trace(request.get("trace_id"))
        return {"tree": jsonable(tree)}

    async def _op_metrics(self, request) -> dict:
        return {"text": await self._exposition()}

    _OPS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "evaluate": _op_evaluate,
        "mutate": _op_mutate,
        "stats": _op_stats,
        "trace": _op_trace,
        "metrics": _op_metrics,
    }

    # ------------------------------------------------------------------
    # /metrics HTTP endpoint
    # ------------------------------------------------------------------
    async def _exposition(self) -> str:
        loop = asyncio.get_running_loop()
        worker_snaps = await loop.run_in_executor(
            None, self.pool.metrics_snapshots
        )
        server_snap = await loop.run_in_executor(None, self.observer.snapshot)
        merged = merge_snapshots(server_snap, *worker_snaps)
        return render_prometheus_snapshot(merged)

    async def _handle_metrics_http(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.split("?")[0] not in ("/", "/metrics"):
                body = b"not found\n"
                head = (
                    b"HTTP/1.0 404 Not Found\r\n"
                    b"Content-Type: text/plain\r\n"
                )
            else:
                body = (await self._exposition()).encode("utf-8")
                head = (
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4\r\n"
                )
            writer.write(
                head
                + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def serve(
    db,
    config: EngineConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> ReproServer:
    """Start (and return) a :class:`ReproServer` for ``db``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.port``. Keyword options: ``metrics_port`` (Prometheus
    endpoint; ``0`` for ephemeral), ``workers`` (service threads),
    ``processes`` (forked shared-memory evaluators; ``None``/``0``
    stays in-process), ``observer``, ``result_cache_size``.
    """
    return ReproServer(db, config, host, port, **kwargs)
