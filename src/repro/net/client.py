"""``RemoteSession`` — the client half of the serving tier.

``repro.connect(url="repro://host:port")`` returns a
:class:`RemoteSession` speaking the canonical-key wire protocol
(:mod:`repro.net.protocol`) over one blocking socket plus a reader
thread that correlates response frames back to per-request futures —
any number of threads can ``evaluate``/``submit`` concurrently on one
connection.

The client does the canonicalization the server never has to:
``evaluate`` parses the query text locally and ships
``(canonical key, relations, opts, config digest)`` next to the text,
so repeat traffic resolves in the server's wire cache *before* the
text is ever parsed there. Scores cross back as raw float64 columns,
bit-identical to a local :class:`~repro.api.Session` evaluation.

Failures are typed end to end:

==================  =====================================================
server error kind   raised here as
==================  =====================================================
ServiceClosed       :class:`repro.service.ServiceClosed`
RequestTimeout      :class:`repro.service.RequestTimeout`
WorkerCrashed       :class:`repro.service.WorkerCrashed`
ServiceOverloaded   :class:`repro.service.ServiceOverloaded`
UnsafeQueryError    :class:`repro.core.safety.UnsafeQueryError`
ValueError & co.    the same builtin
anything else       :class:`RemoteError`
==================  =====================================================

Reconnects reuse :class:`~repro.service.RetryPolicy`: idempotent ops
(``evaluate``/``stats``/``trace``/...) transparently redial and resend
on a dead connection; ``mutate`` never auto-retries — a lost response
does not reveal whether the ops committed.

``mutate(fn)`` runs ``fn`` against a :class:`MutationRecorder` (the
tracked helpers, ``d.insert("R", row, p)`` and friends), ships the
recorded change records, and the server replays them transactionally with
:func:`~repro.db.apply_record` — the response carries the
post-commit epoch vector, so the very next ``evaluate`` keys into the
new generation.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import Future
from typing import Callable, Iterable, Sequence
from urllib.parse import urlsplit

from ..core.fds import ColumnFD
from ..core.parser import parse_query
from ..core.query import ConjunctiveQuery
from ..core.safety import UnsafeQueryError
from ..db.database import add_table_record, normalize_rows
from ..engine import EvaluationResult, Optimizations
from ..obs import StatsLRU
from ..service import (
    Deadline,
    RequestTimeout,
    RetryPolicy,
    ServiceClosed,
    ServiceOverloaded,
    WorkerCrashed,
)
from .protocol import (
    BadMagic,
    FrameDecoder,
    MalformedPayload,
    PROTOCOL_VERSION,
    ProtocolError,
    config_digest,
    encode_frame,
    epoch_from_wire,
    result_from_wire,
    wire_optimizations,
    wire_query_key,
)

__all__ = ["RemoteSession", "RemoteError", "MutationRecorder", "parse_url"]


class RemoteError(RuntimeError):
    """A server-side failure with no local exception type to map onto."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


_ERROR_TYPES: dict[str, Callable[[str], Exception]] = {
    "ServiceClosed": ServiceClosed,
    "RequestTimeout": RequestTimeout,
    "WorkerCrashed": WorkerCrashed,
    "ServiceOverloaded": ServiceOverloaded,
    "UnsafeQueryError": UnsafeQueryError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
}


def _raise_remote(error: dict) -> None:
    kind = error.get("kind", "InternalError")
    message = error.get("message", "")
    maker = _ERROR_TYPES.get(kind)
    if maker is not None:
        raise maker(message)
    raise RemoteError(kind, message)


def parse_url(url: str) -> tuple[str, int]:
    """``repro://host:port`` → ``(host, port)``."""
    parts = urlsplit(url)
    if parts.scheme != "repro":
        raise ValueError(
            f"unsupported URL scheme {parts.scheme!r} (want repro://)"
        )
    if parts.hostname is None or parts.port is None:
        raise ValueError(f"URL {url!r} must name a host and port")
    return parts.hostname, parts.port


class MutationRecorder:
    """Records tracked-helper calls as change records for server-side
    transactional replay.

    Takes the :class:`~repro.db.ProbabilisticDatabase` tracked surface
    (``insert``/``delete``/``update_probability``/``add_table``/
    ``drop_table``/``touch``, with the same parameters) and appends the
    dicts the helpers journal (``update_probability`` and ``touch`` are
    the two kinds only the wire sends); the server replays them with
    :func:`~repro.db.apply_record`. Reads are *not* available — a
    remote mutation function must be write-only (the replay happens in
    the server's transaction, not here).
    """

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def insert(
        self, relation: str, row: Sequence, probability: float = 1.0
    ) -> None:
        self.ops.append(
            {
                "op": "insert",
                "rel": relation,
                "row": list(row),
                "p": probability,
            }
        )

    def delete(self, relation: str, row: Sequence) -> None:
        self.ops.append({"op": "delete", "rel": relation, "row": list(row)})

    def update_probability(
        self, relation: str, row: Sequence, probability: float
    ) -> None:
        self.ops.append(
            {
                "op": "update_probability",
                "rel": relation,
                "row": list(row),
                "p": probability,
            }
        )

    def add_table(
        self,
        name: str,
        rows: Iterable = (),
        deterministic: bool = False,
        columns: Sequence[str] = (),
        fds: Sequence[ColumnFD] = (),
        arity: "int | None" = None,
    ) -> None:
        normalized, arity = normalize_rows(name, rows, arity)
        self.ops.append(
            add_table_record(
                name, normalized, deterministic, columns, fds, arity
            )
        )

    def drop_table(self, name: str) -> None:
        self.ops.append({"op": "drop_table", "name": name})

    def touch(self) -> None:
        self.ops.append({"op": "touch"})


class RemoteSession:
    """A :class:`~repro.api.Session`-shaped client over one socket."""

    def __init__(
        self,
        url: str,
        config=None,
        *,
        optimizations: Optimizations | None = None,
        retry: RetryPolicy | None = None,
        timeout: "float | None" = 30.0,
    ) -> None:
        self.url = url
        self.host, self.port = parse_url(url)
        self.default_optimizations = optimizations or Optimizations()
        self.timeout = timeout
        #: Reconnect policy for *connection* failures on idempotent ops.
        self.retry = retry or RetryPolicy(
            max_retries=2, backoff=0.05, classify=_is_connection_error
        )
        self._lock = threading.Lock()
        self._connect_lock = threading.Lock()
        self._sock: "socket.socket | None" = None
        self._reader: "threading.Thread | None" = None
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._closed = False
        self.server_digest: "str | None" = None
        self.backend: "str | None" = None
        self.last_epochs = None
        self.last_server_trace: "str | None" = None
        self.protocol_errors: list[dict] = []
        self.reconnects = 0
        self._digest = None if config is None else config_digest(config)
        # Decode memo, keyed by body bytes: a repeat arrives as the very
        # bytes the server cached, so its answer tuples and floats are
        # decoded once and shared; each caller still gets its own dict.
        self._decoded = StatsLRU(128)
        self._connect()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.settimeout(None)
        with self._lock:
            self._sock = sock
            self._reader = threading.Thread(
                target=self._read_loop,
                args=(sock,),
                daemon=True,
                name="repro-client-rx",
            )
            self._reader.start()
        hello = self._request({"op": "hello"}, _allow_reconnect=False)
        if hello["protocol"] != PROTOCOL_VERSION:
            raise ValueError(
                f"server speaks protocol {hello['protocol']}, "
                f"client {PROTOCOL_VERSION}"
            )
        self.server_digest = hello["digest"]
        self.backend = hello["backend"]
        if self._digest is None:
            # no local config: adopt the server's digest wholesale
            self._digest = hello["digest"]

    def _read_loop(self, sock: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                while data is not None:
                    try:
                        payloads, data = decoder.feed(data), None
                    except (BadMagic, MalformedPayload):
                        # a response is lost and nothing says whose: fail
                        # every pending request now, not after its timeout
                        return
                    except ProtocolError as exc:
                        # a dropped frame left the stream aligned: go on
                        # with the responses already buffered behind it
                        # instead of waiting for the server's next byte
                        payloads, data = exc.decoded, b""
                    for payload in payloads:
                        self._deliver(payload)
        except OSError:
            pass
        finally:
            self._fail_pending(
                ServiceClosed(f"connection to {self.url} lost"), sock
            )
            sock.close()

    def _deliver(self, payload) -> None:
        if not isinstance(payload, dict):
            return
        rid = payload.get("id")
        if rid is None:
            # connection-scoped server notice (e.g. protocol error echo)
            self.protocol_errors.append(payload)
            return
        with self._lock:
            future = self._pending.pop(rid, None)
        if future is not None:
            future.set_result(payload)

    def _fail_pending(self, exc: Exception, sock) -> None:
        with self._lock:
            if self._sock is sock:
                self._sock = None
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def _ensure_connected(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ServiceClosed("remote session is closed")
            if self._sock is not None:
                return self._sock
        with self._connect_lock:
            # another thread may have redialed while we waited
            with self._lock:
                if self._closed:
                    raise ServiceClosed("remote session is closed")
                if self._sock is not None:
                    return self._sock
            self.reconnects += 1
            self._connect()
        with self._lock:
            if self._sock is None:  # pragma: no cover - immediate loss
                raise ServiceClosed(f"connection to {self.url} lost")
            return self._sock

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _send(self, payload: dict) -> Future:
        sock = self._ensure_connected()
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ServiceClosed("remote session is closed")
            self._next_id += 1
            rid = self._next_id
            payload = dict(payload, id=rid)
            self._pending[rid] = future
        try:
            sock.sendall(encode_frame(payload))
        except OSError as exc:
            self._fail_pending(
                ServiceClosed(f"connection to {self.url} lost: {exc}"), sock
            )
            raise ConnectionError(str(exc)) from exc
        return future

    def _request(
        self,
        payload: dict,
        timeout: "float | None" = None,
        _allow_reconnect: bool = True,
    ) -> dict:
        wait = self.timeout if timeout is None else timeout

        def once() -> dict:
            future = self._send(payload)
            try:
                response = future.result(wait)
            except ServiceClosed:
                # reader thread failed the future: connection-level —
                # transient for idempotent ops, final otherwise
                if self._closed:
                    raise
                raise ConnectionError(
                    f"connection to {self.url} lost"
                ) from None
            return response

        if _allow_reconnect:
            response = self.retry.run(once)
        else:
            response = once()
        self.last_server_trace = response.get("trace")
        if not response.get("ok"):
            _raise_remote(response.get("error") or {})
        return response

    # ------------------------------------------------------------------
    # the Session surface
    # ------------------------------------------------------------------
    def _evaluate_payload(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None,
        timeout: "float | None",
    ) -> dict:
        resolved = (
            parse_query(query) if isinstance(query, str) else query
        )
        opts = optimizations or self.default_optimizations
        payload = {
            "op": "evaluate",
            "key": wire_query_key(resolved),
            "relations": sorted(resolved.relations),
            "query": str(resolved),
            "opts": wire_optimizations(opts),
            "digest": self._digest,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        return payload

    def _unpack_result(self, response: dict) -> EvaluationResult:
        result = result_from_wire(response["result"], self._decoded)
        result.cached = response["cached"]  # the body is shared by both
        if result.trace_id is None:
            result.trace_id = response.get("trace")
        return result

    def evaluate(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
        timeout: "float | None" = None,
    ) -> EvaluationResult:
        """Evaluate on the server; repeats hit its wire cache pre-parse."""
        response = self._request(
            self._evaluate_payload(query, optimizations, timeout),
            timeout=timeout,
        )
        return self._unpack_result(response)

    def submit(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
        timeout: "float | None" = None,
    ) -> "Future[EvaluationResult]":
        """The future-returning flavour of :meth:`evaluate`."""
        outer: "Future[EvaluationResult]" = Future()
        try:
            inner = self._send(
                self._evaluate_payload(query, optimizations, timeout)
            )
        except Exception as exc:  # noqa: BLE001 - future protocol
            outer.set_exception(exc)
            return outer

        def _chain(done: Future) -> None:
            try:
                response = done.result()
                self.last_server_trace = response.get("trace")
                if not response.get("ok"):
                    _raise_remote(response.get("error") or {})
                outer.set_result(self._unpack_result(response))
            except Exception as exc:  # noqa: BLE001 - future protocol
                outer.set_exception(exc)

        inner.add_done_callback(_chain)
        return outer

    def gather(
        self,
        futures: Sequence["Future[EvaluationResult]"],
        timeout: "float | None" = None,
    ) -> list[EvaluationResult]:
        """Resolve a batch of :meth:`submit` futures, in order.

        ``timeout`` (default: the session's) is one *overall* monotonic
        budget shared by all the futures, as in
        :meth:`~repro.service.DissociationService.gather`.
        """
        wait = self.timeout if timeout is None else timeout
        if wait is None:
            return [future.result() for future in futures]
        deadline = Deadline.after(wait)
        return [
            future.result(max(deadline.remaining(), 0.0))
            for future in futures
        ]

    def evaluate_many(
        self,
        queries: Sequence["ConjunctiveQuery | str"],
        optimizations: Optimizations | None = None,
        timeout: "float | None" = None,
    ) -> list[EvaluationResult]:
        """Pipeline a batch over the one connection (submit, then gather);
        ``timeout`` is :meth:`submit`'s deadline, applied to each query."""
        return self.gather(
            [self.submit(query, optimizations, timeout) for query in queries],
            timeout,
        )

    def scores(
        self,
        query: "ConjunctiveQuery | str",
        optimizations: Optimizations | None = None,
    ) -> dict[tuple, float]:
        return self.evaluate(query, optimizations).scores

    def mutate(self, fn: Callable[[MutationRecorder], object]):
        """Record ``fn``'s writes locally, replay them transactionally
        on the server. Never auto-retried: a lost response leaves the
        commit status unknown, and replaying inserts is not idempotent
        for the caller's intent."""
        recorder = MutationRecorder()
        fn(recorder)
        response = self._request(
            {"op": "mutate", "ops": recorder.ops}, _allow_reconnect=False
        )
        self.last_epochs = epoch_from_wire(response.get("epochs"))
        return self.last_epochs

    def stats(self) -> dict:
        return self._request({"op": "stats"})["stats"]

    def trace(self, target) -> "dict | None":
        trace_id = (
            target
            if isinstance(target, str)
            else getattr(target, "trace_id", None)
        )
        if trace_id is None:
            return None
        return self._request({"op": "trace", "trace_id": trace_id})["tree"]

    def metrics_text(self) -> str:
        """The server's merged Prometheus exposition, over the wire."""
        return self._request({"op": "metrics"})["text"]

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def hello(self) -> dict:
        return self._request({"op": "hello"})

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock = self._sock
            self._sock = None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._reader is not None:
            self._reader.join(timeout=5)

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _is_connection_error(exc: BaseException) -> bool:
    return isinstance(exc, (ConnectionError, socket.timeout, OSError))
