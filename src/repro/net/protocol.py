"""The canonical-key wire protocol: framing, checksums, codecs.

Frame layout (all integers big-endian)::

    0        2      4        8        12
    +--------+------+--------+--------+------------------+-------------+
    | magic  | ver  | length |  crc32 | head (JSON utf-8)| "\\n" + body |
    | "RP"   | 0x03 | uint32 | uint32 |                  |  (optional) |
    +--------+------+--------+--------+------------------+-------------+

``length`` counts every payload byte after the header and ``crc32``
covers all of them. The head is one JSON object. Requests carry
``{"id", "op", ...}``; responses ``{"id", "ok", "trace", ...}`` — the
server assigns ``trace`` (its trace id) to *every* response, success or
failure. Compact JSON holds no raw newline, so the first ``\\n`` ends
the head; what follows is the payload's ``"result"``: a pre-encoded
result body (:func:`result_to_wire`) shipped verbatim. A ``mutate``
request's ``"ops"`` is a list of change records, the dicts the mutation
journal writes (:func:`repro.db.apply_record` replays them).

A result body is ``meta JSON + "\\n" + block``, the block laid out like
a :mod:`repro.db.shm` segment: ``[col0 | col1 | ... | scores]``, int64
per answer column, then the float64 scores (column kinds: README.md).
It is built once per evaluation and immutable: the server caches the
bytes, and a repeat costs a lookup plus one concatenation.

The evaluate request deliberately ships the **canonical query key**
(:func:`repro.core.canonical.query_key`, serialized by
:func:`wire_query_key`) and the query's relation list next to the
Datalog text: the server looks up ``(key, opts, config digest, epoch
vector)`` in its wire-level :class:`~repro.api.cache.ResultCache`
*before parsing anything* — repeat traffic costs a dict probe, not a
parse or an evaluation. The text rides along only for cache misses.

Error taxonomy (all subclass :class:`ProtocolError`):

* :class:`TruncatedFrame` — the stream ended inside a header or payload
  (a torn length prefix). Only raised by the one-shot
  :func:`decode_frame`; the incremental :class:`FrameDecoder` simply
  waits for more bytes.
* :class:`BadMagic` — the stream is not speaking this protocol version
  (or lost alignment); unrecoverable, close the connection.
* :class:`FrameTooLarge` — the declared length exceeds
  ``max_frame_bytes``. The decoder *skips* the oversized payload and
  stays aligned, so the connection survives.
* :class:`ChecksumMismatch` — payload bytes (head or block) corrupt in
  flight. The frame is dropped; the stream stays aligned and the
  connection survives.
* :class:`MalformedPayload` — the checksum holds but the head is not
  JSON (or a body follows a non-object head): the peer's encoder is at
  fault, not the transport. Dropped like a checksum failure.

Scores cross the wire as raw IEEE-754 doubles, so every one arrives
bit-identical — the ≤1e-12 client/server differential holds with zero
tolerance consumed by transport.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import fields as dataclass_fields

from ..core.canonical import query_key
from ..core.query import ConjunctiveQuery
from ..db.shm import column_views
from ..engine import EvaluationResult, Optimizations

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "TruncatedFrame",
    "BadMagic",
    "FrameTooLarge",
    "ChecksumMismatch",
    "MalformedPayload",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "wire_query_key",
    "wire_optimizations",
    "optimizations_from_wire",
    "epoch_to_wire",
    "epoch_from_wire",
    "result_to_wire",
    "result_from_wire",
    "config_digest",
    "jsonable",
]

#: Protocol revision; bumped on incompatible frame/payload changes.
PROTOCOL_VERSION = 3

_MAGIC = b"RP"
_HEADER = struct.Struct(">2sHII")  # magic, version, length, crc32

#: Default upper bound on a single frame's payload (16 MiB) — a
#: malformed or hostile length prefix must not make the peer buffer
#: gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Base of every wire-protocol failure (framing or payload)."""


class TruncatedFrame(ProtocolError):
    """The byte stream ended inside a frame header or payload."""


class BadMagic(ProtocolError):
    """The stream is not aligned on a frame boundary (or not ours)."""


class FrameTooLarge(ProtocolError):
    """A frame declared a payload larger than ``max_frame_bytes``."""


class ChecksumMismatch(ProtocolError):
    """A frame's payload failed its CRC-32 — corrupt in flight."""


class MalformedPayload(ProtocolError):
    """A checksum-valid payload that is not ``JSON head [+ body]``."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: object) -> bytes:
    """One payload as a checksummed length-prefixed frame.

    A ``bytes`` value under ``"result"`` (a :func:`result_to_wire`
    body) is appended after the JSON head as is, never re-encoded.
    """
    tail = payload.get("result") if isinstance(payload, dict) else None
    if isinstance(tail, bytes):
        payload = {**payload, "result": None}
    else:
        tail = b""
    head = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if tail:
        head += b"\n"
    crc = zlib.crc32(tail, zlib.crc32(head))
    header = _HEADER.pack(
        _MAGIC, PROTOCOL_VERSION, len(head) + len(tail), crc
    )
    return b"".join((header, head, tail))


def _decode_payload(data: bytes, crc: int) -> object:
    if zlib.crc32(data) != crc:
        raise ChecksumMismatch(
            f"payload CRC mismatch on a {len(data)}-byte frame"
        )
    head, _, body = data.partition(b"\n")
    try:
        payload = json.loads(head)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise MalformedPayload(f"frame head is not JSON: {exc}") from None
    if body:
        if not isinstance(payload, dict):
            raise MalformedPayload("a frame body needs a JSON object head")
        payload["result"] = body
    return payload


def decode_frame(
    buffer: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> tuple[object, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(payload, bytes_consumed)``. Raises :class:`TruncatedFrame`
    when the buffer holds less than one whole frame.
    """
    if len(buffer) < _HEADER.size:
        raise TruncatedFrame(
            f"need {_HEADER.size} header bytes, have {len(buffer)}"
        )
    magic, version, length, crc = _HEADER.unpack_from(buffer)
    if magic != _MAGIC:
        raise BadMagic(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise BadMagic(
            f"protocol version {version} (this end speaks "
            f"{PROTOCOL_VERSION})"
        )
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"frame declares {length} payload bytes "
            f"(limit {max_frame_bytes})"
        )
    end = _HEADER.size + length
    if len(buffer) < end:
        raise TruncatedFrame(f"need {end} bytes, have {len(buffer)}")
    return _decode_payload(bytes(buffer[_HEADER.size:end]), crc), end


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks; complete payloads come back in order. The
    decoder is *resynchronizing* for recoverable corruption:

    * an oversized frame's payload is skipped byte-for-byte (the length
      prefix is trusted for alignment even when the size is refused);
    * a checksum failure or a malformed payload drops only that frame.

    Both raise their typed error exactly once, then the stream
    continues at the next frame boundary. :class:`BadMagic` is not
    recoverable — alignment is lost — and keeps raising.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._skip = 0
        self._dead = False

    def feed(self, data: bytes) -> list[object]:
        """Consume ``data``; return every now-complete payload.

        Raises the typed error of the *first* problem found; payloads
        decoded before the bad frame are lost only if the caller
        ignores the exception's ``.decoded`` attribute, which carries
        them.
        """
        if self._dead:
            raise BadMagic("frame stream lost alignment (unrecoverable)")
        self._buffer.extend(data)
        decoded: list[object] = []
        error: ProtocolError | None = None
        while error is None:
            if self._skip:
                drop = min(self._skip, len(self._buffer))
                del self._buffer[:drop]
                self._skip -= drop
                if self._skip:
                    break
            if len(self._buffer) < _HEADER.size:
                break
            magic, version, length, crc = _HEADER.unpack_from(self._buffer)
            if magic != _MAGIC or version != PROTOCOL_VERSION:
                self._dead = True
                error = BadMagic(
                    f"bad frame magic/version {magic!r}/{version}"
                )
                break
            if length > self.max_frame_bytes:
                # trust the prefix for alignment: skip payload, survive
                del self._buffer[:_HEADER.size]
                self._skip = length
                error = FrameTooLarge(
                    f"frame declares {length} payload bytes "
                    f"(limit {self.max_frame_bytes})"
                )
                break
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            data = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                decoded.append(_decode_payload(data, crc))
            except (ChecksumMismatch, MalformedPayload) as exc:
                error = exc
        if error is not None:
            error.decoded = decoded  # type: ignore[attr-defined]
            raise error
        return decoded


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
def wire_query_key(query: ConjunctiveQuery) -> str:
    """The canonical structural key in wire-stable string form.

    Client and server compute it with the same code
    (:func:`repro.core.canonical.query_key` + ``repr``), so equal
    queries — up to variable renaming and atom reordering — produce
    byte-equal strings, and the server can use the string as a cache
    key component without ever parsing the query text.
    """
    return repr(query_key(query))


def wire_optimizations(opts: Optimizations) -> list[bool]:
    return [opts.single_plan, opts.reuse_views, opts.semijoin]


def optimizations_from_wire(data) -> Optimizations:
    single_plan, reuse_views, semijoin = data
    return Optimizations(
        single_plan=bool(single_plan),
        reuse_views=bool(reuse_views),
        semijoin=bool(semijoin),
    )


def _value_to_wire(value):
    """One answer-tuple element → JSON. Tuples nest as lists."""
    if isinstance(value, tuple):
        return [_value_to_wire(v) for v in value]
    return value


def _value_from_wire(value):
    """Inverse of :func:`_value_to_wire` (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_value_from_wire(v) for v in value)
    return value


def epoch_to_wire(epoch) -> list | None:
    """A per-table epoch vector as JSON: ``[[rel, [stamp, ctr]|null]]``."""
    if epoch is None:
        return None
    return [
        [relation, None if pair is None else list(pair)]
        for relation, pair in epoch
    ]


def epoch_from_wire(data) -> tuple | None:
    if data is None:
        return None
    return tuple(
        (relation, None if pair is None else tuple(pair))
        for relation, pair in data
    )


def _pack_scores(scores: dict) -> tuple[list, list, bytes]:
    """A scores dict as ``(column kinds, interned values, block)``."""
    columns = list(zip(*scores))
    block = bytearray(len(scores) * (len(columns) + 1) * 8)
    arrays, floats = column_views(block, len(scores), len(columns))
    floats[:] = list(scores.values())
    kinds, values, code_of = [], [], {}
    for column, array in zip(columns, arrays):
        types = set(map(type, column))
        if types == {int}:
            try:
                array[:] = column
                kinds.append("int")
                continue
            except OverflowError:  # outside int64: intern instead
                pass
        # 1 / True / 1.0 and 0.0 / -0.0 are equal as dict keys; only
        # same-type strings are safe to intern by value
        keys = column
        if types != {str}:
            keys = [(type(v), repr(v)) for v in column]
        for key, value in dict(zip(keys, column)).items():
            if key not in code_of:
                code_of[key] = len(values)
                values.append(_value_to_wire(value))
        array[:] = [code_of[key] for key in keys]
        kinds.append("code")
    return kinds, values, bytes(block)


def result_to_wire(result: EvaluationResult) -> bytes:
    """An :class:`~repro.engine.EvaluationResult` as one immutable
    body, ``meta JSON + "\\n" + block``: encoded once, cached by the
    server as bytes, appended to responses by :func:`encode_frame`.
    """
    kinds, values, block = _pack_scores(result.scores)
    meta = {
        "rows": len(result.scores),
        "columns": kinds,
        "values": values,
        "plan_count": result.plan_count,
        "optimizations": wire_optimizations(result.optimizations),
        "backend": result.backend,
        "seconds": result.seconds,
        "sql": result.sql,
        "epoch": epoch_to_wire(result.epoch),
        "trace_id": result.trace_id,
    }
    head = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return head + b"\n" + block


def result_from_wire(body: bytes, memo=None) -> EvaluationResult:
    """Inverse of :func:`result_to_wire`; ``scores`` is a fresh dict.

    ``memo`` (a ``get``/``put`` cache keyed by the body) lets a repeat
    of the same bytes share its decoded answer tuples and floats, so
    only the dict is rebuilt.
    """
    decoded = None if memo is None else memo.get(body)
    if decoded is None:
        head, _, block = body.partition(b"\n")
        data = json.loads(head)
        kinds = data["columns"]
        arrays, floats = column_views(block, data["rows"], len(kinds))
        values = [_value_from_wire(v) for v in data.pop("values")]
        columns = [
            array.tolist()
            if kind == "int"
            else list(map(values.__getitem__, array.tolist()))
            for kind, array in zip(kinds, arrays)
        ]
        answers = tuple(zip(*columns)) if columns else ((),) * data["rows"]
        decoded = data, answers, tuple(floats.tolist())
        if memo is not None:
            memo.put(body, decoded)
    data, answers, scores = decoded
    return EvaluationResult(
        scores=dict(zip(answers, scores)),
        plan_count=data["plan_count"],
        optimizations=optimizations_from_wire(data["optimizations"]),
        backend=data["backend"],
        seconds=data["seconds"],
        sql=data["sql"],
        epoch=epoch_from_wire(data["epoch"]),
        trace_id=data["trace_id"],
    )


def config_digest(config) -> str:
    """A short stable digest of an :class:`~repro.api.EngineConfig`.

    Part of every evaluate request and of the server-side wire cache
    key: results computed under different configurations can never
    alias, and a client built against a differently-configured server
    gets a typed ``ConfigMismatch`` instead of silently wrong cache
    routing. ``observer`` is excluded — instrumentation never changes
    results (it is excluded from config equality for the same reason).
    """
    parts = []
    for field in dataclass_fields(config):
        if field.name == "observer":
            continue
        parts.append((field.name, repr(getattr(config, field.name))))
    blob = repr(sorted(parts)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def jsonable(obj):
    """Best-effort conversion of nested stats/config structures to JSON.

    Dict keys become strings, tuples become lists, dataclass-ish or
    otherwise non-JSON leaves fall back to ``repr`` — good enough for
    the ``stats`` and ``trace`` ops, whose payloads are diagnostic.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {
            key if isinstance(key, str) else repr(key): jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(value) for value in obj]
    return repr(obj)
