"""The network serving tier: wire protocol, server, client, worker pool.

See README.md in this directory for the frame layout, the op/error
taxonomy, and the shared-memory snapshot lifecycle. Entry points:

* :func:`serve` — bind a :class:`ReproServer` over a database
  (``python -m repro serve`` from the command line);
* :class:`RemoteSession` — the `Session`-shaped client behind
  ``repro.connect(url="repro://host:port")``;
* :class:`ProcessWorkerPool` — forked evaluators over
  :mod:`repro.db.shm` shared-memory snapshots (``processes=N``);
* :mod:`repro.net.protocol` — framing, codecs, typed protocol errors.
"""

from .client import MutationRecorder, RemoteError, RemoteSession, parse_url
from .pool import ProcessWorkerPool, choose_pool, fork_available
from .protocol import (
    BadMagic,
    ChecksumMismatch,
    FrameDecoder,
    FrameTooLarge,
    MAX_FRAME_BYTES,
    MalformedPayload,
    PROTOCOL_VERSION,
    ProtocolError,
    TruncatedFrame,
    config_digest,
    decode_frame,
    encode_frame,
    wire_query_key,
)
from .server import ReproServer, serve

__all__ = [
    "BadMagic",
    "ChecksumMismatch",
    "FrameDecoder",
    "FrameTooLarge",
    "MAX_FRAME_BYTES",
    "MalformedPayload",
    "MutationRecorder",
    "PROTOCOL_VERSION",
    "ProcessWorkerPool",
    "ProtocolError",
    "RemoteError",
    "RemoteSession",
    "ReproServer",
    "TruncatedFrame",
    "choose_pool",
    "config_digest",
    "decode_frame",
    "encode_frame",
    "fork_available",
    "parse_url",
    "serve",
    "wire_query_key",
]
