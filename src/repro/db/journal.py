"""Durable storage: versioned snapshots + an append-only mutation journal.

A durable :class:`~repro.db.database.ProbabilisticDatabase` lives in one
directory managed by a :class:`DurableStore`:

``snapshot.json``
    The versioned full-state snapshot (format ``repro-snapshot`` v1):
    every table's schema (name, arity, columns, deterministic flag,
    column FDs), its ``(creation_stamp, mutation_counter)`` epoch, and
    its rows with exact probabilities (JSON floats round-trip via
    shortest-repr). Written atomically — temp file, flush, ``fsync``,
    ``os.replace`` — so a crash mid-checkpoint leaves the previous
    snapshot intact.

``journal.log``
    The append-only mutation journal. One record per line::

        <crc32 of payload, 8 lowercase hex> <payload JSON>\\n

    Payloads are the tracked operations' change records (``insert`` /
    ``delete`` / ``add_table`` / ``drop_table``, replayed by
    :func:`~repro.db.database.apply_record`), each carrying a
    monotonically increasing ``seq``, followed by one ``commit`` record per
    successful :meth:`~repro.db.database.ProbabilisticDatabase.mutate`
    (a tracked helper called outside ``mutate`` is a one-op
    ``mutate`` of its own). Recovery replays only operations that (a) sit
    before a valid ``commit`` record and (b) have ``seq`` greater than
    the snapshot's ``committed_ops`` — so a crash *between* the
    checkpoint's snapshot replace and its journal truncation can never
    double-apply.

**Torn tails.** A SIGKILL mid-append leaves a final record that is
incomplete (no newline), checksum-corrupt, or an op group with no
``commit``. Recovery scans forward, stops at the first invalid record,
truncates the file back to the end of the last valid commit, and
replays only what precedes it — the database reopens to the last
*committed* mutation, never a half-written one.

**fsync policy.** ``fsync="commit"`` (the default) flushes and fsyncs
the journal after every commit group — a committed ``mutate()`` is
durable the moment it returns. ``fsync="off"`` still flushes to the OS
but skips ``fsync`` — much faster, durable against process crashes but
not against power loss; CI smoke runs use it. The environment variable
``REPRO_JOURNAL_FSYNC`` overrides the default for stores that don't
pass an explicit policy.

**Checkpointing.** After ``checkpoint_every`` journaled operations
(default 1024; ``0`` disables), the store folds the journal into a
fresh snapshot and truncates it, bounding recovery time.

Single-writer by design: one process appends to a store at a time.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from ..core.fds import ColumnFD
from .database import ProbabilisticDatabase, Table, apply_record
from .schema import TableSchema

__all__ = [
    "DurableStore",
    "JournalError",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "load_snapshot",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_VERSION = 1

#: Row/probability value types the JSON formats can round-trip exactly.
_SCALARS = (int, float, str, bool, type(None))


class JournalError(Exception):
    """A snapshot or journal could not be written or understood."""


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def _check_scalars(name: str, row: tuple) -> None:
    for value in row:
        if not isinstance(value, _SCALARS):
            raise JournalError(
                f"table {name}: row value {value!r} is not a JSON scalar; "
                "durable databases hold int/float/str/bool/None values only"
            )


def _snapshot_payload(db: ProbabilisticDatabase, committed_ops: int) -> dict:
    tables = []
    for table in db:
        schema = table.schema
        rows = []
        for row, p in table:
            _check_scalars(schema.name, row)
            rows.append([list(row), p])
        tables.append(
            {
                "name": schema.name,
                "arity": schema.arity,
                "columns": list(schema.columns),
                "deterministic": schema.deterministic,
                "fds": [[list(fd.lhs), list(fd.rhs)] for fd in schema.fds],
                "creation_stamp": table.creation_stamp,
                "mutation_counter": table.version,
                "rows": rows,
            }
        )
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "db_version": db._version,
        "next_stamp": db._next_stamp,
        "committed_ops": committed_ops,
        "tables": tables,
    }


def write_snapshot(
    db: ProbabilisticDatabase,
    path: str | Path,
    *,
    committed_ops: int = 0,
    fsync: bool = True,
) -> None:
    """Atomically write the versioned snapshot of ``db`` to ``path``."""
    path = Path(path)
    payload = _snapshot_payload(db, committed_ops)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        # persist the rename itself
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _load_payload(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise JournalError(f"unreadable snapshot {path}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != SNAPSHOT_FORMAT
    ):
        raise JournalError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise JournalError(
            f"{path}: snapshot format version {payload.get('version')!r} "
            f"not supported (this build reads version {SNAPSHOT_VERSION})"
        )
    return payload


def _restore(payload: dict) -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    for spec in payload["tables"]:
        schema = TableSchema(
            spec["name"],
            spec["arity"],
            tuple(spec["columns"]),
            spec["deterministic"],
            tuple(
                ColumnFD(tuple(lhs), tuple(rhs)) for lhs, rhs in spec["fds"]
            ),
        )
        table = Table(schema, creation_stamp=spec["creation_stamp"])
        for row, p in spec["rows"]:
            table._put(tuple(row), p)
        # the epoch is part of the snapshot: a reopened database
        # continues the same per-table counters it crashed with
        table._version = spec["mutation_counter"]
        db._tables[schema.name] = table
    db._version = payload["db_version"]
    db._next_stamp = payload["next_stamp"]
    return db


def load_snapshot(path: str | Path) -> ProbabilisticDatabase:
    """Load a snapshot file (journal-less; see :class:`DurableStore`)."""
    return _restore(_load_payload(Path(path)))


# ----------------------------------------------------------------------
# journal records
# ----------------------------------------------------------------------
def _encode_record(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if b"\n" in body:  # pragma: no cover - json never emits raw newlines
        raise JournalError("journal payload contains a newline")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode_line(line: bytes) -> dict | None:
    """The payload of one journal line, or ``None`` when invalid."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _scan_journal(raw: bytes) -> tuple[list[list[dict]], int, dict]:
    """Split journal bytes into committed op groups.

    Returns ``(groups, valid_end, stats)`` where ``valid_end`` is the
    byte offset just past the last valid ``commit`` record — everything
    beyond it (ops never committed, checksum-corrupt records, a partial
    final line) is a torn tail to truncate.
    """
    groups: list[list[dict]] = []
    pending: list[dict] = []
    offset = 0
    valid_end = 0
    bad = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            bad += 1  # partial final line: torn mid-append
            break
        payload = _decode_line(raw[offset:newline])
        if payload is None:
            bad += 1
            break
        offset = newline + 1
        if payload.get("op") == "commit":
            groups.append(pending)
            pending = []
            valid_end = offset
        else:
            pending.append(payload)
    stats = {
        "committed_groups": len(groups),
        "uncommitted_ops": len(pending),
        "invalid_records": bad,
        "truncated_bytes": len(raw) - valid_end,
    }
    return groups, valid_end, stats


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class DurableStore:
    """One durable database directory: snapshot + journal + policy.

    Parameters
    ----------
    directory:
        Where ``snapshot.json`` / ``journal.log`` live (created if
        missing).
    fsync:
        ``"commit"`` (fsync every commit group — the durable default)
        or ``"off"`` (flush only). ``None`` reads
        ``REPRO_JOURNAL_FSYNC``, falling back to ``"commit"``.
    checkpoint_every:
        Fold the journal into a fresh snapshot after this many
        journaled operations (``0`` disables auto-checkpoints;
        ``None`` = the default 1024).
    """

    SNAPSHOT = "snapshot.json"
    JOURNAL = "journal.log"
    DEFAULT_CHECKPOINT_EVERY = 1024

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        if fsync is None:
            fsync = os.environ.get("REPRO_JOURNAL_FSYNC", "commit")
        if fsync not in ("commit", "off"):
            raise ValueError(
                f"fsync policy must be 'commit' or 'off', got {fsync!r}"
            )
        if checkpoint_every is None:
            checkpoint_every = self.DEFAULT_CHECKPOINT_EVERY
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self._fh = None
        self._committed_ops = 0
        self._ops_since_checkpoint = 0
        #: Recovery report of the last :meth:`open` (for tests/ops).
        self.last_recovery: dict | None = None

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL

    # -- recovery ------------------------------------------------------
    def open(self) -> ProbabilisticDatabase:
        """Recover the last committed state and attach to it."""
        if self.snapshot_path.exists():
            payload = _load_payload(self.snapshot_path)
            db = _restore(payload)
            snapshot_seq = payload.get("committed_ops", 0)
        else:
            db = ProbabilisticDatabase()
            snapshot_seq = 0
        self._committed_ops = snapshot_seq
        self._ops_since_checkpoint = 0
        replayed = 0
        stats: dict = {
            "committed_groups": 0,
            "uncommitted_ops": 0,
            "invalid_records": 0,
            "truncated_bytes": 0,
        }
        if self.journal_path.exists():
            raw = self.journal_path.read_bytes()
            groups, valid_end, stats = _scan_journal(raw)
            if valid_end < len(raw):
                with self.journal_path.open("r+b") as fh:
                    fh.truncate(valid_end)
            for group in groups:
                for op in group:
                    seq = op.get("seq", 0)
                    if seq <= snapshot_seq:
                        # already folded into the snapshot (a crash hit
                        # between checkpoint-replace and truncation)
                        continue
                    apply_record(db, op)
                    replayed += 1
                    self._committed_ops = max(self._committed_ops, seq)
            self._ops_since_checkpoint = replayed
        self.last_recovery = {
            "snapshot": self.snapshot_path.exists(),
            "ops_replayed": replayed,
            **stats,
        }
        db._durability = self
        return db

    # -- the write path ------------------------------------------------
    def _handle(self):
        if self._fh is None:
            self._fh = self.journal_path.open("ab")
        return self._fh

    def commit(self, db: ProbabilisticDatabase, ops: list, faults=None) -> None:
        """Append one committed op group (called by ``db.mutate``).

        Checks and encodes every record *before* writing the first
        byte, so a row value recovery could not give back (the
        snapshot's scalar rule: JSON reads a tuple back as a list) or
        an unencodable value fails the commit without touching the
        file; the trailing ``commit`` record plus the fsync policy make
        the group atomic and durable. Auto-checkpoints when due.
        """
        observer = db.observer
        if faults is not None:
            faults.fire("journal", ops)
        records = []
        for seq, op in enumerate(ops, self._committed_ops + 1):
            name = op.get("rel", op.get("name"))
            if "row" in op:
                _check_scalars(name, op["row"])
            for row, _p in op.get("rows", ()):
                _check_scalars(name, row)
            records.append(_encode_record({**op, "seq": seq}))
        records.append(_encode_record({"op": "commit"}))
        # a failed write may leave the group half-written: recovery
        # truncates it, and the in-memory rollback keeps memory == the
        # last durable state
        with observer.span("journal.commit", ops=len(ops)):
            fh = self._handle()
            fh.write(b"".join(records))
            fh.flush()
            if self.fsync == "commit":
                os.fsync(fh.fileno())
        self._committed_ops += len(ops)
        if observer.enabled:
            observer.inc("journal.commits")
            observer.inc("journal.ops", len(ops))
        self._ops_since_checkpoint += len(ops)
        if (
            self.checkpoint_every
            and self._ops_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(db)

    def checkpoint(self, db: ProbabilisticDatabase, faults=None) -> None:
        """Fold the journal into a fresh snapshot and truncate it.

        Ordered for crash safety: the snapshot (which embeds
        ``committed_ops``) replaces atomically first; only then is the
        journal truncated. A crash in between double-writes nothing —
        replay skips ops whose ``seq`` the snapshot already covers.
        """
        observer = db.observer
        if faults is not None:
            faults.fire("journal", "checkpoint")
        with observer.span(
            "journal.checkpoint", folded_ops=self._ops_since_checkpoint
        ):
            write_snapshot(
                db,
                self.snapshot_path,
                committed_ops=self._committed_ops,
                fsync=self.fsync == "commit",
            )
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            with self.journal_path.open("wb"):
                pass  # truncate
        if observer.enabled:
            observer.inc("journal.checkpoints")
        self._ops_since_checkpoint = 0

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
            "committed_ops": self._committed_ops,
            "ops_since_checkpoint": self._ops_since_checkpoint,
            "journal_bytes": (
                self.journal_path.stat().st_size
                if self.journal_path.exists()
                else 0
            ),
            "last_recovery": self.last_recovery,
        }

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
