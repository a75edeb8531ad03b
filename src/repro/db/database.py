"""In-memory tuple-independent probabilistic databases (Sec. 2).

A :class:`ProbabilisticDatabase` maps relation names to :class:`Table`
objects; each table stores distinct tuples with a marginal probability.
A *possible world* is a subset of the tuples, drawn by independent coin
flips — the semantics every evaluation backend in this package implements
or approximates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..core.fds import ColumnFD
from ..obs import NULL_OBSERVER
from .schema import Schema, TableSchema

__all__ = [
    "Table",
    "ProbabilisticDatabase",
    "TupleRef",
    "MutationOutcome",
    "add_table_record",
    "apply_record",
    "normalize_rows",
]

#: A reference to one database tuple: ``(relation name, tuple value)``.
#: Used as the Boolean-variable identity in lineage formulas.
TupleRef = tuple[str, tuple]


def _pair_hash(row: tuple, probability: float) -> int:
    """The fingerprint contribution of one ``(row, probability)`` pair.

    Table fingerprints are the XOR of these over the table's contents —
    order-independent and incrementally maintainable (XOR is its own
    inverse), so equality of fingerprints certifies content equality up
    to hash collisions without ever scanning the rows.
    """
    return hash((row, probability))


def normalize_rows(
    name: str, rows: Iterable, arity: int | None = None
) -> tuple[list[tuple[tuple, float]], int]:
    """``add_table``'s rows as ``(row, probability)`` pairs, and the arity.

    An entry is either a ``(tuple, probability)`` pair or a bare tuple
    (probability 1). An arity-2 data row shaped like ``(tuple,
    number)`` is indistinguishable from a pair. When the batch shows
    evidence of that ambiguity — a pair-shaped entry whose number lies
    outside [0, 1], a pair-shaped entry that only fits the declared
    arity when read as a data row, or pair-shaped entries mixed with
    bare ``(tuple, ...)`` arity-2 rows — a :class:`ValueError` is
    raised instead of guessing; pass every entry as an explicit
    ``(row, probability)`` pair to disambiguate. ``arity`` defaults to
    the first row's length.
    """
    _AMBIGUOUS = (
        f"table {name}: entry {{entry!r}} is ambiguous — an arity-2 "
        f"data row (tuple, number) is indistinguishable from a "
        f"(row, probability) pair. Pass every entry as an explicit "
        f"(row, probability) pair to disambiguate."
    )
    normalized: list[tuple[tuple, float]] = []
    pair_entries: list[tuple] = []
    tuple_headed_bare = False
    for entry in rows:
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], tuple)
            and isinstance(entry[1], (int, float))
            and not isinstance(entry[1], bool)
        ):
            if not 0.0 <= entry[1] <= 1.0:
                # A "probability" outside [0, 1] means this was a
                # genuine data row all along; say so instead of
                # failing later with a confusing probability error.
                raise ValueError(_AMBIGUOUS.format(entry=entry))
            pair_entries.append(entry)
            normalized.append((entry[0], float(entry[1])))
        else:
            row = tuple(entry)
            if len(row) == 2 and isinstance(row[0], tuple):
                tuple_headed_bare = True
            normalized.append((row, 1.0))
    if pair_entries and tuple_headed_bare:
        # The batch provably contains arity-2 data rows whose first
        # column is a tuple; the pair-shaped entries are almost
        # certainly more of the same, misread as (row, p) pairs.
        raise ValueError(_AMBIGUOUS.format(entry=pair_entries[0]))
    if arity is not None:
        for entry in pair_entries:
            if len(entry[0]) != arity and len(entry) == arity:
                # Read as a pair the row has the wrong arity, read as
                # a data row it fits the declared arity — the caller
                # meant a data row.
                raise ValueError(_AMBIGUOUS.format(entry=entry))
    elif not normalized:
        raise ValueError(
            f"table {name}: pass arity= when creating an empty table"
        )
    else:
        arity = len(normalized[0][0])
    return normalized, arity


def add_table_record(
    name: str,
    rows: Sequence[tuple[tuple, float]],
    deterministic: bool,
    columns: Sequence[str],
    fds: Sequence[ColumnFD],
    arity: int,
) -> dict:
    """The change record of an ``add_table`` over normalized ``rows``."""
    return {
        "op": "add_table",
        "name": name,
        "rows": [[list(row), p] for row, p in rows],
        "deterministic": deterministic,
        "columns": list(columns),
        "fds": [[list(fd.lhs), list(fd.rhs)] for fd in fds],
        "arity": arity,
    }


def _row(values: Sequence) -> tuple:
    """A recorded row back as a tuple; JSON turned nested tuples into
    lists, and a list is never a legal row value."""
    return tuple(_row(v) if isinstance(v, list) else v for v in values)


def apply_record(db: "ProbabilisticDatabase", record: Mapping) -> None:
    """Apply one change record through the tracked helpers.

    The records are the helpers' own redo dicts (the journal writes
    them) plus two kinds only :class:`~repro.net.MutationRecorder`
    sends: ``update_probability``, which fails on a missing row, and
    ``touch``, which moves epochs only and so journals nothing. Journal
    recovery and the server's remote ``mutate`` both replay through
    here.
    """
    kind = record.get("op")
    if kind == "insert":
        db.insert(record["rel"], _row(record["row"]), record["p"])
    elif kind == "update_probability":
        db.update_probability(
            record["rel"], _row(record["row"]), record["p"]
        )
    elif kind == "delete":
        db.delete(record["rel"], _row(record["row"]))
    elif kind == "add_table":
        db.add_table(
            record["name"],
            [(_row(row), p) for row, p in record["rows"]],
            deterministic=record["deterministic"],
            columns=tuple(record["columns"]),
            fds=tuple(
                ColumnFD(tuple(lhs), tuple(rhs))
                for lhs, rhs in record["fds"]
            ),
            arity=record["arity"],
        )
    elif kind == "drop_table":
        db.drop_table(record["name"])
    elif kind == "touch":
        db.touch()
    else:
        raise ValueError(f"unknown change record {kind!r}")


class Table:
    """One relation: distinct tuples with probabilities."""

    __slots__ = (
        "schema",
        "rows",
        "_version",
        "_creation_stamp",
        "_fingerprint",
        "_epoch_pair",
    )

    def __init__(
        self,
        schema: TableSchema,
        rows: Mapping[tuple, float] | None = None,
        creation_stamp: int = 0,
    ) -> None:
        self.schema = schema
        self.rows: dict[tuple, float] = {}
        self._version = 0
        self._creation_stamp = creation_stamp
        self._fingerprint = 0
        self._epoch_pair = (schema.name, (creation_stamp, 0))
        if rows:
            for row, p in rows.items():
                self._put(tuple(row), p)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def arity(self) -> int:
        return self.schema.arity

    # -- the writes behind the database's tracked helpers and loaders --
    def _put(self, row: tuple, probability: float) -> None:
        """Set ``row``'s probability (validated) and bump the counter."""
        if len(row) != self.arity:
            raise ValueError(
                f"{self.name}: row {row} has arity {len(row)}, "
                f"expected {self.arity}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"{self.name}: probability {probability} outside [0, 1]"
            )
        if self.schema.deterministic and probability != 1.0:
            raise ValueError(
                f"{self.name} is deterministic; tuple probability must be 1"
            )
        self._raw_set(row, probability)
        self._version += 1

    def _remove(self, row: tuple) -> float:
        """Remove ``row`` and bump the counter; returns its probability.

        Raises :class:`KeyError` when the row is absent — deleting
        nothing is almost always a caller bug, and the undo log needs
        the old probability to invert the operation anyway.
        """
        if row not in self.rows:
            raise KeyError(f"{self.name}: no row {row} to delete")
        old = self._raw_unset(row)
        self._version += 1
        return old

    # -- raw content edits (no version bump; undo replay + internals) --
    def _raw_set(self, row: tuple, probability: float) -> None:
        old = self.rows.get(row)
        if old is not None:
            self._fingerprint ^= _pair_hash(row, old)
        self.rows[row] = probability
        self._fingerprint ^= _pair_hash(row, probability)

    def _raw_unset(self, row: tuple) -> float:
        old = self.rows.pop(row)
        self._fingerprint ^= _pair_hash(row, old)
        return old

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every row write."""
        return self._version

    @property
    def fingerprint(self) -> int:
        """XOR content checksum over all ``(row, probability)`` pairs.

        Maintained incrementally by every row write (the database's
        tracked helpers and the undo replay). The rollback machinery
        compares fingerprints after an undo replay to decide *rolled
        back cleanly* vs *must taint*. (Direct pokes at the ``rows``
        dict are invisible to it; don't.)
        """
        return self._fingerprint

    @property
    def creation_stamp(self) -> int:
        """Monotonic id assigned when the table joined its database.

        Two tables that ever coexisted in (or were successively added
        to) the same database never share a stamp, so a dropped and
        re-added relation cannot alias its predecessor's cache entries
        even when their mutation counters happen to agree.
        """
        return self._creation_stamp

    @property
    def epoch(self) -> tuple[int, int]:
        """``(creation_stamp, mutation_counter)`` — the cache key unit.

        Moves on every insert, and differs between same-named tables
        from different ``add_table`` calls. Every cache in the system
        keys per-relation state by this pair, never by the mutation
        counter alone.
        """
        return self.epoch_pair[1]

    @property
    def epoch_pair(self) -> tuple[str, tuple[int, int]]:
        """``(name, epoch)`` — one shared object per table epoch.

        Epoch vectors are made of these, and every cached subplan and
        result retains its vector, so handing out the same pair until
        the table moves keeps that bookkeeping from being copied per
        entry. Self-validating: the pair is rebuilt when its stamp or
        counter no longer match the table's, so the sites that write
        ``_version`` (row writes, rollback restore, ``touch()``)
        need no invalidation call.
        """
        pair = self._epoch_pair
        stamp, version = pair[1]
        if stamp != self._creation_stamp or version != self._version:
            pair = self._epoch_pair = (
                self.schema.name,
                (self._creation_stamp, self._version),
            )
        return pair

    def probability(self, row: Sequence) -> float:
        return self.rows.get(tuple(row), 0.0)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[tuple, float]]:
        return iter(self.rows.items())

    def __contains__(self, row: Sequence) -> bool:
        return tuple(row) in self.rows

    def column_values(self, index: int) -> set:
        """Active domain of one column."""
        return {row[index] for row in self.rows}

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self.rows)} rows)"


@dataclass
class MutationOutcome:
    """What happened to the last :meth:`ProbabilisticDatabase.mutate`.

    ``committed``: ``fn`` returned and (for durable databases) the
    journal accepted the commit. ``rolled_back``: ``fn`` raised and the
    undo-log replay restored the database bit-identically — contents,
    probabilities, *and* per-table epochs — so every cache stays warm.
    ``tainted``: ``fn`` raised and the undo replay itself failed (or
    its fingerprint check did), so :meth:`~ProbabilisticDatabase.touch`
    moved every table's epoch — the last-resort poison pill.
    ``journaled``: the change records were appended to the journal.
    """

    committed: bool
    rolled_back: bool = False
    tainted: bool = False
    tracked_ops: int = 0
    journaled: bool = False


class _Transaction:
    """The undo log + pre-state snapshot of one :meth:`mutate` call."""

    __slots__ = ("undo", "redo", "db_version", "next_stamp", "pre_state")

    def __init__(self, db: "ProbabilisticDatabase") -> None:
        #: Inverse operations, applied in reverse on rollback.
        self.undo: list[tuple] = []
        #: Journal payloads of the tracked operations, in order.
        self.redo: list[dict] = []
        self.db_version = db._version
        self.next_stamp = db._next_stamp
        #: Per-table ``(creation_stamp, mutation_counter, fingerprint)``
        #: before the mutation — the rollback verification target.
        self.pre_state = {
            name: (t._creation_stamp, t._version, t._fingerprint)
            for name, t in db._tables.items()
        }


def _tracked(helper):
    """Make a tracked helper called outside ``mutate`` on a durable
    database a one-op transaction, so a write the journal refuses
    rolls back like any failed mutation."""

    @wraps(helper)
    def run(db, *args, **kwargs):
        if db._txn is None and db._durability is not None:
            return db.mutate(lambda d: helper(d, *args, **kwargs))
        return helper(db, *args, **kwargs)

    return run


class ProbabilisticDatabase:
    """A tuple-independent probabilistic database.

    The tracked helpers :meth:`insert`, :meth:`delete`,
    :meth:`update_probability`, :meth:`add_table` and :meth:`drop_table`
    are the only way to write it. Inside :meth:`mutate` each records an
    inverse operation in the undo log and a change record for the
    mutation journal (when the database is durable, see
    :mod:`repro.db.journal`). Called outside :meth:`mutate`, a helper
    writes directly on an in-memory database and runs as a one-op
    transaction on a durable one. :class:`Table` is read-only to
    callers; raw pokes at ``Table.rows`` are unsupported.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._version = 0
        self._next_stamp = 0
        self._txn: _Transaction | None = None
        #: The durable store behind :meth:`save` / :meth:`mutate`
        #: commits (attached by :meth:`open`; ``None`` = in-memory).
        self._durability = None
        #: Outcome of the most recent :meth:`mutate` (commit or abort).
        #: Meaningful only under the caller's own mutation
        #: serialization (the service's quiescence barrier provides
        #: it); concurrent unserialized mutators race on it.
        self.last_mutation: MutationOutcome | None = None
        #: The :class:`repro.obs.Observer` receiving mutation counters
        #: and rollback/journal spans (installed by the session facade;
        #: the default no-op costs one attribute check).
        self.observer = NULL_OBSERVER

    def _new_stamp(self) -> int:
        self._next_stamp += 1
        return self._next_stamp

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @_tracked
    def add_table(
        self,
        name: str,
        rows: Iterable = (),
        deterministic: bool = False,
        columns: Sequence[str] = (),
        fds: Sequence[ColumnFD] = (),
        arity: int | None = None,
    ) -> Table:
        """Create and populate a table.

        ``rows`` accepts either ``(tuple, probability)`` pairs or bare
        tuples (probability 1, the deterministic convention), read by
        :func:`normalize_rows`. ``arity`` is inferred from the first
        row when omitted.
        """
        if name in self._tables:
            raise ValueError(f"table {name} already exists")
        normalized, arity = normalize_rows(name, rows, arity)
        schema = TableSchema(
            name, arity, tuple(columns), deterministic, tuple(fds)
        )
        table = Table(schema, creation_stamp=self._new_stamp())
        for row, p in normalized:
            table._put(row, p)
        self._tables[name] = table
        self._version += 1
        self._record(
            redo=add_table_record(
                name, normalized, deterministic, columns, schema.fds, arity
            ),
            undo=("drop_new", name),
        )
        return table

    @_tracked
    def drop_table(self, name: str) -> None:
        table = self._tables.pop(name)
        self._version += 1
        self._record(
            redo={"op": "drop_table", "name": name},
            undo=("restore_table", name, table),
        )

    # ------------------------------------------------------------------
    # tracked row mutations
    # ------------------------------------------------------------------
    @_tracked
    def insert(
        self, relation: str, row: Sequence, probability: float = 1.0
    ) -> None:
        """Insert (or overwrite) one row — *tracked* (see class docs)."""
        table = self.table(relation)
        row = tuple(row)
        old = table.rows.get(row)
        table._put(row, probability)
        self._record(
            redo={
                "op": "insert",
                "rel": relation,
                "row": list(row),
                "p": probability,
            },
            undo=(
                ("unset", relation, row)
                if old is None
                else ("set", relation, row, old)
            ),
        )

    @_tracked
    def delete(self, relation: str, row: Sequence) -> float:
        """Delete one row — *tracked*; returns its old probability.

        Raises :class:`KeyError` when the row is absent.
        """
        table = self.table(relation)
        row = tuple(row)
        old = table._remove(row)
        self._record(
            redo={"op": "delete", "rel": relation, "row": list(row)},
            undo=("set", relation, row, old),
        )
        return old

    @_tracked
    def update_probability(
        self, relation: str, row: Sequence, probability: float
    ) -> float:
        """Change an *existing* row's probability — *tracked*.

        Raises :class:`KeyError` when the row is absent (use
        :meth:`insert` to upsert); returns the old probability.
        """
        table = self.table(relation)
        row = tuple(row)
        if row not in table.rows:
            raise KeyError(f"{relation}: no row {row} to update")
        old = table.rows[row]
        table._put(row, probability)
        self._record(
            redo={
                "op": "insert",
                "rel": relation,
                "row": list(row),
                "p": probability,
            },
            undo=("set", relation, row, old),
        )
        return old

    # ------------------------------------------------------------------
    # the undo log / journal plumbing
    # ------------------------------------------------------------------
    def _record(self, redo: dict, undo: tuple) -> None:
        """File one tracked operation with the open transaction, if any.

        On a durable database every helper call runs inside one (see
        :func:`_tracked`); an in-memory write outside :meth:`mutate`
        records nothing.
        """
        txn = self._txn
        if txn is not None:
            txn.undo.append(undo)
            txn.redo.append(redo)

    def _apply_undo(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "set":
            self._tables[entry[1]]._raw_set(entry[2], entry[3])
        elif kind == "unset":
            self._tables[entry[1]]._raw_unset(entry[2])
        elif kind == "drop_new":
            del self._tables[entry[1]]
        elif kind == "restore_table":
            self._tables[entry[1]] = entry[2]
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown undo entry {entry!r}")

    def _abort(self, txn: _Transaction, faults=None) -> None:
        """Roll the failed transaction back; taint when uncertifiable.

        Replays the undo log in reverse, then *verifies* the result
        against the pre-mutation per-table fingerprints: only when
        every table's ``(creation_stamp, fingerprint)`` matches — and
        no table appeared or vanished — are the epoch counters restored
        to their pre-mutation values (bit-identical state, caches stay
        warm). Any discrepancy (a failing undo replay, an injected
        ``"rollback"`` fault) falls back to :meth:`touch`, which moves every epoch *forward* from wherever
        the failed mutation left it — never backward, so no cache entry
        stamped meanwhile can alias a future epoch.
        """
        tainted = False
        try:
            with self.observer.span("db.rollback", ops=len(txn.undo)):
                if faults is not None:
                    faults.fire("rollback", len(txn.undo))
                for entry in reversed(txn.undo):
                    self._apply_undo(entry)
                if set(self._tables) != set(txn.pre_state):
                    raise RuntimeError(
                        "rollback left a table-set mismatch"
                    )
                for name, (
                    stamp,
                    _version,
                    fingerprint,
                ) in txn.pre_state.items():
                    table = self._tables[name]
                    if (
                        table._creation_stamp != stamp
                        or table._fingerprint != fingerprint
                    ):
                        raise RuntimeError(
                            f"rollback fingerprint mismatch on {name!r}"
                        )
        except BaseException:
            tainted = True
            self.touch()
        else:
            # certified bit-identical: restore the epoch counters so
            # every cache keyed on the pre-mutation epochs stays valid
            self._version = txn.db_version
            self._next_stamp = txn.next_stamp
            for name, (_stamp, version, _fp) in txn.pre_state.items():
                self._tables[name]._version = version
        self.last_mutation = MutationOutcome(
            committed=False,
            rolled_back=not tainted,
            tainted=tainted,
            tracked_ops=len(txn.redo),
        )
        if self.observer.enabled:
            self.observer.inc(
                "db.mutations.tainted"
                if tainted
                else "db.mutations.rolled_back"
            )

    # ------------------------------------------------------------------
    # transactional mutation
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[["ProbabilisticDatabase"], object], *, faults=None):
        """Apply ``fn(self)`` transactionally; returns its result.

        While ``fn`` runs, the tracked helpers (:meth:`insert`,
        :meth:`delete`, :meth:`update_probability`, :meth:`add_table`,
        :meth:`drop_table`) record inverse operations in an undo log.
        If ``fn`` raises, the log is replayed in reverse and — after
        the per-table fingerprint check certifies the replay — the
        database is bit-identical to its pre-mutation state, including
        every per-table epoch: no cache anywhere needs to move. Only a
        replay that itself fails degrades to :meth:`touch` (every epoch
        tainted). :attr:`last_mutation` records which of the two
        happened.

        On success, a durable database (see :meth:`open`) appends the
        tracked operations to its mutation journal and fsyncs per its
        policy; if the journal refuses or fails the write, the
        in-memory state is rolled back too, so memory and disk can
        never diverge. A helper called outside ``mutate`` on a durable
        database is a one-op ``mutate`` of its own.

        ``faults`` (a :class:`~repro.service.faults.FaultInjector`)
        fires the ``"rollback"`` hook before an undo replay and is
        passed through to the journal's ``"journal"`` hook.

        Not reentrant: nested calls raise :class:`RuntimeError`. The
        caller serializes mutations (the service's quiescence barrier
        in concurrent settings).
        """
        if self._txn is not None:
            raise RuntimeError(
                "a mutation is already in progress on this database"
            )
        # cleared up front so observers reading last_mutation after an
        # exception can never attribute a *previous* outcome to this call
        self.last_mutation = None
        txn = _Transaction(self)
        self._txn = txn
        with self.observer.span("db.mutate") as span:
            try:
                result = fn(self)
            except BaseException:
                self._txn = None
                self._abort(txn, faults)
                raise
            self._txn = None
            journaled = False
            if self._durability is not None and txn.redo:
                try:
                    self._durability.commit(self, txn.redo, faults=faults)
                except BaseException:
                    # the commit never became durable: take the
                    # memory state back to the last durable one
                    self._abort(txn, faults)
                    raise
                journaled = True
            span.note(tracked_ops=len(txn.redo), journaled=journaled)
        self.last_mutation = MutationOutcome(
            committed=True, tracked_ops=len(txn.redo), journaled=journaled
        )
        if self.observer.enabled:
            self.observer.inc("db.mutations.committed")
        return result

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path,
        *,
        fsync: str | None = None,
        checkpoint_every: int | None = None,
    ) -> "ProbabilisticDatabase":
        """Open (or create) a durable database at directory ``path``.

        Recovers the last committed state: the versioned snapshot is
        loaded, the committed suffix of the mutation journal is
        replayed on top, and a torn journal tail (a crash mid-append)
        is detected by record checksums and truncated. Subsequent
        tracked mutations are journaled; see :mod:`repro.db.journal`
        for the ``fsync`` policy and checkpointing knobs.
        """
        from .journal import DurableStore

        return DurableStore(
            path, fsync=fsync, checkpoint_every=checkpoint_every
        ).open()

    @property
    def durable(self) -> bool:
        """Whether mutations are journaled to a durable store."""
        return self._durability is not None

    def save(self, path=None):
        """Checkpoint to durable storage; returns the directory.

        With no argument, the database must already be durable
        (:meth:`open`): the journal is folded into a fresh snapshot and
        truncated. With ``path``, the database is snapshotted there and
        *becomes* durable — subsequent tracked mutations append to the
        new journal.
        """
        if path is None:
            if self._durability is None:
                raise ValueError(
                    "in-memory database: pass save(path=...) to choose "
                    "a durable location first"
                )
            self._durability.checkpoint(self)
            return self._durability.directory
        from .journal import DurableStore

        store = DurableStore(path)
        store.checkpoint(self)
        if self._durability is not None and self._durability is not store:
            self._durability.close()
        self._durability = store
        return store.directory

    def close(self) -> None:
        """Release the durable store's file handles (if any)."""
        if self._durability is not None:
            self._durability.close()
            self._durability = None

    def touch(self) -> None:
        """Taint every epoch without changing any data.

        The poison pill for epoch-keyed caches: after an undo replay
        fails, the database may hold half-applied state that is
        neither the old epoch nor a clean new one. Bumping the db token
        *and every table's mutation counter* forces every cache —
        global or per-table — to treat the current contents as a fresh
        epoch instead of serving them as the pre-mutation state. It
        changes no data, so it journals nothing.
        """
        self._version += 1
        for table in self._tables.values():
            table._version += 1

    @property
    def version(self) -> tuple:
        """A hashable token identifying the database's current state.

        Changes whenever a table is added, dropped, or mutated; the
        evaluation caches snapshot it to detect staleness. Includes
        each table's creation stamp, so drop + re-add never yields a
        token seen before.
        """
        return (
            self._version,
            tuple(
                (name, table._creation_stamp, table._version)
                for name, table in sorted(self._tables.items())
            ),
        )

    # ------------------------------------------------------------------
    # per-table epochs
    # ------------------------------------------------------------------
    def table_epoch(self, name: str) -> tuple[int, int] | None:
        """The ``(creation_stamp, mutation_counter)`` epoch of a table.

        ``None`` when no such table exists — distinct from every real
        epoch, so "relation missing" participates in staleness checks.
        """
        table = self._tables.get(name)
        return None if table is None else table.epoch

    def table_epochs(self) -> dict[str, tuple[int, int]]:
        """Current epoch of every table, keyed by relation name."""
        return {name: t.epoch for name, t in self._tables.items()}

    def epoch_vector(self, relations: Iterable[str]) -> tuple:
        """Sorted ``(relation, epoch)`` pairs for the given relations.

        The cache key for anything derived from exactly those
        relations: two vectors agree iff none of the named tables was
        mutated, dropped, re-added, or touched in between. Relations
        absent from the database appear with epoch ``None``.
        """
        tables = self._tables
        return tuple(
            tables[name].epoch_pair if name in tables else (name, None)
            for name in sorted(set(relations))
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def schema(self) -> Schema:
        return Schema(t.schema for t in self._tables.values())

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def scaled(
        self, factor: float, include_deterministic: bool = False
    ) -> "ProbabilisticDatabase":
        """A copy with all tuple probabilities multiplied by ``factor``.

        The scaling experiments of Sec. 5.2 (Results 7 and 8) study how
        ranking by exact inference behaves as ``factor → 0``. Deterministic
        tables keep probability 1 unless ``include_deterministic`` is set
        (in which case they become probabilistic tables).
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("scaling factor must lie in [0, 1]")
        out = ProbabilisticDatabase()
        for table in self._tables.values():
            schema = table.schema
            if schema.deterministic and not include_deterministic:
                out._tables[schema.name] = Table(
                    schema, dict(table.rows), creation_stamp=out._new_stamp()
                )
                continue
            new_schema = TableSchema(
                schema.name,
                schema.arity,
                schema.columns,
                deterministic=False,
                fds=schema.fds,
            )
            new_table = Table(new_schema, creation_stamp=out._new_stamp())
            for row, p in table:
                new_table._put(row, p * factor)
            out._tables[schema.name] = new_table
        return out

    def average_probability(self) -> float:
        """``avg[p_i]`` over all tuples of all probabilistic tables."""
        values = [
            p
            for t in self._tables.values()
            if not t.schema.deterministic
            for _, p in t
        ]
        if not values:
            return 1.0
        return sum(values) / len(values)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{t.name}({len(t)})" for t in self._tables.values()
        )
        return f"ProbabilisticDatabase({parts})"
