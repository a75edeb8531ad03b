"""Shared-memory database snapshots for the multi-process worker pool.

The serving tier's forked evaluators must not re-encode (or even copy)
the base relations: the parent exports each table's interned ``int64``
code columns plus its ``float64`` score column into one
:mod:`multiprocessing.shared_memory` segment, and every worker attaches
the same pages read-only — zero-copy at the data level. Only the small
*meta* dict (segment names, shapes, epochs, the interned value list,
schemas) crosses the control pipe.

Lifecycle::

    parent                                   worker (forked)
    ------                                   ---------------
    mgr = SharedSnapshotManager(db)
    meta = mgr.export()          --fork-->   snap = attach_snapshot(meta)
                                             engine over ``snap`` +
                                             seed_cache(...)
    db mutates; epoch vector moves
    meta2, stale = mgr.refresh() --pipe-->   snap.reattach(meta2)
      (await worker acks)                    fresh seeded cache
    mgr.release(stale)
    mgr.close()  (unlink all)                segments close on exit

Per-table segment layout (``rows`` × ``arity`` table)::

    [ col0 int64 × rows | col1 int64 × rows | ... | scores float64 × rows ]

``refresh`` re-exports **only** the tables whose epochs moved and bumps
a generation counter; untouched tables keep their segments, so a point
mutation ships one new segment, not the database. Old segments are
unlinked only after every worker acknowledged the new generation
(:meth:`SharedSnapshotManager.release`) — workers may still hold
views into them mid-evaluation.

The interner note: the manager's value dictionary is **append-only**,
so a shipped ``values`` list is always a prefix-extension of the last
one. Workers, however, intern *locally* too — scanning a query with a
constant absent from the data appends to the worker's copy
(``EvaluationCache.encode``), and those local codes can collide with
codes the parent assigned to different values in a later generation.
:func:`seed_cache` therefore rebuilds the worker's interner wholesale
from the new meta on every (re)attach and the pool pairs it with a
**fresh** :class:`~repro.engine.extensional.EvaluationCache` — local
constants simply re-intern on demand after the parent's values.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory
from typing import Iterable, Iterator, Mapping

from ..core.fds import ColumnFD
from .schema import Schema, TableSchema

__all__ = [
    "SharedSnapshotManager",
    "SnapshotDatabase",
    "SnapshotTable",
    "attach_snapshot",
    "column_views",
    "seed_cache",
]

_WORD = 8  # bytes per int64 column slot and per float64 score


def column_views(buffer, rows: int, arity: int):
    """``(int64 columns, float64 scores)`` as views over ``buffer``.

    The one pack/unpack helper for the ``[col0 | col1 | ... | scores]``
    layout (little-endian words): writable over a segment or
    ``bytearray`` (fill to pack), read-only over ``bytes`` (the wire
    codec's result block).
    """
    import numpy as np

    views = [
        np.ndarray((rows,), dtype, buffer=buffer, offset=index * rows * _WORD)
        for index, dtype in enumerate(["<i8"] * arity + ["<f8"])
    ]
    return tuple(views[:-1]), views[-1]


def _segment_name() -> str:
    # Short and collision-free enough; the OS namespace for POSIX shm
    # names is tight on some platforms (31 chars on macOS).
    return f"repro_{secrets.token_hex(6)}"


def _schema_to_meta(schema: TableSchema) -> dict:
    return {
        "columns": list(schema.columns),
        "deterministic": schema.deterministic,
        "fds": [[list(fd.lhs), list(fd.rhs)] for fd in schema.fds],
    }


def _schema_from_meta(name: str, arity: int, data: Mapping) -> TableSchema:
    return TableSchema(
        name=name,
        arity=arity,
        columns=tuple(data.get("columns", ())),
        deterministic=bool(data.get("deterministic", False)),
        fds=tuple(
            ColumnFD(tuple(lhs), tuple(rhs))
            for lhs, rhs in data.get("fds", ())
        ),
    )


class SharedSnapshotManager:
    """Parent-side exporter: one shared segment per table, plus meta.

    Keeps its own append-only interner (independent of any engine's
    evaluation cache) so exported code columns stay meaningful across
    generations: a value interned in generation 1 has the same code in
    generation 9.
    """

    def __init__(self, db) -> None:
        self.db = db
        self._code_of: dict = {}
        self._values: list = []
        self.generation = 0
        # name -> (epoch, SharedMemory, meta entry)
        self._tables: dict[str, tuple] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def _encode_table(self, name: str):
        table = self.db.table(name)
        rows = table.rows
        n = len(rows)
        arity = table.arity
        nbytes = max(1, n * (arity + 1) * _WORD)
        segment = shared_memory.SharedMemory(
            create=True, size=nbytes, name=_segment_name()
        )
        # Tracker hygiene: the creating process stays registered (its
        # unlink() unregisters, and a crash still gets cleaned up);
        # attachers use _attach_segment and never register at all.
        code_of = self._code_of
        values = self._values
        columns, scores = column_views(segment.buf, n, arity)
        for index, column in enumerate(columns):
            at = 0
            for row in rows:
                v = row[index]
                code = code_of.get(v)
                if code is None:
                    code = len(values)
                    code_of[v] = code
                    values.append(v)
                column[at] = code
                at += 1
        scores[:] = list(rows.values())
        entry = {
            "segment": segment.name,
            "rows": n,
            "arity": arity,
            "epoch": list(table.epoch),
            "schema": _schema_to_meta(table.schema),
        }
        return table.epoch, segment, entry

    def export(self) -> dict:
        """Export every table; returns the picklable meta dict."""
        stale = []
        for name in list(self.db.table_names):
            epoch = self.db.table_epoch(name)
            current = self._tables.get(name)
            if current is not None and current[0] == epoch:
                continue
            if current is not None:
                stale.append(current[1])
            self._tables[name] = self._encode_table(name)
        for name in list(self._tables):
            if name not in self.db.table_names:
                stale.append(self._tables.pop(name)[1])
        self.generation += 1
        # Callers between export() and release(): workers still attached
        # to a previous generation may read the old pages.
        self._stale = getattr(self, "_stale", [])
        self._stale.extend(stale)
        return self.meta()

    def refresh(self) -> dict:
        """Re-export changed tables only; same return shape as export."""
        return self.export()

    def meta(self) -> dict:
        return {
            "generation": self.generation,
            "values": list(self._values),
            "tables": {
                name: dict(entry)
                for name, (_, _, entry) in self._tables.items()
            },
        }

    def release(self) -> None:
        """Unlink segments superseded by the latest export.

        Call only after every attached worker acknowledged the new
        generation — the pages must outlive in-flight evaluations.
        """
        for segment in getattr(self, "_stale", []):
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._stale = []

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.release()
        for _, segment, _ in self._tables.values():
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._tables.clear()

    def __enter__(self) -> "SharedSnapshotManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SnapshotTable:
    """A read-only table view over one shared segment.

    Duck-types the slice of :class:`~repro.db.database.Table` the
    memory engine touches: ``name``/``arity``/``epoch``/``schema``/
    ``__len__``, plus lazily-decoded ``rows`` for code paths that fall
    off the seeded fast path (they shouldn't, but correctness must not
    depend on it).
    """

    __slots__ = (
        "schema",
        "columns",
        "scores",
        "_segment",
        "epoch_pair",
        "_rows",
        "_values",
    )

    def __init__(self, schema, columns, scores, segment, epoch, values):
        self.schema = schema
        self.columns = columns
        self.scores = scores
        self._segment = segment
        #: ``(name, epoch)``, shared by every vector (see ``Table``)
        self.epoch_pair = (schema.name, epoch)
        self._rows = None
        self._values = values

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def arity(self) -> int:
        return self.schema.arity

    @property
    def epoch(self) -> tuple[int, int]:
        return self.epoch_pair[1]

    @property
    def rows(self) -> dict:
        if self._rows is None:
            values = self._values
            decoded = {}
            n = len(self.scores)
            cols = [c.tolist() for c in self.columns]
            scores = self.scores.tolist()
            for i in range(n):
                decoded[tuple(values[c[i]] for c in cols)] = scores[i]
            self._rows = decoded
        return self._rows

    def probability(self, row) -> float:
        return self.rows.get(tuple(row), 0.0)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[tuple[tuple, float]]:
        return iter(self.rows.items())

    def __contains__(self, row) -> bool:
        return tuple(row) in self.rows

    def column_values(self, index: int) -> set:
        values = self._values
        return {values[c] for c in self.columns[index].tolist()}

    def close(self) -> None:
        self.columns = ()
        self.scores = None
        self._rows = None
        if self._segment is not None:
            try:
                self._segment.close()
            except OSError:
                pass
            self._segment = None

    def __repr__(self) -> str:
        return f"SnapshotTable({self.name}, {len(self)} rows)"


class SnapshotDatabase:
    """A read-only database view assembled from shared segments.

    Duck-types the :class:`~repro.db.ProbabilisticDatabase` surface the
    evaluation stack reads — including a ``version`` token and the
    per-table epoch API, with the parent's *actual* epochs, so a plan
    result cached in a worker carries exactly the same epoch vector the
    server uses in its wire cache keys. :meth:`reattach` swaps in a new
    generation **in place**, keeping ``engine.db is snapshot`` true.
    """

    def __init__(self, meta: Mapping) -> None:
        self._tables: dict[str, SnapshotTable] = {}
        self.generation = -1
        self.values: list = []
        self.code_of: dict = {}
        self.reattach(meta)

    def reattach(self, meta: Mapping) -> None:
        old = self._tables
        tables: dict[str, SnapshotTable] = {}
        for name, entry in meta["tables"].items():
            epoch = tuple(entry["epoch"])
            previous = old.get(name)
            if previous is not None and previous.epoch == epoch:
                tables[name] = previous
                continue
            segment = _attach_segment(entry["segment"])
            arity = entry["arity"]
            columns, scores = column_views(segment.buf, entry["rows"], arity)
            tables[name] = SnapshotTable(
                _schema_from_meta(name, arity, entry["schema"]),
                columns,
                scores,
                segment,
                epoch,
                self.values,
            )
        for name, table in old.items():
            if tables.get(name) is not table:
                table.close()
        self._tables = tables
        # The values list is mutated in place so every SnapshotTable's
        # reference stays current across generations.
        self.values[:] = list(meta["values"])
        self.code_of = {v: i for i, v in enumerate(self.values)}
        self.generation = meta["generation"]

    # ------------------------------------------------------------------
    # ProbabilisticDatabase surface (read-only slice)
    # ------------------------------------------------------------------
    @property
    def version(self) -> tuple:
        return (
            ("shm", self.generation),
            tuple(
                (name, t.epoch[0], t.epoch[1])
                for name, t in sorted(self._tables.items())
            ),
        )

    def table(self, name: str) -> SnapshotTable:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[SnapshotTable]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def schema(self) -> Schema:
        return Schema(t.schema for t in self._tables.values())

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def table_epoch(self, name: str) -> tuple[int, int] | None:
        table = self._tables.get(name)
        return None if table is None else table.epoch

    def table_epochs(self) -> dict[str, tuple[int, int]]:
        return {name: t.epoch for name, t in self._tables.items()}

    def epoch_vector(self, relations: Iterable[str]) -> tuple:
        tables = self._tables
        return tuple(
            tables[name].epoch_pair if name in tables else (name, None)
            for name in sorted(set(relations))
        )

    def close(self) -> None:
        for table in self._tables.values():
            table.close()
        self._tables = {}


_attach_lock = __import__("threading").Lock()


def _attach_segment(name: str):
    """Attach to an existing segment without tracker registration.

    Python 3.13+ has ``track=False`` for exactly this; earlier versions
    need the registration call stubbed for the duration (attachers must
    never become owners — the parent manager owns unlinking)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_snapshot(meta: Mapping) -> SnapshotDatabase:
    """Worker-side: join the exported segments as a database view."""
    return SnapshotDatabase(meta)


def seed_cache(cache, snapshot: SnapshotDatabase) -> None:
    """Pre-load an :class:`EvaluationCache` from attached segments.

    Installs the parent's interner and every table's shared code/score
    columns, so the first scan in a freshly forked (or refreshed)
    worker is a dict probe — no per-row re-encoding, no copy. Must be
    called on a **fresh** cache after each (re)attach: rebuilding the
    interner wholesale is what reconciles worker-local constant
    interning with the parent's append-only value list (see module
    docstring).
    """
    with cache._lock:
        cache._code_of.clear()
        cache._code_of.update(snapshot.code_of)
        cache._values[:] = snapshot.values
        for name in snapshot.table_names:
            table = snapshot.table(name)
            cache._tables[name] = (
                table.epoch,
                (table.columns, table.scores),
            )
