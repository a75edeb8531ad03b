"""The service-wide temp-view namespace.

SQLite temp tables are connection-local, so every service worker thread
holds a connection of its own (the engine's
:class:`~repro.engine.executors.SQLiteExecutor` keeps one snapshot per
thread) — yet the service should behave like *one* system: the same
structural subplan must map to the same view name on every connection,
and the operator should be able to see, globally, which subplans are
materialized where. :class:`SharedViewNamespace` provides both: a
thread-safe name authority (consistent hash → name assignment with
coordinated collision suffixes across all connections) plus global
materialization accounting.
"""

from __future__ import annotations

import threading
from typing import Hashable

__all__ = ["SharedViewNamespace"]


class SharedViewNamespace:
    """Thread-safe temp-view name authority shared by all sessions.

    ``name_for`` assigns every registry key (digest, structural key) a
    name that is identical on every connection that asks — including
    the collision suffix, which a lone
    :class:`~repro.db.sqlite_backend.SQLiteViewRegistry` would otherwise
    assign in local arrival order. ``note_materialized`` /
    ``note_evicted`` keep a global census of live views per key, giving
    the service its cross-session dedup statistics: ``sessions_holding``
    tells how many connections currently store a given subplan.

    The name map is bounded (:data:`MAX_NAME_ENTRIES`): a long-lived
    service streaming an unbounded variety of queries must not pin
    every plan tree it has ever named. Entries whose key still has live
    views are never dropped, so a recycled name can never collide with
    a view that exists somewhere; collision counters are pruned with
    their digests.
    """

    #: Bound on remembered (digest, key) -> name assignments.
    MAX_NAME_ENTRIES = 65536

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (digest, key) -> assigned name (insertion-ordered for pruning)
        self._names: dict[tuple[int, Hashable], str] = {}
        #: digest -> number of distinct keys seen (collision suffixes)
        self._collisions: dict[int, int] = {}
        #: key -> live materialization count across sessions
        self._live: dict[Hashable, int] = {}
        self.materializations = 0
        self.evictions = 0

    def name_for(self, digest: int, key: Hashable) -> str:
        with self._lock:
            assigned = self._names.get((digest, key))
            if assigned is not None:
                return assigned
            suffix = self._collisions.get(digest, 0)
            self._collisions[digest] = suffix + 1
            name = (
                f"dissoc_{digest:016x}"
                if suffix == 0
                else f"dissoc_{digest:016x}_{suffix}"
            )
            self._names[(digest, key)] = name
            self._enforce_cap()
            return name

    def _enforce_cap(self) -> None:
        """Drop the oldest dead name assignments (lock held)."""
        excess = len(self._names) - self.MAX_NAME_ENTRIES
        if excess <= 0:
            return
        for entry in list(self._names):
            if excess <= 0:
                break
            if self._live.get(entry[1], 0):
                continue  # a view with this name exists somewhere
            del self._names[entry]
            excess -= 1
        retained = {digest for digest, _ in self._names}
        for digest in list(self._collisions):
            if digest not in retained:
                del self._collisions[digest]

    def note_materialized(self, key: Hashable, name: str) -> None:
        with self._lock:
            self._live[key] = self._live.get(key, 0) + 1
            self.materializations += 1

    def note_evicted(self, key: Hashable, name: str) -> None:
        with self._lock:
            remaining = self._live.get(key, 0) - 1
            if remaining > 0:
                self._live[key] = remaining
            else:
                self._live.pop(key, None)
            self.evictions += 1

    def sessions_holding(self, key: Hashable) -> int:
        with self._lock:
            return self._live.get(key, 0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "known_names": len(self._names),
                "live_views": sum(self._live.values()),
                "distinct_live_keys": len(self._live),
                "materializations": self.materializations,
                "evictions": self.evictions,
            }
