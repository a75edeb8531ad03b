"""One generic bounded LRU with counters — the cache zoo, consolidated.

Before this module the repository carried four hand-rolled
"OrderedDict + lock + hit/miss/eviction counters" implementations:
the session :class:`~repro.api.cache.ResultCache`, the engine's
plan-enumeration memo, the memory backend's
:class:`~repro.engine.extensional.EvaluationCache` plan layer, and the
SQLite :class:`~repro.db.sqlite_backend.SQLiteViewRegistry`. They
agreed on the semantics (``max_entries=None`` unbounded, ``0`` stores
nothing, LRU eviction on overflow, cumulative counters) but each
re-implemented them, and each invented its own stats dict.

:class:`StatsLRU` is that shared core. The four call sites keep their
public shapes (their tests pin exact dicts) as thin adapters, while the
storage, the LRU discipline, the counters, and the thread safety live
here — and every layer can therefore report through one
:class:`~repro.obs.metrics.MetricsRegistry` snapshot.

Extension points the call sites need:

* ``on_evict(key, value)`` — run per removed entry (the view registry
  drops its temp table here). Called with the lock held; keep it
  re-entrant-safe and quick.
* ``evictable(key, value) -> bool`` — cap enforcement skips entries for
  which this returns ``False`` (the view registry's pin scope).
* ``lock=`` — share one re-entrant lock with the owner, so its own
  state and the LRU change together (evaluation cache, view registry,
  plan memo).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Iterator

__all__ = ["StatsLRU"]

#: Legal values for the ``count=`` argument of the removal methods.
_COUNT_KINDS = (None, "eviction", "invalidation")


class StatsLRU:
    """A thread-safe bounded LRU mapping with cumulative counters.

    ``max_entries=None`` is unbounded; ``0`` stores nothing (every
    :meth:`get` misses, :meth:`put` is a no-op); ``N`` keeps the ``N``
    most recently used entries and counts overflow removals as
    ``evictions`` — a :meth:`put` into a full cache costs O(evictions)
    key hashes, never O(size). Counters are cumulative — they survive
    :meth:`clear` / :meth:`remove_where` — because every historical
    call site reports lifetime totals.

    Iteration yields keys in LRU order (least recently used first),
    matching the ``OrderedDict`` the call sites grew up on.
    """

    __slots__ = (
        "max_entries",
        "_entries",
        "_lock",
        "_hits",
        "_misses",
        "_evictions",
        "_invalidations",
        "_on_evict",
        "_evictable",
    )

    def __init__(
        self,
        max_entries: int | None = None,
        *,
        on_evict: Callable[[Hashable, object], None] | None = None,
        evictable: Callable[[Hashable, object], bool] | None = None,
        lock: "threading.RLock | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(
                f"max_entries must be None or >= 0, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = lock if lock is not None else threading.RLock()
        self._on_evict = on_evict
        self._evictable = evictable
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # mapping surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without counting or touching recency."""
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Keys in LRU order (least recently used first), snapshotted."""
        with self._lock:
            return iter(list(self._entries))

    def __eq__(self, other) -> bool:
        """Content equality against another cache or any mapping
        (recency order is not part of the comparison)."""
        if isinstance(other, StatsLRU):
            return dict(self.items()) == dict(other.items())
        try:
            return dict(self.items()) == dict(other)
        except TypeError:
            return NotImplemented

    def items(self) -> list[tuple[Hashable, object]]:
        """``(key, value)`` pairs in LRU order, snapshotted."""
        with self._lock:
            return list(self._entries.items())

    def get(
        self,
        key: Hashable,
        default=None,
        *,
        count_hit: bool = True,
        count_miss: bool = True,
    ):
        """The value under ``key`` (marking it most recently used).

        A found entry counts a hit; an absent one counts a miss and
        returns ``default``. ``count_hit`` / ``count_miss`` opt out for
        call sites whose protocol counts elsewhere (the view registry
        counts the miss in the ``register()`` that must follow a failed
        lookup).
        """
        with self._lock:
            entry = self._entries.get(key, _ABSENT)
            if entry is _ABSENT:
                if count_miss:
                    self._misses += 1
                return default
            if count_hit:
                self._hits += 1
            self._entries.move_to_end(key)
            return entry

    def peek(self, key: Hashable, default=None):
        """The value under ``key`` without counting or touching recency."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` under ``key`` and enforce the cap.

        With ``max_entries == 0`` nothing is stored (and nothing is
        counted); overflow removals run ``on_evict`` and count as
        evictions. Storing never counts a miss — lookups do.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.enforce_cap()

    def pop(self, key: Hashable, *, count: str | None = None):
        """Remove and return ``key``'s value (``None`` when absent).

        ``count`` is ``None`` (uncounted), ``"eviction"``, or
        ``"invalidation"``. Runs ``on_evict``.
        """
        self._check_count(count)
        with self._lock:
            if key not in self._entries:
                return None
            value = self._entries.pop(key)
            self._removed(key, value, count)
            return value

    def enforce_cap(self) -> int:
        """Evict LRU-first down to ``max_entries`` (skipping entries the
        ``evictable`` predicate protects); returns the eviction count.

        Public because pin-scoped owners defer enforcement: the view
        registry re-runs it when the outermost pin scope exits.

        O(evictions), not O(size): the victims are read off the LRU end
        by key iteration, which hashes nothing — copying
        ``OrderedDict.items()`` looks every key up again, one Python
        ``__hash__`` per entry, on every ``put`` into a full cache.
        """
        if self.max_entries is None:
            return 0
        with self._lock:
            excess = len(self._entries) - self.max_entries
            if excess <= 0:
                return 0
            # an OrderedDict may not shrink while it is being iterated
            victims = []
            for key in self._entries:
                value = self._entries[key]
                if self._evictable is None or self._evictable(key, value):
                    victims.append((key, value))
                    if len(victims) == excess:
                        break
            for key, value in victims:
                del self._entries[key]
                self._removed(key, value, "eviction")
        return len(victims)

    def remove_where(
        self,
        predicate: Callable[[Hashable, object], bool],
        *,
        count: str | None = "eviction",
    ) -> int:
        """Remove every entry matching ``predicate``; returns the count.

        ``count`` selects which counter the removals feed
        (``"eviction"`` — the result cache's stale sweep —
        ``"invalidation"`` — the view registry's epoch diff — or
        ``None``, the evaluation cache's uncounted ``validate()``
        drops). Runs ``on_evict`` per entry.
        """
        self._check_count(count)
        removed = 0
        with self._lock:
            for key, value in list(self._entries.items()):
                if predicate(key, value):
                    del self._entries[key]
                    self._removed(key, value, count)
                    removed += 1
        return removed

    def clear(self, *, count: str | None = None) -> int:
        """Remove everything; returns the number of entries dropped."""
        self._check_count(count)
        with self._lock:
            items = list(self._entries.items())
            self._entries.clear()
            for key, value in items:
                self._removed(key, value, count)
            return len(items)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def add_miss(self, n: int = 1) -> None:
        """Count misses recorded by the owner's own protocol (e.g. the
        view registry's ``register()``)."""
        with self._lock:
            self._misses += n

    def stats(self) -> dict:
        """Cumulative counters plus live size, one shape for every cache."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }

    # ------------------------------------------------------------------
    # internals (lock held)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_count(count: str | None) -> None:
        if count not in _COUNT_KINDS:
            raise ValueError(
                f"count must be one of {_COUNT_KINDS}, got {count!r}"
            )

    def _removed(self, key: Hashable, value, count: str | None) -> None:
        if count == "eviction":
            self._evictions += 1
        elif count == "invalidation":
            self._invalidations += 1
        if self._on_evict is not None:
            self._on_evict(key, value)


#: Missing-entry sentinel (``None`` is a legal stored value).
_ABSENT = object()
