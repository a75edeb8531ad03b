"""The session-level result cache (epoch-keyed, LRU-bounded).

:class:`ResultCache` serves *repeat traffic without touching the
engine*: a full :class:`~repro.engine.EvaluationResult` is stored under
``(query_key, optimizations, config, epoch)`` where

* ``query_key`` is the canonical structural key of the query
  (:func:`repro.core.query_key` — stable under variable renaming and
  atom reordering, sensitive to head order and constants),
* ``optimizations`` / ``config`` are the frozen, hashable
  :class:`~repro.engine.Optimizations` and
  :class:`~repro.api.EngineConfig` values the result was computed
  under, and
* ``epoch`` is the per-table epoch vector stamped on every result —
  sorted ``(relation, (creation_stamp, mutation_counter))`` pairs over
  exactly the query's relations — the invalidation key. A mutation
  moves the epochs of the tables it touches, so entries over those
  tables can simply never be *looked up* again, while entries over
  untouched relations keep hitting; :meth:`evict_stale` reclaims the
  stale entries' memory eagerly after a mutation.

Results are snapshotted on the way in and copied on the way out (the
``scores`` dict is shallow-copied; the floats inside are immutable), so
no caller can corrupt a cached entry — cache hits are bit-identical to
the evaluation that populated them by construction. Served copies carry
``cached=True``.

Storage and counters live in the shared :class:`~repro.obs.StatsLRU`
(the unified cache core); this class adds the epoch semantics and the
snapshot-copy discipline.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..obs import StatsLRU

__all__ = ["ResultCache"]


def _vector_is_stale(key: Hashable, table_epochs: Mapping) -> bool:
    """Whether ``key`` ends in an epoch vector disagreeing with now."""
    if not (isinstance(key, tuple) and key):
        return False
    vector = key[-1]
    if not isinstance(vector, tuple):
        return False
    for pair in vector:
        if not (
            isinstance(pair, tuple)
            and len(pair) == 2
            and isinstance(pair[0], str)
        ):
            return False
    return any(
        table_epochs.get(relation) != epoch for relation, epoch in vector
    )


class ResultCache:
    """Thread-safe LRU cache of evaluation results.

    ``max_entries=None`` is unbounded; ``0`` disables caching (every
    lookup misses, nothing is stored). :meth:`stats` reports cumulative
    ``hits`` / ``misses`` / ``evictions`` plus the live ``size`` — the
    counters the acceptance tests use to prove a repeat was served
    without an engine evaluation.
    """

    def __init__(self, max_entries: int | None = 1024) -> None:
        self._entries = StatsLRU(max_entries)

    @property
    def max_entries(self) -> int | None:
        return self._entries.max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @staticmethod
    def _snapshot(result, cached: bool):
        if isinstance(result, bytes):
            # an encoded result body (the server's wire cache): already
            # immutable, so it is shared, not copied
            return result
        # a field-for-field copy with a fresh scores dict; cheaper than
        # dataclasses.replace, which re-runs __init__ on every hit
        served = object.__new__(type(result))
        served.__dict__.update(
            result.__dict__, scores=dict(result.scores), cached=cached
        )
        return served

    def get(self, key: Hashable):
        """The cached result for ``key`` (marked ``cached=True``), or
        ``None`` — counting a hit or a miss either way."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        # snapshot outside the lock: stored entries are never mutated in
        # place, and copying a large scores dict under the lock would
        # convoy concurrent clients on the hot hit path
        return self._snapshot(entry, cached=True)

    def put(self, key: Hashable, result) -> None:
        """Store a snapshot of ``result`` under ``key`` (LRU-evicting).

        For :meth:`evict_stale` to work, keys must be tuples whose
        *last* element is the epoch (the shape
        :func:`repro.api.keys.result_key` produces); other hashable
        keys are accepted but are invisible to stale eviction.
        """
        if self.max_entries == 0:
            return
        self._entries.put(key, self._snapshot(result, cached=False))

    def evict_stale(self, table_epochs: Mapping[str, Hashable]) -> int:
        """Drop entries whose epoch vector disagrees with the present.

        ``table_epochs`` is the database's current per-table epoch map
        (:meth:`~repro.db.database.ProbabilisticDatabase.table_epochs`).
        An entry is stale iff its key's epoch vector — the sorted
        ``(relation, epoch)`` pairs in the key's last position — names
        any relation whose current epoch differs (including relations
        that were dropped). Entries keyed purely on untouched relations
        **survive**; after a mutation nothing will ever look up a stale
        vector again, so this merely reclaims memory early. Keys
        without a recognizable epoch vector (legal for direct ``put``
        users) are left alone. Returns the eviction count.
        """
        return self._entries.remove_where(
            lambda key, _value: _vector_is_stale(key, table_epochs),
            count="eviction",
        )

    def clear(self) -> None:
        self._entries.clear(count="eviction")

    def stats(self) -> dict:
        stats = self._entries.stats()
        return {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "evictions": stats["evictions"],
            "size": stats["size"],
            "max_entries": stats["max_entries"],
        }
