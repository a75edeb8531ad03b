"""Frozen, hashable configuration for the unified session API.

:class:`EngineConfig` replaces the loose kwarg sprawl of
``DissociationEngine(backend=..., cache_size=..., write_factor=...,
...)`` with one immutable value object. Because it is frozen and
hashable it doubles as a *cache key component*: the session-level
:class:`~repro.api.cache.ResultCache` keys results by
``(query_key, optimizations, config, epoch)``, so two sessions with
equal configs can never cross-contaminate and repeats under the same
config hit.

:class:`ServiceConfig` does the same for the serving-layer knobs of
:class:`~repro.service.DissociationService` (workers, micro-batching,
admission control).

This module is import-cycle-free on purpose: it depends on nothing but
the standard library, so both the engine and the service can consume it
while the :mod:`repro.api` facade wraps them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["EngineConfig", "ServiceConfig", "UNSET"]


class _Unset:
    """Sentinel distinguishing "not passed" from explicit ``None``."""

    _instance = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<UNSET>"


#: The "not passed" value of ``timeout=``: the service's
#: ``default_timeout`` applies (an explicit ``None`` means no timeout).
UNSET = _Unset()


@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`~repro.engine.DissociationEngine` is built from.

    Parameters
    ----------
    backend:
        ``"memory"`` (columnar vectorized evaluator) or ``"sqlite"``
        (plans compiled to SQL, the paper's in-database mode).
    use_schema_knowledge:
        Feed deterministic-relation flags and FDs into plan enumeration
        (Sec. 3.3); disable for the schema-oblivious ablation.
    cache_size:
        LRU cap of the Opt.-2 subplan cache (memory plan-result layer /
        SQLite materialized-view registry). The default, 1 024, holds
        the largest plan set the repository evaluates (the chain-7
        all-plans set has 595 distinct subplans). It bounds what either
        executor admits, and both admit by Algorithm 3's ``selective``
        rule: a subplan beneath a selection constant belongs to one
        request (on memory it lives in the request's own memo, on
        SQLite inside its statement, however often the constant comes
        back), so parameterised traffic leaves only the shape's
        constant-free subplans behind. ``None`` is unbounded, ``0``
        disables cross-statement reuse.
    write_factor:
        Write-vs-read cost ratio of the Algorithm-3 materialization
        gate; ``None`` uses the engine default (or the service's
        startup calibration).
    plan_memo_size:
        LRU cap of the engine's ``minimal_plans``/``single_plan`` memo
        (keyed by canonical query key + schema flags). ``0`` disables
        memoization; ``None`` is unbounded.
    observer:
        A :class:`repro.obs.Observer` receiving metrics and request
        traces from every layer built over this config (``None``, the
        default, injects the benchmarked no-op). Excluded from
        equality/hash — instrumentation must never change cache keys.

    The dataclass is frozen: equality and ``hash()`` are structural, so
    configs can key dictionaries, sets, and the session result cache.
    """

    backend: str = "memory"
    use_schema_knowledge: bool = True
    cache_size: int | None = 1024
    write_factor: float | None = None
    plan_memo_size: int | None = 256
    observer: object | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "sqlite"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.cache_size is not None and self.cache_size < 0:
            raise ValueError(
                f"cache_size must be None or >= 0, got {self.cache_size!r}"
            )
        if self.write_factor is not None and self.write_factor < 0:
            raise ValueError(
                f"write_factor must be None or >= 0, got {self.write_factor!r}"
            )
        if self.plan_memo_size is not None and self.plan_memo_size < 0:
            raise ValueError(
                "plan_memo_size must be None or >= 0, "
                f"got {self.plan_memo_size!r}"
            )

    @classmethod
    def field_names(cls) -> frozenset[str]:
        """The legal engine-option names (for kwarg validation)."""
        return frozenset(f.name for f in dataclasses.fields(cls))

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_kwargs(cls, **kwargs) -> "EngineConfig":
        """Build a config from keyword arguments, rejecting unknown names.

        Unknown names raise ``TypeError`` listing them — the fix for
        ``**engine_kwargs`` silently swallowing typos like
        ``cache_sise=``. (Keyword-only on purpose: a positional
        parameter here would capture a same-named legacy kwarg and
        bypass the validation.)
        """
        known = cls.field_names()
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"unknown engine option(s) {unknown}; "
                f"valid EngineConfig fields are {sorted(known)}"
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-layer knobs of :class:`~repro.service.DissociationService`.

    Parameters
    ----------
    workers:
        Worker threads draining the admission queue (each batch runs on
        exactly one worker; parallelism comes from concurrent batches).
    max_batch_size / max_batch_delay / max_pending:
        Micro-batching: largest batch one dispatch admits, how long the
        dispatcher waits for stragglers, and the admission queue's
        backpressure bound.
    calibrate:
        Measure the SQLite temp-table write factor once at startup and
        install it on the one engine every worker shares.
    collect_dag_stats:
        Count each batch's merged plan DAG for the sharing statistics
        of ``stats()["dag"]``: one walk over the nodes of every plan
        tree, whose plans come from the engine's plan memo.
    default_timeout:
        Deadline (seconds) applied to submissions that do not pass
        their own ``timeout=``. A request whose deadline expires while
        queued is failed fast at dequeue with
        :class:`~repro.service.RequestTimeout` instead of evaluated.
        ``None`` (the default) means no deadline.
    max_retries / retry_backoff:
        The worker-side :class:`~repro.service.RetryPolicy`: how many
        times a *transient* failure (SQLite lock/busy contention) is
        retried per query during poison-isolation re-evaluation, and
        the base of its deterministic exponential backoff. Permanent
        errors are never retried.
    max_worker_restarts:
        Supervision budget: how many crashed worker threads the service
        will replace over its lifetime before declaring the pool dead
        (pending futures then fail with
        :class:`~repro.service.WorkerCrashed`).
    observer:
        A :class:`repro.obs.Observer` for service-layer spans and
        counters; when ``None`` the service falls back to the engine
        config's observer. Excluded from equality/hash.
    """

    workers: int = 2
    max_batch_size: int = 8
    max_batch_delay: float = 0.002
    max_pending: int = 1024
    calibrate: bool = False
    collect_dag_stats: bool = False
    default_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.01
    max_worker_restarts: int = 3
    observer: object | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_batch_delay < 0:
            raise ValueError("max_batch_delay must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError(
                "default_timeout must be None or > 0, "
                f"got {self.default_timeout!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")

    @classmethod
    def field_names(cls) -> frozenset[str]:
        return frozenset(f.name for f in dataclasses.fields(cls))

    def replace(self, **changes) -> "ServiceConfig":
        return dataclasses.replace(self, **changes)
