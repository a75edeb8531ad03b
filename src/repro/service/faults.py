"""Deterministic fault injection for the serving stack.

A :class:`FaultInjector` scripts failures at named *hook points* wired
through the service, the engine, and the SQLite backend — all behind a
no-op default (``faults=None``: not a single extra branch on the hot
path beyond one ``is not None`` check). Rules are matched
deterministically ("raise X on the Nth call", "raise X whenever the
context satisfies this predicate, at most k times"), so chaos tests
replay bit-identically run after run.

Hook points and where they fire
-------------------------------
``"session"``
    The top of the service worker loop, once per worker thread before
    it serves anything (context: the thread name) — the start-up crash
    that used to strand every future a worker would ever have served.
``"worker"``
    The service worker loop, once per dequeued batch *before*
    processing — an exception here kills the worker thread itself
    (supervision territory), not just the batch.
``"batch"``
    :meth:`~repro.engine.DissociationEngine.evaluate_batch`, once per
    batch with the distinct query tuple as context.
``"evaluate"``
    Once per query — inside :meth:`~repro.engine.DissociationEngine
    .evaluate` and once per distinct query of ``evaluate_batch``. A
    poison rule keyed on one query therefore fails every batch
    containing it *and* its individual re-evaluation, while innocent
    co-batched queries re-evaluate cleanly — exactly the blast-radius-1
    semantics the isolation layer must produce.
``"statement"``
    :meth:`~repro.db.sqlite_backend.SQLiteBackend.execute` — backend
    statement execution, with the SQL text as context (the place to
    script transient ``database is locked`` contention).
``"rollback"``
    :meth:`~repro.db.database.ProbabilisticDatabase.mutate`'s abort
    path, fired *before* the undo log replays (context: the number of
    undo entries). An exception here means the rollback itself failed —
    the database degrades to the ``touch()`` taint, which is exactly
    the commit/abort distinction the recovery tests script.
``"journal"``
    :meth:`~repro.db.journal.DurableStore.commit` (context: the op
    list) and :meth:`~repro.db.journal.DurableStore.checkpoint`
    (context: ``"checkpoint"``), fired *before* any byte is written.
    An exception fails the durable commit, which rolls the in-memory
    transaction back too — memory and disk never diverge.

Rules may also carry an ``action`` callable (run with the context)
instead of — or before — an exception: a blocking action wedges the hook
without raising, which is how the close-with-wedged-worker tests freeze
a worker deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["FaultInjector", "FaultRule"]


@dataclass
class FaultRule:
    """One scripted fault at a hook point (see :class:`FaultInjector`)."""

    #: 1-based call numbers that trigger the rule; ``None`` = any call.
    calls: frozenset[int] | None = None
    #: Context predicate; ``None`` = any context.
    predicate: Callable[[object], bool] | None = None
    #: Remaining firings; ``None`` = unlimited.
    times: int | None = None
    #: Exception instance or class to raise when the rule fires.
    exc: BaseException | type[BaseException] | None = None
    #: Side effect run (with the context) when the rule fires.
    action: Callable[[object], None] | None = None
    fired: int = field(default=0, init=False)

    def matches(self, call: int, context: object) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.calls is not None and call not in self.calls:
            return False
        if self.predicate is not None and not self.predicate(context):
            return False
        return True


class FaultInjector:
    """Scripted, thread-safe, deterministic fault injection.

    >>> faults = FaultInjector()
    >>> faults.on_call("worker", 3, RuntimeError("worker killed"))
    >>> faults.when("evaluate", lambda q: q is poison, KeyError("boom"))
    >>> faults.fire("worker", batch)   # raises on the 3rd call only

    ``fire`` is what the instrumented code calls; everything else is
    scripting surface. Counters (:meth:`stats`) record every call and
    every firing per hook point, so tests can assert the scenario
    actually exercised the path it meant to.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        self._calls: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    # ------------------------------------------------------------------
    # scripting surface
    # ------------------------------------------------------------------
    def add_rule(self, point: str, rule: FaultRule) -> FaultRule:
        with self._lock:
            self._rules.setdefault(point, []).append(rule)
        return rule

    def on_call(
        self,
        point: str,
        call: int | tuple[int, ...],
        exc: BaseException | type[BaseException] | None = None,
        action: Callable[[object], None] | None = None,
    ) -> FaultRule:
        """Fire on the Nth call (1-based) of ``point``."""
        calls = (call,) if isinstance(call, int) else tuple(call)
        return self.add_rule(
            point, FaultRule(calls=frozenset(calls), exc=exc, action=action)
        )

    def when(
        self,
        point: str,
        predicate: Callable[[object], bool],
        exc: BaseException | type[BaseException] | None = None,
        action: Callable[[object], None] | None = None,
        times: int | None = None,
    ) -> FaultRule:
        """Fire whenever the context matches (at most ``times`` times)."""
        return self.add_rule(
            point,
            FaultRule(predicate=predicate, times=times, exc=exc, action=action),
        )

    def always(
        self,
        point: str,
        exc: BaseException | type[BaseException] | None = None,
        action: Callable[[object], None] | None = None,
        times: int | None = None,
    ) -> FaultRule:
        """Fire on every call of ``point`` (at most ``times`` times)."""
        return self.add_rule(
            point, FaultRule(times=times, exc=exc, action=action)
        )

    # ------------------------------------------------------------------
    # the instrumented side
    # ------------------------------------------------------------------
    def fire(self, point: str, context: object = None) -> None:
        """Called by instrumented code; raises if a scripted rule matches.

        The matching rule's bookkeeping happens under the lock; its
        ``action`` runs outside it (actions may block — that is the
        point of wedge-style rules — and must not hold up concurrent
        hook points).
        """
        with self._lock:
            call = self._calls.get(point, 0) + 1
            self._calls[point] = call
            matched: FaultRule | None = None
            for rule in self._rules.get(point, ()):
                if rule.matches(call, context):
                    rule.fired += 1
                    self._fired[point] = self._fired.get(point, 0) + 1
                    matched = rule
                    break
        if matched is None:
            return
        if matched.action is not None:
            matched.action(context)
        exc = matched.exc
        if exc is None:
            return
        if isinstance(exc, type):
            raise exc(f"injected fault at {point!r} (call {call})")
        raise exc

    def calls(self, point: str) -> int:
        """How many times ``point`` has fired its hook so far."""
        with self._lock:
            return self._calls.get(point, 0)

    def stats(self) -> dict:
        """Per-point call and firing counters."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "fired": dict(self._fired),
            }
