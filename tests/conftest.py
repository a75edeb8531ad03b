"""Shared test harness: a per-test hang watchdog and a leak guard.

The resilience suite exercises worker crashes, wedged threads, and
shutdown races — exactly the kind of code where a regression shows up
as a *hang*, not a failure. ``pytest-timeout`` is not available in the
toolchain image, so this conftest arms the stdlib
:mod:`faulthandler` instead: every test gets ``REPRO_TEST_TIMEOUT``
seconds (default 300); past that, faulthandler dumps every thread's
traceback to stderr and hard-exits the process, so CI fails in minutes
with a stack instead of wedging the job until the runner's global
timeout.

Set ``REPRO_TEST_TIMEOUT=0`` to disable (e.g. when stepping through a
test under a debugger).

The leak guard (autouse) fails any test that leaves behind a
``/dev/shm/repro_*`` segment or — after a 2 s grace for threads that
are still unwinding — a live service worker, server loop, client
reader, or pool reader thread: shutdown paths release what they own.
"""

from __future__ import annotations

import faulthandler
import os
import threading
import time

import pytest

from .helpers import shm_segments

_LIMIT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if _LIMIT > 0:
        faulthandler.dump_traceback_later(_LIMIT, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()
    else:
        yield


_OWNED_THREADS = (
    "dissoc-worker-",
    "repro-serve",
    "repro-client-rx",
    "repro-pool-rx-",
)


@pytest.fixture(autouse=True)
def _no_leaked_segments_or_threads():
    segments = shm_segments()
    threads = set(threading.enumerate())
    yield
    leaked = shm_segments() - segments
    assert not leaked, f"shared-memory segments left behind: {sorted(leaked)}"
    deadline = time.monotonic() + 2.0
    while True:
        alive = sorted(
            t.name
            for t in threading.enumerate()
            if t not in threads and t.name.startswith(_OWNED_THREADS)
        )
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    assert not alive, f"threads left running: {alive}"
