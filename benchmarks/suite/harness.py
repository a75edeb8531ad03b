"""Shared harness: statistics, span recording, child-process hygiene.

Nothing here knows a workload. The module only *locates* the program
under test (``src/repro`` of the checkout this file lives in) and puts
it on ``sys.path``; it starts nothing at import.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Everything a run leaves behind (reports, span files, temp stores) goes
#: here: inside the checkout, ignored by git, emptied of temp dirs on exit.
OUT_DIR = SUITE_DIR / "out"

#: The benchmark measures the checkout's own source, never an installed copy.
if (SRC_DIR / "repro").is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def program_available() -> bool:
    return (SRC_DIR / "repro" / "__init__.py").is_file()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
#: A tail percentile is reported only with at least this many samples
#: beyond it (choosing-metrics §1); below that it is a max in disguise.
MIN_SAMPLES_BEYOND = 10
TAILS = (90.0, 95.0)


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tails(count: int) -> list[float]:
    """The tail percentiles ``count`` samples can support."""
    return [
        q for q in TAILS
        if count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9
    ]


def summarize(samples, scale: float = 1.0) -> dict:
    """``{"n", "p50", "p95", ...}`` — the sample count always, the median
    when there is any sample, and only the tails the count supports."""
    ordered = sorted(samples)
    out: dict = {"n": len(ordered)}
    if not ordered:
        return out
    out["p50"] = percentile(ordered, 50.0) * scale
    for q in supported_tails(len(ordered)):
        out[f"p{q:g}"] = percentile(ordered, q) * scale
    return out


def median(values) -> float:
    return float(statistics.median(values))


def stream_hash(items) -> str:
    """A digest of an op stream (texts in issue order)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:24]


# ----------------------------------------------------------------------
# spans, recorded from outside the program
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: ``(name, start, end, parent, op id)`` rows.

    The benchmark wraps the program's *public* calls; nothing is
    recorded inside ``src/``. Rows live in memory and are written once,
    when the run ends.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._clock = time.perf_counter

    def record(self, name: str, op: int, parent, fn, *args):
        """Time ``fn(*args)`` as one span; returns ``(result, seconds)``."""
        start = self._clock()
        result = fn(*args)
        end = self._clock()
        self.rows.append((name, start, end, parent, op))
        return result, end - start

    def add(self, name: str, op: int, parent, start: float, end: float) -> None:
        self.rows.append((name, start, end, parent, op))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.rows if n == name]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.rows[0][1] if self.rows else 0.0
        payload = dict(extra)
        payload["columns"] = ["name", "start_s", "end_s", "parent", "op"]
        payload["spans"] = [
            [name, round(start - origin, 7), round(end - origin, 7), parent, op]
            for name, start, end, parent, op in self.rows
        ]
        with path.open("w") as fh:
            json.dump(payload, fh)


class GcMonitor:
    """Collector pauses of the load generator, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses: dict[int, list[float]] = {0: [], 1: [], 2: []}
        #: pauses are kept only while this is set (the traced chunks)
        self.active = False
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self.active:
            self.pauses[info["generation"]].append(
                time.perf_counter() - self._started
            )

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# process accounting (Linux /proc; other platforms report what they can)
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> "list[str] | None":
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after it
    return raw[raw.rindex(")") + 2:].split()


def session_pids(session_id: int) -> list[int]:
    """Live, non-zombie processes whose session is ``session_id``."""
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id
        if fields and fields[0] != "Z" and int(fields[3]) == session_id:
            found.append(int(entry))
    return found


def cpu_seconds(pids) -> float:
    """User + system CPU of ``pids``, plus their reaped descendants'."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            # utime, stime, cutime, cstime
            total += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return total / _CLOCK_TICKS


def peak_rss_mb(pids) -> float:
    """Largest high-water RSS among ``pids`` (MB)."""
    best = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                best = max(best, int(line.split()[1]) / 1024.0)
    return best


def own_peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / 2**20


def steal_seconds() -> float:
    """CPU seconds the hypervisor has kept from this machine's CPUs while
    they had work to do, since boot (0.0 where ``/proc/stat`` has none)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def one_cpu():
    """Keep the calling thread, and every thread and child process it starts
    meanwhile, on one CPU: the highest it is allowed, which leaves the
    lowest to interrupts and to whatever else the machine runs. For a
    single closed-loop client, alone or with a server it never runs beside:
    where the scheduler puts them is then no part of the measurement
    (README, "One CPU for one client")."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def environment() -> dict:
    """Hardware and library facts every report carries."""
    import sqlite3

    import numpy

    from repro import ProbabilisticDatabase
    from repro.db.sqlite_backend import SQLiteBackend

    with SQLiteBackend(ProbabilisticDatabase()) as backend:
        has_math = backend.has_math_functions
    return {
        "cpus": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "sqlite_has_math_functions": has_math,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# child servers and temp directories
# ----------------------------------------------------------------------
class Hygiene:
    """Owns every child process and temp directory of one run.

    Children start in their own session so the whole tree can be found
    and killed on any exit path. A server is stopped with SIGINT to its
    leader only and waited for: that is the one signal on which
    ``python -m repro serve --processes N`` reaps its forked workers and
    unlinks its shared-memory segments (see README, known defects).
    """

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._shm_before = shm_segments()
        self._servers: list["ChildServer"] = []
        self._dirs: list[Path] = []
        self.leaked_children = 0

    def temp_dir(self, prefix: str) -> Path:
        path = Path(tempfile.mkdtemp(prefix=prefix + "_", dir=OUT_DIR))
        self._dirs.append(path)
        return path

    def serve(self, data_dir: Path, *extra: str) -> "ChildServer":
        server = ChildServer(data_dir, extra)
        self._servers.append(server)
        server.wait_ready()
        return server

    def stop(self, server: "ChildServer") -> None:
        self.leaked_children += server.stop()
        if server in self._servers:
            self._servers.remove(server)

    def close(self) -> dict:
        """Stop what is left, remove temp dirs; returns the leak counts."""
        for server in list(self._servers):
            self.stop(server)
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()
        leaked_shm = shm_segments() - self._shm_before
        for name in leaked_shm:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        return {
            "hygiene.leaked_children": self.leaked_children,
            "hygiene.leaked_shm_segments": len(leaked_shm),
        }

    def __enter__(self) -> "Hygiene":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChildServer:
    """One ``python -m repro serve --data DIR --port 0`` child."""

    START_TIMEOUT = 60.0

    def __init__(self, data_dir: Path, extra=()) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self._log = (OUT_DIR / "server.log").open("ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data", str(data_dir), "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.url: "str | None" = None
        self.banner = ""

    def wait_ready(self) -> None:
        # the banner ("serving repro://host:port ...") is the first line
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], self.START_TIMEOUT)
        line = stdout.readline() if ready else ""
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.banner = line.strip()
        self.url = line.split()[1]

    @property
    def pid(self) -> int:
        return self.process.pid

    def pids(self) -> list[int]:
        """The server and its forked workers (its session)."""
        return session_pids(self.pid)

    def stop(self, timeout: float = 15.0) -> int:
        """SIGINT the leader, wait, then sweep the session.

        Returns how many processes of the session outlived the clean
        shutdown (they are killed; the count is the leak metric).
        """
        process = self.process
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGINT)
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + 2.0
        survivors = session_pids(self.pid)
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.02)
            survivors = session_pids(self.pid)
        if survivors or process.poll() is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            process.wait(5.0)
        except subprocess.TimeoutExpired:
            pass
        if process.stdout is not None:
            process.stdout.close()
        self._log.close()
        return len(survivors)
