"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding harness, emits the same rows/series the paper reports, and
times a representative kernel via pytest-benchmark. Shapes — who wins, by
what factor, where crossovers fall — are what should match the paper;
absolute times depend on the machine and on SQLite standing in for
PostgreSQL / SQL Server.

Figure output goes to stdout (visible with ``pytest -s``) *and* is
appended to ``bench_figures.txt`` at the repository root, so a plain
``pytest benchmarks/ --benchmark-only`` still leaves the full reproduction
record behind (``bench_figures.txt`` is the record; CI uploads it).
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parent.parent / "bench_figures.txt"


@pytest.fixture(scope="session", autouse=True)
def _fresh_report_file():
    REPORT_PATH.write_text("")
    yield


def emit(title: str, body: str) -> None:
    """Record one figure's reproduction block."""
    bar = "=" * 72
    block = f"\n{bar}\n{title}\n{bar}\n{body}\n"
    print(block)
    with REPORT_PATH.open("a") as f:
        f.write(block)


@pytest.fixture
def report():
    return emit


@pytest.fixture
def best_seconds():
    """``best_seconds(query, db, modes, first)``: per mode of ``modes``,
    the best of ``first`` (the sweep's own timings of the instance) and
    two more cold runs on fresh engines — what a timing gate asserts
    on, so one scheduler hiccup on a 10 ms measurement cannot fail it."""
    from repro.experiments import dissociation_timings

    def best(query, db, modes, first):
        runs = [first] + [
            dissociation_timings(
                query, db, modes=modes, include_standard_sql=False
            ).seconds
            for _ in range(2)
        ]
        return {mode: min(run[mode] for run in runs) for mode in modes}

    return best
