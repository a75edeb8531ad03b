"""Compare two sets of runs: one row per (workload, end-to-end metric).

    python3 benchmarks/suite/compare.py --base runs/parent --change runs/head

Each side is a directory (or a list of files) of run outputs: the captured
standard output of ``run.py``, one file per run. Every row shows each side's
median and quartiles and one verdict, from the bounds in ``BENCHMARK.json``
(and ``metrics.REPORT_ONLY_END_TO_END`` for the metrics the driver does not
gate):

* ``regressed``  — the change's median is worse by more than the bound and by
  more than the parent's own run-to-run spread (its interquartile range);
* ``improved``   — better by more than both;
* ``unresolved`` — neither, and the parent's spread is wider than the bound,
  so "no regression" cannot be told from noise;
* ``unchanged``  — neither, and the spread is within the bound.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from suite.metrics import end_to_end_bounds, load_spec
else:
    from .metrics import end_to_end_bounds, load_spec


#: A run that lost more of its CPU time than this to the hypervisor measured
#: the host (``host_steal_share`` in the report).
STEAL_LIMIT = 0.02


def load_report(path: Path) -> "dict | None":
    """The full report in ``path``, the captured stdout of one run."""
    for line in path.read_text().splitlines():
        if line.startswith("REPORT "):
            return json.loads(line[len("REPORT "):])
    return None


def load_side(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        files.extend(sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path])
    reports = [r for r in map(load_report, files) if r and not r.get("trace")]
    if not reports:
        raise SystemExit(f"no untraced run outputs found in {paths}")
    return reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, parent_spread)``; both as shares of the
    parent's median, ``worse_by`` positive when the change is worse."""
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    scale = abs(base_median)
    if scale == 0.0:
        delta = change_median - base_median
        worse = delta if better == "lower" else -delta
        return ("regressed" if worse > 0 else "unchanged"), worse, 0.0
    spread = (q3 - q1) / scale
    worse_by = (change_median - base_median) / scale
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound and worse_by > spread:
        return "regressed", worse_by, spread
    if -worse_by > bound and -worse_by > spread:
        return "improved", worse_by, spread
    if spread > bound:
        return "unresolved", worse_by, spread
    return "unchanged", worse_by, spread


def collect(reports: list[dict]) -> dict:
    """``{(workload, metric): [values]}`` of the measured values."""
    out: dict = {}
    for report in reports:
        for name, found in report["metrics"].items():
            if found.get("value") is not None:
                out.setdefault((report["workload"], name), []).append(found["value"])
    return out


def environments(reports: list[dict]) -> set[str]:
    keys = ("cpus", "python", "numpy", "sqlite", "sqlite_has_math_functions")
    return {
        " ".join(f"{k}={r['env'].get(k)}" for k in keys) for r in reports
    }


def compare(base_reports, change_reports) -> list[dict]:
    bounds = end_to_end_bounds()
    base, change = collect(base_reports), collect(change_reports)
    rows = []
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        for name, (unit, better, bound) in bounds.items():
            key = (workload, name)
            if key not in base and key not in change:
                continue  # the metric does not apply to this workload
            row = {"workload": workload, "metric": name, "unit": unit, "bound": bound}
            if key not in base or key not in change:
                row["verdict"] = "unmeasured"
                rows.append(row)
                continue
            row["verdict"], row["worse_by"], row["spread"] = verdict(
                base[key], change[key], better, bound
            )
            row["base"] = quartiles(base[key]) + (len(base[key]),)
            row["change"] = quartiles(change[key]) + (len(change[key]),)
            rows.append(row)
    return rows


def _side(stats) -> str:
    q1, med, q3, count = stats
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={count}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/suite/compare.py")
    parser.add_argument("--base", nargs="+", required=True, help="parent runs")
    parser.add_argument("--change", nargs="+", required=True, help="runs of the change")
    args = parser.parse_args(argv)
    base_reports, change_reports = load_side(args.base), load_side(args.change)
    for label, reports in (("base", base_reports), ("change", change_reports)):
        for env in sorted(environments(reports)):
            print(f"# {label}: {env}")
    if environments(base_reports) != environments(change_reports):
        print("# WARNING: the two sides ran on different hardware or libraries")
    for label, reports in (("base", base_reports), ("change", change_reports)):
        stolen = [r for r in reports if r.get("host_steal_share", 0.0) > STEAL_LIMIT]
        if stolen:
            print(
                f"# WARNING: the hypervisor withheld more than {STEAL_LIMIT:.0%} of "
                f"the CPU time of {len(stolen)} {label} runs; run them again"
            )
    rows = compare(base_reports, change_reports)
    for row in rows:
        head = f"{row['workload']:22s} {row['metric']:24s}"
        if row["verdict"] == "unmeasured":
            print(f"{head} unmeasured on one side")
            continue
        print(
            f"{head} base {_side(row['base'])}  change {_side(row['change'])}  "
            f"{row['unit']:6s} worse by {row['worse_by']:+.1%} "
            f"(bound {row['bound']:.0%}, parent spread {row['spread']:.1%})  "
            f"{row['verdict']}"
        )
    counts: dict = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("# " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
