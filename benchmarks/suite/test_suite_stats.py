"""Determinism of the inputs, the percentile rule, and compare.py's verdicts."""

from __future__ import annotations

import random

from suite import compare, harness, runner
from suite.test_suite_smoke import report_of, small, smoke_run


# ----------------------------------------------------------------------
# same seed, same inputs and same exact counts
# ----------------------------------------------------------------------
def test_same_seed_same_stream_and_counts():
    first = report_of("rw_durable_service", 0)
    again = smoke_run("rw_durable_service", 0)
    assert first["op_stream_hash"] == again["op_stream_hash"]
    assert first["samples"] == again["samples"]
    assert (
        first["metrics"]["storage_bytes_per_write"]["value"]
        == again["metrics"]["storage_bytes_per_write"]["value"]
    )
    other = smoke_run("rw_durable_service", 0, seed=12)
    assert other["op_stream_hash"] != first["op_stream_hash"]


def test_traced_counts_repeat_exactly():
    first = report_of("chain7_params_memory", 1)
    again = smoke_run("chain7_params_memory", 1)
    for name in ("core.minplans.plans_per_query", "net.server.parses"):
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"]
    # the smoke runs use chains of four relations: Catalan(3) minimal plans
    assert first["metrics"]["core.minplans.plans_per_query"]["value"] == 5
    assert first["op_stream_hash"] == again["op_stream_hash"]


def test_the_full_size_chain_has_132_minimal_plans():
    from repro import minimal_plans, parse_query
    from suite.workloads import Chain7ParamsMemory, param_query

    query = parse_query(param_query(Chain7ParamsMemory.chain_length, 1))
    assert len(minimal_plans(query)) == 132


def test_every_workload_stream_depends_on_the_seed():
    from suite.workloads import WORKLOADS

    for name in ("chain7_params_memory", "zipf_hits_local", "rw_durable_service"):
        # the other three share these generators (plus a server or a backend)
        cls = WORKLOADS[name]
        hashes = []
        for seed in (11, 11, 12):
            with harness.Hygiene() as hygiene, small(name):
                workload = cls(seed, hygiene)
                workload.setup()
                try:
                    prefix = [op for s in workload.streams for op in s[:500]]
                    hashes.append(harness.stream_hash(prefix))
                finally:
                    workload.teardown()
        assert hashes[0] == hashes[1] != hashes[2], name


# ----------------------------------------------------------------------
# percentiles: the median plus only the tails the count supports
# ----------------------------------------------------------------------
def test_summary_omits_unsupported_tails():
    rng = random.Random(1)
    assert harness.summarize([]) == {"n": 0}
    few = harness.summarize([rng.random() for _ in range(5)])
    assert set(few) == {"n", "p50"} and few["n"] == 5
    some = harness.summarize([rng.random() for _ in range(150)])
    assert set(some) == {"n", "p50", "p90"}  # 7.5 samples beyond p95: too few
    enough = harness.summarize([rng.random() for _ in range(200)])
    assert set(enough) == {"n", "p50", "p90", "p95"}
    many = harness.summarize(range(10_000), scale=2.0)
    assert many["p50"] == 2.0 * 4999.5 and many["n"] == 10_000


def test_percentile_interpolates():
    assert harness.percentile([1.0], 95.0) == 1.0
    assert harness.percentile([0.0, 10.0], 50.0) == 5.0
    assert harness.percentile(list(range(101)), 95.0) == 95.0


def test_latency_metric_reports_missing_tail_as_unmeasured():
    out: dict = {}
    runner._latency_metrics("", (90, 95), [0.001] * 120, out)
    assert out["latency_p50_ms"]["n"] == out["latency_p90_ms"]["n"] == 120
    assert out["latency_p90_ms"]["value"] == 1.0
    assert out["latency_p95_ms"]["value"] is None
    assert "120 samples" in out["latency_p95_ms"]["unmeasured"]
    assert "(200)" in out["latency_p95_ms"]["unmeasured"]


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def _noisy(center: float, spread: float, count: int = 9) -> list[float]:
    return [center * (1 + spread * (i / (count - 1) - 0.5)) for i in range(count)]


def test_verdicts():
    steady = _noisy(100.0, 0.02)
    assert compare.verdict(steady, _noisy(101.0, 0.02), "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(steady, _noisy(125.0, 0.02), "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, _noisy(125.0, 0.02), "higher", 0.10)[0] == "improved"
    assert compare.verdict(steady, _noisy(80.0, 0.02), "higher", 0.10)[0] == "regressed"
    noisy = _noisy(100.0, 0.60)
    # worse than the bound but inside the parent's own spread: not resolvable
    assert compare.verdict(noisy, _noisy(115.0, 0.60), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, _noisy(100.0, 0.60), "lower", 0.10)[0] == "unresolved"
    # zero-bound metrics: any worsening regresses
    assert compare.verdict([1, 1, 1], [1, 1, 1], "higher", 0.0)[0] == "unchanged"
    assert compare.verdict([1, 1, 1], [0, 0, 1], "higher", 0.0)[0] == "regressed"
    assert compare.verdict([0, 0], [0, 0], "lower", 0.0)[0] == "unchanged"
    assert compare.verdict([0, 0], [0.1, 0.1], "lower", 0.0)[0] == "regressed"


def test_compare_rows_cover_applicable_metrics_only(tmp_path):
    reports = [report_of("rw_durable_service", 0), report_of("zipf_hits_local", 0)]
    rows = compare.compare(reports, reports)
    by_workload: dict = {}
    for row in rows:
        by_workload.setdefault(row["workload"], set()).add(row["metric"])
        assert row["verdict"] in ("unchanged", "unresolved", "unmeasured")
    assert "write_latency_p50_ms" in by_workload["rw_durable_service"]
    assert "recovery_ok" in by_workload["rw_durable_service"]
    assert "write_latency_p50_ms" not in by_workload["zipf_hits_local"]
    assert set(by_workload) == {"rw_durable_service", "zipf_hits_local"}
    # a side is a directory of captured standard outputs, one per run
    import json

    for index, report in enumerate(reports):
        captured = tmp_path / f"run{index}.txt"
        captured.write_text("# header\nREPORT " + json.dumps(report) + "\n{}\n")
    loaded = compare.load_side([str(tmp_path)])
    assert {r["workload"] for r in loaded} == set(by_workload)
