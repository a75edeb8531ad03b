"""Smoke: every workload, traced and untraced, at about 1 % of its op count.

Runs in-process on small tables and chains of four relations (5 minimal
plans; chain-7 costs 132 whatever the table size) with one set-up. The
measured numbers mean nothing here, only that every metric is emitted,
named and united, that nothing failed, and that nothing leaked.
"""

from __future__ import annotations

import json
import re
from unittest import mock

import pytest

from suite import harness, runner
from suite.metrics import REPORT_ONLY_END_TO_END, load_spec
from suite.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: about 1 % of each workload's reference op count (whole windows for the pool)
SMOKE_OPS = {
    "chain7_params_memory": 6,
    "chain5_params_sqlite": 6,
    "zipf_hits_local": 1500,
    "zipf_hits_remote": 30,
    "rw_durable_service": 200,
    "params_pool_remote": 16,
}
SMALL = {"rows": 400, "chain_length": 4}


def small(workload: str):
    """The workload's class shrunk to smoke size, for a ``with`` block."""
    return mock.patch.multiple(WORKLOADS[workload], **SMALL)


def smoke_run(workload: str, trace: int, seed: int = 11) -> dict:
    args = runner.build_parser().parse_args(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
            "--ops", str(SMOKE_OPS[workload]),
        ]
    )
    with small(workload), mock.patch.object(runner, "SETUPS", 1):
        return runner.run(args)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


_REPORTS: dict = {}


def report_of(workload: str, trace: int) -> dict:
    """One run per (workload, pass) for the whole module."""
    key = (workload, trace)
    if key not in _REPORTS:
        _REPORTS[key] = smoke_run(workload, trace)
    return _REPORTS[key]


def test_spec_names_the_suites_workloads_and_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
    for name, (unit, _, _) in REPORT_ONLY_END_TO_END.items():
        assert NAME.match(name) and UNIT.match(unit)
        assert name not in {e["name"] for e in spec["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_pass_emits_every_end_to_end_metric(workload, spec):
    report = report_of(workload, 0)
    assert report["correct"], report["errors"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert report["metrics"]["failed_share"]["value"] == 0
    assert report["hygiene"] == {
        "hygiene.leaked_children": 0,
        "hygiene.leaked_shm_segments": 0,
    }
    for entry in spec["end_to_end"]:
        found = report["metrics"][entry["name"]]
        assert found["unit"] == entry["unit"]
        # too few samples for a tail is said, never silently dropped
        assert found["value"] is not None or "unmeasured" in found
    assert report["metrics"]["latency_p50_ms"]["value"] > 0
    assert report["metrics"]["latency_p50_ms"]["n"] == report["samples"]["read"]
    line = runner.contract_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {e["name"] for e in spec["end_to_end"]}
    json.dumps(line)
    env = report["env"]
    assert {"cpus", "python", "numpy", "sqlite", "sqlite_has_math_functions"} <= set(env)
    assert env["cpus"] == harness.cpu_count()  # nothing stays pinned


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_emits_every_per_layer_metric(workload, spec):
    report = report_of(workload, 1)
    assert report["correct"], report["errors"]
    for entry in spec["per_layer"]:
        found = report["metrics"][entry["name"]]
        assert found["unit"] == entry["unit"]
        assert found["value"] is not None or "unmeasured" in found, entry["name"]
    assert report["metrics"]["hygiene.leaked_children"]["value"] == 0
    assert report["metrics"]["hygiene.leaked_shm_segments"]["value"] == 0
    trace_file = harness.REPO_ROOT / report["trace_file"]
    spans = json.loads(trace_file.read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "op"]
    names = {row[0] for row in spans["spans"]}
    assert {"op", "core.parser.parse", "engine.evaluate"} <= names
    line = runner.contract_line(report)
    assert set(line["metrics"]) == {e["name"] for e in spec["per_layer"]}


def test_result_cache_counters_are_the_measured_sessions_own():
    # never the rig's, which repeats every lookup and so nearly always hits
    for workload in ("zipf_hits_remote", "params_pool_remote"):
        metrics = report_of(workload, 1)["metrics"]
        assert metrics["api.result_cache.hit_ratio"]["value"] == 0  # cache off
    assert report_of("zipf_hits_local", 1)["metrics"]["api.result_cache.hit_ratio"]["value"] > 0.9
    assert report_of("chain7_params_memory", 1)["metrics"]["api.result_cache.hit_ratio"]["value"] == 0


def test_traced_pass_on_this_machine_emits_numbers_only():
    for workload in WORKLOADS:
        report = report_of(workload, 1)
        if report["env"]["cpus"] < 2:
            pytest.skip("the pool stages need 2 CPUs")
        for name, found in report["metrics"].items():
            assert isinstance(found["value"], (int, float)), (workload, name)


def test_only_the_write_workload_has_write_metrics():
    for workload in WORKLOADS:
        metrics = report_of(workload, 0)["metrics"]
        has = "write_latency_p50_ms" in metrics
        assert has == (workload == "rw_durable_service")
    metrics = report_of("rw_durable_service", 0)["metrics"]
    assert metrics["recovery_ok"]["value"] == 1
    assert metrics["storage_bytes_per_write"]["value"] > 0
    assert metrics["write_latency_p50_ms"]["n"] == report_of("rw_durable_service", 0)["samples"]["write"]


@pytest.mark.parametrize("trace", [0, 1])
def test_pool_workload_says_unmeasured_on_one_cpu(monkeypatch, spec, trace):
    monkeypatch.setattr(harness, "cpu_count", lambda: 1)
    report = smoke_run("params_pool_remote", trace)
    assert not report["correct"]
    assert "2 CPUs" in report["unmeasured"]
    section = spec["per_layer"] if trace else spec["end_to_end"]
    for entry in section:
        found = report["metrics"][entry["name"]]
        if entry["name"].startswith("hygiene."):
            continue
        assert found["value"] is None and found["unmeasured"]
    line = runner.contract_line(report)
    assert line["attempted"] >= 1 and not line["correct"]
