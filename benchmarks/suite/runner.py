"""Run one named workload: the untraced pass or the traced pass.

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S
--trace 0|1`` prints every metric by name with its unit, a ``REPORT`` line
holding the full JSON report (hardware facts, sample counts, op-stream hash,
every metric including the ones only this workload has), and — last — the
one-line result object the driver reads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import sys
import time

from . import harness
from .metrics import names, unit_of

#: The ISSUE sized its op counts for a 15–25 s timed phase; the driver's
#: cap (136 runs in 3420 s) leaves 10 s, so everything scales by this.
SCALE = 0.5
DEFAULT_SECONDS = 10.0
#: Reads a timed phase completes at the least: 200 samples put ten beyond
#: the 95th percentile, the fewest that percentile may be reported with.
MIN_READS = 200
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Shares of ``--seconds`` in the traced pass: the measured loop (in
#: ``TRACE_CHUNKS`` chunks, alternately untraced — the base of
#: ``trace.overhead_ratio`` — and traced), per-op staging, per-run stages.
TRACE_SPLIT = (0.45, 0.30, 0.25)
TRACE_CHUNKS = 6


class Phases:
    """Wall seconds of each part of a run, for the report."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._mark
        self._mark = now


def metric(name: str, value, **extra) -> dict:
    out = {"value": value, "unit": unit_of(name)}
    out.update(extra)
    return out


def unmeasured(name: str, reason: str) -> dict:
    return {"value": None, "unit": unit_of(name), "unmeasured": reason}


def placement(workload):
    """Where the workload's processes may run, from set-up to teardown."""
    return harness.one_cpu() if workload.one_cpu else contextlib.nullcontext()


def _merge(sinks) -> dict:
    reads = [s for sink in sinks for s in sink.latency["read"]]
    writes = [s for sink in sinks for s in sink.latency["write"]]
    if any(sink.ended == 0.0 for sink in sinks):
        raise RuntimeError("a client thread died before finishing its loop")
    return {
        "reads": reads,
        "writes": writes,
        "wall": max(s.ended for s in sinks) - min(s.started for s in sinks),
        "raised": sum(s.failed for s in sinks),
        "wrong": sum(s.wrong for s in sinks),
        "errors": [e for s in sinks for e in s.errors][:5],
        "kept": [k for s in sinks for k in s.kept],
        "roots": sorted((r for s in sinks for r in s.roots), key=lambda r: r[2]),
    }


def _concat(runs: list[dict]) -> dict:
    out = {key: [] for key in ("reads", "writes", "errors", "kept", "roots")}
    out.update(wall=0.0, raised=0, wrong=0)
    for run in runs:
        for key, value in run.items():
            out[key] += value
    return out


def _latency_metrics(prefix: str, tails: tuple, samples, out: dict) -> None:
    """The median plus ``tails`` (percentiles), each only when at least ten
    samples lie beyond it; an unsupported one is said, not dropped."""
    summary = harness.summarize(samples, 1e3)
    count = summary["n"]
    if not count:
        return
    for q in (50,) + tails:
        name = f"{prefix}latency_p{q}_ms"
        if f"p{q}" in summary:
            out[name] = metric(name, summary[f"p{q}"], n=count)
        else:
            needed = round(harness.MIN_SAMPLES_BEYOND * 100 / (100 - q))
            out[name] = unmeasured(
                name, f"{count} samples: p{q} needs 10 beyond it ({needed})"
            )


def _unmeasured_report(workload, args, section: str) -> dict:
    """Every metric of ``section`` ``null`` with the reason: said, never
    waived."""
    report = _base_report(workload, args)
    report["metrics"] = {
        name: unmeasured(name, workload.unmeasured) for name in names(section)
    }
    report.update(unmeasured=workload.unmeasured, attempted=0, failed=0)
    return report


# ----------------------------------------------------------------------
# the untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
def run_untraced(cls, args, hygiene) -> dict:
    workload = cls(args.seed, hygiene)
    workload.unmeasured = workload.precondition()
    if workload.unmeasured:
        return _unmeasured_report(workload, args, "end_to_end")
    with placement(workload):
        return _run_untraced(workload, args)


def _run_untraced(workload, args) -> dict:
    phases = Phases()
    setups = []
    for attempt in range(SETUPS):
        if attempt:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        if workload.unmeasured:
            workload.teardown()
            return _unmeasured_report(workload, args, "end_to_end")
    report = _base_report(workload, args)
    gc.collect()
    phases.done("setup")
    pids = workload.server_pids()
    stolen_before = harness.steal_seconds()
    cpu_before = time.process_time() + harness.cpu_seconds(pids)
    sinks = workload.run(
        args.seconds, args.ops, 0 if args.ops is not None else MIN_READS
    )
    cpu_after = time.process_time() + harness.cpu_seconds(pids)
    stolen = harness.steal_seconds() - stolen_before
    run = _merge(sinks)
    rss = max(harness.own_peak_rss_mb(), harness.peak_rss_mb(pids))
    phases.done("timed")
    checked, wrong, notes = workload.verify(run["kept"])
    phases.done("verify")
    workload.teardown()
    phases.done("teardown")

    completed = len(run["reads"]) + len(run["writes"])
    attempted = completed + run["raised"]
    failed = run["raised"] + run["wrong"] + wrong
    metrics: dict = {
        "setup_s": metric("setup_s", harness.median(setups), n=len(setups)),
        "throughput_ops_s": metric(
            "throughput_ops_s", (completed - run["wrong"]) / run["wall"]
        ),
        "cpu_ms_per_op": metric(
            "cpu_ms_per_op", (cpu_after - cpu_before) / max(completed, 1) * 1e3
        ),
        "peak_rss_mb": metric("peak_rss_mb", rss),
        "failed_share": metric("failed_share", failed / max(attempted, 1)),
    }
    _latency_metrics("", (90, 95), run["reads"], metrics)
    _latency_metrics("write_", (95,), run["writes"], metrics)
    if hasattr(workload, "storage_bytes_per_write"):
        per_write = workload.storage_bytes_per_write()
        if per_write is not None:
            metrics["storage_bytes_per_write"] = metric(
                "storage_bytes_per_write", per_write,
                whole_cycles=workload.checkpoints,
            )
    if "recovery_ok" in workload.extra_metrics:
        metrics["recovery_ok"] = metric(
            "recovery_ok", workload.extra_metrics["recovery_ok"]
        )
    report.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        verified=checked,
        timed_wall_s=run["wall"],
        # of the CPU time the timed phase used: above a few percent the
        # hypervisor, not the program, set the numbers of this run
        host_steal_share=stolen / max(cpu_after - cpu_before + stolen, 1e-9),
        samples={"read": len(run["reads"]), "write": len(run["writes"])},
        errors=run["errors"] + notes,
        phase_seconds=phases.seconds,
    )
    return report


# ----------------------------------------------------------------------
# the traced pass: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(cls, args, hygiene) -> dict:
    from .layers import Rig

    phases = Phases()
    workload = cls(args.seed, hygiene)
    workload.unmeasured = workload.precondition()
    if workload.unmeasured:
        return _unmeasured_report(workload, args, "per_layer")
    spans = harness.Spans()
    # The rig comes first and is frozen out of the collector's sight: the
    # measured session then sees the same heap as in the untraced pass.
    rig = Rig(workload, hygiene, spans)
    gc.collect()
    gc.freeze()
    phases.done("rig")
    try:
        with placement(workload):
            workload.setup()
            phases.done("setup")
            if workload.unmeasured:
                workload.teardown()
                return _unmeasured_report(workload, args, "per_layer")
            report = _base_report(workload, args)
            share = [args.seconds * part for part in TRACE_SPLIT]
            # untraced and traced chunks alternate, so drift in the program
            # (growing caches) does not pass for tracing overhead
            loop_seconds = share[0] / TRACE_CHUNKS
            loop_ops = (
                None if args.ops is None else max(args.ops // TRACE_CHUNKS, 1)
            )
            plain_runs, traced_runs = [], []
            gc.collect()
            with harness.GcMonitor() as collector:
                for chunk in range(TRACE_CHUNKS):
                    collector.active = tracing = chunk % 2 == 1
                    merged = _merge(
                        workload.run(loop_seconds, loop_ops, tracing=tracing)
                    )
                    (traced_runs if tracing else plain_runs).append(merged)
            plain = _concat(plain_runs)
            traced = _concat(traced_runs)
            phases.done("timed")
            counters = workload.public_counters()
            kept = plain["kept"] + traced["kept"]
            checked, wrong, notes = workload.verify(kept)
            workload.teardown()
            phases.done("verify")

        # every k-th root is shadow-staged, in a seed-fixed shuffled order so
        # a budget that runs out still covers the whole phase evenly
        roots = traced["roots"]
        chosen = list(range(0, len(roots), workload.trace_stride))
        writes = [i for i, r in enumerate(roots) if r[0] == "write"]
        chosen = sorted(set(chosen) | set(writes[:60]))
        random.Random(args.seed).shuffle(chosen)
        # The collector is off while staging: a pause would land in whichever
        # child happened to be running. The roots were measured with it on,
        # so its share shows up as unattributed time and as runtime.gc.*.
        gc.disable()
        try:
            rig.off_path_seconds = share[1] / 10.0
            # fixed-count mode stages every chosen op, so counts repeat
            deadline = (
                float("inf") if args.ops is not None
                else time.perf_counter() + share[1]
            )
            staged = 0
            for index in chosen:
                if staged >= 3 and time.perf_counter() > deadline:
                    break
                rig.stage(index, roots[index])
                staged += 1
            read_texts = [
                roots[i][1] for i in chosen[:staged] if roots[i][0] == "read"
            ]
            phases.done("stage_ops")
            values = rig.stage_run(read_texts, share[2])
            values.update(rig.metrics())
            phases.done("stage_run")
        finally:
            gc.enable()
    finally:
        rig.close()
        gc.unfreeze()
    values.update(counters)
    if "recover_seconds" in workload.extra_metrics:
        values["db.journal.recover_ms"] = workload.extra_metrics["recover_seconds"] * 1e3
    gen2 = collector.pauses[2]
    values["runtime.gc.gen2_pause_share"] = sum(gen2) / traced["wall"]
    values["runtime.gc.gen2_pause_max_ms"] = max(gen2, default=0.0) * 1e3
    per_op_plain = sum(plain["reads"] + plain["writes"]) / max(
        len(plain["reads"]) + len(plain["writes"]), 1
    )
    per_op_traced = sum(r[3] for r in roots) / max(len(roots), 1)
    values["trace.overhead_ratio"] = (
        per_op_traced / per_op_plain if per_op_plain else None
    )
    gates = [rig.parse_gate]
    if hasattr(workload, "distinct_sent"):
        gates.append((counters["net.server.parses"], workload.distinct_sent))
    for parses, distinct in gates:
        if parses != distinct:
            notes.append(
                f"server parsed {parses} times for {distinct} distinct queries"
            )
            wrong += 1

    completed = sum(len(r["reads"]) + len(r["writes"]) for r in (plain, traced))
    raised = plain["raised"] + traced["raised"]
    metrics = {}
    for name in names("per_layer"):
        value = values.get(name)
        if isinstance(value, dict):
            metrics[name] = unmeasured(name, value["unmeasured"])
        elif value is None:
            metrics[name] = unmeasured(name, "no sample reached this layer")
        else:
            metrics[name] = metric(name, value)
    trace_path = harness.OUT_DIR / f"trace_{workload.name}.json"
    spans.write(
        trace_path,
        {
            "workload": workload.name,
            "seed": args.seed,
            "root_spans": len(roots),
            "staged_ops": staged,
            "stride": workload.trace_stride,
        },
    )
    report.update(
        metrics=metrics,
        attempted=completed + raised,
        failed=raised + plain["wrong"] + traced["wrong"] + wrong,
        verified=checked,
        timed_wall_s=plain["wall"] + traced["wall"],
        samples={"root_spans": len(roots), "staged_ops": staged},
        errors=plain["errors"] + traced["errors"] + notes,
        trace_file=str(trace_path.relative_to(harness.REPO_ROOT)),
        phase_seconds=phases.seconds,
    )
    return report


def _base_report(workload, args) -> dict:
    prefix = [op for stream in workload.streams for op in stream[:2000]]
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": args.ops,
        "scale": SCALE,
        "reference_ops": workload.reference_ops,
        "clients": workload.clients,
        "op_stream_hash": harness.stream_hash(prefix),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/suite/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops instead of --seconds (tests, exact counts)",
    )
    return parser


def run(args) -> dict:
    """One run; returns the full report (raises on harness errors)."""
    from .workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    # before any workload narrows where this process may run
    env = harness.environment()
    hygiene = harness.Hygiene()
    try:
        report = (run_traced if args.trace else run_untraced)(cls, args, hygiene)
    finally:
        leaks = hygiene.close()
    report["env"] = env
    report["hygiene"] = leaks
    if args.trace:
        for name, value in leaks.items():
            report["metrics"][name] = metric(name, value)
    report["correct"] = (
        not report.get("unmeasured")
        and report["failed"] == 0
        and not any(leaks.values())
        and report["metrics"].get("recovery_ok", {}).get("value", 1) == 1
    )
    return report


def contract_line(report: dict) -> dict:
    """The driver's result object: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    for name in names("per_layer" if report["trace"] else "end_to_end"):
        found = report["metrics"][name]
        metrics[name] = {
            key: found[key]
            for key in ("value", "unit", "unmeasured")
            if key in found
        }
    return {
        "correct": bool(report["correct"]),
        "attempted": max(int(report.get("attempted", 0)), 1),
        "failed": int(report.get("failed", 0)),
        "metrics": metrics,
    }


def print_report(report: dict) -> None:
    env = report["env"]
    print(
        f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"cpus={env['cpus']} python={env['python']} numpy={env['numpy']} "
        f"sqlite={env['sqlite']} math_functions={env['sqlite_has_math_functions']}"
    )
    for name, found in report["metrics"].items():
        value = found["value"]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        note = f"  ({found['unmeasured']})" if value is None else ""
        count = f"  n={found['n']}" if "n" in found else ""
        print(f"{name:40s} {shown:>14s} {found['unit']}{count}{note}")
    for error in report.get("errors", []):
        print(f"# note: {error}")
    print("REPORT " + json.dumps(report, sort_keys=True))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not harness.program_available():
        print(
            f"no program to measure: {harness.SRC_DIR / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    report = run(args)
    print_report(report)
    print(json.dumps(contract_line(report)))
    return 0
