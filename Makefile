# Repro toolchain entry points.
#
#   make test        — tier-1 verification (full pytest suite, the 15
#                      slowest tests listed at the end). Every
#                      test runs under a faulthandler watchdog
#                      (REPRO_TEST_TIMEOUT seconds, default 300;
#                      0 disables) so a hung worker/shutdown regression
#                      fails with thread tracebacks instead of wedging
#                      the job — see tests/conftest.py
#   make suite       — the benchmark suite (BENCHMARK.json): all six
#                      named workloads, untraced (end-to-end metrics),
#                      through benchmarks/suite/run.py; add --trace 1
#                      by hand for the per-layer numbers. This is the
#                      perf check; see benchmarks/suite/README.md
#   make suite-smoke — CI smoke of the same six workloads, two
#                      seconds each: one stdout capture per workload
#                      under $(SUITE_SMOKE_OUT)/, failing when a run's
#                      closing JSON line is not strict JSON, lacks a
#                      BENCHMARK.json metric of its pass, carries one
#                      that is neither a finite number nor null with an
#                      "unmeasured" reason, or says "correct": false —
#                      unless every metric on it is reported unmeasured
#                      on this machine (the runner itself always exits 0)
#   make suite-trace-smoke — the same verdict over the traced pass
#                      (--trace 1) of the six workloads at two seconds,
#                      plus chain7_params_memory at ten (the length of
#                      a benchmark run, where its stream can run out);
#                      a per-layer metric that no sample reached fails
#   make examples    — run every example under the new connect() API
#                      (the CI smoke job)
#   make serve       — boot the demo server on repro://127.0.0.1:7432
#                      with /metrics on :9090

PYTHON ?= python

SUITE_WORKLOADS = chain7_params_memory chain5_params_sqlite \
	zipf_hits_local zipf_hits_remote rw_durable_service params_pool_remote
SUITE_SMOKE_OUT ?= suite-smoke-out

# reads one run's stdout (arguments: the workload, the --trace flag);
# the runner's last line is its result object
define SUITE_SMOKE_VERDICT
import json, math, sys
def strict(constant):
    raise ValueError(f"{constant} is not JSON")
workload, traced = sys.argv[1], sys.argv[2] == "1"
run = json.loads(sys.stdin.readlines()[-1], parse_constant=strict)
with open("BENCHMARK.json") as fh:
    contract = json.load(fh)["per_layer" if traced else "end_to_end"]
problems = []
for name in (entry["name"] for entry in contract):
    found = run["metrics"].get(name)
    value = None if found is None else found.get("value")
    reason = None if found is None else found.get("unmeasured")
    if found is None:
        problems.append(f"{name}: missing")
    elif value is None and not reason:
        problems.append(f"{name}: null without an unmeasured reason")
    elif value is None and traced and reason == "no sample reached this layer":
        problems.append(f"{name}: {reason}")
    elif value is not None and (isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)):
        problems.append(f"{name}: {value!r} is not a finite number")
unmeasured = all("unmeasured" in m for m in run["metrics"].values())
verdict = "ok" if run["correct"] else "unmeasured" if unmeasured else "FAILED"
verdict = "FAILED" if problems else verdict
print(f"{workload:24s} {verdict}  trace={int(traced)} attempted={run['attempted']} failed={run['failed']}")
for problem in problems:
    print(f"    {problem}")
sys.exit(verdict == "FAILED")
endef
export SUITE_SMOKE_VERDICT

.PHONY: test suite suite-smoke suite-trace-smoke examples serve

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q --durations=15

suite:
	@set -e; for workload in $(SUITE_WORKLOADS); do \
		$(PYTHON) benchmarks/suite/run.py --workload $$workload --trace 0; \
	done

suite-smoke:
	@mkdir -p $(SUITE_SMOKE_OUT); set -e; for workload in $(SUITE_WORKLOADS); do \
		$(PYTHON) benchmarks/suite/run.py --workload $$workload \
			--seconds 2 --trace 0 > $(SUITE_SMOKE_OUT)/$$workload.txt; \
		$(PYTHON) -c "$$SUITE_SMOKE_VERDICT" $$workload 0 \
			< $(SUITE_SMOKE_OUT)/$$workload.txt; \
	done

suite-trace-smoke:
	@mkdir -p $(SUITE_SMOKE_OUT); set -e; \
	for run in $(SUITE_WORKLOADS:%=%:2) chain7_params_memory:10; do \
		workload=$${run%:*}; seconds=$${run#*:}; \
		out=$(SUITE_SMOKE_OUT)/$$workload-trace-$${seconds}s.txt; \
		$(PYTHON) benchmarks/suite/run.py --workload $$workload \
			--seconds $$seconds --trace 1 > $$out; \
		$(PYTHON) -c "$$SUITE_SMOKE_VERDICT" $$workload 1 < $$out; \
	done

serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --port 7432 --metrics-port 9090

examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		PYTHONPATH=src $(PYTHON) $$example > /dev/null; \
	done; echo "all examples OK"
