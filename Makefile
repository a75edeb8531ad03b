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
#                      closing JSON line says "correct": false — unless
#                      every metric on it is reported unmeasured on
#                      this machine (the runner itself always exits 0)
#   make examples    — run every example under the new connect() API
#                      (the CI smoke job)
#   make serve       — boot the demo server on repro://127.0.0.1:7432
#                      with /metrics on :9090

PYTHON ?= python

SUITE_WORKLOADS = chain7_params_memory chain5_params_sqlite \
	zipf_hits_local zipf_hits_remote rw_durable_service params_pool_remote
SUITE_SMOKE_OUT ?= suite-smoke-out

# reads one run's stdout; the runner's last line is its result object
define SUITE_SMOKE_VERDICT
import json, sys
run = json.loads(sys.stdin.readlines()[-1])
unmeasured = all("unmeasured" in m for m in run["metrics"].values())
verdict = "ok" if run["correct"] else "unmeasured" if unmeasured else "FAILED"
print(f"{sys.argv[1]:24s} {verdict}  attempted={run['attempted']} failed={run['failed']}")
sys.exit(verdict == "FAILED")
endef
export SUITE_SMOKE_VERDICT

.PHONY: test suite suite-smoke examples serve

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
		$(PYTHON) -c "$$SUITE_SMOKE_VERDICT" $$workload \
			< $(SUITE_SMOKE_OUT)/$$workload.txt; \
	done

serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --port 7432 --metrics-port 9090

examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		PYTHONPATH=src $(PYTHON) $$example > /dev/null; \
	done; echo "all examples OK"
