# Repro toolchain entry points.
#
#   make test        — tier-1 verification (full pytest suite). Every
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
#   make bench       — the PR-10 perf micro-benchmarks; writes
#                      BENCH_PR10.json at the repo root (network
#                      serving tier: repeat traffic over the socket
#                      wire protocol gated on the server's counters —
#                      net.parses == distinct queries, every repeat a
#                      wire-cache hit without re-parsing — plus the
#                      forked shared-memory process-pool throughput
#                      arm vs the GIL-bound in-process service) and
#                      refreshes BENCH_LATEST.json
#   make bench-quick — CI smoke: smaller op counts, writes
#                      BENCH_PR10.quick.json, same gates
#   make examples    — run every example under the new connect() API
#                      (the CI smoke job)
#   make bench-pr1   — re-run the PR 1 benchmarks (BENCH_PR1.json: seed
#                      row-at-a-time vs columnar memory engine)
#   make bench-pr2   — re-run the PR 2 benchmarks (BENCH_PR2.json:
#                      SQLite all-plans, pre/post temp-view registry)
#   make bench-pr3   — re-run the PR 3 benchmarks (BENCH_PR3.json:
#                      Algorithm-3 selective materialization + Selinger
#                      cost-based join ordering)
#   make bench-pr4   — re-run the PR 4 benchmarks (BENCH_PR4.json:
#                      dissociation query service traffic replay)
#   make bench-pr5   — re-run the PR 5 benchmarks (BENCH_PR5.json:
#                      unified session API + epoch-keyed result cache)
#   make bench-pr6   — re-run the PR 6 benchmarks (BENCH_PR6.json:
#                      fault-tolerant serving under injected chaos)
#   make bench-pr7   — re-run the PR 7 benchmarks (BENCH_PR7.json:
#                      per-table epoch vectors vs the PR-5 global
#                      version token)
#   make bench-pr8   — re-run the PR 8 benchmarks (BENCH_PR8.json:
#                      undo-log rollback vs the touch()-taint baseline
#                      on fault-injected mutation traffic)
#   make bench-pr9   — re-run the PR 9 benchmarks (BENCH_PR9.json:
#                      observability overhead gate + traced-arm
#                      per-layer latency breakdown)
#   make bench-pr10  — alias of the current `make bench`
#   make serve       — boot the demo server on repro://127.0.0.1:7432
#                      with /metrics on :9090

PYTHON ?= python

SUITE_WORKLOADS = chain7_params_memory chain5_params_sqlite \
	zipf_hits_local zipf_hits_remote rw_durable_service params_pool_remote

.PHONY: test suite bench bench-quick examples serve \
	bench-pr1 bench-pr2 bench-pr3 bench-pr4 bench-pr5 bench-pr6 \
	bench-pr7 bench-pr8 bench-pr9 bench-pr10

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

suite:
	@set -e; for workload in $(SUITE_WORKLOADS); do \
		$(PYTHON) benchmarks/suite/run.py --workload $$workload --trace 0; \
	done

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr10.py

bench-quick:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr10.py --quick

serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --port 7432 --metrics-port 9090

examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		PYTHONPATH=src $(PYTHON) $$example > /dev/null; \
	done; echo "all examples OK"

bench-pr1:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr1.py

bench-pr2:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr2.py

bench-pr3:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr3.py

bench-pr4:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr4.py

bench-pr5:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr5.py

bench-pr6:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr6.py

bench-pr7:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr7.py

bench-pr8:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr8.py

bench-pr9:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr9.py

bench-pr10:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pr10.py
