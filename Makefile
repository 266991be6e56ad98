# Development entry points.  PYTHONPATH is set so the src layout works
# without an editable install.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-persist test-sync test-exec test-obs test-chaos \
        test-gateway bench-smoke bench-hotpath bench-shard bench-persist \
        bench-ingest bench-sync bench-exec bench-obs bench-gateway \
        bench-all perfbench perfbench-pairs check

# Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# Durable-storage suite only: codec, segment log, crash recovery,
# backend equivalence, reorg truncation, sharded restarts.
test-persist:
	$(PYTHON) -m pytest tests/test_persist.py tests/test_storage.py -q

# Snapshot-sync suite only: chunk/manifest codec, verified catch-up,
# byzantine rejection matrix, crash-resume, faulty-network convergence.
test-sync:
	$(PYTHON) -m pytest tests/test_sync.py tests/test_network.py -q

# Execution-engine + tiering suite only: executor parity, worker-death
# fallback, fork guards, compaction/archival crash points, compression.
test-exec:
	$(PYTHON) -m pytest tests/test_exec.py tests/test_tiering.py -q

# Observability suite only: metrics registry, span tracing (incl.
# cross-process propagation + worker-kill fallback), accessor
# regressions, ops/metrics over SimNet.
test-obs:
	$(PYTHON) -m pytest tests/test_obs.py -q

# Gateway suite only: framed wire codec, handshake, wire backpressure
# (RETRY_AFTER + pause), byte-identical commitments vs in-process,
# disconnect handling, graceful drain under load.
test-gateway:
	$(PYTHON) -m pytest tests/test_gateway.py -q

# Chaos suite: the 2PC crash matrix (coordinator killed at every WAL
# step boundary), lock-lease/fencing/quarantine coverage, plus the
# seeded chaos harness run twice per seed — same seed must produce the
# same report signature, or the run fails.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q
	$(PYTHON) -m repro.chaos --seeds 11,23,47

# Fast CI-friendly run of the hot-path benchmark (small sizes).
bench-smoke:
	$(PYTHON) benchmarks/bench_perf_hotpath.py --smoke

# Full hot-path benchmark; writes BENCH_perf_hotpath.json and asserts
# the acceptance floors (verify >= 5x, reorg >= 10x).
bench-hotpath:
	$(PYTHON) benchmarks/bench_perf_hotpath.py

# Full shard-scaling benchmark; writes BENCH_shard_scaling.json and
# asserts the acceptance floor (>= 2.5x aggregate ingest at 4 shards).
bench-shard:
	$(PYTHON) benchmarks/bench_shard_scaling.py

# Full persistence benchmark; writes BENCH_persist.json and asserts the
# acceptance floor (reopen-from-snapshot >= 5x vs genesis replay).
bench-persist:
	$(PYTHON) benchmarks/bench_persist.py

# Full ingestion benchmark; writes BENCH_ingest.json and asserts the
# acceptance floors (pipelined sustained ingest >= 2x synchronous,
# record group-commit >= 2x per-append).
bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py

# Full snapshot-sync benchmark; writes BENCH_sync.json and asserts the
# acceptance floor (replica catch-up >= 5x vs genesis replay at 2k
# blocks).
bench-sync:
	$(PYTHON) benchmarks/bench_sync.py

# Full execution-engine benchmark; writes BENCH_exec.json and asserts
# the acceptance floors (process sealing >= min(2.0, 0.9 x this
# machine's raw multiprocessing budget); tiering reclaim >= 30%).
bench-exec:
	$(PYTHON) benchmarks/bench_exec.py

# Full observability-overhead benchmark; writes BENCH_obs.json and
# asserts the acceptance floor (instrumented hot-path submit throughput
# >= 0.95x uninstrumented — telemetry overhead <= 5%).
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

# Full gateway benchmark; writes BENCH_gateway.json and asserts the
# acceptance floors (1000 socket clients >= 0.5x in-process throughput,
# submit ack p99 within 3x fair share, zero loss under a QueueFull
# storm).
bench-gateway:
	$(PYTHON) benchmarks/bench_gateway.py

# Every BENCH_*.json producer at full size, floors asserted — a perf
# regression anywhere fails this target.
bench-all: bench-hotpath bench-shard bench-persist bench-ingest \
           bench-sync bench-exec bench-obs bench-gateway

# The repository benchmark (BENCHMARK.json): each of the four
# workloads once, at one seed, 12 seconds each.  Results land in
# perfbench_out/; see perfbench/README.md for the metrics.
PERFBENCH_SEED ?= 1
perfbench:
	for w in capture_durable capture_gateway audit_mixed replica_catchup; do \
		$(PYTHON) perfbench/run.py --workload $$w \
			--seed $(PERFBENCH_SEED) --seconds 12 || exit 1; \
	done

# Paired A/B runs of one workload: commit BASE vs the working tree,
# PAIRS pairs at seeds SEED0, SEED0+1, ... (which side runs first
# alternates per pair).  Prints per-metric medians, quartiles, win
# counts and whether the medians differ by more than BASE's IQR; see
# scripts/perfbench_pairs.py.  Example:
#   make perfbench-pairs WORKLOAD=capture_durable BASE=HEAD PAIRS=10
PAIRS ?= 10
SEED0 ?= 101
perfbench-pairs:
	@test -n "$(WORKLOAD)" -a -n "$(BASE)" || \
		{ echo "usage: make perfbench-pairs WORKLOAD=... BASE=..."; exit 2; }
	$(PYTHON) scripts/perfbench_pairs.py --workload $(WORKLOAD) \
		--base $(BASE) --pairs $(PAIRS) --seed0 $(SEED0)

# CI-style verification in one command: tier-1 tests, the seeded chaos
# smoke (3 fault plans, each run twice — deterministic per seed), plus a
# smoke pass of each perf benchmark (same code paths, small sizes, no
# floors).
check: test
	$(PYTHON) -m repro.chaos --seeds 11,23,47
	$(PYTHON) benchmarks/bench_perf_hotpath.py --smoke
	$(PYTHON) benchmarks/bench_shard_scaling.py --smoke
	$(PYTHON) benchmarks/bench_persist.py --smoke
	$(PYTHON) benchmarks/bench_ingest.py --smoke
	$(PYTHON) benchmarks/bench_sync.py --smoke
	$(PYTHON) benchmarks/bench_exec.py --smoke
	$(PYTHON) benchmarks/bench_obs.py --smoke
	$(PYTHON) benchmarks/bench_gateway.py --smoke
