# Convenience targets for the GE-SpMM reproduction.

.PHONY: install test bench microbench examples artifacts telemetry gate report corpus clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Host-executor property floors (not speedups; host wall time is
# measured end to end by perfbench/run.py): the incremental-delta bench
# (see docs/PERFORMANCE.md "Dynamic graphs"), the tiled executor's
# flat peak memory (see "Tiled execution & operand batching"), and the
# delta_apply parity, disk_cache replay, corpus_stream flat-peak and
# tiled flat-peak checks of bench_host_executor.py.  Separate pytest
# invocations: each file's timings assume a fresh process heap (the
# rebuild loops leave glibc in a state that taxes later timings); the
# delta and tiled benches additionally isolate each measurement in a
# subprocess with pinned malloc thresholds.  Prints the measurements and
# writes them to the untracked host_executor.txt, tiled_memory.txt and
# delta_updates.txt under benchmarks/results/; no tracked file changes.
microbench:
	PYTHONPATH=src python -m pytest benchmarks/bench_delta_updates.py -q --durations=5 --override-ini "addopts=-q"
	PYTHONPATH=src python -m pytest benchmarks/bench_tiled_memory.py -q --durations=5 --override-ini "addopts=-q"
	PYTHONPATH=src python -m pytest benchmarks/bench_host_executor.py -q --durations=5 --override-ini "addopts=-q"

examples:
	@for s in examples/*.py; do echo "== $$s"; python $$s || exit 1; done

# Regenerate the machine-readable perf trajectory (see docs/OBSERVABILITY.md).
# Deterministic: rerunning on an unchanged tree reproduces the file exactly
# (see docs/PERFORMANCE.md).
telemetry:
	PYTHONPATH=src python -m repro.cli sweep --graphs 6 --n 128 512 --bench-json BENCH_spmm.json

# Benchmark regression gate: regenerate the telemetry sweep in-process
# and diff it against the committed BENCH_spmm.json.  Exits 1 on any
# cell/geomean drift without an entry in BENCH_accepted_drift.json;
# see docs/OBSERVABILITY.md for the workflow.
gate:
	PYTHONPATH=src python -m repro.cli gate --baseline BENCH_spmm.json --graphs 6 --n 128 512

# Performance report from the committed BENCH document (see
# docs/OBSERVABILITY.md "Reports & attribution").  Pure function of
# BENCH_spmm.json, so repeated runs are byte-identical.
report:
	PYTHONPATH=src python -m repro.cli report --baseline BENCH_spmm.json --out report.md --json-out report.json

# Corpus-scale streaming sweep: DLMC-style pruned-DNN + graph matrices,
# sharded with per-shard checkpoints in .corpus-cache (resumable; see
# docs/PERFORMANCE.md "Corpus sweeps").  The roll-up is deterministic.
corpus:
	PYTHONPATH=src python -m repro.cli corpus --preset mixed --limit 128 \
	  --shards 8 --cache-dir .corpus-cache \
	  --rollup-json corpus_rollup.json

# The two artifact files DESIGN/EXPERIMENTS reference.
artifacts:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks .bench-cache .corpus-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
