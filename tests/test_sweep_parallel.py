"""Memoized sweep execution: determinism, cache and tracing contracts.

The content-addressed estimate memo the cells are derived from must be
invisible in the output (same results on hit, miss, and disk replay)
while being visible in telemetry, and a traced sweep must nest every
estimate span under its cell.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs

from repro.bench import (
    DiskCache,
    SweepHostStats,
    bench_document,
    clear_sweep_cache,
    geomean,
    run_sweep,
    run_sweep_with_stats,
    use_disk_cache,
)
from repro.core import CRCSpMM, CWMSpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.gpusim.kernel import clear_estimate_memo
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sparse import uniform_random


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    prev = set_registry(fresh)
    yield fresh
    set_registry(prev)


def _graphs():
    return {
        "g1": uniform_random(200, 2000, seed=1),
        "g2": uniform_random(300, 1500, seed=2),
    }


@pytest.fixture
def sweep_args():
    clear_sweep_cache()
    graphs = _graphs()
    kernels = [SimpleSpMM(), CRCSpMM(), CWMSpMM(2)]
    yield kernels, graphs, [32, 64], [GTX_1080TI, RTX_2080]
    clear_sweep_cache()


class TestSweepDeterminism:
    def test_attribution_identical_across_memo_states(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        cold = run_sweep(kernels, graphs, widths, gpus)  # fills the memo
        warm = run_sweep(kernels, graphs, widths, gpus)  # all hits
        for a, b in zip(cold, warm):
            assert a.attribution is not None
            assert a.attribution == b.attribution
            assert a.attribution["bound_by"] in a.attribution["breakdown_ms"]
            assert {"f_width", "f_ilp", "f_occ", "link_bytes"} <= set(
                a.attribution["factors"]
            )
        # and the serialized documents (which embed attribution) match
        assert json.dumps(bench_document(cold), sort_keys=True) == \
            json.dumps(bench_document(warm), sort_keys=True)

    def test_result_order_is_serial_emission_order(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        results = run_sweep(kernels, graphs, widths, gpus)
        expected = [
            (k.name, gname, n, gpu.name)
            for gpu in gpus
            for gname in graphs
            for n in widths
            for k in kernels
        ]
        assert [(r.kernel, r.graph, r.n, r.gpu) for r in results] == expected


class TestTracedSweep:
    """Every estimate a traced sweep computes stays visible: one
    ``kernel.estimate`` span per memo miss, nested under its cell."""

    def _traced_cold_sweep(self, sweep_args):
        kernels, _, widths, gpus = sweep_args
        graphs = _graphs()  # fresh derived caches: the same cold state each call
        clear_estimate_memo()
        fresh = MetricsRegistry()
        prev = set_registry(fresh)
        try:
            with use_disk_cache(None), obs.tracing() as tracer:
                _, stats = run_sweep_with_stats(kernels, graphs, widths, gpus)
        finally:
            set_registry(prev)
        return tracer.records, stats, fresh

    def test_one_estimate_span_per_miss_under_its_cell(self, sweep_args):
        records, stats, _ = self._traced_cold_sweep(sweep_args)
        estimates = [r for r in records if r.name == "kernel.estimate"]
        assert stats.memo_misses == stats.cells > 0
        assert len(estimates) == stats.memo_misses
        for span in estimates:
            cell = records[span.parent]
            assert cell.name == "sweep.cell"
            assert (cell.attrs["kernel"], cell.attrs["n"], cell.attrs["gpu"]) == (
                span.attrs["kernel"], span.attrs["n"], span.attrs["gpu"])
        assert len({span.parent for span in estimates}) == len(estimates)

    def test_counter_snapshots_equal_across_runs(self, sweep_args):
        def counters(registry):
            return [row for row in registry.snapshot() if row["type"] == "counter"]

        _, _, first = self._traced_cold_sweep(sweep_args)
        _, _, second = self._traced_cold_sweep(sweep_args)
        assert counters(first)
        assert counters(first) == counters(second)


class TestMemoization:
    def test_second_pass_all_hits_same_results(self, sweep_args, registry):
        kernels, graphs, widths, gpus = sweep_args
        first, s1 = run_sweep_with_stats(kernels, graphs, widths, gpus)
        assert s1.memo_hits == 0 and s1.memo_misses == s1.cells
        # Fresh kernel instances: the cache key is config-addressed, not
        # identity-addressed.
        again, s2 = run_sweep_with_stats(
            [SimpleSpMM(), CRCSpMM(), CWMSpMM(2)], graphs, widths, gpus
        )
        assert s2.memo_hits == s2.cells and s2.memo_misses == 0
        assert again == first
        assert registry.counter("sweep.memo.hits").value == s2.cells
        assert registry.counter("sweep.memo.misses").value == s1.cells

    def test_memoized_bench_document_identical(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        cold = bench_document(run_sweep(kernels, graphs, widths, gpus),
                              target="crc")
        warm = bench_document(run_sweep(kernels, graphs, widths, gpus),
                              target="crc")
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_different_config_misses(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        run_sweep(kernels, graphs, widths, gpus)
        # CWM(4) differs from CWM(2) in a public attribute: distinct key.
        _, stats = run_sweep_with_stats([CWMSpMM(4)], graphs, widths, gpus)
        assert stats.memo_misses == stats.cells

    def test_clear_sweep_cache(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        run_sweep(kernels, graphs, widths, gpus)
        clear_sweep_cache()
        _, stats = run_sweep_with_stats(kernels, graphs, widths, gpus)
        assert stats.memo_hits == 0

    def test_csr_fingerprint_content_addressed(self):
        a = uniform_random(50, 200, seed=3)
        b = uniform_random(50, 200, seed=3)  # same content, new identity
        c = uniform_random(50, 200, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


@st.composite
def small_graphs(draw):
    graphs = {}
    for i in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 40))
        nnz = draw(st.integers(1, 5 * m))
        graphs[f"h{i}"] = uniform_random(m, nnz, seed=draw(st.integers(0, 2**16)))
    return graphs


def _sweep_and_document(graphs):
    results, stats = run_sweep_with_stats(
        [SimpleSpMM(), CRCSpMM(), CWMSpMM(2)], graphs, [8, 32], [GTX_1080TI],
    )
    doc = json.dumps(bench_document(results, target="crc"), sort_keys=True)
    return results, stats, doc


@settings(max_examples=12, deadline=None)
@given(graphs=small_graphs())
def test_results_identical_across_cache_states(graphs):
    """Cold memo, warm memo, and a fresh-memo disk replay all yield the
    same results and BENCH document; the warm and disk runs compute
    nothing."""
    runs = []
    try:
        with tempfile.TemporaryDirectory() as root, use_disk_cache(DiskCache(root)):
            clear_estimate_memo()
            base, _, base_doc = _sweep_and_document(graphs)  # fills the disk
            clear_estimate_memo()
            with use_disk_cache(None):
                runs.append(("cold", _sweep_and_document(graphs)))
            runs.append(("warm", _sweep_and_document(graphs)))
            clear_estimate_memo()
            runs.append(("disk", _sweep_and_document(graphs)))
    finally:
        clear_estimate_memo()
    for label, (results, stats, doc) in runs:
        assert results == base, label
        assert doc == base_doc, label
        if label != "cold":
            assert stats.memo_misses == 0, label


class TestHostStats:
    def test_fields_and_run_meta(self, sweep_args):
        kernels, graphs, widths, gpus = sweep_args
        _, stats = run_sweep_with_stats(kernels, graphs, widths, gpus)
        assert isinstance(stats, SweepHostStats)
        assert stats.cells == len(kernels) * len(graphs) * 2 * len(gpus)
        assert stats.wall_s > 0
        assert stats.cells_per_s == pytest.approx(stats.cells / stats.wall_s)
        meta = stats.as_run_meta()
        assert meta["cells"] == stats.cells
        assert set(meta) == {"cells", "memo_hits", "memo_misses"}
        json.dumps(meta)  # must be JSON-serializable for run.host


class TestGeomeanObservability:
    def test_drops_counted_and_evented(self, registry):
        events = []
        import repro.obs as obs
        class _Spy:
            def event(self, name, **attrs):
                events.append((name, attrs))
            def add_sim_time(self, s):
                pass
        prev = obs.set_tracer(_Spy())
        try:
            assert geomean([4.0, 0.0, -2.0, 4.0]) == pytest.approx(4.0)
        finally:
            obs.set_tracer(prev)
        assert registry.counter("bench.geomean.dropped").value == 2
        assert ("geomean.dropped_nonpositive", {"dropped": 2, "kept": 2}) in events

    def test_no_drop_no_counter(self, registry):
        geomean([1.0, 2.0])
        assert registry.counter("bench.geomean.dropped").value == 0

    def test_all_dropped_is_nan_but_counted(self, registry):
        assert math.isnan(geomean([-1.0, 0.0]))
        assert registry.counter("bench.geomean.dropped").value == 2
