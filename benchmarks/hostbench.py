"""Host-execution microbenchmarks that check a property of the executor.

Each measures something an end-to-end wall time cannot show — parity, a
pure cache replay, or a memory footprint that must stay flat:

* incremental ``apply_delta`` vs. the full CSR + profile rebuild it
  replaces (plus fingerprint parity of the two results),
* a cold-then-warm disk-cached sweep (the warm run must be a pure
  replay, byte for byte),
* a 1000-matrix corpus stream whose per-shard peak memory must stay flat,
* the transient peak memory of both SpMM paths (plus-times row chunks,
  max-times tiles), which must stay flat in N.

Host wall time itself is measured end to end by ``perfbench/run.py``.

The ``bench_*.py`` files next to this module call these and assert the
floors; ``make microbench`` runs them.  Their numbers are printed and
written to untracked files under ``benchmarks/results/``: wall times
differ on every run, so they go into no committed artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.semiring import PLUS_TIMES
from repro.sparse import power_law
from repro.sparse.csr import CSRMatrix

__all__ = [
    "best_of",
    "bench_delta_apply",
    "bench_disk_cache_sweep",
    "bench_corpus_stream",
    "bench_tiled_peak",
    "format_result_line",
    "run_fresh",
    "run_host_microbench",
]

#: glibc's adaptive malloc thresholds pinned high for :func:`run_fresh`
#: children (see ``bench_delta_updates.py``): temporaries stay on the brk
#: heap instead of round-tripping pages through mmap between reps.
_MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 1024 * 1024),
}


def best_of(fn: Callable[[], Any], reps: int = 5, warmup: int = 1) -> float:
    """Best-of-``reps`` wall time of ``fn()`` after ``warmup`` calls.

    Best (not mean) is the standard microbenchmark statistic: host noise
    is strictly additive, so the minimum is the cleanest estimate.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_graph(m: int, nnz: int, seed: int = 0) -> CSRMatrix:
    return power_law(m, nnz, seed=seed, weighted=True)


def bench_delta_apply(
    m: int = 10_000, nnz: int = 100_000, batch: int = 1_000, reps: int = 15
) -> Dict[str, Any]:
    """Incremental :func:`~repro.sparse.delta.apply_delta` vs. the full
    from-scratch rebuild it replaces.

    A 100k-edge power-law graph takes a mixed 1% batch (third inserts,
    third deletes, third value updates).  The incremental side splices
    the batch into the CSR arrays and evolves the cached
    :class:`AccessProfile`; the rebuild side is what a delta-less streaming
    host would pay per batch — ``csr_from_coo`` (the COO lexsort), all
    four derived arrays, and a cold profile build.  Both sides produce
    the identical matrix (``parity`` asserts fingerprint equality), each
    timed best-of-``reps``.
    """
    from repro.core.access_profile import access_profile
    from repro.sparse import csr_from_coo
    from repro.sparse.delta import EdgeDelta, apply_delta

    a = _bench_graph(m, nnz, seed=3)
    # Steady-state streaming host: the live version's derived state and
    # profile are resident (that is the state the delta path patches).
    a.colind64(), a.coo_rows(), access_profile(a)

    rng = np.random.default_rng(4)
    third = batch // 3
    del_idx = rng.choice(a.nnz, size=third, replace=False)
    upd_idx = rng.choice(
        np.setdiff1d(np.arange(a.nnz), del_idx), size=third, replace=False
    )
    # Absent slots for inserts: rejection-sample against the (sorted)
    # stored edge keys.
    keys = a.coo_rows() * a.ncols + a.colind64()
    cand = np.unique(
        rng.integers(0, m, size=8 * third) * a.ncols
        + rng.integers(0, a.ncols, size=8 * third)
    )
    pos = np.searchsorted(keys, cand)
    stored = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == cand)
    ins_flat = rng.permutation(cand[~stored])[:third]

    delta = EdgeDelta.new(
        inserts=(
            ins_flat // a.ncols,
            ins_flat % a.ncols,
            rng.standard_normal(ins_flat.size).astype(np.float32),
        ),
        deletes=(a.coo_rows()[del_idx], a.colind64()[del_idx]),
        updates=(
            a.coo_rows()[upd_idx],
            a.colind64()[upd_idx],
            rng.standard_normal(third).astype(np.float32),
        ),
    )

    out = apply_delta(a, delta)
    rows, cols, vals = out.coo_rows(), out.colind64(), out.values

    def incremental():
        return apply_delta(a, delta)

    def rebuild():
        ref = csr_from_coo(rows, cols, vals, shape=a.shape)
        ref.row_lengths(), ref.rowptr64(), ref.colind64(), ref.coo_rows()
        access_profile(ref)
        return ref

    # The incremental side is sub-5ms, so its best-of needs more reps to
    # converge past cache/frequency warmup; the rebuild side is ~5x
    # longer per rep and settles quickly.
    incremental_s = best_of(incremental, reps=3 * reps, warmup=3)
    rebuild_s = best_of(rebuild, reps=reps)
    parity = out.fingerprint() == rebuild().fingerprint()
    return {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz)},
        "batch": {"inserts": int(ins_flat.size), "deletes": third,
                  "updates": third},
        "incremental_s": incremental_s,
        "rebuild_s": rebuild_s,
        "speedup": rebuild_s / incremental_s if incremental_s > 0 else float("inf"),
        "parity": parity,
    }


def bench_disk_cache_sweep() -> Dict[str, Any]:
    """Cold vs. disk-warm sweep through a throwaway :class:`DiskCache`.

    Runs one small sweep cold, wipes the in-process memo (simulating a
    fresh process), and re-runs it against the same cache directory.  The
    warm run must recompute nothing (``memo_misses == 0``) and reproduce
    every cell byte for byte — the same contract CI asserts on the real
    ``BENCH_spmm.json`` regeneration.
    """
    import shutil
    import tempfile

    from repro.bench.diskcache import DiskCache, use_disk_cache
    from repro.bench.runner import run_sweep_with_stats
    from repro.core import CRCSpMM, GESpMM, SimpleSpMM
    from repro.gpusim import GTX_1080TI
    from repro.gpusim.kernel import clear_estimate_memo

    kernels = [SimpleSpMM(), CRCSpMM(), GESpMM()]
    graphs = {"pl": _bench_graph(4_000, 120_000)}
    widths = [32, 250]
    gpus = [GTX_1080TI]
    root = tempfile.mkdtemp(prefix="repro-diskcache-bench-")
    try:
        cache = DiskCache(root)
        with use_disk_cache(cache):
            clear_estimate_memo()
            t0 = time.perf_counter()
            cold, _ = run_sweep_with_stats(kernels, graphs, widths, gpus)
            cold_s = time.perf_counter() - t0
            clear_estimate_memo()  # simulate a fresh process
            t0 = time.perf_counter()
            warm, host_warm = run_sweep_with_stats(kernels, graphs, widths, gpus)
            warm_s = time.perf_counter() - t0
        dump = lambda rs: json.dumps([r.__dict__ for r in rs], sort_keys=True)
        return {
            "cells": len(cold),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_memo_misses": host_warm.memo_misses,
            "disk_hits": cache.counters()["hits"],
            "disk_invalidations": cache.counters()["invalidations"],
            "byte_identical": dump(warm) == dump(cold),
        }
    finally:
        clear_estimate_memo()
        shutil.rmtree(root, ignore_errors=True)


def bench_corpus_stream(n_specs: int = 1000, shards: int = 10) -> Dict[str, Any]:
    """Stream a ≥``n_specs``-matrix generator-defined corpus through
    :func:`repro.bench.corpus.run_corpus_sweep` and verify peak memory
    stays **flat across shards** — the bounded-memory contract.

    ``tracemalloc`` tracks Python-level allocations (NumPy registers its
    buffers with it), with the peak reset at every shard boundary via the
    progress callback.  If matrices, derived caches, or memo entries
    leaked across shards, later per-shard peaks would climb;
    ``peak_ratio`` is the max later-shard peak over the first shard's
    peak, and the floor asserted in ``benchmarks/bench_host_executor.py``
    requires it to stay near 1.
    """
    import tracemalloc

    from repro.bench.corpus import dlmc_corpus, run_corpus_sweep
    from repro.core import GESpMM, MergePathSpMM
    from repro.gpusim import GTX_1080TI

    # ~1000 tiny DLMC-style specs: 3 methods x 1 shape x 6 sparsities
    # x enough seeds.  Matrices are 64x64 so the whole stream runs in
    # seconds while still exercising every corpus code path.
    seeds = range(-(-n_specs // 18))  # 18 specs per seed
    specs = list(dlmc_corpus(shapes=((64, 64),), seeds=list(seeds)))[:n_specs]
    shard_size = -(-len(specs) // shards)

    peaks: list = []

    def sample(_idx: int, _total: int, _restored: bool) -> None:
        _cur, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        res = run_corpus_sweep(
            specs,
            [GESpMM(), MergePathSpMM()],
            [16],
            [GTX_1080TI],
            shard_size=shard_size,
            progress=sample,
        )
        wall_s = time.perf_counter() - t0
    finally:
        if started:
            tracemalloc.stop()
    first = peaks[0] if peaks else 1
    later = max(peaks[1:], default=first)
    return {
        "matrices": res.host.matrices,
        "shards": res.host.shards_total,
        "cells": res.host.cells_computed + res.host.cells_restored,
        "wall_s": wall_s,
        "first_shard_peak_bytes": first,
        "max_later_peak_bytes": later,
        "peak_ratio": later / first if first else float("inf"),
    }


#: Peak-memory benchmark graph + widths: both executor paths keep their
#: transient footprint flat in N (plus-times row chunks are
#: O(_ROW_CHUNK_BYTES), the max-times tiles O(nnz*T)), so each path's
#: wide/narrow peak ratio must stay near 1.
_PEAK_M, _PEAK_NNZ = 10_000, 100_000
_PEAK_NARROW, _PEAK_WIDE = 64, 1024


def bench_tiled_peak(
    m: int = _PEAK_M,
    nnz: int = _PEAK_NNZ,
    narrow: int = _PEAK_NARROW,
    wide: int = _PEAK_WIDE,
) -> Dict[str, Any]:
    """Transient peak memory of one SpMM at a narrow vs. a wide N, for
    each host executor path.

    ``plus_times`` is ``segment_spmm_like`` under ``PLUS_TIMES`` (the
    row-chunk path) and ``max_argmax`` is ``segment_max_with_argmax`` (the
    tiled sliced reduce).  ``tracemalloc`` traces only the call itself:
    each call runs once untraced first, so process-lived state (the
    ``slice_plan``, the lazily imported ``scipy.sparse``) stays out of the
    window; the operand and the plus-times output are preallocated, the
    two ``(M, N)`` arrays ``segment_max_with_argmax`` returns are
    subtracted from its peak, and the workspace pool is cleared before
    each measurement so every width pays its own workspace allocation.
    Both paths are flat in N, so each ``peak_ratio`` stays near 1.
    """
    import tracemalloc

    from repro.sparse.segment import (
        clear_workspace_pool,
        segment_max_with_argmax,
        segment_spmm_like,
    )

    a = _bench_graph(m, nnz, seed=6)
    # Derived arrays (colind64, rowptr64, row_lengths) are process-lived
    # caches, not per-call transients: build them outside the window.
    a.colind64(), a.rowptr64(), a.row_lengths(), a.coo_rows()
    rng = np.random.default_rng(2)
    operands = {
        n: (
            rng.standard_normal((a.ncols, n)).astype(np.float32),
            np.empty((a.nrows, n), dtype=np.float32),
        )
        for n in (narrow, wide)
    }

    # Each path returns the bytes of the outputs it hands back.
    def plus_times(b: np.ndarray, out: np.ndarray) -> int:
        segment_spmm_like(a, b, PLUS_TIMES, out=out)
        return 0

    def max_argmax(b: np.ndarray, _out: np.ndarray) -> int:
        return sum(r.nbytes for r in segment_max_with_argmax(a, b))

    def peak_bytes(run: Callable[[np.ndarray, np.ndarray], int], n: int) -> int:
        clear_workspace_pool()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kept = run(*operands[n])
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        clear_workspace_pool()
        return peak - kept

    results: Dict[str, Any] = {}
    for name, run in (("plus_times", plus_times), ("max_argmax", max_argmax)):
        run(*operands[narrow])
        lo, hi = peak_bytes(run, narrow), peak_bytes(run, wide)
        results[name] = {
            "narrow_peak_bytes": lo,
            "wide_peak_bytes": hi,
            "peak_ratio": hi / lo if lo else float("inf"),
        }
    return {
        "graph": {"kind": "power_law", "m": m, "nnz": int(a.nnz)},
        "narrow_n": narrow,
        "wide_n": wide,
        "paths": results,
    }


def run_host_microbench() -> Dict[str, Any]:
    """All host microbenchmarks, keyed by name.

    ``delta_apply`` runs first: its incremental side is the only
    sub-5ms timing here, and the other benches' large temporary
    allocations leave the process heap in a state (memory returned to
    the OS, page-faulted back per rep) that taxes it by a constant
    ~1ms — measuring it on a fresh heap keeps the floor stable.
    """
    return {
        "delta_apply": bench_delta_apply(),
        "tiled_peak": bench_tiled_peak(),
        "disk_cache": bench_disk_cache_sweep(),
        "corpus_stream": bench_corpus_stream(),
    }


def format_result_line(name: str, r: Dict[str, Any]) -> Optional[str]:
    """One aligned ``slow xx ms  fast xx ms  N.NNx`` line for any A/B
    microbench dict (``rebuild_s``/``incremental_s``, ...); None when
    ``r`` is not such a dict."""
    if not isinstance(r, dict) or "speedup" not in r:
        return None
    sides = [k for k, v in r.items()
             if k.endswith("_s") and isinstance(v, (int, float))]
    if len(sides) != 2:
        return None
    slow, fast = sorted(sides, key=r.get, reverse=True)
    return (f"{name:15s} {slow[:-2]:8s} {r[slow] * 1e3:8.2f} ms   "
            f"{fast[:-2]:8s} {r[fast] * 1e3:8.2f} ms   {r['speedup']:5.2f}x")


def run_fresh(code: str, *argv: str) -> Dict[str, Any]:
    """Run ``code`` in a fresh interpreter under :data:`_MALLOC_ENV` and
    return the JSON object printed on its last stdout line.

    The child can ``import hostbench``: this directory goes first on its
    ``PYTHONPATH``.
    """
    path = os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parent),
                      os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, **_MALLOC_ENV, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.splitlines()[-1])
