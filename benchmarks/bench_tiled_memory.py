"""Host executor: strict peak-memory floor for both SpMM paths.

Not a paper table: this measures the reproduction's host executor
(``repro.sparse.segment``).  Plus-times runs one pass per CSR row in
row chunks of a fixed output budget, the host form of GE-SpMM's
Coarse-grained Row Caching; max-times runs the tiled sliced reduce, the
host analogue of Coarse-grained Warp Merging, where each loaded sparse
row is reused across feature tiles so the transient footprint is
O(nnz*T) instead of O(nnz*N).

The measurement runs in a **fresh subprocess with glibc's malloc
thresholds pinned high** (``MALLOC_MMAP_THRESHOLD_`` /
``MALLOC_TRIM_THRESHOLD_``), the same allocator discipline as
``bench_delta_updates.py``: the in-process variant recorded by
``bench_host_executor.py`` runs after other benches have dirtied the
heap.  The floor, for each path: the ``tracemalloc`` transient peak of
one SpMM at N=1024 on a 100k-edge power-law graph stays within **2x** of
the N=64 peak (operand and output kept out of the traced window,
workspace pool cleared per measurement so each width pays its own
allocation; see ``hostbench.bench_tiled_peak``).  The peaks are printed
and written to the untracked ``benchmarks/results/tiled_memory.txt``.
"""

from hostbench import run_fresh

#: Each path's transient peak must be flat in N (typical ratio ~1.0-1.2;
#: without chunking or tiling it would grow like 1024/64 = 16x).
MAX_TILED_PEAK_RATIO = 2.0

_CHILD = """\
import json
from hostbench import bench_tiled_peak
print(json.dumps(bench_tiled_peak()))
"""


def _measure_fresh() -> dict:
    return run_fresh(_CHILD)


def _format(peak: dict) -> str:
    mib = lambda b: b / (1024 * 1024)
    return "\n".join(
        f"peak  N {peak['narrow_n']:>4} -> {peak['wide_n']:>4}   "
        f"{path:10s} {mib(r['narrow_peak_bytes']):6.1f} -> "
        f"{mib(r['wide_peak_bytes']):6.1f} MiB ({r['peak_ratio']:.2f}x)"
        for path, r in peak["paths"].items()
    )


def test_tiled_memory_floor(benchmark, emit):
    peak = benchmark.pedantic(_measure_fresh, rounds=1, iterations=1)
    emit("tiled_memory", _format(peak))

    assert set(peak["paths"]) == {"plus_times", "max_argmax"}, peak
    for path, r in peak["paths"].items():
        assert r["narrow_peak_bytes"] > 0, (path, r)
        assert r["peak_ratio"] <= MAX_TILED_PEAK_RATIO, (
            f"{path} SpMM transient peak grew {r['peak_ratio']:.2f}x from "
            f"N={peak['narrow_n']} to N={peak['wide_n']} (cap "
            f"{MAX_TILED_PEAK_RATIO}x) — its transient memory is no longer "
            f"flat in N"
        )
