"""Column-tiled executor: strict peak-memory floor.

Not a paper table: this measures the reproduction's tiled host executor
(``repro.sparse.segment``) — the host analogue of GE-SpMM's
Coarse-grained Warp Merging, where each loaded sparse row is reused
across feature tiles so the transient footprint is O(nnz*T) instead of
O(nnz*N).

The measurement runs in a **fresh subprocess with glibc's malloc
thresholds pinned high** (``MALLOC_MMAP_THRESHOLD_`` /
``MALLOC_TRIM_THRESHOLD_``), the same allocator discipline as
``bench_delta_updates.py``: the in-process variant recorded by
``bench_host_executor.py`` runs after other benches have dirtied the
heap.  The floor: the ``tracemalloc`` transient peak of one SpMM at
N=1024 on a 100k-edge power-law graph stays within **2x** of the N=64
peak (operand and output preallocated outside the traced window,
workspace pool cleared per measurement so each width pays its own
allocation).
"""

import json
import os
import subprocess
import sys

#: The tiled executor's transient peak must be flat in N (typical ratio
#: ~1.0; without tiling it would grow like 1024/64 = 16x).
MAX_TILED_PEAK_RATIO = 2.0

#: Pin glibc's adaptive thresholds (see ``bench_delta_updates.py``):
#: temporaries stay on the brk heap instead of round-tripping pages
#: through mmap between reps.
_MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 1024 * 1024),
}

_CHILD = """\
import json
from repro.bench.hostbench import bench_tiled_peak
print(json.dumps(bench_tiled_peak()))
"""


def _measure_fresh() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, **_MALLOC_ENV},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _format(peak: dict) -> str:
    mib = lambda b: b / (1024 * 1024)
    return (
        f"peak  N {peak['narrow_n']:>4} -> {peak['wide_n']:>4}   "
        f"tiled {mib(peak['narrow_peak_bytes']):6.1f} -> "
        f"{mib(peak['wide_peak_bytes']):6.1f} MiB "
        f"({peak['peak_ratio']:.2f}x)"
    )


def test_tiled_memory_floor(benchmark, emit):
    peak = benchmark.pedantic(_measure_fresh, rounds=1, iterations=1)
    emit("tiled_memory", _format(peak))

    assert peak["narrow_peak_bytes"] > 0, peak
    assert peak["peak_ratio"] <= MAX_TILED_PEAK_RATIO, (
        f"tiled SpMM transient peak grew {peak['peak_ratio']:.2f}x from "
        f"N={peak['narrow_n']} to N={peak['wide_n']} (cap "
        f"{MAX_TILED_PEAK_RATIO}x) — the workspace is no longer O(nnz*T)"
    )
