"""Table IX — GraphSAGE-pool CUDA-time reduction with GE-SpMM in DGL.

Paper setup (Section V-F2): GraphSAGE-pool (max-pooling aggregation —
the SpMM-like operation cuSPARSE does not provide) trained on Pubmed in
DGL, model grid (layers, features), both GPUs.  Two numbers per config:
speedup of the SpMM-like operator itself, and of total training time.

Paper result: the SpMM-like kernel alone speeds up 2.39x-6.15x
(1080Ti) / 3.03x-3.51x (2080); total time improves ~1.1x because
aggregation is one of several operators.
"""

import numpy as np

from repro.bench import comparison, format_table, render_claims
from repro.gnn import DGLBackend, GraphSAGE, SimDevice, train
from repro.gpusim import GTX_1080TI, RTX_2080

CONFIGS = [(1, 16), (1, 64), (1, 256), (2, 16), (2, 64), (2, 256)]
EPOCHS = 3


def run(ds, gpus):
    """Train each config once and price its op log under every
    (GPU, with/without GE-SpMM) pair; the numerics never depend on it."""
    rows = []
    op_speedups, total_speedups = [], []
    for layers, feats in CONFIGS:
        model = GraphSAGE(ds.feature_dim, feats, ds.n_classes, n_layers=layers,
                          aggregator="pool", rng=np.random.default_rng(0))
        log = train(model, DGLBackend(SimDevice(gpus[0])), ds, epochs=EPOCHS).log
        cells = [f"({layers},{feats})"]
        for gpu in gpus:
            prof = {use_ge: DGLBackend(SimDevice(gpu), use_gespmm=use_ge).replay(log)
                    for use_ge in (False, True)}
            op = prof[False].time("SpMM-like") / max(prof[True].time("SpMM-like"), 1e-12)
            tot = prof[False].total_time / prof[True].total_time
            op_speedups.append(op)
            total_speedups.append(tot)
            cells += [f"{op:.2f}", f"{tot:.2f}"]
        rows.append(tuple(cells))
    return rows, op_speedups, total_speedups


def test_table9_sage_pool(benchmark, emit, citation_datasets):
    gpus = [GTX_1080TI, RTX_2080]
    ds = citation_datasets["pubmed"]
    rows, op_speedups, total_speedups = benchmark.pedantic(run, args=(ds, gpus), rounds=1, iterations=1)
    headers = ["(#layer,#feature)"]
    for gpu in gpus:
        headers += [f"{gpu.name} SpMM-like", f"{gpu.name} total"]
    table = format_table(headers, rows,
                         title=f"Table IX reproduction: GraphSAGE-pool on {ds.name} (DGL vs DGL+GE-SpMM)")

    claims = [
        comparison("SpMM-like operator speedup", "2.39x-6.15x / 3.03x-3.51x",
                   f"{min(op_speedups):.2f}x-{max(op_speedups):.2f}x",
                   min(op_speedups) > 1.5),
        comparison("total training-time speedup", "~1.09x-1.14x",
                   f"{min(total_speedups):.2f}x-{max(total_speedups):.2f}x",
                   min(total_speedups) > 1.0 and max(total_speedups) < 1.6),
    ]
    assert min(op_speedups) > 1.5, "GE-SpMM's SpMM-like must clearly beat DGL's fallback"
    assert all(t > 1.0 for t in total_speedups), "total time must improve"
    assert max(total_speedups) < 2.0, "total gain bounded: aggregation is one op among many"
    emit("table9_sage_pool", table + "\n\n" + render_claims(claims, "paper vs measured"))
