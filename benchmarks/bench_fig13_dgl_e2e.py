"""Figure 13 — end-to-end GNN training in DGL, with and without GE-SpMM.

Paper setup (Section V-F1): GCN, GraphSAGE-gcn and GraphSAGE-pool
trained with DGL's example code; model grid (layers, features) in
{1,2} x {16,64,256}; metric total CUDA time; both GPUs (we sweep Cora,
the paper's example graph for this figure).

Paper result: GE-SpMM reduces CUDA time in most configurations; a few
small-N configurations on GTX 1080Ti show no speedup because the last
layer's SpMM width equals the class count, where GE-SpMM "is not very
competitive".
"""

import numpy as np

from repro.bench import comparison, format_table, render_claims
from repro.gnn import DGLBackend, GCN, GraphSAGE, SimDevice, train
from repro.gpusim import GTX_1080TI, RTX_2080

CONFIGS = [(1, 16), (1, 64), (1, 256), (2, 16), (2, 64), (2, 256)]
EPOCHS = 3


def make_model(kind, ds, layers, feats):
    rng = np.random.default_rng(0)
    if kind == "GCN":
        return GCN(ds.feature_dim, feats, ds.n_classes, n_layers=layers, rng=rng)
    agg = "gcn" if kind == "GraphSAGE-GCN" else "pool"
    return GraphSAGE(ds.feature_dim, feats, ds.n_classes, n_layers=layers, aggregator=agg, rng=rng)


def run(ds, gpus):
    """Train each (model, config) once and price its op log under every
    (GPU, with/without GE-SpMM) pair; the numerics never depend on it."""
    rows = []
    speedups = []
    for kind in ("GCN", "GraphSAGE-GCN", "GraphSAGE-pooling"):
        for layers, feats in CONFIGS:
            model = make_model(kind, ds, layers, feats)
            log = train(model, DGLBackend(SimDevice(gpus[0])), ds, epochs=EPOCHS).log
            cells = [kind, f"({layers},{feats})"]
            for gpu in gpus:
                times = {}
                for use_ge in (False, True):
                    backend = DGLBackend(SimDevice(gpu), use_gespmm=use_ge)
                    times[use_ge] = backend.replay(log).total_time
                cells.append(f"{times[False] * 1e3:.2f}")
                cells.append(f"{times[True] * 1e3:.2f}")
                speedups.append(times[False] / times[True])
            rows.append(tuple(cells))
    return rows, speedups


def test_fig13_dgl_e2e(benchmark, emit, citation_datasets):
    gpus = [GTX_1080TI, RTX_2080]
    ds = citation_datasets["cora"]
    rows, speedups = benchmark.pedantic(run, args=(ds, gpus), rounds=1, iterations=1)
    headers = ["model", "(layers,feat)"]
    for gpu in gpus:
        headers += [f"{gpu.name} DGL (ms)", f"{gpu.name} DGL+GE (ms)"]
    table = format_table(headers, rows, title=f"Fig 13 reproduction: training time on {ds.name} ({EPOCHS} epochs)")

    wins = sum(1 for s in speedups if s > 1.0)
    claims = [
        comparison("GE-SpMM helps most configs", "speedup in most of 36 bars",
                   f"{wins}/{len(speedups)} faster, max {max(speedups):.2f}x", wins >= len(speedups) * 0.6),
        comparison("some small-N configs flat", "4 configs with no gain on 1080Ti",
                   f"{len(speedups) - wins} configs with no gain", (len(speedups) - wins) <= len(speedups) * 0.4),
    ]
    assert wins >= len(speedups) * 0.6
    assert max(speedups) > 1.05
    emit("fig13_dgl_e2e", table + "\n\n" + render_claims(claims, "paper vs measured"))
