"""Figure 14 — end-to-end GCN training in PyG, with and without GE-SpMM.

Paper setup (Section V-F1): PyG's GCN example on Cora / Citeseer /
Pubmed, model grid (layers, features) in {1,2} x {16,64,256}, both GPUs.

Paper result: replacing PyG's MessagePassing with the fused GE-SpMM
operator brings up to 3.67x / 2.10x CUDA-time reduction on the two GPUs;
improvements are larger than on DGL because MessagePassing materializes
per-edge messages before reducing, while SpMM fuses both phases.
"""

import numpy as np

from repro.bench import comparison, format_table, render_claims
from repro.gnn import GCN, PyGBackend, SimDevice, train
from repro.gpusim import GTX_1080TI, RTX_2080

CONFIGS = [(1, 16), (1, 64), (1, 256), (2, 16), (2, 64), (2, 256)]
EPOCHS = 3


def run(citation_datasets, gpus):
    """Train each (graph, config) once and price its op log under every
    (GPU, with/without GE-SpMM) pair; the numerics never depend on it."""
    rows = []
    speedups = []
    for name, ds in citation_datasets.items():
        for layers, feats in CONFIGS:
            model = GCN(ds.feature_dim, feats, ds.n_classes, n_layers=layers,
                        rng=np.random.default_rng(0))
            log = train(model, PyGBackend(SimDevice(gpus[0])), ds, epochs=EPOCHS).log
            cells = [name, f"({layers},{feats})"]
            for gpu in gpus:
                times = {}
                for use_ge in (False, True):
                    backend = PyGBackend(SimDevice(gpu), use_gespmm=use_ge)
                    times[use_ge] = backend.replay(log).total_time
                cells.append(f"{times[False] * 1e3:.2f}")
                cells.append(f"{times[True] * 1e3:.2f}")
                speedups.append(times[False] / times[True])
            rows.append(tuple(cells))
    return rows, speedups


def test_fig14_pyg_e2e(benchmark, emit, citation_datasets):
    gpus = [GTX_1080TI, RTX_2080]
    rows, speedups = benchmark.pedantic(run, args=(citation_datasets, gpus), rounds=1, iterations=1)
    headers = ["graph", "(layers,feat)"]
    for gpu in gpus:
        headers += [f"{gpu.name} PyG (ms)", f"{gpu.name} PyG+GE (ms)"]
    table = format_table(headers, rows, title=f"Fig 14 reproduction: GCN training time ({EPOCHS} epochs)")

    wins = sum(1 for s in speedups if s > 1.0)
    claims = [
        comparison("PyG+GE faster everywhere", "reduction in all bars",
                   f"{wins}/{len(speedups)} faster", wins >= len(speedups) * 0.9),
        comparison("max CUDA-time reduction", "up to 3.67x", f"{max(speedups):.2f}x",
                   1.2 < max(speedups) < 5.0),
    ]
    assert wins >= len(speedups) * 0.9
    assert max(speedups) > 1.2
    emit("fig14_pyg_e2e", table + "\n\n" + render_claims(claims, "paper vs measured"))
