"""Synthetic twins of the citation graphs (Cora, Citeseer, Pubmed).

The paper's GNN experiments (Tables I/II/IX, Figs 10/12/13/14) run on the
three Planetoid citation graphs (paper Table IV).  Offline we generate
structure-matched twins: exact vertex/edge/class counts, power-law-ish
degree mixing, and community structure aligned with the labels so that a
GCN actually separates the classes (tests assert learnability).  Features
are sparse bag-of-words-like vectors whose support is class-correlated
with noise.

What the kernel benchmarks respond to — M, nnz, degree distribution — is
matched to the published statistics; semantic content of papers obviously
is not.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix, csr_from_coo

__all__ = ["CitationDataset", "CITATION_STATS", "load_citation", "load_cora", "load_citeseer", "load_pubmed"]

#: name -> (vertices, undirected edges, classes, feature dim) — paper Table IV
CITATION_STATS: Dict[str, Tuple[int, int, int, int]] = {
    "cora": (2708, 5429, 7, 1433),
    "citeseer": (3327, 4732, 6, 3703),
    "pubmed": (19717, 44338, 3, 500),
}


@dataclass(frozen=True)
class CitationDataset:
    """A node-classification dataset in the Planetoid layout."""

    name: str
    graph: CSRMatrix  # directed adjacency (both directions of each edge)
    features: np.ndarray  # float32[M, F]
    labels: np.ndarray  # int64[M]
    train_mask: np.ndarray  # bool[M]
    val_mask: np.ndarray
    test_mask: np.ndarray
    n_classes: int

    @property
    def n_nodes(self) -> int:
        return self.graph.nrows

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def normalized_adjacency(self) -> CSRMatrix:
        """GCN propagation matrix: sym-normalized adjacency with self
        loops, the operand of every SpMM in training."""
        return self.graph.add_self_loops().sym_normalized()


_cache: Dict[str, CitationDataset] = {}


def load_citation(name: str, seed: int = 7) -> CitationDataset:
    """Build (and cache) the synthetic twin of ``name``."""
    key = f"{name}:{seed}"
    if key in _cache:
        return _cache[key]
    if name not in CITATION_STATS:
        raise KeyError(f"unknown citation graph {name!r}; choose from {sorted(CITATION_STATS)}")
    m, n_edges, n_classes, feat_dim = CITATION_STATS[name]
    # crc32, not hash(): str hashing is salted per process; the twin must
    # be the same graph in every run.
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 65536)

    labels = rng.integers(0, n_classes, size=m)

    # Community-structured edges: ~80% intra-class, preferential-ish
    # endpoint choice for a heavy-ish degree tail.
    src = rng.integers(0, m, size=n_edges)
    intra = rng.random(n_edges) < 0.8
    dst = np.empty(n_edges, dtype=np.int64)
    # Intra-class edges: pick a random member of the same class.
    order = np.argsort(labels, kind="stable")
    class_starts = np.searchsorted(labels[order], np.arange(n_classes))
    class_ends = np.searchsorted(labels[order], np.arange(n_classes), side="right")
    counts = class_ends - class_starts
    lab_src = labels[src]
    offs = (rng.random(n_edges) * counts[lab_src]).astype(np.int64)
    dst_intra = order[class_starts[lab_src] + np.minimum(offs, counts[lab_src] - 1)]
    dst_inter = rng.integers(0, m, size=n_edges)
    dst = np.where(intra, dst_intra, dst_inter)
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % m

    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    graph = csr_from_coo(rows, cols, np.ones(rows.size, dtype=np.float32),
                         shape=(m, m), sum_duplicates=True)
    # Binarize: duplicate edges collapse to weight 1 like a real adjacency.
    graph = graph.with_values(np.ones(graph.nnz, dtype=np.float32))

    # Class-correlated sparse features: each class owns a slice of the
    # vocabulary; a document samples mostly from its class slice.
    feats = np.zeros((m, feat_dim), dtype=np.float32)
    words_per_doc = max(feat_dim // 50, 8)
    slice_w = feat_dim // n_classes
    for c in range(n_classes):
        members = np.nonzero(labels == c)[0]
        own = rng.integers(c * slice_w, (c + 1) * slice_w, size=(members.size, words_per_doc))
        anywhere = rng.integers(0, feat_dim, size=(members.size, words_per_doc // 2))
        idx = np.concatenate([own, anywhere], axis=1)
        feats[members[:, None], idx] = 1.0

    # Planetoid split: 20 train nodes per class, 500 val, 1000 test.
    train_mask = np.zeros(m, dtype=bool)
    for c in range(n_classes):
        members = np.nonzero(labels == c)[0]
        train_mask[rng.choice(members, size=min(20, members.size), replace=False)] = True
    rest = np.nonzero(~train_mask)[0]
    rest = rng.permutation(rest)
    val_mask = np.zeros(m, dtype=bool)
    test_mask = np.zeros(m, dtype=bool)
    val_mask[rest[:500]] = True
    test_mask[rest[500:1500]] = True

    ds = CitationDataset(
        name=name,
        graph=graph,
        features=feats,
        labels=labels.astype(np.int64),
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        n_classes=n_classes,
    )
    _cache[key] = ds
    return ds


def load_cora(seed: int = 7) -> CitationDataset:
    return load_citation("cora", seed)


def load_citeseer(seed: int = 7) -> CitationDataset:
    return load_citation("citeseer", seed)


def load_pubmed(seed: int = 7) -> CitationDataset:
    return load_citation("pubmed", seed)
