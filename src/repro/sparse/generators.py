"""Vectorized random-graph / sparse-matrix generators.

The paper evaluates on (a) synthetic uniform random matrices generated with
Ligra's random generator (Section V-B: M=16K/65K/262K with nnz = 10*M),
(b) the three citation graphs, and (c) 64 SNAP matrices.  Real traces are
not available offline, so these generators produce structure-matched
synthetic twins: what the kernels and the memory model actually respond to
is the row-length distribution, matrix scale, and column locality, all of
which are controllable here.

All generators are deterministic given ``seed`` and vectorized (no
per-edge Python loops), per the HPC-Python guidance.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix, csr_from_coo

__all__ = [
    "uniform_random",
    "power_law",
    "rmat",
    "banded_random",
    "erdos_renyi_nnz",
    "pruned_magnitude",
    "pruned_random",
    "pruned_structured",
]


def _finish(
    rows: np.ndarray,
    cols: np.ndarray,
    m: int,
    k: int,
    seed: int,
    weighted: bool,
) -> CSRMatrix:
    # Deduplicate the pattern first, then draw values, so duplicate draws
    # never inflate weights (adjacency weights stay in their stated range).
    pattern = csr_from_coo(rows, cols, None, shape=(m, k), sum_duplicates=True)
    if weighted:
        rng = np.random.default_rng(seed + 0x9E3779B9)
        vals = rng.uniform(0.5, 1.5, size=pattern.nnz).astype(np.float32)
    else:
        vals = np.ones(pattern.nnz, dtype=np.float32)
    return pattern.with_values(vals)


def uniform_random(
    m: int, nnz: int, k: int | None = None, *, seed: int = 0, weighted: bool = False
) -> CSRMatrix:
    """Uniform random matrix à la Ligra's ``rMatGraph``-free generator:
    ``nnz`` entries with independently uniform row and column coordinates.

    This is the generator behind the paper's profiling matrices
    (M=65K, nnz=650K, ...).  Duplicate coordinates are merged, so the
    realized nnz can be marginally below the request for dense settings.
    """
    k = m if k is None else k
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz, dtype=np.int64)
    cols = rng.integers(0, k, size=nnz, dtype=np.int64)
    return _finish(rows, cols, m, k, seed, weighted)


def power_law(
    m: int,
    nnz: int,
    *,
    exponent: float = 2.1,
    seed: int = 0,
    weighted: bool = False,
    k: int | None = None,
) -> CSRMatrix:
    """Chung–Lu style power-law graph: expected degree of vertex ``v`` is
    proportional to ``(v + 1) ** (-1 / (exponent - 1))``.

    Social / web graphs in SNAP have heavy-tailed degree distributions;
    this generator reproduces the load imbalance (a few very long rows,
    many short ones) that stresses warp-per-row kernels.
    """
    k = m if k is None else k
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, m + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    p = w / w.sum()
    rows = rng.choice(m, size=nnz, p=p)
    # Columns follow the same skew (hubs attract edges on both sides) but
    # with an independent permutation so the diagonal is not artificially
    # dense.
    perm = rng.permutation(k)
    cols = perm[rng.choice(min(m, k), size=nnz, p=p[: min(m, k)] / p[: min(m, k)].sum())]
    return _finish(rows, cols, m, k, seed, weighted)


def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = False,
) -> CSRMatrix:
    """Recursive-MATrix (Graph500) generator: ``2**scale`` vertices,
    ``edge_factor * 2**scale`` edges with self-similar community structure.

    RMAT produces the clustered column locality that ASpT's locally-dense
    tiling exploits, so it is the stress generator for the preprocessing
    baseline comparison (Table VIII).
    """
    m = 1 << scale
    nnz = edge_factor * m
    rng = np.random.default_rng(seed)
    rows = np.zeros(nnz, dtype=np.int64)
    cols = np.zeros(nnz, dtype=np.int64)
    # Vectorized bit-by-bit recursive descent: at each of `scale` levels,
    # choose one of the four quadrants for every edge at once.
    pa, pb, pc = a, b, c
    for level in range(scale):
        r = rng.random(nnz)
        quad_b = (r >= pa) & (r < pa + pb)
        quad_c = (r >= pa + pb) & (r < pa + pb + pc)
        quad_d = r >= pa + pb + pc
        bit = 1 << (scale - level - 1)
        rows += bit * (quad_c | quad_d)
        cols += bit * (quad_b | quad_d)
    return _finish(rows, cols, m, m, seed, weighted)


def banded_random(
    m: int,
    nnz: int,
    bandwidth: int,
    *,
    seed: int = 0,
    weighted: bool = False,
) -> CSRMatrix:
    """Random matrix with entries confined to a diagonal band — models
    road networks and meshes (high column locality, near-uniform short
    rows)."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz, dtype=np.int64)
    offsets = rng.integers(-bandwidth, bandwidth + 1, size=nnz, dtype=np.int64)
    cols = np.clip(rows + offsets, 0, m - 1)
    return _finish(rows, cols, m, m, seed, weighted)


# ----------------------------------------------------------------------
# DLMC-style pruned-DNN sparsity patterns
#
# The Deep Learning Matrix Collection (Gale et al., the dataset behind
# PyTorch's benchmarks/sparse/dlmc suite) consists of DNN weight
# matrices pruned by different methods at sparsities 0.5-0.98.  The
# three generators below are synthetic twins of its main pattern
# families: magnitude pruning and random pruning produce unstructured
# patterns (near-uniform, but magnitude keeps the value distribution's
# heavy tail), while structured pruning removes whole column blocks per
# row, producing the clustered column locality that tiling kernels
# exploit.  All are deterministic given ``seed`` and hit the requested
# sparsity exactly (up to integer rounding of the kept-entry count).
#
# Magnitude and structured pruning pick their kept set by a linear
# threshold top-k, not a sort (ties at the threshold go to the lowest
# flat index, which is what a stable descending argsort would keep),
# and all three write the CSR straight from the ascending row-major
# keys.  Only the threshold value is taken from ``np.partition``, so the
# result does not depend on how a NumPy version orders the partition.
# ----------------------------------------------------------------------


def _check_sparsity(sparsity: float) -> float:
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity!r}")
    return float(sparsity)


def _kept_count(total: int, sparsity: float) -> int:
    return total - int(round(sparsity * total))


def _top_k(score: np.ndarray, keep: int) -> np.ndarray:
    """Ascending indices of the ``keep`` largest scores, ties to the
    lowest index: ``np.sort(np.argsort(-score, kind="stable")[:keep])``
    in linear time."""
    if keep == 0:
        return np.empty(0, dtype=np.intp)
    t = np.partition(score, score.size - keep)[score.size - keep]
    mask = score > t
    mask[np.flatnonzero(score == t)[: keep - np.count_nonzero(mask)]] = True
    return np.flatnonzero(mask)


def _csr_from_flat(flat: np.ndarray, values: np.ndarray, m: int, k: int) -> CSRMatrix:
    """CSR straight from strictly ascending row-major keys ``row * k + col``."""
    flat = np.asarray(flat, dtype=np.int64)
    if np.any(np.diff(flat) <= 0):
        raise ValueError("flat indices must be strictly ascending")
    rows, cols = np.divmod(flat, k)
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=rowptr[1:])
    return CSRMatrix((m, k), rowptr, cols, values)


def pruned_magnitude(m: int, k: int, sparsity: float, *, seed: int = 0) -> CSRMatrix:
    """Magnitude-pruned dense weight matrix (DLMC ``magnitude_pruning``):
    draw ``W ~ N(0, 1)`` and keep the largest-magnitude entries so the
    realized sparsity matches ``sparsity`` exactly.

    The surviving pattern is unstructured (near-uniform) but the value
    distribution keeps the Gaussian's tails — kept weights are the large
    ones, unlike :func:`pruned_random`'s unbiased sample.
    """
    sparsity = _check_sparsity(sparsity)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m * k).astype(np.float32)
    flat = _top_k(np.abs(w), _kept_count(m * k, sparsity))
    return _csr_from_flat(flat, w[flat], m, k)


def pruned_random(m: int, k: int, sparsity: float, *, seed: int = 0) -> CSRMatrix:
    """Randomly pruned weight matrix (DLMC ``random_pruning``): an exact
    ``(1 - sparsity)`` fraction of positions survives, drawn uniformly
    without replacement, with Gaussian values."""
    sparsity = _check_sparsity(sparsity)
    rng = np.random.default_rng(seed)
    keep = _kept_count(m * k, sparsity)
    flat = np.sort(rng.choice(m * k, size=keep, replace=False))
    values = rng.standard_normal(keep).astype(np.float32)
    return _csr_from_flat(flat, values, m, k)


def pruned_structured(
    m: int, k: int, sparsity: float, *, block: int = 4, seed: int = 0
) -> CSRMatrix:
    """Block-structured pruning: per-row column blocks of width ``block``
    are kept or dropped whole, by descending block L2 norm of a Gaussian
    weight draw.

    This is the structured-sparsity family of the DLMC taxonomy: the
    surviving pattern has dense runs of ``block`` consecutive columns,
    the clustered locality that locally-dense tiling (ASpT, tensor-core
    routing) exploits and that unstructured pruning destroys.
    """
    sparsity = _check_sparsity(sparsity)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block!r}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float32)
    n_blocks = (k + block - 1) // block
    padded = np.zeros((m, n_blocks * block), dtype=np.float64)
    padded[:, :k] = w
    norms = np.sqrt((padded.reshape(m, n_blocks, block) ** 2).sum(axis=2)).ravel()
    units = _top_k(norms, _kept_count(m * n_blocks, sparsity))
    rows = np.repeat(units // n_blocks, block)
    cols = (units % n_blocks)[:, None] * block + np.arange(block, dtype=np.int64)
    cols = cols.ravel()
    in_range = cols < k  # drop the padding tail of the last block
    rows, cols = rows[in_range], cols[in_range]
    return _csr_from_flat(rows * k + cols, w[rows, cols], m, k)


def erdos_renyi_nnz(m: int, k: int, nnz: int, *, seed: int = 0) -> CSRMatrix:
    """Exactly-``nnz`` Erdős–Rényi matrix via sampling without replacement
    (small matrices only; used by tests that need exact counts)."""
    total = m * k
    if nnz > total:
        raise ValueError("nnz exceeds matrix capacity")
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=nnz, replace=False)
    rows, cols = np.divmod(flat, k)
    vals = rng.standard_normal(nnz).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=(m, k))
