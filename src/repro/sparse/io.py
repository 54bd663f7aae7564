"""Sparse-matrix I/O: MatrixMarket and SNAP edge lists.

The paper's suite comes from two ecosystems — the SuiteSparse Matrix
Collection distributes MatrixMarket (``.mtx``) files and SNAP distributes
whitespace edge lists (``.txt``, ``#`` comments).  This module reads and
writes both, so the library runs on the *real* datasets when a user has
them, and the synthetic twins otherwise; plus a compact ``.npz``
container for fast local caching.

Readers are streaming-friendly (NumPy ``loadtxt``-free: manual buffered
parsing keeps memory proportional to nnz) and validate the header
contract they claim to implement (general/symmetric coordinate real or
pattern matrices for MatrixMarket).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from repro.sparse.csr import CSRMatrix, csr_from_coo

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_snap_edgelist",
    "write_snap_edgelist",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str = "rt") -> TextIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


# ----------------------------------------------------------------------
# MatrixMarket
# ----------------------------------------------------------------------


def read_matrix_market(path: PathLike) -> CSRMatrix:
    """Read a MatrixMarket coordinate file (real or pattern; general,
    symmetric or skew-symmetric) into CSR."""
    with _open_text(path) as f:
        header = f.readline().strip().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise ValueError(f"not a MatrixMarket matrix file: {path}")
        fmt, field, symmetry = header[2], header[3], header[4]
        if fmt != "coordinate":
            raise ValueError("only coordinate (sparse) MatrixMarket is supported")
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise ValueError(f"unsupported symmetry {symmetry!r}")

        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        m, k, nnz = (int(tok) for tok in line.split())

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.ones(nnz, dtype=np.float32)
        for i in range(nnz):
            parts = f.readline().split()
            if len(parts) < 2:
                raise ValueError(f"truncated MatrixMarket file at entry {i}")
            rows[i] = int(parts[0]) - 1  # 1-based on disk
            cols[i] = int(parts[1]) - 1
            if field != "pattern" and len(parts) > 2:
                vals[i] = float(parts[2])

    if symmetry in ("symmetric", "skew-symmetric"):
        # Mirror the strictly-off-diagonal entries.
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        all_rows = np.concatenate([rows, cols[off]])
        all_cols = np.concatenate([cols, rows[off]])
        all_vals = np.concatenate([vals, sign * vals[off]]).astype(np.float32)
        return csr_from_coo(all_rows, all_cols, all_vals, shape=(m, k), sum_duplicates=True)
    return csr_from_coo(rows, cols, vals, shape=(m, k))


def write_matrix_market(a: CSRMatrix, path: PathLike, comment: Optional[str] = None) -> None:
    """Write ``a`` as a general real coordinate MatrixMarket file."""
    rows, cols, vals = a.to_coo()
    with _open_text(path, "wt") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                f.write(f"% {line}\n")
        f.write(f"{a.nrows} {a.ncols} {a.nnz}\n")
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            f.write(f"{r + 1} {c + 1} {v:.7g}\n")


# ----------------------------------------------------------------------
# SNAP edge lists
# ----------------------------------------------------------------------


def read_snap_edgelist(
    path: PathLike,
    *,
    n_nodes: Optional[int] = None,
    undirected: bool = False,
) -> CSRMatrix:
    """Read a SNAP-style edge list (``src dst`` per line, ``#`` comments).

    Node ids are used verbatim (SNAP files are 0-based but sometimes
    sparse in id space); ``n_nodes`` overrides the inferred dimension.
    With ``undirected=True`` each edge is mirrored.
    """
    srcs, dsts = [], []
    with _open_text(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
    rows = np.asarray(srcs, dtype=np.int64)
    cols = np.asarray(dsts, dtype=np.int64)
    if rows.size and (rows.min() < 0 or cols.min() < 0):
        raise ValueError("negative node id in edge list")
    n = n_nodes if n_nodes is not None else (int(max(rows.max(), cols.max())) + 1 if rows.size else 0)
    if undirected:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return csr_from_coo(rows, cols, np.ones(rows.size, dtype=np.float32),
                        shape=(n, n), sum_duplicates=True)


def write_snap_edgelist(a: CSRMatrix, path: PathLike, comment: Optional[str] = None) -> None:
    """Write the pattern of ``a`` as a SNAP edge list."""
    rows, cols, _ = a.to_coo()
    with _open_text(path, "wt") as f:
        if comment:
            for line in comment.splitlines():
                f.write(f"# {line}\n")
        f.write(f"# Nodes: {a.nrows} Edges: {a.nnz}\n")
        for r, c in zip(rows.tolist(), cols.tolist()):
            f.write(f"{r}\t{c}\n")


# ----------------------------------------------------------------------
# Fast local cache
# ----------------------------------------------------------------------


def save_npz(a: CSRMatrix, path: PathLike) -> None:
    """Compact binary container (NumPy .npz) for fast reloads."""
    np.savez_compressed(
        path,
        shape=np.asarray(a.shape, dtype=np.int64),
        rowptr=a.rowptr,
        colind=a.colind,
        values=a.values,
    )


def load_npz(path: PathLike) -> CSRMatrix:
    with np.load(path) as z:
        return CSRMatrix(tuple(z["shape"]), z["rowptr"], z["colind"], z["values"])
