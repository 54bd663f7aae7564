"""Corpus-scale streaming sweeps: lazy matrix specs, sharded execution,
resumable checkpoints, and win-rate roll-ups.

The sweep runner (``repro.bench.runner``) materializes every matrix up
front in a ``Dict[str, CSRMatrix]`` — fine for the paper's dozen
benchmark graphs, hopeless for corpus-scale studies like the Deep
Learning Matrix Collection (DLMC: thousands of pruned-DNN weight
matrices at 50–98% sparsity).  This module adds the missing layer:

* :class:`MatrixSpec` — a frozen, hashable *description* of a matrix
  (generator kind + parameters, or an on-disk file).  Specs are a few
  hundred bytes; the matrix itself is built on demand inside the shard
  that needs it and dropped afterwards, so a corpus of thousands of
  matrices never lives in memory at once.
* Corpus factories — :func:`dlmc_corpus` (magnitude / random /
  structured pruning across a sparsity ladder, the DLMC taxonomy),
  :func:`graph_corpus` (the existing graph generators), and
  :func:`corpus_from_dir` (``.npz`` / MatrixMarket files), plus named
  :data:`CORPUS_PRESETS`.
* :func:`run_corpus_sweep` — partitions the corpus into shards and runs
  each through :func:`repro.bench.runner.run_sweep_with_stats` with
  bounded peak memory: per-shard matrices are built lazily, their
  derived-array caches dropped (:meth:`CSRMatrix.clear_derived`), and
  the process-wide estimate memo cleared at shard boundaries.  When a :class:`~repro.bench.diskcache.
  DiskCache` is active each completed shard is checkpointed under a
  content-addressed key, so a killed sweep resumes with **zero
  recomputation** and a **byte-identical roll-up**: restored shards
  replay the exact cell payload the interrupted run wrote (floats
  round-trip exactly through JSON), and the roll-up accumulator
  consumes computed and restored shards through the same representation.
* The roll-up — schema ``repro/corpus-rollup/v1``: win counts and
  win-rates per kernel, overall and per structural regime
  (:func:`repro.sparse.stats.graph_regime` + mean row-imbalance) and
  per sparsity band.  Host-varying data (wall clock, restored/computed
  split) lives in :class:`CorpusHostStats`, *outside* the roll-up, so
  determinism survives interruption.

See docs/PERFORMANCE.md "Corpus sweeps".
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.bench.diskcache import get_disk_cache
from repro.bench.runner import run_sweep_with_stats
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import SpMMKernel, clear_estimate_memo
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import (
    banded_random,
    power_law,
    pruned_magnitude,
    pruned_random,
    pruned_structured,
    rmat,
    uniform_random,
)
from repro.sparse.io import load_npz, read_matrix_market
from repro.sparse.stats import graph_regime, row_imbalance

__all__ = [
    "ROLLUP_SCHEMA",
    "MatrixSpec",
    "dlmc_corpus",
    "graph_corpus",
    "corpus_from_dir",
    "CORPUS_PRESETS",
    "corpus_preset",
    "partition_shards",
    "CorpusHostStats",
    "CorpusSweepResult",
    "run_corpus_sweep",
    "format_rollup",
]

PathLike = Union[str, Path]

ROLLUP_SCHEMA = "repro/corpus-rollup/v1"

#: DLMC's sparsity ladder (Gale et al.; PyTorch benchmarks/sparse/dlmc).
DLMC_SPARSITIES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98)

#: sparsity-band edges for the roll-up's band axis; labels derived below.
_SPARSITY_BANDS: Tuple[Tuple[str, float, float], ...] = (
    ("s<0.70", 0.0, 0.70),
    ("0.70<=s<0.90", 0.70, 0.90),
    ("s>=0.90", 0.90, 1.01),
)


# ----------------------------------------------------------------------
# Matrix specs: lazy, hashable matrix descriptions
# ----------------------------------------------------------------------

#: kind -> builder(params dict) -> CSRMatrix.  Every builder is a pure,
#: deterministic function of its params, which is what lets a shard be
#: content-addressed by spec keys without building any matrix.
_BUILDERS: Dict[str, Callable[[Dict[str, Any]], CSRMatrix]] = {
    "uniform": lambda p: uniform_random(
        p["m"], p["nnz"], p.get("k"), seed=p.get("seed", 0)
    ),
    "power_law": lambda p: power_law(
        p["m"], p["nnz"], exponent=p.get("exponent", 2.1), seed=p.get("seed", 0)
    ),
    "rmat": lambda p: rmat(
        p["scale"], p.get("edge_factor", 16), seed=p.get("seed", 0)
    ),
    "banded": lambda p: banded_random(
        p["m"], p["nnz"], p["bandwidth"], seed=p.get("seed", 0)
    ),
    "pruned_magnitude": lambda p: pruned_magnitude(
        p["m"], p["k"], p["sparsity"], seed=p.get("seed", 0)
    ),
    "pruned_random": lambda p: pruned_random(
        p["m"], p["k"], p["sparsity"], seed=p.get("seed", 0)
    ),
    "pruned_structured": lambda p: pruned_structured(
        p["m"], p["k"], p["sparsity"], block=p.get("block", 4),
        seed=p.get("seed", 0),
    ),
    "npz": lambda p: load_npz(p["path"]),
    "mtx": lambda p: read_matrix_market(p["path"]),
}

#: kinds whose content lives on disk — their spec keys fold in the
#: file's (size, mtime_ns) so an edited file invalidates its shards.
_FILE_KINDS = frozenset({"npz", "mtx"})


@dataclass(frozen=True)
class MatrixSpec:
    """A lazy matrix description: generator kind + parameters.

    ``params`` is a sorted tuple of ``(name, value)`` pairs with
    primitive values, so specs are hashable, comparable, and reprs are
    stable — the properties the shard checkpoint key relies on.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, kind: str, **params: Any) -> "MatrixSpec":
        if kind not in _BUILDERS:
            raise ValueError(
                f"unknown matrix kind {kind!r}; known: {sorted(_BUILDERS)}"
            )
        for k, v in params.items():
            if v is not None and not isinstance(v, (bool, int, float, str)):
                raise TypeError(
                    f"spec param {k}={v!r} is not a primitive; specs must "
                    "stay cheap and hashable"
                )
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def build(self) -> CSRMatrix:
        """Materialize the matrix (deterministic for generator kinds)."""
        return _BUILDERS[self.kind](dict(self.params))

    def key(self) -> tuple:
        """Content-addressing key for shard checkpoints.

        Generator specs are fully determined by (kind, params); on-disk
        specs additionally fold in the file's size and mtime so a
        changed file misses cleanly instead of replaying stale cells.
        """
        base = (self.name, self.kind, self.params)
        if self.kind in _FILE_KINDS:
            path = dict(self.params)["path"]
            try:
                st = os.stat(path)
                return base + (int(st.st_size), int(st.st_mtime_ns))
            except OSError:
                return base + ("missing",)
        return base


# ----------------------------------------------------------------------
# Corpus factories
# ----------------------------------------------------------------------
def dlmc_corpus(
    shapes: Sequence[Tuple[int, int]] = ((256, 256), (512, 256)),
    sparsities: Sequence[float] = DLMC_SPARSITIES,
    methods: Sequence[str] = ("magnitude", "random", "structured"),
    seeds: Sequence[int] = (0,),
    block: int = 4,
) -> Iterator[MatrixSpec]:
    """DLMC-style pruned-DNN corpus: ``methods x shapes x sparsities x
    seeds`` specs, lazily.  Mirrors the Deep Learning Matrix Collection
    taxonomy (pruning method / sparsity ladder) with synthetic twins."""
    for method in methods:
        kind = f"pruned_{method}"
        if kind not in _BUILDERS:
            raise ValueError(f"unknown pruning method {method!r}")
        for (m, k) in shapes:
            for s in sparsities:
                for seed in seeds:
                    name = f"dlmc/{method}/{m}x{k}/s{s:.2f}/r{seed}"
                    params: Dict[str, Any] = dict(
                        m=int(m), k=int(k), sparsity=float(s), seed=int(seed)
                    )
                    if method == "structured":
                        params["block"] = int(block)
                    yield MatrixSpec.make(name, kind, **params)


def graph_corpus(
    ms: Sequence[int] = (512, 2048),
    degree: int = 10,
    seeds: Sequence[int] = (0,),
) -> Iterator[MatrixSpec]:
    """Graph-structured corpus over the existing generators: uniform
    (Ligra-style), power-law (SNAP-like skew), RMAT (community
    structure), banded (mesh/road locality)."""
    for m in ms:
        nnz = degree * m
        for seed in seeds:
            yield MatrixSpec.make(
                f"graph/uniform/m{m}/r{seed}", "uniform", m=m, nnz=nnz, seed=seed
            )
            yield MatrixSpec.make(
                f"graph/power_law/m{m}/r{seed}", "power_law", m=m, nnz=nnz,
                seed=seed,
            )
            scale = max(int(m).bit_length() - 1, 4)
            yield MatrixSpec.make(
                f"graph/rmat/s{scale}/r{seed}", "rmat", scale=scale,
                edge_factor=min(degree, 16), seed=seed,
            )
            yield MatrixSpec.make(
                f"graph/banded/m{m}/r{seed}", "banded", m=m, nnz=nnz,
                bandwidth=max(degree, 2), seed=seed,
            )


def corpus_from_dir(path: PathLike) -> Iterator[MatrixSpec]:
    """Specs for every ``.npz`` and MatrixMarket file under ``path``
    (sorted, recursive) — the on-disk half of the corpus abstraction:
    point it at a real DLMC/SuiteSparse download and stream it."""
    root = Path(path)
    for f in sorted(root.rglob("*")):
        if not f.is_file():
            continue
        if f.suffix == ".npz":
            kind = "npz"
        elif f.name.endswith((".mtx", ".mtx.gz")):
            kind = "mtx"
        else:
            continue
        rel = f.relative_to(root).as_posix()
        yield MatrixSpec.make(f"file/{rel}", kind, path=str(f))


def _mixed_corpus(seeds: Sequence[int] = (0,)) -> Iterator[MatrixSpec]:
    return itertools.chain(dlmc_corpus(seeds=seeds), graph_corpus(seeds=seeds))


#: named corpora for the CLI; each factory takes ``seeds`` so ``--limit``
#: plus a widened seed range scale the corpus to thousands of specs.
CORPUS_PRESETS: Dict[str, Callable[..., Iterator[MatrixSpec]]] = {
    "dlmc": dlmc_corpus,
    "graphs": graph_corpus,
    "mixed": _mixed_corpus,
}


def corpus_preset(
    name: str, limit: Optional[int] = None, seeds: Sequence[int] = (0,)
) -> List[MatrixSpec]:
    """Materialize the *specs* (not matrices) of a named corpus.

    ``limit`` truncates; when the base grid is smaller than ``limit``
    the seed range is widened until the corpus reaches it, so
    ``corpus_preset("dlmc", 1000)`` really yields 1000 distinct specs.
    """
    if name not in CORPUS_PRESETS:
        raise ValueError(f"unknown corpus preset {name!r}; known: "
                         f"{sorted(CORPUS_PRESETS)}")
    factory = CORPUS_PRESETS[name]
    specs = list(itertools.islice(factory(seeds=seeds), limit))
    seed_hi = max(seeds) if seeds else 0
    while limit is not None and len(specs) < limit:
        seed_hi += 1
        extra = list(factory(seeds=(seed_hi,)))
        if not extra:
            break
        specs.extend(extra[: limit - len(specs)])
    return specs


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def partition_shards(
    specs: Iterable[MatrixSpec],
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> List[List[MatrixSpec]]:
    """Split a corpus into contiguous shards.

    Exactly one of ``shards`` (partition count) or ``shard_size``
    (specs per shard) must be given.  Spec names must be unique — they
    are the graph axis of the roll-up.
    """
    if (shards is None) == (shard_size is None):
        raise ValueError("give exactly one of shards= or shard_size=")
    spec_list = list(specs)
    seen: Dict[str, MatrixSpec] = {}
    for s in spec_list:
        if s.name in seen and seen[s.name] != s:
            raise ValueError(f"duplicate corpus spec name {s.name!r}")
        seen[s.name] = s
    if not spec_list:
        return []
    if shard_size is None:
        assert shards is not None
        shard_size = -(-len(spec_list) // max(int(shards), 1))
    shard_size = max(int(shard_size), 1)
    return [
        spec_list[i : i + shard_size]
        for i in range(0, len(spec_list), shard_size)
    ]


def _shard_key(
    shard: Sequence[MatrixSpec],
    kernels: Sequence[SpMMKernel],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
) -> tuple:
    return (
        "corpus-shard",
        tuple(s.key() for s in shard),
        tuple(k.cache_key() for k in kernels),
        tuple(int(n) for n in widths),
        tuple(g.name for g in gpus),
    )


def _matrix_stats(a: CSRMatrix) -> Dict[str, Any]:
    """The per-matrix structural descriptors the roll-up aggregates on.
    Everything here is a pure function of the matrix (deterministic)."""
    m, k = a.shape
    imb = row_imbalance(a)
    total = m * k
    return {
        "regime": graph_regime(a),
        "row_gini": imb.gini,
        "max_over_mean": imb.max_over_mean,
        "sparsity": 1.0 - (a.nnz / total) if total else 0.0,
        "m": int(m),
        "k": int(k),
        "nnz": int(a.nnz),
    }


def _sparsity_band(sparsity: float) -> str:
    for label, lo, hi in _SPARSITY_BANDS:
        if lo <= sparsity < hi:
            return label
    return _SPARSITY_BANDS[-1][0]


# ----------------------------------------------------------------------
# The streaming driver
# ----------------------------------------------------------------------
@dataclass
class CorpusHostStats:
    """Host-side corpus-sweep statistics.

    Deliberately *not* part of the roll-up: wall clock and the
    computed/restored split vary across (interrupted) runs, and the
    roll-up must stay byte-identical whether or not the sweep was
    resumed.
    """

    shards_total: int = 0
    shards_computed: int = 0
    shards_restored: int = 0
    cells_computed: int = 0
    cells_restored: int = 0
    matrices: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shards_total": self.shards_total,
            "shards_computed": self.shards_computed,
            "shards_restored": self.shards_restored,
            "cells_computed": self.cells_computed,
            "cells_restored": self.cells_restored,
            "matrices": self.matrices,
            "wall_s": self.wall_s,
        }


@dataclass
class CorpusSweepResult:
    """Roll-up (deterministic) plus host stats (machine-varying)."""

    rollup: Dict[str, Any]
    host: CorpusHostStats


def _run_shard(
    shard: Sequence[MatrixSpec],
    kernels: Sequence[SpMMKernel],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
) -> Dict[str, Any]:
    """Build the shard's matrices, sweep them, and return the checkpoint
    payload — run-ordered cell rows plus per-matrix stats.  Matrices and
    their derived caches are dropped before returning, so peak memory is
    one shard's worth regardless of corpus size."""
    graphs: Dict[str, CSRMatrix] = {s.name: s.build() for s in shard}
    try:
        stats = {name: _matrix_stats(a) for name, a in graphs.items()}
        results, _ = run_sweep_with_stats(kernels, graphs, widths, gpus, quiet=True)
        cells = [
            [r.kernel, r.graph, int(r.n), r.gpu, r.time_s, r.gflops]
            for r in results
        ]
        return {"cells": cells, "stats": stats}
    finally:
        for a in graphs.values():
            a.clear_derived()
        graphs.clear()


def run_corpus_sweep(
    specs: Iterable[MatrixSpec],
    kernels: Sequence[SpMMKernel],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = 32,
    # Kept only for perfbench's ``jobs=1`` call; the sweep is single-threaded.
    jobs: int = 1,
    resume: bool = True,
    max_shards: Optional[int] = None,
    progress: Optional[Callable[[int, int, bool], None]] = None,
) -> CorpusSweepResult:
    """Stream a matrix corpus through the sweep runner, shard by shard.

    Memory stays bounded at one shard: matrices are built inside the
    shard, their derived-array caches dropped afterwards, and the
    estimate memo cleared at every shard boundary, so it never holds more
    than one shard's cells.

    With a :class:`~repro.bench.diskcache.DiskCache` active
    (``set_disk_cache`` / ``--cache-dir`` / ``$REPRO_CACHE_DIR``) and
    ``resume=True``, each completed shard is checkpointed; a re-run
    restores finished shards wholesale (zero recomputation) and its
    roll-up is byte-identical to an uninterrupted run's.  ``max_shards``
    stops early after N shards — the knob CI uses to simulate an
    interrupted sweep.

    ``progress`` is called after each shard as ``progress(index,
    total_shards, restored)``.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (the sweep is single-threaded), got {jobs!r}")
    t0 = time.perf_counter()
    kernels = list(kernels)
    widths = [int(n) for n in widths]
    gpus = list(gpus)
    if not kernels or not gpus or not widths:
        raise ValueError("kernels, widths, and gpus must be non-empty")
    if shards is None and shard_size is None:
        shard_size = 32
    shard_list = partition_shards(specs, shards=shards, shard_size=shard_size)

    registry = obs.get_registry()
    host = CorpusHostStats(shards_total=len(shard_list))
    payloads: List[Dict[str, Any]] = []

    for idx, shard in enumerate(shard_list):
        if max_shards is not None and idx >= max_shards:
            break
        cache = get_disk_cache()
        key = _shard_key(shard, kernels, widths, gpus)
        payload = cache.get_shard(key) if (cache and resume) else None
        restored = payload is not None
        if payload is None:
            with obs.span("corpus.shard", index=idx, matrices=len(shard)):
                payload = _run_shard(shard, kernels, widths, gpus)
            if cache is not None:
                cache.put_shard(key, payload)
            host.shards_computed += 1
            host.cells_computed += len(payload["cells"])
            registry.counter("corpus.shards.computed").inc()
            registry.counter("corpus.cells.computed").inc(len(payload["cells"]))
        else:
            host.shards_restored += 1
            host.cells_restored += len(payload["cells"])
            registry.counter("corpus.shards.restored").inc()
            registry.counter("corpus.cells.restored").inc(len(payload["cells"]))
        host.matrices += len(shard)
        payloads.append(payload)
        # Shard boundary: drop the in-process estimate memo so the next
        # shard starts from the same (empty) state an uninterrupted or
        # resumed run would — and so memory cannot accumulate.
        clear_estimate_memo()
        obs.event(
            "corpus.shard.done", index=idx, total=len(shard_list),
            restored=restored, matrices=len(shard),
        )
        if progress is not None:
            progress(idx, len(shard_list), restored)

    rollup = _build_rollup(payloads, kernels, widths, gpus)
    host.wall_s = time.perf_counter() - t0
    for regime, block in rollup["regimes"].items():
        for kernel, rate in block["win_rate"].items():
            registry.gauge(
                "corpus.win_rate", kernel=kernel, regime=regime
            ).set(rate)
    return CorpusSweepResult(rollup=rollup, host=host)


# ----------------------------------------------------------------------
# Roll-up
# ----------------------------------------------------------------------
def _build_rollup(
    payloads: Sequence[Dict[str, Any]],
    kernels: Sequence[SpMMKernel],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
) -> Dict[str, Any]:
    """Aggregate shard payloads into the deterministic roll-up document.

    Consumes the *checkpoint representation* (JSON-safe cell rows), so a
    restored shard contributes bit-identical numbers to a computed one —
    the property behind the byte-identical-resume guarantee.
    """
    kernel_names = [k.name for k in kernels]
    kernel_rank = {name: i for i, name in enumerate(kernel_names)}

    stats: Dict[str, Dict[str, Any]] = {}
    contests: Dict[Tuple[str, int, str], List[Tuple[str, float]]] = {}
    order: List[Tuple[str, int, str]] = []
    for payload in payloads:
        stats.update(payload["stats"])
        for kernel, spec, n, gpu, time_s, _gflops in payload["cells"]:
            ckey = (spec, int(n), gpu)
            if ckey not in contests:
                contests[ckey] = []
                order.append(ckey)
            contests[ckey].append((kernel, float(time_s)))

    def bucket() -> Dict[str, Any]:
        return {
            "matrices": set(),
            "contests": 0,
            "wins": {name: 0 for name in kernel_names},
            "row_gini_sum": 0.0,
            "max_over_mean_sum": 0.0,
            "sparsity_sum": 0.0,
        }

    regimes: Dict[str, Dict[str, Any]] = {}
    bands: Dict[str, Dict[str, Any]] = {}
    overall = bucket()

    for ckey in order:
        spec, _n, _gpu = ckey
        entries = contests[ckey]
        winner = min(
            entries, key=lambda e: (e[1], kernel_rank.get(e[0], len(entries)))
        )[0]
        st = stats.get(spec, {})
        regime = str(st.get("regime", "unknown"))
        band = _sparsity_band(float(st.get("sparsity", 0.0)))
        for acc in (regimes.setdefault(regime, bucket()),
                    bands.setdefault(band, bucket()),
                    overall):
            acc["contests"] += 1
            if winner in acc["wins"]:
                acc["wins"][winner] += 1
            acc["matrices"].add(spec)

    # Sorted, not insertion, order: a restored shard's stats dict comes
    # back key-sorted from the JSON checkpoint while a computed shard's
    # follows shard order — float sums must not depend on which path
    # produced the payload, or byte-identical resume breaks in the ulps.
    for name in sorted(stats):
        st = stats[name]
        regime = str(st.get("regime", "unknown"))
        band = _sparsity_band(float(st.get("sparsity", 0.0)))
        for acc in (regimes.setdefault(regime, bucket()),
                    bands.setdefault(band, bucket()),
                    overall):
            if name in acc["matrices"]:
                acc["row_gini_sum"] += float(st.get("row_gini", 0.0))
                acc["max_over_mean_sum"] += float(st.get("max_over_mean", 0.0))
                acc["sparsity_sum"] += float(st.get("sparsity", 0.0))

    def finish(acc: Dict[str, Any]) -> Dict[str, Any]:
        n_mat = len(acc["matrices"])
        n_con = acc["contests"]
        return {
            "matrices": n_mat,
            "contests": n_con,
            "wins": dict(acc["wins"]),
            "win_rate": {
                name: (acc["wins"][name] / n_con if n_con else 0.0)
                for name in kernel_names
            },
            "mean_row_gini": acc["row_gini_sum"] / n_mat if n_mat else 0.0,
            "mean_max_over_mean": (
                acc["max_over_mean_sum"] / n_mat if n_mat else 0.0
            ),
            "mean_sparsity": acc["sparsity_sum"] / n_mat if n_mat else 0.0,
        }

    return {
        "schema": ROLLUP_SCHEMA,
        "config": {
            "kernels": kernel_names,
            "widths": [int(n) for n in widths],
            "gpus": [g.name for g in gpus],
        },
        "corpus": {
            "matrices": len(stats),
            "shards": len(payloads),
            "contests": len(contests),
        },
        "overall": finish(overall),
        "regimes": {r: finish(acc) for r, acc in sorted(regimes.items())},
        "sparsity_bands": {b: finish(acc) for b, acc in sorted(bands.items())},
    }


def format_rollup(rollup: Dict[str, Any]) -> str:
    """Plain-text rendering of a corpus roll-up (deterministic)."""
    lines: List[str] = []
    corp = rollup["corpus"]
    cfg = rollup["config"]
    lines.append(
        f"corpus: {corp['matrices']} matrices, {corp['shards']} shards, "
        f"{corp['contests']} contests"
    )
    lines.append(
        f"kernels: {', '.join(cfg['kernels'])} | widths: "
        f"{', '.join(str(w) for w in cfg['widths'])} | gpus: "
        f"{', '.join(cfg['gpus'])}"
    )
    for title, blocks in (
        ("overall", {"": rollup["overall"]}),
        ("by regime", rollup["regimes"]),
        ("by sparsity band", rollup["sparsity_bands"]),
    ):
        lines.append("")
        lines.append(f"win rates ({title}):")
        for label, block in blocks.items():
            prefix = f"  {label}: " if label else "  "
            rates = ", ".join(
                f"{k}={block['win_rate'][k]:.3f}" for k in cfg["kernels"]
            )
            lines.append(
                f"{prefix}{rates}  [n={block['contests']}, "
                f"gini={block['mean_row_gini']:.3f}, "
                f"sparsity={block['mean_sparsity']:.3f}]"
            )
    return "\n".join(lines)
