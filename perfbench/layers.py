"""Per-layer attribution for the traced benchmark run.

The layers are measured from outside: :class:`Instrument` wraps the
public functions of each layer in a ``repro.obs`` span.  A ``from x
import f`` copies the binding into the importing module, so each wrapper
is installed on every ``repro`` module attribute that holds the original
(``repro.gnn.aggregate.segment_max_with_argmax`` as well as
``repro.sparse.segment.segment_max_with_argmax``), and methods are
patched on the class that defines them.  Leaving the block restores
every original.

Spans the program records on its own (``train.epoch``, ``sweep.cell``,
...) stay in the trace but are folded into the nearest benchmark span
before :func:`repro.obs.build_profile` computes self times, so a layer's
self time excludes exactly the other layers nested inside it.  Counts are
read from the metrics registry, which the harness replaces with a fresh
one for every iteration.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

from repro import obs

__all__ = ["ITERATION", "PER_LAYER", "Instrument", "layer_metrics"]

#: span the harness opens around every timed section of an iteration
ITERATION = "bench.iteration"

#: every per-layer metric, in report order: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "segment.max_argmax.busy_s": ("s", "lower"),
    "segment.spmm.busy_s": ("s", "lower"),
    "segment.calls": ("count", "lower"),
    "segment.tiles": ("count", "lower"),
    # Computed from nnz, N and the float32 dtype, not measured:
    # one combine per (nonzero, column); bytes = gathered operand rows +
    # written output + int64 column index and float32 value per nonzero.
    "segment.ops": ("ops-computed", "lower"),
    "segment.bytes": ("B-computed", "lower"),
    "segment.gops_per_s": ("Gop/s", "higher"),
    "segment.workspace.reuse_ratio": ("ratio", "higher"),
    "segment.workspace.bytes_peak": ("B", "lower"),
    "gnn.aggregate.fwd_s": ("s", "lower"),
    "gnn.aggregate.bwd_s": ("s", "lower"),
    "gnn.dense.busy_s": ("s", "lower"),
    "gnn.optimizer.busy_s": ("s", "lower"),
    "csr.transform.busy_s": ("s", "lower"),
    "train.unattributed_frac": ("ratio", "lower"),
    "sim.estimate.busy_s": ("s", "lower"),
    "sim.estimate.calls": ("count", "lower"),
    "sim.estimate.memo_hit_ratio": ("ratio", "higher"),
    "sim.count.busy_s": ("s", "lower"),
    "sim.access_profile.builds": ("count", "lower"),
    "csr.build.busy_s": ("s", "lower"),
    "csr.derived.misses": ("count", "lower"),
    "delta.apply.busy_s": ("s", "lower"),
    "delta.rows_touched": ("count", "lower"),
    "delta.invalidate.busy_s": ("s", "lower"),
    "delta.invalidated": ("count", "lower"),
    "tuning.rekey.busy_s": ("s", "lower"),
    "tuning.reselections": ("count", "lower"),
    "sweep.self_s": ("s", "lower"),
    "sweep.cells_per_s": ("1/s", "higher"),
    "corpus.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_SEGMENT_SPANS = ("segment.spmm", "segment.max_argmax")


def _function_targets() -> Dict[str, List[Callable]]:
    from repro.bench import corpus, runner
    from repro.gnn import aggregate, functional
    from repro.sparse import csr, delta, ops, segment

    return {
        "segment.max_argmax": [segment.segment_max_with_argmax],
        "segment.spmm": [segment.segment_spmm_like, segment.segment_spmm_like_multi,
                         ops.reference_spmm_like, ops.reference_spmm_like_multi],
        "gnn.aggregate.fwd": [aggregate.aggregate_sum, aggregate.aggregate_max],
        "gnn.dense": [functional.matmul, functional.add_bias, functional.relu,
                      functional.dropout, functional.log_softmax,
                      functional.nll_loss, functional.concat],
        "csr.build": [csr.csr_from_coo],
        "delta.apply": [delta.apply_delta],
        "delta.invalidate": [delta.invalidate_matrix_caches],
        "sweep": [runner.run_sweep_with_stats],
        "corpus": [corpus.run_corpus_sweep],
    }


def _method_targets() -> Dict[str, List[Tuple[type, str]]]:
    import repro.baselines  # noqa: F401  (registers every kernel class)
    import repro.core  # noqa: F401
    from repro.bench.corpus import MatrixSpec
    from repro.core.tuning import TunedSpMM
    from repro.gnn.training import Adam
    from repro.gpusim.kernel import SpMMKernel
    from repro.sparse.csr import CSRMatrix

    kernels, stack = [], [SpMMKernel]
    while stack:
        cls = stack.pop()
        if cls not in kernels:
            kernels.append(cls)
            stack.extend(cls.__subclasses__())
    return {
        "csr.transform": [(CSRMatrix, m) for m in
                          ("transpose", "add_self_loops", "sym_normalized", "row_normalized")],
        "csr.build": [(MatrixSpec, "build")],
        "gnn.optimizer": [(Adam, "step")],
        "tuning.rekey": [(TunedSpMM, "rekey_after_delta")],
        "sim.estimate": [(k, "estimate") for k in kernels if "estimate" in vars(k)],
        "sim.count": [(k, "count") for k in kernels if "count" in vars(k)],
    }


def _owners(fn: Callable) -> Iterable[Tuple[object, str]]:
    """Every ``repro`` module attribute bound to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def _spanned(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


class Instrument:
    """Installs the layer spans for the duration of a ``with`` block and
    accumulates the computed host-executor work (``ops``, ``bytes``)."""

    def __init__(self) -> None:
        self.ops = 0
        self.bytes = 0
        self._segment_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrument":
        functions, methods = _function_targets(), _method_targets()
        #: every span name the benchmark opens
        self.span_names = {ITERATION, "gnn.aggregate.bwd"} | set(functions) | set(methods)
        for name, fns in functions.items():
            for fn in fns:
                wrapper = self._wrapper(name, fn)
                for owner, attr in list(_owners(fn)):
                    self._patch(owner, attr, wrapper)
        for name, targets in methods.items():
            for cls, attr in targets:
                self._patch(cls, attr, self._wrapper(name, vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset_counts(self) -> None:
        self.ops = self.bytes = 0

    def _patch(self, owner: object, attr: str, value: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        if name in _SEGMENT_SPANS:
            return self._segment_wrapper(name, fn)
        if name == "gnn.aggregate.fwd":
            return _backward_spanned(name, "gnn.aggregate.bwd", fn)
        if name == "gnn.dense":
            return _backward_spanned(name, "gnn.dense", fn)
        return _spanned(name, fn)

    def _segment_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            if self._segment_depth == 0:  # count each traversal once
                for operand in (b if isinstance(b, (list, tuple)) else [b]):
                    n = operand.shape[1]
                    self.ops += a.nnz * n
                    self.bytes += 4 * (a.nnz * n + a.nrows * n) + 12 * a.nnz
            self._segment_depth += 1
            try:
                with obs.span(name):
                    return fn(a, b, *args, **kwargs)
            finally:
                self._segment_depth -= 1

        return wrapper


def _backward_spanned(name: str, backward_name: str, fn: Callable) -> Callable:
    """Span an op and the backward closure of the tensor it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            out = fn(*args, **kwargs)
        # An op may hand back its input (dropout when not training).
        if out._backward is not None and not any(out is a for a in args):
            out._backward = _spanned(backward_name, out._backward)
        return out

    return wrapper


# ----------------------------------------------------------------------
# Metrics of one traced iteration
# ----------------------------------------------------------------------
def _layer_profile(records, kept_names) -> obs.ProfileNode:
    """Profile tree of the benchmark's own spans only: program spans are
    dropped and their children re-parented to the nearest kept span."""
    by_index = {r.index: r for r in records}
    rows = []
    for r in records:
        if r.name not in kept_names:
            continue
        parent = r.parent
        while parent is not None and by_index[parent].name not in kept_names:
            parent = by_index[parent].parent
        rows.append({"index": r.index, "parent": parent, "name": r.name,
                     "duration_s": r.duration_s})
    return obs.build_profile(rows)


def _busy(node: obs.ProfileNode, name: str) -> float:
    """Wall time of the outermost ``name`` spans under ``node``."""
    return sum(child.wall_s if child.name == name else _busy(child, name)
               for child in node.children.values())


def _self(node: obs.ProfileNode, name: str) -> float:
    return sum(n.self_wall_s for n in node.walk() if n.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_totals(registry: obs.MetricsRegistry) -> Dict[str, float]:
    """Counter values summed over their labels."""
    totals: Dict[str, float] = defaultdict(float)
    for row in registry.snapshot():
        if row["type"] == "counter":
            totals[row["name"]] += row["value"]
    return totals


def layer_metrics(records, registry: obs.MetricsRegistry,
                  instrument: Instrument) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (everything in
    :data:`PER_LAYER` except the run-level ``segment.workspace.bytes_peak``
    and ``trace.overhead_frac``).  Only the iteration's timed sections
    count; spans opened by output checks fall outside them."""
    it = _layer_profile(records, instrument.span_names).children[ITERATION]
    c = counter_totals(registry)
    seg_busy = _busy(it, "segment.spmm") + _busy(it, "segment.max_argmax")
    reuses, allocs = c["segment.workspace.reuses"], c["segment.workspace.allocs"]
    hits, misses = c["kernel.estimate_memo.hits"], c["kernel.estimate_memo.misses"]
    sweep_busy = _busy(it, "sweep")
    return {
        "segment.max_argmax.busy_s": _busy(it, "segment.max_argmax"),
        "segment.spmm.busy_s": _busy(it, "segment.spmm"),
        "segment.calls": c["segment.reduce_calls"],
        "segment.tiles": c["segment.tiles"],
        "segment.ops": float(instrument.ops),
        "segment.bytes": float(instrument.bytes),
        "segment.gops_per_s": _ratio(instrument.ops / 1e9, seg_busy),
        "segment.workspace.reuse_ratio": _ratio(reuses, reuses + allocs),
        "gnn.aggregate.fwd_s": _self(it, "gnn.aggregate.fwd"),
        "gnn.aggregate.bwd_s": _busy(it, "gnn.aggregate.bwd"),
        "gnn.dense.busy_s": _busy(it, "gnn.dense"),
        "gnn.optimizer.busy_s": _busy(it, "gnn.optimizer"),
        "csr.transform.busy_s": _busy(it, "csr.transform"),
        "train.unattributed_frac": _ratio(it.self_wall_s, it.wall_s),
        "sim.estimate.busy_s": _busy(it, "sim.estimate"),
        "sim.estimate.calls": hits + misses,
        "sim.estimate.memo_hit_ratio": _ratio(hits, hits + misses),
        "sim.count.busy_s": _busy(it, "sim.count"),
        "sim.access_profile.builds": c["access_profile.misses"],
        "csr.build.busy_s": _busy(it, "csr.build"),
        "csr.derived.misses": c["csr.derived_cache.misses"],
        "delta.apply.busy_s": _busy(it, "delta.apply"),
        "delta.rows_touched": c["delta.rows_touched"],
        "delta.invalidate.busy_s": _busy(it, "delta.invalidate"),
        "delta.invalidated": c["delta.invalidated"],
        "tuning.rekey.busy_s": _busy(it, "tuning.rekey"),
        "tuning.reselections": c["tuning.tuned_spmm.reselections"],
        "sweep.self_s": _self(it, "sweep"),
        "sweep.cells_per_s": _ratio(c["sweep.memo.hits"] + c["sweep.memo.misses"], sweep_busy),
        "corpus.self_s": _self(it, "corpus"),
    }
