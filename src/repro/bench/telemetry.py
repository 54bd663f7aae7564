"""Machine-readable benchmark telemetry: the ``BENCH_spmm.json`` artifact.

The text tables under ``benchmarks/results/`` are for human eyes; this
module serializes the same sweep into one schema-versioned JSON document
so the performance trajectory of the repo becomes *diffable across
commits*: run metadata, one cell per ``(kernel, graph, n, gpu)`` point,
and the geomean speedups the paper headlines.

The document is deterministic byte for byte: simulated times are
deterministic and no wall-clock value or timestamp is embedded, so
regenerating it on an unchanged tree reproduces the file exactly.  The
optional ``run.host`` block that ``repro-bench sweep`` writes holds only
serial counters (cells, memo and access-profile hits/misses, disk-cache
counters); the sweep's wall time and cells/s go to stderr.  The
regression gate (``repro.bench.gate``) diffs cells and geomeans only.

``make telemetry`` regenerates the repo-root ``BENCH_spmm.json`` via
``repro-bench sweep --bench-json``; :func:`write_bench_json` is the only
writer of that file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.bench.runner import KernelResult, geomean, speedup_series

__all__ = [
    "SCHEMA_ID",
    "bench_document",
    "write_bench_json",
    "validate_bench_document",
    "validate_corpus_rollup",
    "write_corpus_rollup",
]

PathLike = Union[str, Path]

SCHEMA_ID = "repro/bench-spmm/v1"

#: required cell fields -> type checker
_CELL_FIELDS = {
    "kernel": str,
    "graph": str,
    "n": int,
    "gpu": str,
    "time_ms": (int, float),
    "gflops": (int, float),
}

#: required sub-fields of the optional per-cell ``attribution`` block
#: (the bottleneck-attribution data the gate ignores by default but
#: ``repro-bench report`` / ``gate --explain`` consume).
_ATTRIBUTION_FIELDS = {
    "bound_by": str,
    "breakdown_ms": dict,
    "factors": dict,
}

_GEOMEAN_FIELDS = {
    "target": str,
    "baseline": str,
    "gpu": str,
    "n": int,
    "speedup": (int, float),
}


def bench_document(
    results: Sequence[KernelResult],
    target: str = "GE-SpMM",
    baselines: Optional[Sequence[str]] = None,
    extra_run_meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the BENCH document from sweep results.

    ``target`` is the kernel whose geomean speedups are reported against
    every kernel in ``baselines`` (default: every other kernel in the
    sweep), per (GPU, N) — the aggregation the paper uses (§V-A1).
    """
    results = list(results)
    kernels = sorted({r.kernel for r in results})
    graphs = sorted({r.graph for r in results})
    widths = sorted({int(r.n) for r in results})
    gpus = sorted({r.gpu for r in results})
    if baselines is None:
        baselines = [k for k in kernels if k != target]

    cells: List[Dict[str, Any]] = []
    for r in sorted(results, key=lambda r: (r.gpu, r.graph, int(r.n), r.kernel)):
        cell: Dict[str, Any] = {
            "kernel": r.kernel,
            "graph": r.graph,
            "n": int(r.n),
            "gpu": r.gpu,
            "time_ms": r.time_s * 1e3,
            "gflops": r.gflops,
        }
        if getattr(r, "attribution", None) is not None:
            cell["attribution"] = r.attribution
        cells.append(cell)

    geomeans: List[Dict[str, Any]] = []
    if target in kernels:
        for gpu in gpus:
            for n in widths:
                for base in baselines:
                    series = speedup_series(results, target, base, gpu, n)
                    if not series:
                        continue
                    geomeans.append(
                        {
                            "target": target,
                            "baseline": base,
                            "gpu": gpu,
                            "n": int(n),
                            "speedup": geomean(series.values()),
                        }
                    )

    from repro import __version__  # late import: repro imports bench

    run: Dict[str, Any] = {
        "tool": "repro-bench",
        "version": __version__,
        "kernels": kernels,
        "graphs": graphs,
        "widths": widths,
        "gpus": gpus,
    }
    run.update(extra_run_meta or {})
    return {"schema": SCHEMA_ID, "run": run, "cells": cells, "geomeans": geomeans}


def write_bench_json(
    results: Sequence[KernelResult],
    path: PathLike,
    target: str = "GE-SpMM",
    baselines: Optional[Sequence[str]] = None,
    extra_run_meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize sweep results to ``path`` and return the document.

    The file's contents depend on the arguments alone: whatever ``path``
    held before is overwritten, not merged.
    """
    doc = bench_document(results, target=target, baselines=baselines,
                         extra_run_meta=extra_run_meta)
    errors = validate_bench_document(doc)
    if errors:  # defensive: a writer bug must not silently ship bad telemetry
        raise ValueError("invalid BENCH document: " + "; ".join(errors))
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def validate_corpus_rollup(doc: Any) -> List[str]:
    """Validate a corpus roll-up (``repro/corpus-rollup/v1``) document.

    Like :func:`validate_bench_document`: returns human-readable
    problems, empty list = valid.  Checks the invariants resume
    correctness rests on — win counts summing to contests, finite
    means, every kernel present in every win-rate block.
    """
    from repro.bench.corpus import ROLLUP_SCHEMA  # late: corpus imports runner

    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != ROLLUP_SCHEMA:
        errors.append(f"schema must be {ROLLUP_SCHEMA!r}, got {doc.get('schema')!r}")
    cfg = doc.get("config")
    kernels: List[str] = []
    if not isinstance(cfg, dict):
        errors.append("config: missing or not an object")
    else:
        for key in ("kernels", "widths", "gpus"):
            if not isinstance(cfg.get(key), list) or not cfg.get(key):
                errors.append(f"config.{key}: missing or empty list")
        kernels = [k for k in cfg.get("kernels", []) if isinstance(k, str)]
    if not isinstance(doc.get("corpus"), dict):
        errors.append("corpus: missing or not an object")

    def check_block(block: Any, where: str) -> None:
        if not isinstance(block, dict):
            errors.append(f"{where}: expected object")
            return
        wins, rates = block.get("wins"), block.get("win_rate")
        if not isinstance(wins, dict) or not isinstance(rates, dict):
            errors.append(f"{where}: missing wins/win_rate")
            return
        for k in kernels:
            if k not in wins or k not in rates:
                errors.append(f"{where}: kernel {k!r} missing")
        contests = block.get("contests")
        if isinstance(contests, int) and sum(wins.values()) != contests:
            errors.append(
                f"{where}: wins sum {sum(wins.values())} != contests {contests}"
            )
        for field in ("mean_row_gini", "mean_max_over_mean", "mean_sparsity"):
            v = block.get(field)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v):
                errors.append(f"{where}.{field}: bad value {v!r}")

    check_block(doc.get("overall"), "overall")
    for section in ("regimes", "sparsity_bands"):
        blocks = doc.get(section)
        if not isinstance(blocks, dict):
            errors.append(f"{section}: missing or not an object")
            continue
        for label, block in blocks.items():
            check_block(block, f"{section}[{label!r}]")
    return errors


def write_corpus_rollup(rollup: Dict[str, Any], path: PathLike) -> None:
    """Serialize a corpus roll-up deterministically (sorted keys, no
    host data) — two runs over the same corpus/config produce
    byte-identical files, interrupted-and-resumed included."""
    errors = validate_corpus_rollup(rollup)
    if errors:  # defensive, same contract as write_bench_json
        raise ValueError("invalid corpus roll-up: " + "; ".join(errors))
    Path(path).write_text(json.dumps(rollup, indent=2, sort_keys=True) + "\n")


def _check_fields(obj: Any, fields: Dict[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected object, got {type(obj).__name__}")
        return
    for name, typ in fields.items():
        if name not in obj:
            errors.append(f"{where}: missing field {name!r}")
        elif not isinstance(obj[name], typ) or isinstance(obj[name], bool):
            errors.append(f"{where}.{name}: wrong type {type(obj[name]).__name__}")
        elif isinstance(obj[name], float) and not math.isfinite(obj[name]):
            # NaN/inf would poison every downstream drift ratio and does
            # not survive strict JSON round-trips.
            errors.append(f"{where}.{name}: non-finite value {obj[name]!r}")
        elif name in ("time_ms", "gflops", "speedup") and obj[name] < 0:
            errors.append(f"{where}.{name}: negative value {obj[name]!r}")


def _check_attribution(attr: Any, where: str, errors: List[str]) -> None:
    """Validate one optional per-cell attribution block.

    The block is gate-ignored by default but must still be well-formed:
    reports and ``gate --explain`` read it blind, and a NaN smuggled in
    through it would break the byte-determinism contract of the
    document.
    """
    if not isinstance(attr, dict):
        errors.append(f"{where}: expected object, got {type(attr).__name__}")
        return
    for name, typ in _ATTRIBUTION_FIELDS.items():
        if name not in attr:
            errors.append(f"{where}: missing field {name!r}")
        elif not isinstance(attr[name], typ) or isinstance(attr[name], bool):
            errors.append(f"{where}.{name}: wrong type {type(attr[name]).__name__}")
    for block in ("breakdown_ms", "factors"):
        values = attr.get(block)
        if not isinstance(values, dict):
            continue
        for comp, value in values.items():
            w = f"{where}.{block}[{comp!r}]"
            if not isinstance(comp, str):
                errors.append(f"{w}: component names must be strings")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{w}: wrong type {type(value).__name__}")
            elif not math.isfinite(value):
                errors.append(f"{w}: non-finite value {value!r}")
            elif value < 0:
                errors.append(f"{w}: negative value {value!r}")
    bound = attr.get("bound_by")
    breakdown = attr.get("breakdown_ms")
    if (
        isinstance(bound, str)
        and isinstance(breakdown, dict)
        and bound not in breakdown
    ):
        errors.append(f"{where}.bound_by: {bound!r} not in breakdown_ms")


def validate_bench_document(doc: Any) -> List[str]:
    """Validate a BENCH document against the v1 schema.

    Returns a list of human-readable problems; an empty list means the
    document is valid.  Hand-rolled (no jsonschema dependency) but strict
    about everything downstream diff tooling relies on.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}")

    run = doc.get("run")
    if not isinstance(run, dict):
        errors.append("run: missing or not an object")
    else:
        for key in ("tool", "version"):
            if not isinstance(run.get(key), str):
                errors.append(f"run.{key}: missing or not a string")
        for key in ("kernels", "graphs", "widths", "gpus"):
            if not isinstance(run.get(key), list) or not run.get(key):
                errors.append(f"run.{key}: missing or empty list")

    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells: missing or empty list")
    else:
        for i, cell in enumerate(cells):
            _check_fields(cell, _CELL_FIELDS, f"cells[{i}]", errors)
            if isinstance(cell, dict) and "attribution" in cell:
                _check_attribution(
                    cell["attribution"], f"cells[{i}].attribution", errors
                )
        seen = set()
        for cell in cells:
            if isinstance(cell, dict):
                key = (cell.get("kernel"), cell.get("graph"), cell.get("n"), cell.get("gpu"))
                if key in seen:
                    errors.append(f"cells: duplicate cell for {key}")
                seen.add(key)

    geomeans = doc.get("geomeans")
    if not isinstance(geomeans, list):
        errors.append("geomeans: missing (use [] when no baselines)")
    else:
        for i, g in enumerate(geomeans):
            _check_fields(g, _GEOMEAN_FIELDS, f"geomeans[{i}]", errors)
    return errors
