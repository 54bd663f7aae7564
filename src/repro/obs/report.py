"""Bottleneck attribution and performance reports.

This module turns the raw observability exports — span traces, the
metrics registry, and the per-cell ``attribution`` blocks of
``BENCH_spmm.json`` — into the artifacts an engineer actually reads:

* **Profile trees**: spans aggregated by call path into a tree of
  (count, total/self wall time, total/self simulated time) nodes, with a
  deterministic text rendering and a collapsed-stack ``folded`` export
  for speedscope / ``flamegraph.pl``.
* **Performance reports**: ``repro-bench report`` renders a Markdown +
  JSON document from a BENCH file — the bound-by distribution per
  kernel x graph-regime x GPU, roofline placement of every attributed
  cell, the slowest cells per ceiling, geomean speedups, and cache
  hit rates.

Everything here is deterministic: given the same inputs the Markdown and
JSON outputs are byte-identical (no timestamps, all iteration orders
sorted).  Like the rest of ``repro.obs``, importing this module pulls in
nothing from the rest of ``repro``; the roofline placement late-imports
``repro.gpusim`` only when a report is actually generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "REPORT_SCHEMA",
    "ProfileNode",
    "build_profile",
    "render_profile",
    "profile_to_json",
    "to_folded",
    "load_spans_jsonl",
    "load_metrics_jsonl",
    "cache_hit_rates",
    "performance_report",
    "render_report_markdown",
    "render_corpus_markdown",
]

PathLike = Union[str, Path]

REPORT_SCHEMA = "repro/perf-report/v1"

#: the ceilings of the timing model, in the order report tables list them
#: (binding ceilings first, additive tail last) — see repro.gpusim.timing.
CEILING_ORDER = ("dram", "l2_link", "issue", "shared", "compute", "atomics",
                 "sync", "launch")


# ----------------------------------------------------------------------
# Profile trees
# ----------------------------------------------------------------------


@dataclass
class ProfileNode:
    """One call path's aggregate in a profile tree."""

    name: str
    path: Tuple[str, ...]
    count: int = 0
    wall_s: float = 0.0  # total wall time of spans at this path
    sim_s: float = 0.0  # total simulated device time at this path
    errors: int = 0
    children: Dict[str, "ProfileNode"] = field(default_factory=dict)

    @property
    def child_wall_s(self) -> float:
        return sum(c.wall_s for c in self.children.values())

    @property
    def child_sim_s(self) -> float:
        return sum(c.sim_s for c in self.children.values())

    @property
    def self_wall_s(self) -> float:
        """Wall time not accounted to any child path (clamped at 0)."""
        return max(self.wall_s - self.child_wall_s, 0.0)

    @property
    def self_sim_s(self) -> float:
        return max(self.sim_s - self.child_sim_s, 0.0)

    def walk(self) -> Iterable["ProfileNode"]:
        """Depth-first traversal, children in sorted-name order."""
        yield self
        for name in sorted(self.children):
            yield from self.children[name].walk()


def _span_fields(rec: Any) -> Tuple[int, Optional[int], str, float, float, str]:
    """Normalize a SpanRecord or a JSONL span dict to plain fields."""
    if isinstance(rec, dict):
        return (
            int(rec["index"]),
            rec.get("parent"),
            str(rec["name"]),
            float(rec.get("duration_s", 0.0)),
            float(rec.get("sim_time_s", 0.0)),
            str(rec.get("status", "ok")),
        )
    return (rec.index, rec.parent, rec.name, rec.duration_s,
            rec.sim_time_s, rec.status)


def build_profile(spans: Iterable[Any]) -> ProfileNode:
    """Aggregate spans (SpanRecords or JSONL dicts) into a profile tree.

    Spans with the same call path (root-to-span name chain) merge into
    one node; the synthetic root ``<root>`` holds the top-level spans.
    """
    rows = [_span_fields(rec) for rec in spans]
    by_index = {r[0]: r for r in rows}
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(index: int) -> Tuple[str, ...]:
        cached = paths.get(index)
        if cached is not None:
            return cached
        _, parent, name, _, _, _ = by_index[index]
        if parent is None or parent not in by_index:
            p: Tuple[str, ...] = (name,)
        else:
            p = path_of(int(parent)) + (name,)
        paths[index] = p
        return p

    root = ProfileNode(name="<root>", path=())
    for index, _parent, _name, duration, sim, status in sorted(rows):
        node = root
        for part in path_of(index):
            child = node.children.get(part)
            if child is None:
                child = ProfileNode(name=part, path=node.path + (part,))
                node.children[part] = child
            node = child
        node.count += 1
        node.wall_s += duration
        node.sim_s += sim
        if status != "ok":
            node.errors += 1
    # The root totals are the sums of its top-level children so that
    # self-time at the root is zero and percentages have a denominator.
    root.count = sum(c.count for c in root.children.values())
    root.wall_s = root.child_wall_s
    root.sim_s = root.child_sim_s
    return root


def render_profile(root: ProfileNode, max_depth: Optional[int] = None) -> str:
    """Deterministic text table of a profile tree.

    Children print in descending total-wall order (name as tie-break) so
    the hottest path reads top-down.
    """
    lines = [
        f"{'count':>7s} {'wall ms':>10s} {'self ms':>10s} "
        f"{'sim ms':>10s} {'self sim':>10s}  span"
    ]

    def emit(node: ProfileNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        mark = f" [{node.errors} err]" if node.errors else ""
        lines.append(
            f"{node.count:7d} {node.wall_s * 1e3:10.3f} {node.self_wall_s * 1e3:10.3f} "
            f"{node.sim_s * 1e3:10.3f} {node.self_sim_s * 1e3:10.3f}  "
            f"{'  ' * depth}{node.name}{mark}"
        )
        for child in sorted(node.children.values(),
                            key=lambda c: (-c.wall_s, c.name)):
            emit(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda c: (-c.wall_s, c.name)):
        emit(child, 0)
    return "\n".join(lines)


def profile_to_json(root: ProfileNode) -> Dict[str, Any]:
    """JSON-safe nested rendering (children sorted by name)."""
    return {
        "name": root.name,
        "count": root.count,
        "wall_ms": root.wall_s * 1e3,
        "self_wall_ms": root.self_wall_s * 1e3,
        "sim_ms": root.sim_s * 1e3,
        "self_sim_ms": root.self_sim_s * 1e3,
        "errors": root.errors,
        "children": [profile_to_json(root.children[k]) for k in sorted(root.children)],
    }


def to_folded(root: ProfileNode, weight: str = "wall") -> str:
    """Collapsed-stack flamegraph export (``flamegraph.pl`` / speedscope).

    One line per call path — ``a;b;c <microseconds>`` — weighted by
    *self* time so stacking the lines reconstructs totals exactly.
    ``weight`` selects wall-clock (``"wall"``) or simulated device time
    (``"sim"``).  Zero-weight paths are omitted; lines are sorted so the
    export is byte-deterministic.
    """
    if weight not in ("wall", "sim"):
        raise ValueError(f"unknown weight {weight!r} (expected 'wall' or 'sim')")
    lines = []
    for node in root.walk():
        if not node.path:
            continue
        self_s = node.self_wall_s if weight == "wall" else node.self_sim_s
        usec = int(round(self_s * 1e6))
        if usec > 0:
            lines.append(";".join(node.path) + f" {usec}")
    return "\n".join(sorted(lines))


# ----------------------------------------------------------------------
# Telemetry file loaders
# ----------------------------------------------------------------------


def _load_jsonl(path: PathLike, what: str) -> List[Dict[str, Any]]:
    text = Path(path).read_text()
    first = text.lstrip().split("\n", 1)[0]
    if first.startswith("{") and '"traceEvents"' in first:
        raise ValueError(
            f"{path}: looks like Chrome trace-event JSON, not {what} JSONL; "
            f"re-export with a .jsonl suffix (or fmt='jsonl')"
        )
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSONL: {exc}") from exc
    return rows


def load_spans_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Load a span trace written with ``Tracer.write(..., fmt='jsonl')``."""
    return _load_jsonl(path, "span")


def load_metrics_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Load a metrics dump written from ``MetricsRegistry.to_jsonl``."""
    return _load_jsonl(path, "metrics")


def cache_hit_rates(metric_rows: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Hit/miss totals per cache family from metrics-registry rows.

    Any counter pair ``<family>.hits`` / ``<family>.misses`` (summed over
    label sets) becomes one family — this covers ``sweep.memo``,
    ``access_profile``, ``csr.derived_cache`` and ``diskcache`` without a
    hard-coded list.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for row in metric_rows:
        if row.get("type") != "counter":
            continue
        name = str(row.get("name", ""))
        for suffix, slot in ((".hits", "hits"), (".misses", "misses")):
            if name.endswith(suffix):
                fam = totals.setdefault(name[: -len(suffix)],
                                        {"hits": 0.0, "misses": 0.0})
                fam[slot] += float(row.get("value", 0.0))
    out: Dict[str, Dict[str, float]] = {}
    for fam in sorted(totals):
        hits, misses = totals[fam]["hits"], totals[fam]["misses"]
        lookups = hits + misses
        out[fam] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
    return out


def _host_cache_rates(host: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Cache families recorded in a BENCH document's ``run.host`` block."""
    out: Dict[str, Dict[str, float]] = {}
    pairs = {
        "sweep.memo": (host.get("memo_hits"), host.get("memo_misses")),
        "access_profile": (
            (host.get("access_profile") or {}).get("hits"),
            (host.get("access_profile") or {}).get("misses"),
        ),
        "diskcache": (
            (host.get("diskcache") or {}).get("hits"),
            (host.get("diskcache") or {}).get("misses"),
        ),
    }
    for fam in sorted(pairs):
        hits, misses = pairs[fam]
        if hits is None or misses is None:
            continue
        lookups = float(hits) + float(misses)
        out[fam] = {
            "hits": float(hits),
            "misses": float(misses),
            "hit_rate": float(hits) / lookups if lookups else 0.0,
        }
    return out


# ----------------------------------------------------------------------
# Performance report
# ----------------------------------------------------------------------


def _cell_key(cell: Dict[str, Any]) -> str:
    return f"{cell['kernel']}|{cell['graph']}|N={cell['n']}|{cell['gpu']}"


def _roofline_rows(cells: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Place every attributed cell on its GPU's roofline.

    Late-imports ``repro.gpusim`` (the only place this module touches the
    rest of the stack) and skips cells whose GPU is not in
    ``KNOWN_GPUS`` or whose attribution lacks ``factors.link_bytes``.
    """
    from repro.gpusim import KNOWN_GPUS
    from repro.gpusim.roofline import roofline_from_quantities

    rows = []
    for cell in cells:
        attr = cell.get("attribution")
        if not isinstance(attr, dict):
            continue
        gpu = KNOWN_GPUS.get(cell.get("gpu"))
        link_bytes = (attr.get("factors") or {}).get("link_bytes")
        if gpu is None or not link_bytes:
            continue
        time_s = float(cell["time_ms"]) / 1e3
        flops = float(cell["gflops"]) * 1e9 * time_s
        pt = roofline_from_quantities(cell["kernel"], gpu, flops,
                                      float(link_bytes), time_s)
        rows.append(
            {
                "cell": _cell_key(cell),
                "arithmetic_intensity": pt.arithmetic_intensity,
                "achieved_gflops": pt.achieved_gflops,
                "roof_gflops": min(pt.memory_roof_gflops, pt.peak_gflops),
                "roof_utilization": pt.roof_utilization,
                "bound": pt.bound,
            }
        )
    rows.sort(key=lambda r: r["cell"])
    return rows


def performance_report(
    doc: Optional[Dict[str, Any]],
    spans: Optional[Iterable[Any]] = None,
    metrics: Optional[Iterable[Dict[str, Any]]] = None,
    top: int = 3,
    source: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the JSON performance report from a BENCH document.

    ``spans`` / ``metrics`` are optional trace rows (adds a profile tree)
    and metrics rows (adds measured cache hit rates).  With ``doc`` None
    the report holds only those two sections: a profile of a traced run
    needs no BENCH document.  The output is a pure function of the
    inputs — byte-deterministic when serialized with ``sort_keys``.
    """
    report: Dict[str, Any] = {"schema": REPORT_SCHEMA}
    if doc is not None:
        report.update(_bench_sections(doc, top, source))
    if metrics is not None:
        # Measured rates override the run.host snapshot: they describe
        # the telemetry actually handed to this report.
        report["cache"] = cache_hit_rates(metrics)
    if spans is not None:
        report["profile"] = profile_to_json(build_profile(spans))
    return report


def _bench_sections(doc: Dict[str, Any], top: int, source: Optional[str]) -> Dict[str, Any]:
    """The report sections read from a BENCH document."""
    run = doc.get("run", {}) or {}
    cells = [c for c in doc.get("cells", []) if isinstance(c, dict)]
    regimes: Dict[str, str] = dict(run.get("regimes") or {})

    # -- bound-by distribution per (gpu, kernel, regime) ----------------
    dist: Dict[Tuple[str, str, str], Dict[str, int]] = {}
    attributed = 0
    for cell in cells:
        attr = cell.get("attribution")
        if not isinstance(attr, dict):
            continue
        attributed += 1
        key = (cell["gpu"], cell["kernel"],
               regimes.get(cell["graph"], "unknown"))
        counts = dist.setdefault(key, {})
        bound = str(attr.get("bound_by", ""))
        counts[bound] = counts.get(bound, 0) + 1
    bound_by = [
        {"gpu": gpu, "kernel": kernel, "regime": regime,
         "counts": {b: counts[b] for b in sorted(counts)}}
        for (gpu, kernel, regime), counts in sorted(dist.items())
    ]

    # -- slowest cells per binding ceiling ------------------------------
    by_ceiling: Dict[str, List[Dict[str, Any]]] = {}
    for cell in cells:
        attr = cell.get("attribution")
        if not isinstance(attr, dict):
            continue
        bound = str(attr.get("bound_by", ""))
        breakdown = attr.get("breakdown_ms") or {}
        time_ms = float(cell["time_ms"])
        share = (float(breakdown.get(bound, 0.0)) / time_ms) if time_ms else 0.0
        by_ceiling.setdefault(bound, []).append(
            {"cell": _cell_key(cell), "time_ms": time_ms, "ceiling_share": share}
        )
    top_cells = {
        ceiling: sorted(rows, key=lambda r: (-r["time_ms"], r["cell"]))[:top]
        for ceiling, rows in sorted(by_ceiling.items())
    }

    return {
        "source": {
            "path": source,
            "bench_schema": doc.get("schema"),
            "tool": run.get("tool"),
            "version": run.get("version"),
            "kernels": list(run.get("kernels") or []),
            "graphs": list(run.get("graphs") or []),
            "widths": list(run.get("widths") or []),
            "gpus": list(run.get("gpus") or []),
        },
        "coverage": {"cells": len(cells), "attributed": attributed},
        "bound_by": bound_by,
        "top_cells": top_cells,
        "roofline": _roofline_rows(cells),
        "geomeans": [dict(g) for g in doc.get("geomeans", [])
                     if isinstance(g, dict)],
        "cache": _host_cache_rates(run.get("host") or {}),
    }


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    def esc(cell: str) -> str:
        return cell.replace("|", "\\|")  # cell keys embed '|' separators

    lines = ["| " + " | ".join(esc(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(esc(c) for c in row) + " |" for row in rows)
    return lines


def render_report_markdown(report: Dict[str, Any]) -> str:
    """Render a performance report dict as Markdown (deterministic)."""
    out: List[str] = ["# SpMM performance report", ""]
    src = report.get("source")
    if src is None:
        out.append("Generated by `repro-bench report` from telemetry alone "
                   "(no BENCH document).")
    else:
        cov = report.get("coverage", {})
        origin = f"`{src['path']}`" if src.get("path") else "a BENCH document"
        out.append(
            f"Generated by `repro-bench report` from {origin} "
            f"(schema `{src.get('bench_schema')}`, "
            f"{src.get('tool')} {src.get('version')})."
        )
        out.append("")
        out.append(f"- kernels: {', '.join(src.get('kernels', []))}")
        out.append(f"- graphs: {len(src.get('graphs', []))} "
                   f"({', '.join(src.get('graphs', []))})")
        out.append(f"- widths: {', '.join(str(w) for w in src.get('widths', []))}"
                   f" on {', '.join(src.get('gpus', []))}")
        out.append(f"- cells: {cov.get('cells', 0)} "
                   f"({cov.get('attributed', 0)} with attribution)")

    geomeans = report.get("geomeans", [])
    if geomeans:
        out.extend(["", "## Geomean speedups", ""])
        out.extend(_md_table(
            ["target", "baseline", "gpu", "N", "speedup"],
            [[g["target"], g["baseline"], g["gpu"], str(g["n"]),
              f"{g['speedup']:.3f}x"] for g in geomeans],
        ))

    bound_by = report.get("bound_by", [])
    if bound_by:
        ceilings = sorted(
            {b for row in bound_by for b in row["counts"]},
            key=lambda c: (CEILING_ORDER.index(c) if c in CEILING_ORDER
                           else len(CEILING_ORDER), c),
        )
        out.extend(["", "## Bottleneck distribution", ""])
        out.append("Cells per binding ceiling, by GPU, kernel and graph regime.")
        out.append("")
        out.extend(_md_table(
            ["gpu", "kernel", "regime"] + list(ceilings),
            [[row["gpu"], row["kernel"], row["regime"]]
             + [str(row["counts"].get(c, 0)) for c in ceilings]
             for row in bound_by],
        ))

    top_cells = report.get("top_cells", {})
    if top_cells:
        out.extend(["", "## Slowest cells per ceiling"])
        for ceiling in sorted(top_cells):
            out.extend(["", f"### {ceiling}", ""])
            out.extend(_md_table(
                ["cell", "time (ms)", "ceiling share"],
                [[r["cell"], f"{r['time_ms']:.4f}",
                  f"{r['ceiling_share'] * 100:.1f}%"]
                 for r in top_cells[ceiling]],
            ))

    roofline = report.get("roofline", [])
    if roofline:
        out.extend(["", "## Roofline placement", ""])
        out.extend(_md_table(
            ["cell", "AI (flop/B)", "achieved GF/s", "roof GF/s",
             "% of roof", "bound"],
            [[r["cell"], f"{r['arithmetic_intensity']:.3f}",
              f"{r['achieved_gflops']:.1f}", f"{r['roof_gflops']:.1f}",
              f"{r['roof_utilization'] * 100:.0f}%", r["bound"]]
             for r in roofline],
        ))

    cache = report.get("cache", {})
    if cache:
        out.extend(["", "## Cache hit rates", ""])
        out.extend(_md_table(
            ["cache", "hits", "misses", "hit rate"],
            [[fam, f"{c['hits']:.0f}", f"{c['misses']:.0f}",
              f"{c['hit_rate'] * 100:.1f}%"]
             for fam, c in sorted(cache.items())],
        ))

    profile = report.get("profile")
    if profile:
        out.extend(["", "## Profile", ""])
        out.append(f"Span tree: {profile['count']} spans, "
                   f"{profile['wall_ms']:.3f} ms wall, "
                   f"{profile['sim_ms']:.3f} ms simulated.")
        out.append("")
        out.append("```")
        root = _profile_from_json(profile)
        out.append(render_profile(root))
        out.append("```")

    return "\n".join(out) + "\n"


def _profile_from_json(d: Dict[str, Any], path: Tuple[str, ...] = ()) -> ProfileNode:
    """Rebuild a ProfileNode tree from its ``profile_to_json`` form."""
    node_path = path + (d["name"],) if path or d["name"] != "<root>" else ()
    node = ProfileNode(
        name=d["name"],
        path=node_path,
        count=int(d["count"]),
        wall_s=float(d["wall_ms"]) / 1e3,
        sim_s=float(d["sim_ms"]) / 1e3,
        errors=int(d.get("errors", 0)),
    )
    for child in d.get("children", []):
        node.children[child["name"]] = _profile_from_json(child, node_path)
    return node


# ----------------------------------------------------------------------
# Corpus roll-up rendering
# ----------------------------------------------------------------------
def render_corpus_markdown(rollup: Dict[str, Any]) -> str:
    """Render a corpus-sweep roll-up (``repro/corpus-rollup/v1``, see
    ``repro.bench.corpus``) as deterministic Markdown: one win-rate
    table per axis — overall, structural regime (graph_regime +
    row-imbalance means), and sparsity band."""
    cfg = rollup.get("config", {})
    corp = rollup.get("corpus", {})
    kernels: List[str] = list(cfg.get("kernels", []))
    out: List[str] = ["# Corpus sweep roll-up", ""]
    out.append(
        f"{corp.get('matrices', 0)} matrices in {corp.get('shards', 0)} "
        f"shards; {corp.get('contests', 0)} contests over "
        f"{', '.join(kernels)} at widths "
        f"{', '.join(str(w) for w in cfg.get('widths', []))} on "
        f"{', '.join(cfg.get('gpus', []))}."
    )

    def block_rows(blocks: Dict[str, Any]) -> List[List[str]]:
        rows = []
        for label in sorted(blocks):
            b = blocks[label]
            rows.append(
                [label, str(b.get("contests", 0)),
                 f"{b.get('mean_row_gini', 0.0):.3f}",
                 f"{b.get('mean_sparsity', 0.0):.3f}"]
                + [f"{b.get('win_rate', {}).get(k, 0.0):.3f}" for k in kernels]
            )
        return rows

    headers = ["bucket", "contests", "gini", "sparsity"] + kernels
    for title, blocks in (
        ("Overall", {"all": rollup.get("overall", {})}),
        ("By structural regime", rollup.get("regimes", {})),
        ("By sparsity band", rollup.get("sparsity_bands", {})),
    ):
        out.extend(["", f"## {title} win rates", ""])
        out.extend(_md_table(headers, block_rows(blocks)))
    return "\n".join(out) + "\n"
