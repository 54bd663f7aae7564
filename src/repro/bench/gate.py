"""Benchmark regression gate over ``repro/bench-spmm/v1`` documents.

``BENCH_spmm.json`` (written by ``make telemetry``) is byte-deterministic,
so any difference between the committed document and a freshly
regenerated one is a *real* kernel/timing-model change, not noise.  This
module turns that property into a CI gate: :func:`diff_documents`
compares two BENCH documents cell by cell (time and GFLOPS), geomean by
geomean, flags added/removed cells, and classifies every
beyond-tolerance drift as either

* **regressed** — unexplained drift; the gate fails, or
* **accepted** — covered by an entry in an *accepted-drift* annotation
  file (schema ``repro/bench-drift/v1``), so an intentional model change
  ships with a recorded explanation instead of a silently refreshed
  baseline.

The report is deterministic in both renderings (:meth:`GateReport.format`
for humans, :meth:`GateReport.to_json` for tooling), and the CLI wrapper
(``repro-bench gate``, ``make gate``) maps the outcome onto CI-friendly
exit codes: 0 pass, 1 regression, 2 unusable input.  Cells are keyed
``kernel|graph|N=<n>|gpu`` (:func:`measurement_key`), the form
accepted-drift patterns glob against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.telemetry import validate_bench_document

__all__ = [
    "DRIFT_SCHEMA_ID",
    "REPORT_SCHEMA_ID",
    "EXIT_OK",
    "EXIT_REGRESSED",
    "EXIT_USAGE",
    "GateError",
    "GateThresholds",
    "AcceptedDrift",
    "Drift",
    "GateReport",
    "measurement_key",
    "load_bench_document",
    "load_accepted_drift",
    "geomean_key",
    "diff_documents",
    "explain_attribution_drift",
    "gate_paths",
]

PathLike = Union[str, Path]

DRIFT_SCHEMA_ID = "repro/bench-drift/v1"
REPORT_SCHEMA_ID = "repro/bench-gate-report/v1"

#: CI exit codes: pass / unexplained drift / unusable input.
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_USAGE = 2

#: metric names a drift record (and an annotation's ``metrics`` filter)
#: can carry.  ``presence`` covers added/removed cells and geomeans.
METRICS = ("time_ms", "gflops", "speedup", "presence")


class GateError(ValueError):
    """Unusable gate input (missing file, invalid document/annotation)."""


@dataclass(frozen=True)
class GateThresholds:
    """Relative tolerances, one per compared quantity.

    Simulated times are deterministic, so these guard against *model*
    drift, not measurement noise — they exist so that an intentional,
    annotated change to one kernel does not fail every downstream geomean
    by an epsilon.
    """

    time_rel_tol: float = 0.0
    gflops_rel_tol: float = 0.0
    geomean_rel_tol: float = 0.0

    def for_metric(self, metric: str) -> float:
        if metric == "time_ms":
            return self.time_rel_tol
        if metric == "gflops":
            return self.gflops_rel_tol
        if metric == "speedup":
            return self.geomean_rel_tol
        return 0.0  # presence: any change is a drift

    def to_json(self) -> Dict[str, float]:
        return {
            "time_rel_tol": self.time_rel_tol,
            "gflops_rel_tol": self.gflops_rel_tol,
            "geomean_rel_tol": self.geomean_rel_tol,
        }


@dataclass(frozen=True)
class AcceptedDrift:
    """One annotation: drift matching ``pattern`` is intentional.

    ``pattern`` is an ``fnmatch``-style glob over the drift key (cell
    keys look like ``kernel|graph|N=128|GTX 1080Ti``; geomean keys like
    ``geomean:GE-SpMM vs cuSPARSE csrmm2|N=128|GTX 1080Ti``).  ``reason``
    is mandatory — the whole point is that the explanation ships with the
    change.  ``metrics`` optionally restricts which metrics the
    annotation covers; ``max_drift`` optionally caps the accepted
    relative drift magnitude (an annotation for a +5% model fix should
    not silently absorb a 10x regression).
    """

    pattern: str
    reason: str
    metrics: Optional[Tuple[str, ...]] = None
    max_drift: Optional[float] = None

    def covers(self, key: str, metric: str, drift: float) -> bool:
        if not fnmatchcase(key, self.pattern):
            return False
        if self.metrics is not None and metric not in self.metrics:
            return False
        if self.max_drift is not None:
            if not math.isfinite(drift) or abs(drift) > self.max_drift:
                return False
        return True


@dataclass(frozen=True)
class Drift:
    """One beyond-tolerance difference between baseline and current."""

    key: str
    metric: str  # one of METRICS
    baseline: float
    current: float
    drift: float  # relative change; +/-inf for appeared/removed
    status: str  # "regressed" | "accepted"
    reason: str = ""  # annotation reason when accepted
    explanation: str = ""  # component attribution diff (gate --explain)

    def describe(self) -> str:
        if self.metric == "presence":
            what = "appeared" if self.current > self.baseline else "removed"
            text = f"{self.key}: {what}"
        else:
            sign = "+" if self.drift >= 0 else ""
            text = (
                f"{self.key} [{self.metric}]: {self.baseline:.6g} -> "
                f"{self.current:.6g} ({sign}{self.drift * 100:.2f}%)"
            )
        if self.reason:
            text += f" -- {self.reason}"
        if self.explanation:
            text += f"\n      explain: {self.explanation}"
        return text

    def to_json(self) -> Dict[str, Any]:
        out = {
            "key": self.key,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            # JSON has no Infinity; presence drifts serialize as strings.
            "drift": self.drift if math.isfinite(self.drift) else repr(self.drift),
            "status": self.status,
            "reason": self.reason,
        }
        if self.explanation:
            out["explanation"] = self.explanation
        return out


@dataclass
class GateReport:
    """Outcome of one baseline-vs-current comparison."""

    thresholds: GateThresholds
    cells_compared: int = 0
    geomeans_compared: int = 0
    regressions: List[Drift] = field(default_factory=list)
    accepted: List[Drift] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.passed else EXIT_REGRESSED

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_ID,
            "passed": self.passed,
            "thresholds": self.thresholds.to_json(),
            "summary": {
                "cells_compared": self.cells_compared,
                "geomeans_compared": self.geomeans_compared,
                "regressed": len(self.regressions),
                "accepted": len(self.accepted),
            },
            "regressions": [d.to_json() for d in self.regressions],
            "accepted": [d.to_json() for d in self.accepted],
        }

    def format(self) -> str:
        t = self.thresholds
        lines = [
            "benchmark regression gate",
            f"  compared: {self.cells_compared} cells, "
            f"{self.geomeans_compared} geomeans",
            f"  tolerances: time +-{t.time_rel_tol * 100:g}%, "
            f"gflops +-{t.gflops_rel_tol * 100:g}%, "
            f"geomean +-{t.geomean_rel_tol * 100:g}%",
        ]
        if self.accepted:
            lines.append(f"  accepted drift ({len(self.accepted)}):")
            lines += [f"    {d.describe()}" for d in self.accepted]
        if self.regressions:
            lines.append(f"  UNEXPLAINED DRIFT ({len(self.regressions)}):")
            lines += [f"    {d.describe()}" for d in self.regressions]
            lines.append(
                "  FAIL: timing-model drift without an accepted-drift "
                "annotation (see docs/OBSERVABILITY.md)"
            )
        else:
            lines.append("  PASS")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# loading


def load_bench_document(path: PathLike) -> Dict[str, Any]:
    """Read and validate a BENCH document; :class:`GateError` on problems."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise GateError(f"cannot read BENCH document {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateError(f"{p} is not valid JSON: {exc}") from exc
    errors = validate_bench_document(doc)
    if errors:
        raise GateError(f"{p} is not a valid BENCH document: " + "; ".join(errors))
    return doc


def _parse_annotation(entry: Any, where: str) -> AcceptedDrift:
    if not isinstance(entry, dict):
        raise GateError(f"{where}: expected object, got {type(entry).__name__}")
    pattern = entry.get("pattern")
    reason = entry.get("reason")
    if not isinstance(pattern, str) or not pattern:
        raise GateError(f"{where}: 'pattern' must be a non-empty string")
    if not isinstance(reason, str) or not reason.strip():
        raise GateError(
            f"{where}: 'reason' must be a non-empty string — accepted "
            "drift must ship with an explanation"
        )
    metrics = entry.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, list) or not all(m in METRICS for m in metrics):
            raise GateError(f"{where}: 'metrics' must be a list drawn from {METRICS}")
        metrics = tuple(metrics)
    max_drift = entry.get("max_drift")
    if max_drift is not None:
        if not isinstance(max_drift, (int, float)) or isinstance(max_drift, bool) or max_drift <= 0:
            raise GateError(f"{where}: 'max_drift' must be a positive number")
    unknown = set(entry) - {"pattern", "reason", "metrics", "max_drift"}
    if unknown:
        raise GateError(f"{where}: unknown fields {sorted(unknown)}")
    return AcceptedDrift(pattern=pattern, reason=reason, metrics=metrics,
                         max_drift=max_drift)


def load_accepted_drift(path: PathLike) -> List[AcceptedDrift]:
    """Read an accepted-drift annotation file (``repro/bench-drift/v1``).

    Format::

        {
          "schema": "repro/bench-drift/v1",
          "entries": [
            {"pattern": "crc|*|N=128|*", "metrics": ["time_ms", "gflops"],
             "max_drift": 0.10,
             "reason": "PR 9: CRC tile-load model now prices short rows"}
          ]
        }
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise GateError(f"cannot read accepted-drift file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != DRIFT_SCHEMA_ID:
        raise GateError(f"{p}: schema must be {DRIFT_SCHEMA_ID!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise GateError(f"{p}: 'entries' must be a list")
    return [_parse_annotation(e, f"{p}: entries[{i}]") for i, e in enumerate(entries)]


# ---------------------------------------------------------------------------
# drift explanation (gate --explain)

#: relative component change below which a mover is folded into the
#: "all else" tail — 1% separates the drifted ceiling from float noise.
EXPLAIN_MIN_REL = 0.01


def _component_movers(
    base: Dict[str, Any], cur: Dict[str, Any], threshold: float
) -> Tuple[List[Tuple[str, float]], int]:
    """Per-component relative drifts beyond ``threshold``, biggest first.

    Returns ``(movers, quiet)`` where ``movers`` is ``[(name, rel), ...]``
    sorted by descending magnitude (name as the deterministic tie-break)
    and ``quiet`` counts the components that stayed within threshold.
    """
    movers: List[Tuple[str, float]] = []
    quiet = 0
    for name in sorted(set(base) | set(cur)):
        b = float(base.get(name, 0.0))
        c = float(cur.get(name, 0.0))
        if b == c:
            quiet += 1
            continue
        rel = (c / b - 1.0) if b > 0 else float("inf")
        if abs(rel) > threshold:
            movers.append((name, rel))
        else:
            quiet += 1
    movers.sort(key=lambda m: (-abs(m[1]), m[0]))
    return movers, quiet


def _fmt_rel(rel: float) -> str:
    if not math.isfinite(rel):
        return "appeared"
    return f"{'+' if rel >= 0 else ''}{rel * 100:.1f}%"


def explain_attribution_drift(
    baseline_cell: Dict[str, Any],
    current_cell: Dict[str, Any],
    threshold: float = EXPLAIN_MIN_REL,
) -> str:
    """Name the timing-model component(s) behind one cell's drift.

    Diffs the per-cell ``attribution`` blocks (per-ceiling breakdown +
    efficiency factors — see ``docs/OBSERVABILITY.md``) of a baseline and
    a current cell and renders the movers, biggest first::

        dram +31.2%, all else <1%
        bound l2_link -> dram; dram +18.0%, f_occ -12.5%, all else <1%

    Returns "" when either side lacks an attribution block (older
    documents), so callers can append the explanation unconditionally.
    """
    base_attr = baseline_cell.get("attribution")
    cur_attr = current_cell.get("attribution")
    if not isinstance(base_attr, dict) or not isinstance(cur_attr, dict):
        return ""
    parts: List[str] = []
    bound_b = base_attr.get("bound_by")
    bound_c = cur_attr.get("bound_by")
    if bound_b != bound_c:
        parts.append(f"bound {bound_b} -> {bound_c}")
    movers: List[Tuple[str, float]] = []
    quiet = 0
    for block in ("breakdown_ms", "factors"):
        m, q = _component_movers(
            base_attr.get(block) or {}, cur_attr.get(block) or {}, threshold
        )
        movers.extend(m)
        quiet += q
    movers.sort(key=lambda m: (-abs(m[1]), m[0]))
    detail = ", ".join(f"{name} {_fmt_rel(rel)}" for name, rel in movers)
    if movers and quiet:
        detail += f", all else <{threshold * 100:g}%"
    elif not movers:
        detail = f"no attribution component moved >={threshold * 100:g}%"
    parts.append(detail)
    return "; ".join(p for p in parts if p)


def _attach_explanations(
    drifts: List[Drift],
    baseline_cells: Dict[str, Dict[str, Any]],
    current_cells: Dict[str, Dict[str, Any]],
) -> List[Drift]:
    """Return ``drifts`` with attribution explanations on cell drifts."""
    out: List[Drift] = []
    for d in drifts:
        if (
            d.metric in ("time_ms", "gflops")
            and d.key in baseline_cells
            and d.key in current_cells
        ):
            text = explain_attribution_drift(
                baseline_cells[d.key], current_cells[d.key]
            )
            if text:
                d = replace(d, explanation=text)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# comparison


def geomean_key(g: Dict[str, Any]) -> str:
    """Stable key for one geomean record, glob-matchable like cell keys."""
    return f"geomean:{g['target']} vs {g['baseline']}|N={g['n']}|{g['gpu']}"


def measurement_key(kernel: str, graph: str, n: int, gpu: str) -> str:
    """The canonical cell key: ``kernel|graph|N=<n>|gpu``."""
    return f"{kernel}|{graph}|N={int(n)}|{gpu}"


def _cell_key(cell: Dict[str, Any]) -> str:
    return measurement_key(cell["kernel"], cell["graph"], cell["n"], cell["gpu"])


def _classify(
    key: str,
    metric: str,
    base: float,
    cur: float,
    drift: float,
    accepted: Sequence[AcceptedDrift],
) -> Drift:
    for ann in accepted:
        if ann.covers(key, metric, drift):
            return Drift(key, metric, base, cur, drift, "accepted", ann.reason)
    return Drift(key, metric, base, cur, drift, "regressed")


def _diff_keyed(
    baseline: Dict[str, Dict[str, Any]],
    current: Dict[str, Dict[str, Any]],
    metrics: Sequence[str],
    thresholds: GateThresholds,
    accepted: Sequence[AcceptedDrift],
    out: List[Drift],
) -> int:
    """Diff two key->record maps; returns how many keys exist in both."""
    compared = 0
    for key in sorted(set(baseline) | set(current)):
        if key not in current:
            out.append(_classify(key, "presence", 1.0, 0.0, float("-inf"), accepted))
            continue
        if key not in baseline:
            out.append(_classify(key, "presence", 0.0, 1.0, float("inf"), accepted))
            continue
        compared += 1
        for metric in metrics:
            base = float(baseline[key][metric])
            cur = float(current[key][metric])
            if base <= 0:
                # validate_bench_document guarantees finite values; a
                # zero baseline only drifts if the current value moved.
                drift = 0.0 if cur == base else float("inf")
            else:
                drift = cur / base - 1.0
            if abs(drift) > thresholds.for_metric(metric):
                out.append(_classify(key, metric, base, cur, drift, accepted))
    return compared


def diff_documents(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    thresholds: GateThresholds = GateThresholds(),
    accepted: Sequence[AcceptedDrift] = (),
    explain: bool = False,
) -> GateReport:
    """Compare two validated BENCH documents into a :class:`GateReport`.

    Every cell present in either document is checked: time and GFLOPS
    drift for shared cells, presence drift for added/removed ones; then
    the same for geomean records.  Drifts beyond tolerance are matched
    against ``accepted`` annotations in order (first match wins).

    ``explain`` additionally diffs the per-cell ``attribution`` blocks of
    drifted cells and names the ceiling/factor that moved (see
    :func:`explain_attribution_drift`) — ``repro-bench gate --explain``.
    """
    for name, doc in (("baseline", baseline), ("current", current)):
        errors = validate_bench_document(doc)
        if errors:
            raise GateError(f"{name} document invalid: " + "; ".join(errors))

    baseline_cells = {_cell_key(c): c for c in baseline["cells"]}
    current_cells = {_cell_key(c): c for c in current["cells"]}
    drifts: List[Drift] = []
    cells_compared = _diff_keyed(
        baseline_cells,
        current_cells,
        ("time_ms", "gflops"),
        thresholds,
        accepted,
        drifts,
    )
    geomeans_compared = _diff_keyed(
        {geomean_key(g): g for g in baseline["geomeans"]},
        {geomean_key(g): g for g in current["geomeans"]},
        ("speedup",),
        thresholds,
        accepted,
        drifts,
    )
    if explain:
        drifts = _attach_explanations(drifts, baseline_cells, current_cells)

    report = GateReport(
        thresholds=thresholds,
        cells_compared=cells_compared,
        geomeans_compared=geomeans_compared,
    )
    for d in sorted(drifts, key=lambda d: (d.key, d.metric)):
        (report.accepted if d.status == "accepted" else report.regressions).append(d)
    return report


def gate_paths(
    baseline_path: PathLike,
    current_path: PathLike,
    annotations_path: Optional[PathLike] = None,
    thresholds: GateThresholds = GateThresholds(),
    explain: bool = False,
) -> GateReport:
    """File-level convenience wrapper around :func:`diff_documents`."""
    baseline = load_bench_document(baseline_path)
    current = load_bench_document(current_path)
    accepted = load_accepted_drift(annotations_path) if annotations_path else []
    return diff_documents(baseline, current, thresholds=thresholds,
                          accepted=accepted, explain=explain)
