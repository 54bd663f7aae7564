"""Profile trees, flamegraph exports, and the performance report.

Covers `repro.obs.report` (span aggregation, folded collapsed-stack
export, cache-rate extraction, the Markdown/JSON report) and the
`repro-bench report` CLI, including the byte-determinism contract the CI
job asserts with `make report`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.bench import bench_document, run_sweep
from repro.baselines import CusparseCsrmm2
from repro.cli import main as cli_main
from repro.core import GESpMM
from repro.gpusim import GTX_1080TI
from repro.obs.report import (
    build_profile,
    cache_hit_rates,
    load_metrics_jsonl,
    load_spans_jsonl,
    performance_report,
    profile_to_json,
    render_profile,
    render_report_markdown,
    to_folded,
)
from repro.sparse import uniform_random
from repro.sparse.stats import graph_regime

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def clock():
    class Tick:
        def __init__(self):
            self.t = 0.0

        def __call__(self):
            self.t += 0.001
            return self.t

    return Tick()


@pytest.fixture
def spans(clock):
    """A small span tree: sweep -> 2x graph -> 2x cell each, one error."""
    with obs.tracing(clock=clock) as tracer:
        with obs.span("sweep"):
            for g in ("g0", "g1"):
                with obs.span("graph", graph=g):
                    with obs.span("cell"):
                        obs.add_sim_time(0.010)
                    try:
                        with obs.span("cell"):
                            obs.add_sim_time(0.020)
                            if g == "g1":
                                raise RuntimeError("boom")
                    except RuntimeError:
                        pass
    return tracer.records


# -- profile trees ----------------------------------------------------------


def test_build_profile_merges_call_paths(spans):
    root = build_profile(spans)
    sweep = root.children["sweep"]
    graph = sweep.children["graph"]
    cell = graph.children["cell"]
    assert sweep.count == 1 and graph.count == 2 and cell.count == 4
    assert cell.errors == 1  # the g1 unwind kept its error status
    # totals roll up; self time excludes children
    assert sweep.wall_s >= graph.wall_s >= cell.wall_s > 0
    assert graph.self_wall_s == pytest.approx(graph.wall_s - cell.wall_s)
    assert cell.sim_s == pytest.approx(0.060)
    assert graph.sim_s == pytest.approx(0.060)
    assert graph.self_sim_s == pytest.approx(0.0)
    # the synthetic root aggregates its top-level children
    assert root.wall_s == pytest.approx(sweep.wall_s)
    assert root.count == 1


def test_build_profile_accepts_jsonl_dicts(spans):
    from_records = profile_to_json(build_profile(spans))
    from_dicts = profile_to_json(build_profile([r.as_dict() for r in spans]))
    assert from_records == from_dicts


def test_render_profile_is_deterministic_and_indented(spans):
    root = build_profile(spans)
    text = render_profile(root)
    assert text == render_profile(build_profile(spans))
    lines = text.splitlines()
    assert "span" in lines[0]  # header
    assert any(l.endswith("sweep") for l in lines)
    assert any(l.rstrip().endswith("cell [1 err]") for l in lines)


def test_to_folded_collapsed_stacks(spans):
    root = build_profile(spans)
    folded = to_folded(root)
    lines = folded.splitlines()
    assert lines == sorted(lines)  # deterministic order
    stacks = dict(l.rsplit(" ", 1) for l in lines)
    assert "sweep;graph;cell" in stacks
    # weights are integer microseconds of SELF time
    assert all(int(v) > 0 for v in stacks.values())
    # sim weighting puts all weight on the leaf cells (10+20 ms per graph)
    sim = dict(l.rsplit(" ", 1) for l in to_folded(root, weight="sim").splitlines())
    assert sim == {"sweep;graph;cell": "60000"}
    with pytest.raises(ValueError, match="weight"):
        to_folded(root, weight="bogus")


# -- loaders and cache rates ------------------------------------------------


def test_load_spans_jsonl_round_trip(tmp_path, spans, clock):
    tracer = obs.Tracer(clock=clock)
    tracer.records = list(spans)
    path = tracer.write(tmp_path / "t.jsonl")
    rows = load_spans_jsonl(path)
    assert [r["name"] for r in rows] == [r.name for r in spans]
    assert profile_to_json(build_profile(rows)) == profile_to_json(build_profile(spans))


def test_load_spans_jsonl_rejects_chrome_and_garbage(tmp_path, spans, clock):
    tracer = obs.Tracer(clock=clock)
    tracer.records = list(spans)
    chrome = tracer.write(tmp_path / "t.json")
    with pytest.raises(ValueError, match="Chrome"):
        load_spans_jsonl(chrome)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "ok", "index": 0, "parent": null}\n{oops\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_spans_jsonl(bad)


def test_cache_hit_rates_aggregates_label_sets():
    rows = [
        {"name": "diskcache.hits", "type": "counter", "labels": {"kind": "cell"}, "value": 6},
        {"name": "diskcache.hits", "type": "counter", "labels": {"kind": "timing"}, "value": 2},
        {"name": "diskcache.misses", "type": "counter", "labels": {"kind": "cell"}, "value": 2},
        {"name": "sweep.memo.hits", "type": "counter", "labels": {}, "value": 0},
        {"name": "sweep.memo.misses", "type": "counter", "labels": {}, "value": 36},
        # non-counters and unrelated names must be ignored
        {"name": "sweep.cell.time_ms", "type": "gauge", "labels": {}, "value": 1.0},
        {"name": "sim.timing.launches", "type": "counter", "labels": {}, "value": 9},
    ]
    rates = cache_hit_rates(rows)
    assert rates["diskcache"] == {"hits": 8.0, "misses": 2.0, "hit_rate": 0.8}
    assert rates["sweep.memo"]["hit_rate"] == 0.0
    assert set(rates) == {"diskcache", "sweep.memo"}


# -- graph regimes ----------------------------------------------------------


def test_graph_regime_labels():
    uniform_short = uniform_random(m=600, nnz=3000, seed=3)  # ~5 nnz/row
    assert graph_regime(uniform_short) == "short-rows/uniform"
    dense_rows = uniform_random(m=100, nnz=4000, seed=4)  # 40 nnz/row
    assert graph_regime(dense_rows).startswith("long-rows/")
    # threshold knobs shift the label deterministically
    assert graph_regime(uniform_short, long_row_threshold=1.0).startswith("long-rows/")
    assert graph_regime(uniform_short, skew_threshold=0.0).endswith("/skewed")


# -- performance report -----------------------------------------------------


@pytest.fixture(scope="module")
def doc():
    graphs = {
        "rand-a": uniform_random(m=400, nnz=3200, seed=21),
        "rand-b": uniform_random(m=300, nnz=3600, seed=22),
    }
    results = run_sweep([CusparseCsrmm2(), GESpMM()], graphs, [64, 128], [GTX_1080TI])
    return bench_document(
        results,
        extra_run_meta={
            "regimes": {name: graph_regime(g) for name, g in sorted(graphs.items())},
            "host": {"memo_hits": 4, "memo_misses": 4,
                     "access_profile": {"hits": 3, "misses": 1}},
        },
    )


def test_performance_report_structure(doc):
    report = performance_report(doc, source="BENCH_spmm.json")
    assert report["schema"] == "repro/perf-report/v1"
    assert report["coverage"] == {"cells": 8, "attributed": 8}
    # every (gpu, kernel, regime) bucket counts its bound_by ceilings
    assert report["bound_by"]
    for row in report["bound_by"]:
        assert row["regime"] in ("short-rows/uniform", "short-rows/skewed",
                                 "long-rows/uniform", "long-rows/skewed")
        assert sum(row["counts"].values()) >= 1
    total = sum(sum(r["counts"].values()) for r in report["bound_by"])
    assert total == 8
    # roofline rows exist for every attributed cell on a known GPU
    assert len(report["roofline"]) == 8
    for r in report["roofline"]:
        assert r["bound"] in ("memory", "compute")
        assert r["achieved_gflops"] > 0 and r["roof_gflops"] > 0
        assert 0 < r["roof_utilization"] <= 1.0
    # top cells ordered by descending time
    for rows in report["top_cells"].values():
        times = [r["time_ms"] for r in rows]
        assert times == sorted(times, reverse=True)
        assert all(0 < r["ceiling_share"] <= 1.0 for r in rows)
    # cache rates lifted from run.host
    assert report["cache"]["sweep.memo"]["hit_rate"] == 0.5
    assert report["cache"]["access_profile"]["hit_rate"] == 0.75
    assert "profile" not in report


def test_performance_report_without_attribution_degrades(doc):
    import copy

    bare = copy.deepcopy(doc)
    for cell in bare["cells"]:
        cell.pop("attribution", None)
    report = performance_report(bare)
    assert report["coverage"]["attributed"] == 0
    assert report["bound_by"] == [] and report["roofline"] == []
    assert report["top_cells"] == {}
    md = render_report_markdown(report)
    assert "Bottleneck distribution" not in md  # empty sections are omitted


def test_performance_report_metrics_and_spans(doc, spans):
    metrics = [
        {"name": "sweep.memo.hits", "type": "counter", "labels": {}, "value": 7},
        {"name": "sweep.memo.misses", "type": "counter", "labels": {}, "value": 1},
    ]
    report = performance_report(doc, spans=spans, metrics=metrics)
    # measured metrics override the run.host snapshot
    assert report["cache"] == {
        "sweep.memo": {"hits": 7.0, "misses": 1.0, "hit_rate": 0.875}
    }
    assert report["profile"]["children"][0]["name"] == "sweep"
    md = render_report_markdown(report)
    assert "## Profile" in md and "sweep" in md


def test_markdown_report_deterministic_and_escaped(doc):
    report = performance_report(doc, top=2, source="x.json")
    md1 = render_report_markdown(report)
    md2 = render_report_markdown(performance_report(doc, top=2, source="x.json"))
    assert md1 == md2
    assert json.dumps(report, sort_keys=True) == json.dumps(
        performance_report(doc, top=2, source="x.json"), sort_keys=True
    )
    # cell keys embed '|'; tables must escape them to stay valid GFM
    assert "GE-SpMM\\|rand-a\\|N=64\\|GTX 1080Ti" in md1
    assert "GE-SpMM|rand-a" not in md1  # never raw inside a table


# -- CLI --------------------------------------------------------------------


def test_cli_report_byte_identical_runs(tmp_path, doc):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    outs = []
    for i in range(2):
        md = tmp_path / f"report{i}.md"
        js = tmp_path / f"report{i}.json"
        rc = cli_main(["report", "--baseline", str(bench),
                       "--out", str(md), "--json-out", str(js)])
        assert rc == 0
        outs.append((md.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]
    parsed = json.loads(outs[0][1])
    assert parsed["schema"] == "repro/perf-report/v1"
    assert parsed["source"]["path"] == str(bench)


def test_cli_report_with_trace_metrics_and_folded(tmp_path, doc, spans, clock):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(doc))
    tracer = obs.Tracer(clock=clock)
    tracer.records = list(spans)
    trace = tracer.write(tmp_path / "t.jsonl")
    metrics = tmp_path / "m.jsonl"
    metrics.write_text(json.dumps(
        {"name": "sweep.memo.hits", "type": "counter", "labels": {}, "value": 1}
    ) + "\n")
    folded = tmp_path / "prof.folded"
    rc = cli_main(["report", "--baseline", str(bench), "--trace", str(trace),
                   "--metrics", str(metrics), "--out", str(tmp_path / "r.md"),
                   "--folded", str(folded)])
    assert rc == 0
    stacks = folded.read_text().splitlines()
    assert any(s.startswith("sweep;graph;cell ") for s in stacks)
    md = (tmp_path / "r.md").read_text()
    assert "## Profile" in md and "## Cache hit rates" in md


def test_cli_report_trace_without_bench_document(tmp_path, spans, clock, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no BENCH_spmm.json to fall back on
    tracer = obs.Tracer(clock=clock)
    tracer.records = list(spans)
    trace = tracer.write(tmp_path / "t.jsonl")
    md, js, folded = tmp_path / "r.md", tmp_path / "r.json", tmp_path / "p.folded"
    rc = cli_main(["report", "--trace", str(trace), "--out", str(md),
                   "--json-out", str(js), "--folded", str(folded)])
    assert rc == 0
    text = md.read_text()
    assert "no BENCH document" in text and "## Profile" in text
    assert "## Bottleneck distribution" not in text
    report = json.loads(js.read_text())
    assert set(report) == {"schema", "profile"}
    assert report["profile"]["children"][0]["name"] == "sweep"
    assert any(s.startswith("sweep;graph;cell ") for s in folded.read_text().splitlines())
    # Without --trace the default BENCH document is still read (and missing here).
    assert cli_main(["report", "--out", str(md)]) == 2


def test_cli_report_usage_errors(tmp_path, doc):
    assert cli_main(["report", "--baseline", str(tmp_path / "missing.json")]) == 2
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(doc))
    # --folded without --trace is a usage error
    assert cli_main(["report", "--baseline", str(bench),
                     "--folded", str(tmp_path / "x.folded"),
                     "--out", str(tmp_path / "r.md")]) == 2
    # a Chrome-format trace is rejected with guidance, not mis-parsed
    chrome = tmp_path / "t.json"
    chrome.write_text('{"traceEvents": [], "displayTimeUnit": "ms"}')
    assert cli_main(["report", "--baseline", str(bench), "--trace", str(chrome),
                     "--out", str(tmp_path / "r.md")]) == 2


# -- the `make report` contract over the committed artifact -----------------


def test_make_report_from_committed_bench_is_deterministic(tmp_path):
    """`make report` path: the committed BENCH document renders the same
    bytes on every run (the CI job runs it twice and cmps)."""
    bench = REPO_ROOT / "BENCH_spmm.json"
    pairs = []
    for i in range(2):
        md = tmp_path / f"r{i}.md"
        js = tmp_path / f"r{i}.json"
        assert cli_main(["report", "--baseline", str(bench),
                         "--out", str(md), "--json-out", str(js)]) == 0
        pairs.append((md.read_bytes(), js.read_bytes()))
    assert pairs[0] == pairs[1]
    report = json.loads(pairs[0][1])
    # the committed document is fully attributed and regime-labelled
    # (4 kernels x 6 graphs x 2 widths since merge-path joined the sweep)
    assert report["coverage"]["cells"] == report["coverage"]["attributed"] == 48
    assert report["bound_by"] and report["roofline"]
    assert all(row["regime"] != "unknown" for row in report["bound_by"])
