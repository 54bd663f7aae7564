"""Command-line interface: profile, analyze, sweep, train, scenario.

Installed as ``repro-bench`` (see pyproject).  Examples::

    repro-bench analyze --graph soc-Epinions1
    repro-bench profile --graph ca-AstroPh --n 256 --gpu "RTX 2080"
    repro-bench sweep --graphs 6 --n 128 512
    repro-bench train --dataset cora --epochs 20 --backend dgl --gespmm
    repro-bench scenario --graph web-Stanford --feature-dim 128
    repro-bench roofline --graph ca-AstroPh --n 256
    repro-bench tune --graph soc-Epinions1 --n 512
    repro-bench oom --n 512
    repro-bench trace --graph ca-AstroPh --n 128 --trace-out trace.json
    repro-bench gate --baseline BENCH_spmm.json --explain
    repro-bench report --baseline BENCH_spmm.json --out report.md

``profile``, ``sweep``, ``train``, ``trace`` and ``gate`` accept
``--trace-out`` (Chrome trace-event JSON, or JSONL with a ``.jsonl``
suffix) and ``--metrics-out`` (metrics-registry JSONL); ``sweep``
additionally takes ``--bench-json`` to write the machine-readable BENCH
artifact.  ``gate`` regenerates (or loads) a current BENCH document and
fails with exit code 1 on timing-model drift that lacks an accepted-drift
annotation; ``--explain`` names the attribution component behind each
drift.  ``report`` renders the Markdown/JSON performance report
(bottleneck distribution, roofline placement, cache hit rates, profile
trees and flamegraph exports); ``report --trace`` without ``--baseline``
renders the profile of a trace alone.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import obs

from repro.baselines import (
    ASpTSpMM,
    CusparseCsrmm2,
    DGLFallbackSpMMLike,
    GraphBlastRowSplit,
    GunrockAdvanceSpMM,
    SpMVLoopSpMM,
)
from repro.bench import format_table, geomean, run_sweep, speedup_series
from repro.core import CRCSpMM, CWMSpMM, GESpMM, MergePathSpMM, SimpleSpMM
from repro.datasets import catalog_names, load_citation, load_graph, load_suite
from repro.gnn import DGLBackend, GCN, GraphSAGE, PyGBackend, SimDevice, train
from repro.gnn.inference import (
    amortization_crossover,
    inference_scenario,
    sampled_training_scenario,
)
from repro.gpusim import KNOWN_GPUS, GTX_1080TI, format_metric_table, profile_kernel
from repro.sparse import uniform_random
from repro.sparse.stats import analyze, graph_regime, row_length_histogram

#: BENCH document ``gate`` and ``report`` read by default
DEFAULT_BENCH = "BENCH_spmm.json"

ALL_KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "cwm2": lambda: CWMSpMM(2),
    "mergepath": MergePathSpMM,
    "gespmm": GESpMM,
    "cusparse": CusparseCsrmm2,
    "graphblast": GraphBlastRowSplit,
    "gunrock": GunrockAdvanceSpMM,
    "aspt": ASpTSpMM,
    "spmv-loop": SpMVLoopSpMM,
    "dgl-fallback": DGLFallbackSpMMLike,
}


_CITATION_GRAPHS = ("cora", "citeseer", "pubmed")


def _load_graph_arg(args):
    if args.graph == "random":
        return uniform_random(args.m, args.nnz, seed=args.seed)
    if args.graph in _CITATION_GRAPHS:
        return load_citation(args.graph).normalized_adjacency()
    return load_graph(args.graph, max_nnz=args.max_nnz)


def _positive_int(text: str) -> int:
    """argparse type for counts and widths: ``0``/negatives exit 2 with a
    usage error instead of failing deep inside the model."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _gpu_arg(name: str):
    if name not in KNOWN_GPUS:
        raise SystemExit(f"unknown GPU {name!r}; choose from {sorted(KNOWN_GPUS)}")
    return KNOWN_GPUS[name]


def cmd_analyze(args) -> int:
    g = _load_graph_arg(args)
    print(f"[{args.graph}]")
    print(analyze(g).summary())
    print("row-length histogram:")
    for bucket, count in row_length_histogram(g).items():
        print(f"  len {bucket:>6s}: {count}")
    return 0


def cmd_profile(args) -> int:
    g = _load_graph_arg(args)
    gpu = _gpu_arg(args.gpu)
    kernels = [ALL_KERNELS[k]() for k in args.kernels]
    reports = [profile_kernel(k, g, args.n, gpu, graph=args.graph) for k in kernels]
    print(f"[{args.graph}] N={args.n} on {gpu.name}")
    print(format_metric_table(reports))
    return 0


def _counter_value(name: str) -> int:
    return int(obs.get_registry().counter(name).value)


def _installed_disk_cache(cache_dir: Optional[str]):
    """Install a DiskCache for ``--cache-dir`` (None = leave the
    current/env activation alone).  Returns ``(restore, cache)`` where
    ``restore()`` undoes the installation."""
    from repro.bench.diskcache import DiskCache, get_disk_cache, set_disk_cache

    if not cache_dir:
        return (lambda: None), get_disk_cache()
    prev = set_disk_cache(DiskCache(cache_dir))
    return (lambda: set_disk_cache(prev)), get_disk_cache()


def _suite_regimes(suite) -> dict:
    """``graph -> structural regime`` map for the run metadata block.

    Rides in ``run.regimes`` of BENCH_spmm.json (the gate ignores
    ``run``) so ``repro-bench report`` can aggregate bound-by counts per
    graph regime without reloading the graphs."""
    return {name: graph_regime(suite[name]) for name in sorted(suite)}


def cmd_sweep(args) -> int:
    from repro.bench import run_sweep_with_stats

    names = catalog_names()[: args.graphs]
    suite = load_suite(max_nnz=args.max_nnz, names=names)
    gpu = _gpu_arg(args.gpu)
    kernels = [GraphBlastRowSplit(), CusparseCsrmm2(), MergePathSpMM(), GESpMM()]
    restore, cache = _installed_disk_cache(args.cache_dir)
    try:
        profile0 = {k: _counter_value(f"access_profile.{k}") for k in ("hits", "misses")}
        disk0 = cache.counters() if cache is not None else {}
        results, host = run_sweep_with_stats(kernels, suite, args.n, [gpu])
        host_meta = host.as_run_meta()
        host_meta["access_profile"] = {
            k: _counter_value(f"access_profile.{k}") - profile0[k]
            for k in ("hits", "misses")
        }
        if cache is not None:
            disk1 = cache.counters()
            host_meta["diskcache"] = {k: disk1[k] - disk0[k] for k in disk1}
    finally:
        restore()
    print(f"[sweep] {host.cells} cells in {host.wall_s:.3f}s "
          f"({host.cells_per_s:.0f} cells/s, "
          f"memo {host.memo_hits} hit / {host.memo_misses} miss)",
          file=sys.stderr)
    if cache is not None:
        dc = host_meta["diskcache"]
        print(f"[sweep] disk cache at {cache.root}: {dc['hits']} hit / "
              f"{dc['misses']} miss / {dc['invalidations']} invalidated",
              file=sys.stderr)
    if args.bench_json:
        from repro.bench import write_bench_json

        try:
            write_bench_json(
                results,
                args.bench_json,
                extra_run_meta={
                    "command": "sweep",
                    "max_nnz": args.max_nnz,
                    "host": host_meta,
                    "regimes": _suite_regimes(suite),
                },
            )
        except OSError as exc:
            print(f"repro-bench: cannot write {args.bench_json}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.bench_json}", file=sys.stderr)
    rows = []
    for g in suite:
        row = [g]
        for n in args.n:
            vals = {r.kernel: r.gflops for r in results if r.graph == g and r.n == n}
            row.append("/".join(f"{vals[k.name]:.0f}" for k in kernels))
        rows.append(tuple(row))
    abbrev = {"GraphBLAST rowsplit": "GB", "cuSPARSE csrmm2": "cuSP",
              "mergepath": "MP", "GE-SpMM": "GE"}
    legend = "/".join(abbrev.get(k.name, k.name) for k in kernels)
    print(format_table(["matrix"] + [f"N={n} ({legend})" for n in args.n], rows,
                       title=f"GFLOPS on {gpu.name}"))
    for n in args.n:
        for base in ("cuSPARSE csrmm2", "GraphBLAST rowsplit"):
            s = geomean(speedup_series(results, "GE-SpMM", base, gpu.name, n).values())
            print(f"  N={n}: GE-SpMM vs {base}: {s:.2f}x")
    return 0


def cmd_train(args) -> int:
    ds = load_citation(args.dataset)
    gpu = _gpu_arg(args.gpu)
    device = SimDevice(gpu)
    backend_cls = {"dgl": DGLBackend, "pyg": PyGBackend}[args.backend]
    backend = backend_cls(device, use_gespmm=args.gespmm)
    rng = np.random.default_rng(args.seed)
    if args.model == "gcn":
        model = GCN(ds.feature_dim, args.hidden, ds.n_classes, n_layers=args.layers, rng=rng)
    else:
        model = GraphSAGE(ds.feature_dim, args.hidden, ds.n_classes, n_layers=args.layers,
                          aggregator=args.model.split("-", 1)[1], rng=rng)
    res = train(model, backend, ds, epochs=args.epochs)
    print(f"{backend.name} / {args.model} on {ds.name} ({args.epochs} epochs, {gpu.name})")
    print(f"loss {res.losses[0]:.3f} -> {res.losses[-1]:.3f}, test acc {res.test_accuracy:.2%}")
    print(res.profile.format())
    return 0


def cmd_scenario(args) -> int:
    g = _load_graph_arg(args)
    gpu = _gpu_arg(args.gpu)
    inf = inference_scenario(g, args.feature_dim, gpu)
    samp = sampled_training_scenario(g, args.feature_dim, gpu, n_batches=args.batches)
    for res in (inf, samp):
        print(f"[{res.scenario}] ({res.spmm_calls} aggregation calls)")
        for name, t in sorted(res.times.items(), key=lambda kv: kv[1]):
            print(f"  {name:22s} {t * 1e3:9.3f} ms")
    cross = amortization_crossover(g, args.feature_dim, gpu)
    if cross is None:
        print("ASpT never amortizes its preprocess on this matrix (<=64 reuses)")
    else:
        print(f"ASpT amortizes its preprocess after {cross} reuses of the same matrix")
    return 0


def cmd_roofline(args) -> int:
    from repro.gpusim import roofline_report

    g = _load_graph_arg(args)
    gpu = _gpu_arg(args.gpu)
    kernels = [ALL_KERNELS[k]() for k in args.kernels]
    print(f"[{args.graph}] N={args.n}")
    print(roofline_report(kernels, g, args.n, gpu))
    return 0


def cmd_tune(args) -> int:
    from repro.core import tune_cf

    g = _load_graph_arg(args)
    gpu = _gpu_arg(args.gpu)
    res = tune_cf(g, args.n, gpu)
    print(f"[{args.graph}] N={args.n} on {gpu.name}")
    for cf, t in sorted(res.times.items()):
        mark = "  <- best" if cf == res.best_cf else ""
        print(f"  CF={cf}: {t * 1e3:8.4f} ms{mark}")
    fixed_loss = res.loss_of(2)
    print(f"fixed CF=2 loses {fixed_loss * 100:.2f}% to the oracle here")
    return 0


def cmd_trace(args) -> int:
    """Run an observed profile pass purely to produce telemetry files."""
    g = _load_graph_arg(args)
    gpu = _gpu_arg(args.gpu)
    kernels = [ALL_KERNELS[k]() for k in args.kernels]
    with obs.span("trace.profile", graph=args.graph, n=int(args.n), gpu=gpu.name):
        reports = [profile_kernel(k, g, args.n, gpu, graph=args.graph) for k in kernels]
    tracer = obs.get_tracer()
    n_spans = len(tracer.records) if tracer is not None else 0
    print(f"[{args.graph}] N={args.n} on {gpu.name}: traced {len(reports)} kernels "
          f"({n_spans} spans)")
    print(f"writing trace to {args.trace_out}"
          + (f", metrics to {args.metrics_out}" if args.metrics_out else ""))
    return 0


def _regenerate_document(args):
    """Rebuild the BENCH document in-process with ``make telemetry``'s
    sweep parameters — the 'current' side of the gate when no document
    file is given."""
    from repro.bench import bench_document

    names = catalog_names()[: args.graphs]
    suite = load_suite(max_nnz=args.max_nnz, names=names)
    gpu = _gpu_arg(args.gpu)
    kernels = [GraphBlastRowSplit(), CusparseCsrmm2(), MergePathSpMM(), GESpMM()]
    results = run_sweep(kernels, suite, args.n, [gpu])
    return bench_document(
        results,
        extra_run_meta={
            "command": "sweep",
            "max_nnz": args.max_nnz,
            "regimes": _suite_regimes(suite),
        },
    )


def cmd_gate(args) -> int:
    from repro.bench.gate import (
        EXIT_USAGE,
        GateError,
        GateThresholds,
        diff_documents,
        load_accepted_drift,
        load_bench_document,
    )

    thresholds = GateThresholds(
        time_rel_tol=args.time_tol,
        gflops_rel_tol=args.gflops_tol,
        geomean_rel_tol=args.geomean_tol,
    )
    try:
        baseline = load_bench_document(args.baseline)
        if args.current is not None:
            current = load_bench_document(args.current)
        else:
            restore, _cache = _installed_disk_cache(getattr(args, "cache_dir", None))
            try:
                current = _regenerate_document(args)
            finally:
                restore()
        accept_path = args.accept
        if accept_path is None:
            default = Path(args.baseline).parent / "BENCH_accepted_drift.json"
            accept_path = default if default.exists() else None
        accepted = load_accepted_drift(accept_path) if accept_path else []
        report = diff_documents(baseline, current, thresholds=thresholds,
                                accepted=accepted,
                                explain=getattr(args, "explain", False))
    except GateError as exc:
        print(f"repro-bench gate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.format())
    if args.json_out:
        try:
            Path(args.json_out).write_text(
                json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"repro-bench gate: cannot write {args.json_out}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    return report.exit_code


def cmd_report(args) -> int:
    """Render the Markdown/JSON performance report from a BENCH document,
    or from a span trace alone when ``--trace`` comes without
    ``--baseline``."""
    from repro.bench.gate import EXIT_USAGE, GateError, load_bench_document
    from repro.obs.report import (
        build_profile,
        load_metrics_jsonl,
        load_spans_jsonl,
        performance_report,
        render_report_markdown,
        to_folded,
    )

    baseline = args.baseline
    if baseline is None and args.trace is None:
        baseline = DEFAULT_BENCH
    doc = None
    if baseline is not None:
        try:
            doc = load_bench_document(baseline)
        except GateError as exc:
            print(f"repro-bench report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        spans = load_spans_jsonl(args.trace) if args.trace else None
        metrics = load_metrics_jsonl(args.metrics) if args.metrics else None
    except (OSError, ValueError) as exc:
        print(f"repro-bench report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = performance_report(doc, spans=spans, metrics=metrics, top=args.top,
                                source=None if baseline is None else str(baseline))
    markdown = render_report_markdown(report)
    try:
        if args.out:
            Path(args.out).write_text(markdown)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(markdown, end="")
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {args.json_out}", file=sys.stderr)
        if args.folded:
            if spans is None:
                print("repro-bench report: --folded needs --trace", file=sys.stderr)
                return EXIT_USAGE
            folded = to_folded(build_profile(spans), weight=args.folded_weight)
            Path(args.folded).write_text(folded + "\n" if folded else "")
            print(f"wrote {args.folded}", file=sys.stderr)
    except OSError as exc:
        print(f"repro-bench report: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the on-disk estimate/shard cache."""
    import os

    from repro.bench.diskcache import CACHE_DIR_ENV, DiskCache

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not root:
        print(f"repro-bench cache: no cache directory (pass --cache-dir or "
              f"set {CACHE_DIR_ENV})", file=sys.stderr)
        return 2
    cache = DiskCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root: {stats['root']}")
    print(f"entries:    {stats['entries']} ({stats['bytes']} bytes)")
    print("by kind:")
    for kind, k in sorted(stats["kinds"].items()):
        print(f"  {kind:8s} {k['entries']:6d} entries  {k['bytes']:10d} bytes")
    if not stats["kinds"]:
        print("  (empty)")
    print("by schema version:")
    for schema, s in sorted(stats["schemas"].items()):
        print(f"  {schema:24s} {s['entries']:6d} entries  {s['bytes']:10d} bytes")
    if not stats["schemas"]:
        print("  (empty)")
    return 0


def cmd_corpus(args) -> int:
    """Sharded, resumable corpus sweep with a win-rate roll-up."""
    from repro.bench.corpus import (
        corpus_preset,
        format_rollup,
        run_corpus_sweep,
    )
    from repro.bench.telemetry import write_corpus_rollup

    gpu = _gpu_arg(args.gpu)
    kernels = [ALL_KERNELS[k]() for k in args.kernels]
    specs = corpus_preset(args.preset, limit=args.limit)
    restore, cache = _installed_disk_cache(args.cache_dir)
    try:
        res = run_corpus_sweep(
            specs,
            kernels,
            args.n,
            [gpu],
            shards=args.shards,
            shard_size=None if args.shards else args.shard_size,
            resume=args.resume,
            max_shards=args.max_shards,
                progress=(
                None
                if args.quiet
                else lambda i, total, restored: print(
                    f"[corpus] shard {i + 1}/{total} "
                    f"{'restored' if restored else 'computed'}",
                    file=sys.stderr,
                )
            ),
        )
    finally:
        restore()
    h = res.host
    print(
        f"[corpus] {h.matrices} matrices / {h.shards_total} shards in "
        f"{h.wall_s:.2f}s (computed {h.shards_computed}, restored "
        f"{h.shards_restored}; cells {h.cells_computed} computed / "
        f"{h.cells_restored} restored)",
        file=sys.stderr,
    )
    if cache is not None:
        print(f"[corpus] shard checkpoints at {cache.root}", file=sys.stderr)
    if args.rollup_json:
        try:
            write_corpus_rollup(res.rollup, args.rollup_json)
        except OSError as exc:
            print(f"repro-bench corpus: cannot write {args.rollup_json}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.rollup_json}", file=sys.stderr)
    if args.host_json:
        try:
            Path(args.host_json).write_text(
                json.dumps(h.as_dict(), indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"repro-bench corpus: cannot write {args.host_json}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.host_json}", file=sys.stderr)
    print(format_rollup(res.rollup))
    return 0


def cmd_oom(args) -> int:
    from repro.datasets import SNAP_CATALOG
    from repro.gpusim import fits, spmm_footprint

    class Shell:
        def __init__(self, e):
            self.nrows = self.ncols = e.m
            self.nnz = e.nnz

    gpus = [KNOWN_GPUS[n] for n in sorted(KNOWN_GPUS)]
    print(f"paper-scale SNAP matrices that cannot run SpMM at N={args.n}:")
    any_oom = False
    for e in sorted(SNAP_CATALOG, key=lambda e: e.name):
        shell = Shell(e)
        marks = ["OOM" if not fits(shell, args.n, g) else "fits" for g in gpus]
        if "OOM" in marks:
            any_oom = True
            gb = spmm_footprint(shell, args.n).total / 2**30
            cells = "  ".join(f"{g.name}: {m}" for g, m in zip(gpus, marks))
            print(f"  {e.name:24s} {gb:6.2f} GiB   {cells}")
    if not any_oom:
        print("  (none at this width)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro-bench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_opts(sp):
        sp.add_argument("--graph", default="random",
                        help="'random', a citation graph, or a SNAP matrix name")
        sp.add_argument("--m", type=_positive_int, default=65_536, help="rows for --graph random")
        sp.add_argument("--nnz", type=_positive_int, default=650_000,
                        help="nonzeros for --graph random")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--max-nnz", type=int, default=300_000,
                        help="scaling cap for SNAP twins")
        sp.add_argument("--gpu", default=GTX_1080TI.name, choices=sorted(KNOWN_GPUS))

    def add_telemetry_opts(sp, trace_default=None):
        sp.add_argument("--trace-out", default=trace_default, metavar="PATH",
                        help="write a span trace (Chrome trace-event JSON; "
                             "use a .jsonl suffix for JSONL)")
        sp.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics registry as JSONL")

    sp = sub.add_parser("analyze", help="structural profile of a matrix")
    add_graph_opts(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("profile", help="nvprof-style kernel comparison")
    add_graph_opts(sp)
    sp.add_argument("--n", type=_positive_int, default=128, help="dense feature width")
    sp.add_argument("--kernels", nargs="+", default=["simple", "crc", "gespmm", "cusparse"],
                    choices=sorted(ALL_KERNELS))
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("sweep", help="mini SNAP sweep (Fig 11 style)")
    add_graph_opts(sp)
    sp.add_argument("--graphs", type=_positive_int, default=8)
    sp.add_argument("--n", type=_positive_int, nargs="+", default=[128, 512])
    sp.add_argument("--bench-json", default=None, metavar="PATH",
                    help="write machine-readable sweep telemetry (BENCH_spmm.json)")
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="persist kernel estimates (which sweep cells are "
                         "derived from) across processes in a content-addressed cache at DIR "
                         "(also honours $REPRO_CACHE_DIR; safe to delete "
                         "any time — see docs/PERFORMANCE.md)")
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("train", help="train a GNN on a citation twin")
    sp.add_argument("--dataset", default="cora", choices=["cora", "citeseer", "pubmed"])
    sp.add_argument("--model", default="gcn", choices=["gcn", "sage-gcn", "sage-pool"])
    sp.add_argument("--backend", default="dgl", choices=["dgl", "pyg"])
    sp.add_argument("--gespmm", action="store_true", help="swap in GE-SpMM")
    sp.add_argument("--epochs", type=_positive_int, default=20)
    sp.add_argument("--hidden", type=_positive_int, default=16)
    sp.add_argument("--layers", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--gpu", default=GTX_1080TI.name, choices=sorted(KNOWN_GPUS))
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("scenario", help="inference / sampled-training amortization")
    add_graph_opts(sp)
    sp.add_argument("--feature-dim", type=_positive_int, default=128)
    sp.add_argument("--batches", type=_positive_int, default=4)
    sp.set_defaults(fn=cmd_scenario)

    sp = sub.add_parser("roofline", help="roofline placement of kernels")
    add_graph_opts(sp)
    sp.add_argument("--n", type=_positive_int, default=256)
    sp.add_argument("--kernels", nargs="+", default=["simple", "crc", "gespmm", "cusparse"],
                    choices=sorted(ALL_KERNELS))
    sp.set_defaults(fn=cmd_roofline)

    sp = sub.add_parser("tune", help="per-matrix coarsening-factor tuning")
    add_graph_opts(sp)
    sp.add_argument("--n", type=_positive_int, default=512)
    sp.set_defaults(fn=cmd_tune)

    sp = sub.add_parser(
        "gate",
        help="benchmark regression gate: diff BENCH documents, fail on drift",
    )
    sp.add_argument("--baseline", default=DEFAULT_BENCH, metavar="PATH",
                    help="committed BENCH document to gate against")
    sp.add_argument("--current", default=None, metavar="PATH",
                    help="current BENCH document; omitted = regenerate the "
                         "telemetry sweep in-process")
    sp.add_argument("--accept", default=None, metavar="PATH",
                    help="accepted-drift annotation file (default: "
                         "BENCH_accepted_drift.json next to the baseline, "
                         "if present)")
    sp.add_argument("--time-tol", type=float, default=0.0, metavar="REL",
                    help="relative tolerance for per-cell time drift")
    sp.add_argument("--gflops-tol", type=float, default=0.0, metavar="REL",
                    help="relative tolerance for per-cell GFLOPS drift")
    sp.add_argument("--geomean-tol", type=float, default=0.0, metavar="REL",
                    help="relative tolerance for geomean-speedup drift")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the machine-readable gate report")
    # Regeneration knobs; must mirror `make telemetry` for a clean tree
    # to gate green against the committed document.
    sp.add_argument("--graphs", type=_positive_int, default=6)
    sp.add_argument("--n", type=_positive_int, nargs="+", default=[128, 512])
    sp.add_argument("--max-nnz", type=int, default=300_000)
    sp.add_argument("--gpu", default=GTX_1080TI.name, choices=sorted(KNOWN_GPUS))
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="disk cache for the in-process regeneration sweep "
                         "(same semantics as `sweep --cache-dir`)")
    sp.add_argument("--explain", action="store_true",
                    help="on drift, diff the per-cell attribution blocks "
                         "and name the ceiling/factor that moved")
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_gate)

    sp = sub.add_parser(
        "report",
        help="render a Markdown/JSON performance report from a BENCH document",
    )
    sp.add_argument("--baseline", default=None, metavar="PATH",
                    help=f"BENCH document to report on (default: {DEFAULT_BENCH}, "
                         "or none when --trace is given)")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="span-trace JSONL to aggregate into a profile tree")
    sp.add_argument("--metrics", default=None, metavar="PATH",
                    help="metrics-registry JSONL for measured cache hit rates")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the Markdown report here (default: stdout)")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the machine-readable report")
    sp.add_argument("--folded", default=None, metavar="PATH",
                    help="write a collapsed-stack flamegraph export "
                         "(requires --trace)")
    sp.add_argument("--folded-weight", default="wall", choices=["wall", "sim"],
                    help="weight folded stacks by wall or simulated time")
    sp.add_argument("--top", type=_positive_int, default=3, metavar="N",
                    help="cells listed per ceiling in 'Slowest cells'")
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser(
        "cache",
        help="inspect (stats) or clear the on-disk estimate/shard cache",
    )
    sp.add_argument("action", choices=["stats", "clear"])
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="cache root (default: $REPRO_CACHE_DIR)")
    sp.set_defaults(fn=cmd_cache)

    sp = sub.add_parser(
        "corpus",
        help="corpus-scale streaming sweep: shards, checkpoints, win-rate "
             "roll-up (see docs/PERFORMANCE.md 'Corpus sweeps')",
    )
    sp.add_argument("--preset", default="dlmc",
                    choices=["dlmc", "graphs", "mixed"],
                    help="which corpus to stream (DLMC-style pruned-DNN "
                         "matrices, graph generators, or both)")
    sp.add_argument("--limit", type=_positive_int, default=None, metavar="N",
                    help="corpus size (widens the seed range to reach N)")
    sp.add_argument("--shards", type=_positive_int, default=None, metavar="S",
                    help="partition the corpus into S shards")
    sp.add_argument("--shard-size", type=_positive_int, default=32, metavar="M",
                    help="matrices per shard (ignored with --shards)")
    sp.add_argument("--max-shards", type=int, default=None, metavar="S",
                    help="stop after S shards (simulates an interrupted "
                         "sweep; rerun with --cache-dir to resume)")
    sp.add_argument("--resume", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="restore completed shards from the disk cache "
                         "(--no-resume recomputes but still checkpoints)")
    sp.add_argument("--n", type=_positive_int, nargs="+", default=[64])
    sp.add_argument("--gpu", default=GTX_1080TI.name, choices=sorted(KNOWN_GPUS))
    sp.add_argument("--kernels", nargs="+", default=["gespmm", "mergepath"],
                    choices=sorted(ALL_KERNELS))
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="checkpoint completed shards (and estimates) "
                         "here; a killed run resumes with zero recomputation")
    sp.add_argument("--rollup-json", default=None, metavar="PATH",
                    help="write the deterministic win-rate roll-up JSON")
    sp.add_argument("--host-json", default=None, metavar="PATH",
                    help="write host-side stats (computed/restored shard and "
                         "cell counts; machine-varying, kept out of the "
                         "roll-up)")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress per-shard progress lines")
    add_telemetry_opts(sp)
    sp.set_defaults(fn=cmd_corpus)

    sp = sub.add_parser("oom", help="paper-scale out-of-memory report")
    sp.add_argument("--n", type=_positive_int, default=512)
    sp.set_defaults(fn=cmd_oom)

    sp = sub.add_parser("trace", help="observed profile run that dumps telemetry")
    add_graph_opts(sp)
    sp.add_argument("--n", type=_positive_int, default=128, help="dense feature width")
    sp.add_argument("--kernels", nargs="+", default=["simple", "crc", "gespmm", "cusparse"],
                    choices=sorted(ALL_KERNELS))
    add_telemetry_opts(sp, trace_default="trace.json")
    sp.set_defaults(fn=cmd_trace)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    graph = getattr(args, "graph", None)
    if graph is not None and graph not in ("random", *_CITATION_GRAPHS, *catalog_names()):
        print(f"repro-bench: unknown graph {graph!r} (expected 'random', "
              f"{', '.join(_CITATION_GRAPHS)} or a SNAP catalog name)", file=sys.stderr)
        return 2
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is None and metrics_out is None:
        return args.fn(args)
    # Telemetry sinks requested: run the command under a fresh tracer and
    # dump trace/metrics afterwards.  Sinks never touch stdout, so the
    # command's own output is unchanged.
    tracer = obs.Tracer()
    prev = obs.set_tracer(tracer)
    try:
        rc = args.fn(args)
    finally:
        obs.set_tracer(prev)
        try:
            if trace_out:
                tracer.write(trace_out)
            if metrics_out:
                Path(metrics_out).write_text(obs.get_registry().to_jsonl() + "\n")
        except (OSError, ValueError) as exc:
            # The run itself succeeded; don't bury that under a traceback.
            print(f"repro-bench: cannot write telemetry sink: {exc}", file=sys.stderr)
            rc = 1
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
