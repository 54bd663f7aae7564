"""Observability layer: structured tracing + metrics, dependency-free.

``repro.obs`` is the instrument the rest of the stack records into: the
simulated-GPU hot paths (kernel estimates, nvprof-style profiling), the
adaptive/tuning decision points, the benchmark sweep runner, and the GNN
training/inference loops all emit spans and metrics through this package.
See ``docs/OBSERVABILITY.md`` for the formats and the CLI flags
(``--trace-out`` / ``--metrics-out``) that dump them.

Nothing here imports the rest of ``repro`` (so every module can safely
import it) and nothing is emitted unless a sink is asked for: with no
tracer installed and nobody calling ``to_jsonl``, instrumented code paths
produce byte-identical stdout to an uninstrumented build.

Threads: ``repro`` starts none.  The active :class:`Tracer` and
:class:`MetricsRegistry` are process-global and **not thread-safe** (one
span stack, unlocked counter updates).  The locks elsewhere in the
package (estimate memo, host workspace pool, ``DiskCache``) exist for
embedding callers that run ``repro`` from threads of their own: their
caches stay intact, but span nesting and counter totals are not guaranteed.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.report import (
    ProfileNode,
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
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    add_sim_time,
    event,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "event",
    "add_sim_time",
    "get_tracer",
    "set_tracer",
    "tracing",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
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
]
