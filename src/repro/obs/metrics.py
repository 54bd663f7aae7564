"""Process-global metrics registry: counters, gauges, histograms.

The machine-readable counterpart of the benchmark suite's pretty tables.
Metrics are named, carry sorted key=value labels (the benchmark series
key is ``(kernel, graph, n, gpu)``), and serialize deterministically to
JSONL so two runs of the same workload diff clean.

* :class:`Counter` — monotonically increasing count (kernel launches,
  dispatch decisions, cache hits).
* :class:`Gauge` — last-written value (a sweep cell's GFLOPS, one nvprof
  metric of one profile run).
* :class:`Histogram` — fixed bucket bounds chosen once at construction,
  so p50/p95/p99 are bucket upper edges and therefore **deterministic**:
  the same samples always produce the same percentiles, independent of
  insertion order or platform.

Recording is always on (an in-memory dict update per event, no I/O, no
stdout); *emission* only happens when a caller asks for
:meth:`MetricsRegistry.to_jsonl` — e.g. via ``--metrics-out`` on the
CLI.  That keeps existing scripts byte-identical while letting any run
dump its telemetry after the fact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

LabelValue = Union[str, int, float, bool]
LabelKey = Tuple[Tuple[str, LabelValue], ...]

#: Geometric 1-2-5 ladder spanning 1e-6 .. 5e6 — wide enough for both
#: millisecond kernel times and GFLOPS rates without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 7) for m in (1.0, 2.0, 5.0)
)


def _label_key(labels: Dict[str, LabelValue]) -> LabelKey:
    return tuple(sorted((str(k), v) for k, v in labels.items()))


class Counter:
    """Monotonic event count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-written value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Fixed-bound bucket histogram with deterministic percentiles.

    A percentile is the upper bound of the first bucket whose cumulative
    count reaches the requested rank; samples beyond the last bound land
    in an overflow bucket whose percentile reports the (deterministic)
    observed maximum.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be non-empty and increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, p: float) -> float:
        """Deterministic p-th percentile (0 < p <= 100); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * count)
        cum = 0
        for i, bound in enumerate(self.bounds):
            cum += self.counts[i]
            if cum >= rank:
                return bound
        return float(self.max)  # overflow bucket: observed maximum

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create store of labeled metrics.

    A metric instance is identified by ``(name, kind, sorted labels)``;
    asking twice returns the same object, so call sites stay stateless::

        get_registry().counter("sim.timing.launches", gpu=gpu.name).inc()
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, LabelKey], Metric] = {}

    def _get(self, name: str, kind: str, labels: Dict[str, LabelValue], factory) -> Metric:
        key = (name, kind, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: LabelValue
    ) -> Histogram:
        return self._get(name, "histogram", labels, lambda: Histogram(buckets))

    def observe(self, name: str, value: float, **labels: LabelValue) -> None:
        """Shorthand: record one sample into a default-bucket histogram."""
        self.histogram(name, **labels).observe(value)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()

    # -- export --------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """All series as dicts, sorted by (name, kind, labels)."""
        out = []
        def order(key):  # labels may mix value types; compare their JSON form
            return (key[0], key[1], json.dumps(key[2]))

        for (name, kind, labels) in sorted(self._metrics, key=order):
            metric = self._metrics[(name, kind, labels)]
            row: Dict[str, Any] = {"name": name, "type": kind, "labels": dict(labels)}
            row.update(metric.snapshot())
            out.append(row)
        return out

    def to_jsonl(self) -> str:
        """One JSON object per metric series, deterministically ordered."""
        return "\n".join(json.dumps(row, sort_keys=True) for row in self.snapshot())


# ----------------------------------------------------------------------
# Process-global registry (always recording, never emitting on its own)
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry all instrumented code records into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests isolate with a fresh one);
    returns the previous registry."""
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = registry
    return prev
