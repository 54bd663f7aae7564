"""Structured tracing: nestable spans over wall-clock and simulated time.

The paper's evaluation is built from *observed* execution — nvprof
counters, profiler timelines — and this module gives the reproduction the
same instrument.  A :class:`Tracer` records a tree of named spans, each
carrying wall-clock duration, accumulated *simulated* kernel time
(:func:`add_sim_time`), and arbitrary attributes, and exports them as
JSONL (one span per line) or Chrome trace-event JSON loadable in
``chrome://tracing`` / Perfetto.

Zero-overhead-by-default: no tracer is installed at import time, and
:func:`span` with no active tracer is a no-op that yields ``None`` —
existing scripts' stdout stays byte-identical.  Install one with
:func:`set_tracer` or the :func:`tracing` context manager::

    from repro.obs import tracing, span

    with tracing() as tracer:
        with span("sweep.cell", kernel="GE-SpMM", n=128):
            ...
    tracer.write("trace.json")          # Chrome trace-event format
    tracer.write("trace.jsonl")         # one span per line

Simulated time flows in from the instrumented hot paths (kernel
``estimate``, the :class:`~repro.gnn.device.SimDevice` ledger) and is
attributed to **every** open span, so an epoch span sees the total of its
layers and a layer span the total of its kernels.

The installed tracer is process-global with one span stack, so it is not
thread-safe; ``repro`` starts no threads of its own.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "event",
    "add_sim_time",
    "get_tracer",
    "set_tracer",
    "tracing",
]

PathLike = Union[str, Path]


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    name: str
    index: int  # position in the tracer's record list (stable id)
    parent: Optional[int]  # index of the enclosing span, None at root
    depth: int  # nesting depth, 0 at root
    start_s: float  # wall-clock offset from trace start
    attrs: Dict[str, Any] = field(default_factory=dict)
    end_s: Optional[float] = None  # None while the span is open
    sim_time_s: float = 0.0  # simulated device time inside the span
    status: str = "ok"  # "ok" | "error"
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def as_dict(self) -> Dict[str, Any]:
        d = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "sim_time_s": self.sim_time_s,
            "status": self.status,
            "attrs": self.attrs,
        }
        if self.events:
            d["events"] = self.events
        return d


class Tracer:
    """Records a span tree; one per observed run.

    ``clock`` is injectable (a zero-arg callable returning seconds) so
    tests can drive deterministic timelines; the default is
    :func:`time.perf_counter`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self._origin = self._clock()
        self.records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        #: pre-built Chrome trace events appended verbatim by
        #: :meth:`to_chrome` — the carrier for simulated-device timelines
        #: (per-warp traces, one tid per warp; see
        #: ``repro.gpusim.warptrace``).  Not part of the JSONL span export.
        self.chrome_events: List[Dict[str, Any]] = []

    # -- core protocol -------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._origin

    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> SpanRecord:
        parent = self._stack[-1] if self._stack else None
        rec = SpanRecord(
            name=name,
            index=len(self.records),
            parent=parent.index if parent else None,
            depth=len(self._stack),
            start_s=self._now(),
            attrs=dict(attrs or {}),
        )
        self.records.append(rec)
        self._stack.append(rec)
        return rec

    def end(self, error: bool = False) -> SpanRecord:
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        rec = self._stack.pop()
        rec.end_s = self._now()
        if error:
            rec.status = "error"
        return rec

    def add_sim_time(self, seconds: float) -> None:
        """Attribute simulated device time to every open span."""
        for rec in self._stack:
            rec.sim_time_s += seconds

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an instant event to the innermost open span (or drop it
        silently at root, keeping call sites unconditional)."""
        if self._stack:
            self._stack[-1].events.append(
                {"name": name, "t_s": self._now(), "attrs": attrs}
            )

    def add_chrome_events(self, events: List[Dict[str, Any]]) -> None:
        """Append pre-built Chrome trace-event dicts (device timelines).

        Callers own the event shape (``ph``/``pid``/``tid``/``ts``...);
        the tracer just carries them into :meth:`to_chrome`.  Use distinct
        ``pid`` values per device/kernel so span rows (pid 0) stay
        separate from device rows.
        """
        self.chrome_events.extend(events)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    # -- export --------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per span, in open order."""
        return "\n".join(json.dumps(r.as_dict(), sort_keys=True) for r in self.records)

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

        Spans become complete ("X") events; span events become instant
        ("i") events.  Simulated time rides along in ``args`` so the
        visual timeline (wall-clock of the model evaluation) and the
        modelled device time are both visible.
        """
        events: List[Dict[str, Any]] = []
        for r in self.records:
            args = dict(r.attrs)
            args["sim_time_ms"] = r.sim_time_s * 1e3
            if r.status != "ok":
                args["status"] = r.status
            events.append(
                {
                    "name": r.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": r.start_s * 1e6,  # microseconds
                    "dur": r.duration_s * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
            for ev in r.events:
                events.append(
                    {
                        "name": ev["name"],
                        "cat": "repro",
                        "ph": "i",
                        "s": "t",
                        "ts": ev["t_s"] * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": dict(ev["attrs"]),
                    }
                )
        events.extend(self.chrome_events)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: PathLike, fmt: Optional[str] = None) -> Path:
        """Write the trace to ``path``.

        ``fmt`` selects the format explicitly: ``"jsonl"`` (one span per
        line) or ``"chrome"`` (trace-event JSON).  When ``fmt`` is None
        it is inferred from the suffix — ``.jsonl`` -> JSONL, ``.json``
        -> Chrome — and any other suffix raises :class:`ValueError`
        rather than silently emitting Chrome JSON into a file no viewer
        will recognize.
        """
        p = Path(path)
        if fmt is None:
            if p.suffix == ".jsonl":
                fmt = "jsonl"
            elif p.suffix == ".json":
                fmt = "chrome"
            else:
                raise ValueError(
                    f"cannot infer trace format from suffix {p.suffix!r} "
                    f"(expected .json or .jsonl); pass fmt='chrome' or "
                    f"fmt='jsonl'"
                )
        if fmt == "jsonl":
            p.write_text(self.to_jsonl() + "\n")
        elif fmt == "chrome":
            p.write_text(json.dumps(self.to_chrome(), sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")
        return p


# ----------------------------------------------------------------------
# Process-global tracer (None by default: tracing is opt-in)
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is off."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or None to disable); returns the previous one."""
    global _TRACER
    prev = _TRACER
    _TRACER = tracer
    return prev


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[SpanRecord]]:
    """Open a nested span on the active tracer; no-op when tracing is off.

    The yielded :class:`SpanRecord` (or None) can take late attributes::

        with span("tune.cf", n=n) as s:
            best = ...
            if s is not None:
                s.attrs["best_cf"] = best
    """
    t = _TRACER
    if t is None:
        yield None
        return
    rec = t.begin(name, attrs)
    try:
        yield rec
    except BaseException:
        t.end(error=True)
        raise
    else:
        t.end()


def add_sim_time(seconds: float) -> None:
    """Attribute simulated device time to all open spans (no-op untraced)."""
    t = _TRACER
    if t is not None:
        t.add_sim_time(seconds)


def event(name: str, **attrs: Any) -> None:
    """Attach an instant event to the current span (no-op untraced)."""
    t = _TRACER
    if t is not None:
        t.event(name, **attrs)


@contextmanager
def tracing(clock: Optional[Callable[[], float]] = None) -> Iterator[Tracer]:
    """Install a fresh tracer for the duration of the block."""
    tracer = Tracer(clock=clock)
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)
