"""Per-warp Chrome trace export (the ROADMAP timeline item).

``kernel.trace(...)`` replays warp-by-warp memory behaviour exactly, but
until now its output was aggregate counters only.  This module captures
the batched replay's ``(task, step)``-stamped access records
(:func:`repro.gpusim.batchtrace.record_program`) and rebuilds one
timeline row **per warp task** as Chrome trace events — ``tid`` = warp
task id — so coalescing pathologies are visible in ``chrome://tracing``
/ Perfetto instead of hiding inside a transaction total.

Time is modelled, not measured: within each warp the instructions are
laid out in program-step order, and every instruction's duration is its
**sector count** (one 32-byte transaction = one microsecond-tick).  A
poorly coalesced load therefore literally stretches across the timeline
— a warp whose B-row gathers each cost 4 sectors renders 4x wider than a
perfectly coalesced one, which is exactly the pathology GE-SpMM's
coalesced row caching removes.

Feed the events to a :class:`repro.obs.Tracer` via ``add_chrome_events``
(what ``repro-bench trace --per-warp`` does) or dump them standalone.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.semiring import PLUS_TIMES, Semiring
from repro.gpusim.batchtrace import record_program
from repro.gpusim.config import GPUSpec
from repro.sparse.csr import CSRMatrix

__all__ = ["warp_trace_events", "DEFAULT_MAX_WARPS"]

#: Default cap on exported warps: timelines beyond a few dozen rows stop
#: being readable and the event count scales with nnz per warp.
DEFAULT_MAX_WARPS = 64


def warp_trace_events(
    kernel,
    a: CSRMatrix,
    b: np.ndarray,
    gpu: GPUSpec,
    semiring: Semiring = PLUS_TIMES,
    max_warps: int = DEFAULT_MAX_WARPS,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Replay ``kernel.trace(a, b, gpu)`` and return per-warp Chrome
    trace events (one ``tid`` per warp task, capped at ``max_warps``).

    Raises ``NotImplementedError`` for kernels without a trace mode,
    exactly like ``kernel.trace`` itself.
    """
    with record_program() as program:
        kernel.trace(a, b, gpu, semiring)
    if not program:
        return []

    buffers: List[str] = []
    buffer_code: Dict[str, int] = {}
    kinds: List[str] = []
    kind_code: Dict[str, int] = {}
    task_parts, step_parts, sector_parts, buf_parts, kind_parts = [], [], [], [], []
    for name, kind, task, step, sectors in program:
        if name not in buffer_code:
            buffer_code[name] = len(buffers)
            buffers.append(name)
        if kind not in kind_code:
            kind_code[kind] = len(kinds)
            kinds.append(kind)
        task_parts.append(task)
        step_parts.append(step)
        sector_parts.append(sectors)
        buf_parts.append(np.full(task.shape, buffer_code[name], dtype=np.int64))
        kind_parts.append(np.full(task.shape, kind_code[kind], dtype=np.int64))
    task = np.concatenate(task_parts)
    step = np.concatenate(step_parts)
    sectors = np.concatenate(sector_parts)
    buf = np.concatenate(buf_parts)
    kind = np.concatenate(kind_parts)

    warps = np.unique(task)
    shown = warps[: max(int(max_warps), 1)]
    keep = task <= shown[-1]
    task, step, sectors, buf, kind = (
        arr[keep] for arr in (task, step, sectors, buf, kind)
    )

    # Program order within each warp; stable so equal steps keep record
    # order.  ts = cumulative sector ticks within the warp.
    order = np.lexsort((step, task))
    task, step, sectors, buf, kind = (
        arr[order] for arr in (task, step, sectors, buf, kind)
    )
    cum = np.cumsum(sectors) - sectors
    new_task = np.r_[True, task[1:] != task[:-1]]
    warp_base = np.repeat(
        cum[new_task], np.diff(np.r_[np.nonzero(new_task)[0], task.size])
    )
    ts = cum - warp_base

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{kernel.name} on {gpu.name} (modelled warps)"},
        }
    ]
    for w in shown:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": int(w),
                "args": {"name": f"warp task {int(w)}"},
            }
        )
    for i in range(task.size):
        events.append(
            {
                "name": f"{buffers[buf[i]]} {kinds[kind[i]]}",
                "cat": "warp",
                "ph": "X",
                "pid": pid,
                "tid": int(task[i]),
                "ts": float(ts[i]),
                "dur": float(sectors[i]),
                "args": {"sectors": int(sectors[i])},
            }
        )
    return events
