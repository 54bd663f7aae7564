"""Host wall-time benchmark of the GE-SpMM reproduction.

Runs one named workload (see ``WORKLOADS.md``) in this process and
prints its metrics, one per line with unit, then one JSON object as the
last line of standard output::

    python3 perfbench/run.py --workload train-gcn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``iter_s``,
``step_ms.p50``/``p90``, ``peak_rss_mib``); ``--trace 1`` spends half the
time traced and reports the per-layer metrics instead.  ``error_rate``,
the share of iterations whose output check failed, is printed and
carried by the ``attempted``/``failed`` fields.  ``--workload all`` runs
every workload, each in a fresh process.

Run from the root of a repository checkout: the package is imported from
``src/`` next to this directory.  Before anything is imported the
process re-executes itself with glibc's malloc thresholds pinned (an
adaptive mmap threshold otherwise adds a page-fault tax that depends on
allocation history), BLAS held to one thread, and the
``REPRO_*`` tuning variables removed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("train-sage-pool", "train-gcn", "corpus-sweep", "delta-stream")
_PINNED_MARK = "PERFBENCH_PINNED"


#: BLAS threads per run.  Within the cap of nproc, but one: on a shared
#: 2-vCPU host a two-thread GEMM waits on whichever core a neighbour
#: holds, which measured markedly noisier than one thread.
BLAS_THREADS = "1"


def _pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "MALLOC_MMAP_THRESHOLD_": str(64 * 1024 * 1024),
        "MALLOC_TRIM_THRESHOLD_": str(64 * 1024 * 1024),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        _PINNED_MARK: "1",
    })
    return env


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in a fresh process; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if os.environ.get(_PINNED_MARK) != "1":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  _pinned_env())
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import harness
    import layers
    import workloads

    import_s = time.perf_counter() - t0

    workload = workloads.make_workload(args.workload, args.seed)
    result = harness.run_workload(workload, args.seconds, bool(args.trace), import_s=import_s)

    notes = result.notes
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"setup_repeats={notes['setup_repeats']} iterations={notes['iterations']} "
          f"steps={notes['steps']} traced_iterations={notes['traced_iterations']}")
    units = {**{k: v[0] for k, v in harness.END_TO_END.items()},
             **{k: v[0] for k, v in layers.PER_LAYER.items()}}
    for name, value in result.metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':32s} {notes['error_rate']:14.6g} ratio "
          f"({result.failed} of {result.attempted} iterations failed their check)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
