#!/usr/bin/env python
"""Kernel anatomy: nvprof-style counters and the CRC/CWM mechanisms.

Walks through the paper's Section III story:

1. count Algorithm 1, Algorithm 2 and CWM on one matrix and show the
   global-load instructions, transactions and efficiency the coalescing
   model produces (the closed-form counters, which the test suite checks
   against a per-warp replay of every access);
2. sweep the coarsening factor and show the reuse/occupancy trade-off.

Run:  python examples/kernel_profiling.py
"""

from repro import GTX_1080TI, RTX_2080, uniform_random
from repro.core import CRCSpMM, CWMSpMM, SimpleSpMM


def main() -> None:
    a = uniform_random(m=512, nnz=8_192, seed=5)
    n = 64

    print(f"matrix: {a}, N={n}\n")
    print(f"{'kernel':16s} {'gld insts':>10s} {'gld trans':>10s} {'gld effi':>9s}")
    for kernel in (SimpleSpMM(), CRCSpMM(), CWMSpMM(2)):
        stats, _, _ = kernel.count(a, n, GTX_1080TI)
        print(
            f"{kernel.name:16s} {stats.global_load.instructions:>10,} "
            f"{stats.global_load.transactions:>10,} "
            f"{stats.gld_efficiency * 100:8.2f}%"
        )

    print("\nCoalesced Row Caching removes the broadcast loads: note the")
    print("instruction drop and the efficiency jump (paper Table V).\n")

    # CF trade-off on a larger matrix (analytic only).
    big = uniform_random(m=65_536, nnz=650_000, seed=5)
    print(f"CWM coarsening-factor sweep on {big} at N=512:")
    print(f"{'GPU':12s} {'CF':>3s} {'time(ms)':>9s} {'occupancy':>10s} {'gld tp (GB/s)':>14s}")
    for gpu in (GTX_1080TI, RTX_2080):
        for cf in (1, 2, 4, 8):
            kernel = CRCSpMM() if cf == 1 else CWMSpMM(cf)
            t = kernel.estimate(big, 512, gpu)
            print(
                f"{gpu.name:12s} {cf:>3d} {t.time_s * 1e3:9.3f} "
                f"{t.occupancy.achieved:10.2f} {t.gld_throughput / 1e9:14.1f}"
            )
    print("\nCF=2 peaks throughput; CF=8 loses occupancy (paper Table VI / Fig 9).")


if __name__ == "__main__":
    main()
