"""Extension — the fixed-format trap (Fastspmm / ELLPACK-R).

The paper dismisses fixed-format preprocess approaches citing Fastspmm
[21] but only benchmarks ASpT; this extension adds the measurement.
ELLPACK-R streams the padded slab, so its fate tracks the padding ratio:
competitive on regular families (road-like), catastrophic on power-law
families — exactly why SNAP-style GNN workloads need CSR-native kernels.
"""

from repro.baselines import FastSpMM
from repro.bench import comparison, format_table, render_claims
from repro.core import GESpMM
from repro.gpusim import GTX_1080TI
from repro.sparse import banded_random, power_law, uniform_random
from repro.sparse.formats import ellpack_width

N = 256


def run():
    families = {
        "road-like (banded)": banded_random(30_000, 300_000, bandwidth=16, seed=9),
        "p2p-like (uniform)": uniform_random(30_000, 300_000, seed=9),
        "social-like (power law)": power_law(30_000, 300_000, seed=9),
    }
    rows = []
    ratios = {}
    ge, fs = GESpMM(), FastSpMM()
    for name, g in families.items():
        pad = g.nrows * ellpack_width(g) / max(g.nnz, 1)
        t_ge = ge.estimate(g, N, GTX_1080TI).time_s
        t_fs = fs.estimate(g, N, GTX_1080TI).time_s
        pre = fs.preprocess_time(g, GTX_1080TI)
        ratios[name] = t_fs / t_ge
        rows.append((name, f"{pad:.1f}x", f"{t_fs / t_ge:.2f}x", f"{(t_fs + pre) / t_ge:.2f}x"))
    return rows, ratios


def test_ext_fastspmm_padding(benchmark, emit):
    rows, ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["family", "ELLPACK padding", "Fastspmm/GE (kernel)", "w/ conversion"],
        rows,
        title=f"Fixed-format (ELLPACK-R) cost by graph family (N={N}, GTX 1080Ti)",
    )
    claims = [
        comparison("regular families near parity", "ELLPACK fine on regular rows",
                   f"banded {ratios['road-like (banded)']:.2f}x",
                   ratios["road-like (banded)"] < 1.4),
        comparison("power-law families collapse", "padding up to the max row length",
                   f"{ratios['social-like (power law)']:.1f}x slower",
                   ratios["social-like (power law)"] > 3),
    ]
    assert ratios["road-like (banded)"] < 1.4
    assert ratios["social-like (power law)"] > 3
    emit("ext_fastspmm_padding", table + "\n\n" + render_claims(claims, "fixed-format check"))
