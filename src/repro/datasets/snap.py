"""The 64-matrix SNAP-like benchmark suite.

The paper's kernel sweep (Figs 8/9/11, Tables VII/VIII) uses the 64 valid
graphs of the SNAP group in the SuiteSparse Matrix Collection (sizes M
from 1005 to 4,847,571, nnz/row from 1.58 to 32.53, FriendSter/Twitter
omitted for memory).  Offline we build *name- and structure-matched
synthetic twins*: each catalog entry records the real matrix's dimensions
and its structural family, and the matching generator reproduces the
degree skew and column locality that family exhibits —

* ``social``/``web``/``comm``  -> power-law (heavy-tailed rows),
* ``road``                     -> banded (short uniform rows, high locality),
* ``p2p``                      -> uniform random,
* ``collab``/``citation``/``product`` -> RMAT-like clustered structure.

``load_suite(max_nnz=...)`` scales each twin down proportionally (default
cap 300k nonzeros) so the full 64-graph x 3-N x 2-GPU sweep runs in
seconds; pass ``max_nnz=None`` for paper-scale sizes.  Scaling preserves
nnz/row and the family structure, which is what the kernels and the
memory model respond to.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import banded_random, power_law, rmat, uniform_random

__all__ = ["SnapEntry", "SNAP_CATALOG", "load_graph", "load_suite", "catalog_names"]


@dataclass(frozen=True)
class SnapEntry:
    """One SuiteSparse SNAP-group matrix: published size + family."""

    name: str
    m: int
    nnz: int
    family: str


# SuiteSparse SNAP group (FriendSter and Twitter omitted, as in the
# paper).  Sizes follow the collection's published matrix statistics.
SNAP_CATALOG: List[SnapEntry] = [
    SnapEntry("amazon0302", 262111, 1234877, "product"),
    SnapEntry("amazon0312", 400727, 3200440, "product"),
    SnapEntry("amazon0505", 410236, 3356824, "product"),
    SnapEntry("amazon0601", 403394, 3387388, "product"),
    SnapEntry("as-735", 7716, 26467, "p2p"),
    SnapEntry("as-Skitter", 1696415, 22190596, "web"),
    SnapEntry("as-caida", 31379, 106762, "p2p"),
    SnapEntry("ca-AstroPh", 18772, 396160, "collab"),
    SnapEntry("ca-CondMat", 23133, 186936, "collab"),
    SnapEntry("ca-GrQc", 5242, 28980, "collab"),
    SnapEntry("ca-HepPh", 12008, 237010, "collab"),
    SnapEntry("ca-HepTh", 9877, 51971, "collab"),
    SnapEntry("cit-HepPh", 34546, 421578, "citation"),
    SnapEntry("cit-HepTh", 27770, 352807, "citation"),
    SnapEntry("cit-Patents", 3774768, 16518948, "citation"),
    SnapEntry("com-Amazon", 334863, 1851744, "product"),
    SnapEntry("com-DBLP", 317080, 2099732, "collab"),
    SnapEntry("com-LiveJournal", 3997962, 69362378, "social"),
    SnapEntry("com-Youtube", 1134890, 5975248, "social"),
    SnapEntry("email-Enron", 36692, 367662, "comm"),
    SnapEntry("email-EuAll", 265214, 420045, "comm"),
    SnapEntry("email-Eu-core", 1005, 25571, "comm"),
    SnapEntry("loc-Brightkite", 58228, 428156, "social"),
    SnapEntry("loc-Gowalla", 196591, 1900654, "social"),
    SnapEntry("oregon1_010526", 11174, 46818, "p2p"),
    SnapEntry("oregon2_010526", 11461, 65460, "p2p"),
    SnapEntry("p2p-Gnutella04", 10879, 39994, "p2p"),
    SnapEntry("p2p-Gnutella05", 8846, 31839, "p2p"),
    SnapEntry("p2p-Gnutella06", 8717, 31525, "p2p"),
    SnapEntry("p2p-Gnutella08", 6301, 20777, "p2p"),
    SnapEntry("p2p-Gnutella09", 8114, 26013, "p2p"),
    SnapEntry("p2p-Gnutella24", 26518, 65369, "p2p"),
    SnapEntry("p2p-Gnutella25", 22687, 54705, "p2p"),
    SnapEntry("p2p-Gnutella30", 36682, 88328, "p2p"),
    SnapEntry("p2p-Gnutella31", 62586, 147892, "p2p"),
    SnapEntry("roadNet-CA", 1971281, 5533214, "road"),
    SnapEntry("roadNet-PA", 1088092, 3083796, "road"),
    SnapEntry("roadNet-TX", 1379917, 3843320, "road"),
    SnapEntry("soc-Epinions1", 75888, 508837, "social"),
    SnapEntry("soc-LiveJournal1", 4847571, 68993773, "social"),
    SnapEntry("soc-Pokec", 1632803, 30622564, "social"),
    SnapEntry("soc-Slashdot0811", 77360, 905468, "social"),
    SnapEntry("soc-Slashdot0902", 82168, 948464, "social"),
    SnapEntry("soc-sign-Slashdot081106", 77350, 516575, "social"),
    SnapEntry("soc-sign-Slashdot090216", 81867, 545671, "social"),
    SnapEntry("soc-sign-Slashdot090221", 82140, 549202, "social"),
    SnapEntry("soc-sign-epinions", 131828, 841372, "social"),
    SnapEntry("sx-askubuntu", 159316, 964437, "comm"),
    SnapEntry("sx-mathoverflow", 24818, 506550, "comm"),
    SnapEntry("sx-stackoverflow", 2601977, 63497050, "comm"),
    SnapEntry("sx-superuser", 194085, 1443339, "comm"),
    SnapEntry("twitter_combined", 81306, 2420766, "social"),
    SnapEntry("web-BerkStan", 685230, 7600595, "web"),
    SnapEntry("web-Google", 916428, 5105039, "web"),
    SnapEntry("web-NotreDame", 325729, 1497134, "web"),
    SnapEntry("web-Stanford", 281903, 2312497, "web"),
    SnapEntry("wiki-RfA", 11381, 189004, "social"),
    SnapEntry("wiki-Talk", 2394385, 5021410, "comm"),
    SnapEntry("wiki-Vote", 8297, 103689, "social"),
    SnapEntry("wiki-topcats", 1791489, 28511807, "web"),
    SnapEntry("cit-HepPh-dates", 30567, 347414, "citation"),
    SnapEntry("email-Eu-core-temporal", 1005, 24929, "comm"),
    SnapEntry("sx-askubuntu-a2q", 159316, 262106, "comm"),
    SnapEntry("higgs-twitter", 456626, 14855842, "social"),
]

assert len(SNAP_CATALOG) == 64, "the paper's suite has exactly 64 matrices"

_cache: Dict[Tuple[str, Optional[int], int], CSRMatrix] = {}


def catalog_names() -> List[str]:
    """Matrix names in alphabetical order — the paper's ``matrix_id``
    axis in Figs 8/9/11 is this ordering."""
    return sorted(e.name for e in SNAP_CATALOG)


def _entry(name: str) -> SnapEntry:
    for e in SNAP_CATALOG:
        if e.name == name:
            return e
    raise KeyError(f"unknown SNAP matrix {name!r}")


def load_graph(name: str, max_nnz: Optional[int] = 300_000, seed: int = 11) -> CSRMatrix:
    """Build (and cache) the synthetic twin of one catalog matrix,
    scaled so that nnz <= ``max_nnz`` while preserving nnz/row."""
    key = (name, max_nnz, seed)
    if key in _cache:
        return _cache[key]
    e = _entry(name)
    scale = 1.0
    if max_nnz is not None and e.nnz > max_nnz:
        scale = max_nnz / e.nnz
    m = max(int(e.m * scale), 64)
    nnz = max(int(e.nnz * scale), m)
    # crc32, not hash(): str hashing is salted per process, which would
    # regenerate a *different* twin (and different simulated times) on
    # every run — breaking byte-stable benchmark artifacts.
    gseed = seed + (zlib.crc32(name.encode()) % 100003)
    if e.family in ("social", "web", "comm"):
        g = power_law(m, nnz, exponent=2.1, seed=gseed)
    elif e.family == "road":
        g = banded_random(m, nnz, bandwidth=max(m // 500, 4), seed=gseed)
    elif e.family == "p2p":
        g = uniform_random(m, nnz, seed=gseed)
    else:  # collab / citation / product: clustered, RMAT-like
        scale_bits = max(int(m - 1).bit_length(), 6)
        ef = max(nnz // (1 << scale_bits), 1)
        g = rmat(scale_bits, edge_factor=ef, seed=gseed)
    _cache[key] = g
    return g


def load_suite(
    max_nnz: Optional[int] = 300_000, seed: int = 11, names: Optional[Iterable[str]] = None
) -> Dict[str, CSRMatrix]:
    """Load the whole suite (or a named subset), alphabetically ordered."""
    selected = list(names) if names is not None else catalog_names()
    return {name: load_graph(name, max_nnz, seed) for name in selected}
