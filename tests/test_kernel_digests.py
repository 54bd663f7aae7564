"""Pinned output of every kernel model.

Each kernel's ``estimate`` (timing, breakdown, factors and the full
``KernelStats``, array-traffic records in insertion order) is serialized
with :func:`repro.bench.diskcache.timing_to_json` over a grid of two
matrices, four widths and both GPUs, and hashed into one digest per
kernel.  A refactor of the access counting must leave every digest as it
is; a digest that moves means that kernel's numbers changed.

The matrices: a weighted power-law graph with 16 empty rows and a
153-nonzero hub, and a banded matrix whose panels give ASpT dense tiles.
The widths straddle the 8-element sector and the 32-column segment.
"""

import hashlib
import json

import pytest

import repro.baselines
import repro.core
from repro.baselines import (
    ASpTSpMM,
    CusparseCsrmm2,
    DGLFallbackSpMMLike,
    FastSpMM,
    GraphBlastRowSplit,
    GunrockAdvanceSpMM,
    SpMVLoopSpMM,
)
from repro.bench.diskcache import timing_to_json
from repro.core import (
    CRCSpMM,
    CWMSpMM,
    FusedGESpMM,
    GESDDMM,
    GESpMM,
    MergePathSpMM,
    RELU_EPILOGUE,
    SimpleSpMM,
    TunedSpMM,
    bias_relu_epilogue,
)
from repro.gpusim.config import GTX_1080TI, RTX_2080
from repro.gpusim.kernel import SpMMKernel, clear_estimate_memo
from repro.sparse import banded_random, power_law

KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "crc-tile64": lambda: CRCSpMM(tile=64),
    "cwm1": lambda: CWMSpMM(1),
    "cwm2": lambda: CWMSpMM(2),
    "cwm4": lambda: CWMSpMM(4),
    "gespmm": GESpMM,
    "mergepath": MergePathSpMM,
    "tuned": TunedSpMM,
    "fused-relu": lambda: FusedGESpMM(RELU_EPILOGUE),
    "fused-bias-relu": lambda: FusedGESpMM(bias_relu_epilogue()),
    "sddmm": GESDDMM,
    "cusparse": CusparseCsrmm2,
    "graphblast": GraphBlastRowSplit,
    "gunrock": GunrockAdvanceSpMM,
    "aspt": ASpTSpMM,
    "fastspmm": FastSpMM,
    "spmv-loop": SpMVLoopSpMM,
    "dgl-fallback": DGLFallbackSpMMLike,
}

DIGESTS = {
    "simple": "e4b9c998acf56cde728140ee079df8ff",
    "crc": "06d7721f52513585aac2c60a662ddcba",
    "crc-tile64": "2e8f1339b3090a602cb1ce592098aa6e",
    "cwm1": "d18d82ff06f79d23a446854fa2abcf33",
    "cwm2": "4ba2051c94746cb3eea1cfe64f0014a6",
    "cwm4": "e2d3f88ea5bfda611a6b1239438c6aa4",
    "gespmm": "75c17d3c062406eac448c1cc2a0fdd29",
    "mergepath": "a71b3a32b9166541a1bc3301e3030627",
    "tuned": "7ebfc814db0bb897e3ed3237c0d40121",
    "fused-relu": "927db13367ff97fc8dd39ea3e6646417",
    "fused-bias-relu": "8616ba2772c3e43c0cfa419c14345ea9",
    "sddmm": "c5a482fd03cabdc1e525cf1f6f600f74",
    "cusparse": "a3d1b2e5329bd2b55e6798505551db37",
    "graphblast": "334d1c0fb4dd0787908834e31b2a87fe",
    "gunrock": "eb8c26101bf58558daacff2126744108",
    "aspt": "1f2091643e56ad0229d16a092279a906",
    "fastspmm": "cfe4174bcc50b7659bb312bc3effb51e",
    "spmv-loop": "5d1f61af6bb43dac17964beab750d35c",
    "dgl-fallback": "e9fd30732fe99fa362d6251837954f16",
}

WIDTHS = (7, 32, 33, 128)
GPUS = (GTX_1080TI, RTX_2080)


@pytest.fixture(scope="module")
def matrices():
    # Price from count(), not from memo entries another test left behind.
    clear_estimate_memo()
    return (
        power_law(300, 3000, seed=5, weighted=True),
        banded_random(400, 6000, bandwidth=16, seed=2),
    )


def kernel_digest(kernel: SpMMKernel, matrices) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in matrices:
        for n in WIDTHS:
            for gpu in GPUS:
                h.update(json.dumps(timing_to_json(kernel.estimate(a, n, gpu))).encode())
    return h.hexdigest()


def test_grid_shape(matrices):
    hub, band = matrices
    lengths = hub.row_lengths()
    assert int((lengths == 0).sum()) == 16
    assert int(lengths.max()) == 153
    assert ASpTSpMM().preprocess(band).dense_fraction > 0


def test_every_kernel_class_is_pinned():
    exported = {
        obj
        for pkg in (repro.core, repro.baselines)
        for obj in vars(pkg).values()
        if isinstance(obj, type) and issubclass(obj, SpMMKernel)
    }
    pinned = {type(make()) for make in KERNELS.values()}
    assert exported == pinned
    assert DIGESTS.keys() == KERNELS.keys()


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_digest(name, matrices):
    got = kernel_digest(KERNELS[name](), matrices)
    assert got == DIGESTS[name], f"{name}: estimate output changed ({got})"
