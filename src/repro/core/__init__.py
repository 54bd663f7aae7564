"""The paper's primary contribution: GE-SpMM and its two techniques
(Coalesced Row Caching and Coarse-grained Warp Merging)."""

from repro.core.access_profile import (
    AccessProfile,
    access_profile,
    clear_access_profile,
)
from repro.core.crc import CRCSpMM
from repro.core.cwm import CWMSpMM
from repro.core.gespmm import ADAPTIVE_THRESHOLD, DEFAULT_CF, GESpMM, gespmm, gespmm_like
from repro.core.mergepath import MergePartition, MergePathSpMM, merge_path_partition
from repro.core.sddmm import GESDDMM, edge_softmax, reference_sddmm
from repro.core.simple import SimpleSpMM
from repro.core.fused import Epilogue, FusedGESpMM, RELU_EPILOGUE, bias_relu_epilogue
from repro.core.tuning import TunedSpMM, TuneResult, oracle_gap, tune_cf
from repro.semiring import (
    MAX_TIMES,
    MEAN_TIMES,
    MIN_TIMES,
    PLUS_TIMES,
    Semiring,
    builtin_semirings,
)

__all__ = [
    "AccessProfile",
    "access_profile",
    "clear_access_profile",
    "SimpleSpMM",
    "CRCSpMM",
    "CWMSpMM",
    "GESpMM",
    "gespmm",
    "gespmm_like",
    "ADAPTIVE_THRESHOLD",
    "DEFAULT_CF",
    "MergePathSpMM",
    "MergePartition",
    "merge_path_partition",
    "Semiring",
    "PLUS_TIMES",
    "MAX_TIMES",
    "MIN_TIMES",
    "MEAN_TIMES",
    "builtin_semirings",
    "TunedSpMM",
    "TuneResult",
    "tune_cf",
    "oracle_gap",
    "FusedGESpMM",
    "Epilogue",
    "RELU_EPILOGUE",
    "bias_relu_epilogue",
    "GESDDMM",
    "edge_softmax",
    "reference_sddmm",
]
