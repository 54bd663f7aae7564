"""GPU execution & memory model: the simulated hardware substrate.

This package stands in for the two physical GPUs of the paper's testbed.
See DESIGN.md section 4 for the model definitions and calibration notes.
"""

from repro.gpusim.config import GPUSpec, GTX_1080TI, KNOWN_GPUS, RTX_2080
from repro.gpusim.kernel import SpMMKernel, clear_estimate_memo
from repro.gpusim.memory import AccessStats, KernelStats, segment_sectors
from repro.gpusim.memory_footprint import (
    DeviceOutOfMemory,
    SpmmFootprint,
    check_fits,
    fits,
    spmm_footprint,
)
from repro.gpusim.occupancy import LaunchConfig, Occupancy, compute_occupancy
from repro.gpusim.profiler import ProfileReport, format_metric_table, profile_kernel
from repro.gpusim.roofline import RooflinePoint, roofline_point, roofline_report
from repro.gpusim.timing import (
    ExecHints,
    KernelTiming,
    TimingParams,
    estimate_time,
)

__all__ = [
    "GPUSpec",
    "GTX_1080TI",
    "RTX_2080",
    "KNOWN_GPUS",
    "SpMMKernel",
    "clear_estimate_memo",
    "AccessStats",
    "KernelStats",
    "segment_sectors",
    "DeviceOutOfMemory",
    "SpmmFootprint",
    "spmm_footprint",
    "check_fits",
    "fits",
    "LaunchConfig",
    "Occupancy",
    "compute_occupancy",
    "ExecHints",
    "KernelTiming",
    "TimingParams",
    "estimate_time",
    "RooflinePoint",
    "roofline_point",
    "roofline_report",
    "ProfileReport",
    "profile_kernel",
    "format_metric_table",
]
