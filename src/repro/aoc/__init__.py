"""The Intel-AOC offline-compiler behavioural model.

Dependence analysis -> initiation intervals, LSU inference (coalescing,
replication, alignment, caches), ALUT/FF/BRAM/DSP estimation, fmax and
routing, with ``compile_program(..., placement_seed=N)`` modelling
Quartus seed sweeps.  Contract: identical inputs produce identical
:class:`Bitstream` objects, and the thesis's fit/route failures
reproduce at the same design points (``FitError``/``RoutingError``).
"""

from repro.aoc.analysis import KernelAnalysis, LSU, analyze
from repro.aoc.compiler import Bitstream, HwKernel, compile_program
from repro.aoc.constants import AOCConstants, DEFAULT_CONSTANTS
from repro.aoc.fmax import TimingReport, congestion_metric, timing
from repro.aoc.resources import ResourceEstimate, estimate_kernel
from repro.aoc.report import area_row, format_area_table

__all__ = [
    "AOCConstants", "Bitstream", "DEFAULT_CONSTANTS", "HwKernel",
    "KernelAnalysis", "LSU", "ResourceEstimate", "TimingReport", "analyze",
    "area_row", "compile_program", "congestion_metric", "estimate_kernel",
    "format_area_table", "timing",
]
