"""Conclusive quantum state transfer through parallel spin-chain channels.

Reduced single-excitation simulation of the dual-rail repeated-measurement
protocol, schedule optimization, amplitude-damping noise, scaling-law fits,
and a full-Hilbert-space brute-force oracle for validation.
"""

from .chain_core import (
    ChainSpec,
    SectorHamiltonian,
    SpectralDecomposition,
    build_sector_hamiltonian,
    diagonalize,
    first_peak,
    transition_amplitude,
)
from .protocol import DualRailState, MeasurementRecord, NoiseParams, Schedule, run_schedule
from .scheduler import ThresholdNotReached, greedy_optimize, uniform_schedule

__all__ = [
    "ChainSpec",
    "SectorHamiltonian",
    "SpectralDecomposition",
    "build_sector_hamiltonian",
    "diagonalize",
    "first_peak",
    "transition_amplitude",
    "NoiseParams",
    "DualRailState",
    "MeasurementRecord",
    "run_schedule",
    "Schedule",
    "ThresholdNotReached",
    "greedy_optimize",
    "uniform_schedule",
]

__version__ = "0.1.0"
