"""Simulation statistics and reporting helpers."""

from .stats import SimStats, harmonic_mean, speedup

__all__ = ["SimStats", "harmonic_mean", "speedup"]
