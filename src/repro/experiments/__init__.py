"""Experiment harness: the memoizing runner and the figure builders.

The catalog of paper artifacts (``fig12``, ``table3``, ...) that drives
them lives in :mod:`repro.figures.generators`.
"""

from repro.engine import RunRecord, SweepPoint, plan_sweep, run_sweep
from repro.experiments.runner import (
    MODEL_SCALE,
    RUNNER,
    ExperimentRunner,
    scaled_cpu_config,
    scaled_gamma_config,
)

__all__ = [
    "ExperimentRunner",
    "MODEL_SCALE",
    "RUNNER",
    "RunRecord",
    "SweepPoint",
    "plan_sweep",
    "run_sweep",
    "scaled_cpu_config",
    "scaled_gamma_config",
]
