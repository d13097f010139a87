"""Shared result type for baseline accelerator/CPU models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class BaselineResult:
    """Traffic and timing estimate of one baseline on one input.

    Attributes:
        name: Model name ('MKL', 'IP', 'OuterSPACE', 'SpArch').
        cycles: Execution time in the model's clock cycles.
        frequency_hz: The model's clock.
        traffic_bytes: DRAM bytes by category
            (A / B / C / partial_read / partial_write).
        flops: Multiply-accumulate operations.
        c_nnz: Output nonzero count the model priced C traffic with.
    """

    name: str
    cycles: float
    frequency_hz: float
    traffic_bytes: Dict[str, int]
    flops: int
    c_nnz: int

    @property
    def total_traffic(self) -> int:
        return sum(self.traffic_bytes.values())

    @property
    def runtime_seconds(self) -> float:
        return self.cycles / self.frequency_hz

    def normalized_traffic(self, compulsory_bytes: int) -> float:
        return self.total_traffic / max(1, compulsory_bytes)

    def normalized_breakdown(self, compulsory_bytes: int) -> Dict[str, float]:
        compulsory = max(1, compulsory_bytes)
        return {k: v / compulsory for k, v in self.traffic_bytes.items()}


# Re-exported for baseline callers; single definition in analysis.traffic.
from repro.analysis.traffic import compulsory_traffic  # noqa: E402,F401
