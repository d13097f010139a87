"""The MKL software baseline model (paper Sec. 5).

The paper compares against ``mkl_sparse_spmm`` on a 4-core Skylake Xeon with
two DDR4-2400 channels. We model it as a roofline over the Gustavson kernel:

* compute time: flops / (cores x frequency x efficiency), where efficiency
  captures SpGEMM's irregular-access penalty. Efficiency grows with B's
  mean row length — longer rows amortize per-row accumulator setup, which
  is why MKL closes part of the gap on denser matrices (paper: gmean 38x
  speedup on the sparse common set vs 17x on the denser extended set).
* memory time: A + C streamed once; B through an LLC-sized LRU reuse model.

The efficiency curve's two constants are global calibration values — never
tuned per matrix.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CpuConfig, ELEMENT_BYTES, OFFSET_BYTES
from repro.analysis.reuse import b_read_traffic, gustavson_row_stream
from repro.baselines.common import BaselineResult
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import flops as count_flops

#: Efficiency curve: fraction of peak FLOPs SpGEMM sustains per core.
_EFFICIENCY_BASE = 0.008
_EFFICIENCY_PER_NNZ = 0.0015
_EFFICIENCY_CAP = 0.12


def spgemm_efficiency(avg_b_row_nnz: float) -> float:
    """Sustained fraction of peak FLOPs as a function of B row length."""
    return min(_EFFICIENCY_CAP,
               _EFFICIENCY_BASE + _EFFICIENCY_PER_NNZ * avg_b_row_nnz)


def run_mkl_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[CpuConfig] = None,
    *,
    c_nnz: int,
) -> BaselineResult:
    """Estimate MKL's runtime and traffic for C = A x B.

    Args:
        a: Left operand.
        b: Right operand.
        config: CPU platform parameters.
        c_nnz: Nonzeros of the output, which C write traffic is priced
            with (:func:`repro.matrices.product_nnz`).
    """
    config = config or CpuConfig()
    flops = count_flops(a, b)

    a_bytes = a.nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES
    c_bytes = c_nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES
    b_bytes = b_read_traffic(
        gustavson_row_stream(a), b, config.llc_bytes)
    traffic = {
        "A": a_bytes,
        "B": b_bytes,
        "C": c_bytes,
        "partial_read": 0,
        "partial_write": 0,
    }

    avg_b_row = b.nnz / max(1, b.num_rows)
    efficiency = spgemm_efficiency(avg_b_row)
    effective_flops = config.num_cores * config.frequency_hz * efficiency
    compute_seconds = flops / effective_flops if flops else 0.0
    memory_seconds = (
        sum(traffic.values()) / config.memory_bandwidth_bytes_per_s
    )
    seconds = max(compute_seconds, memory_seconds)
    return BaselineResult(
        name="MKL",
        cycles=seconds * config.frequency_hz,
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
