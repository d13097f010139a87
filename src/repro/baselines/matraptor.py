"""MatRaptor traffic/timing model [Srivastava et al., MICRO'20] (Sec. 7).

MatRaptor is the concurrent Gustavson-dataflow accelerator the paper
discusses in related work. The crucial difference from Gamma: **it does not
exploit reuse of B fibers** — every B row a nonzero of A references is
streamed from DRAM and used once. Since B-row reuse is exactly how
Gustavson's dataflow minimizes traffic, MatRaptor's improvement over
OuterSPACE (1.8x) falls well short of Gamma's (6.6x without preprocessing).

Model: A and C move once; B bytes equal the *sum over A's nonzeros* of the
referenced row's size (no cache); row-wise parallel PEs give it ample
compute throughput, so it is bandwidth-bound like Gamma.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ELEMENT_BYTES, GammaConfig, OFFSET_BYTES
from repro.baselines.common import BaselineResult
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import flops as count_flops


def run_matraptor_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    *,
    c_nnz: int,
) -> BaselineResult:
    """Estimate MatRaptor's traffic and runtime for C = A x B."""
    config = config or GammaConfig()
    flops = count_flops(a, b)

    a_bytes = a.nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES
    # Every referenced B row is fetched on every use: B traffic equals the
    # total merged input volume (= flops elements).
    b_bytes = flops * ELEMENT_BYTES + a.nnz * OFFSET_BYTES
    c_bytes = c_nnz * ELEMENT_BYTES + a.num_rows * OFFSET_BYTES
    traffic = {
        "A": a_bytes,
        "B": int(b_bytes),
        "C": c_bytes,
        "partial_read": 0,
        "partial_write": 0,
    }
    memory_cycles = sum(traffic.values()) / config.bytes_per_cycle
    compute_cycles = flops / config.num_pes
    return BaselineResult(
        name="MatRaptor",
        cycles=max(memory_cycles, compute_cycles),
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
