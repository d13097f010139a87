"""RISC-V Vector (RVV) SpGEMM baseline: vectorized SPA on a CPU core.

The other CPU-matrix-extension point of comparison: instead of
SparseZipper's dedicated merge unit, a standard vector ISA (RVV 1.0)
runs the sparse-accumulator kernel with indexed gathers and scatters —
each A nonzero expands B row ``k`` under ``vluxei``/``vsuxei`` into a
dense accumulator, ``vl`` elements at a time. Throughput is governed by
lane utilization: short B rows leave most of the vector register idle,
so efficiency is the mean occupied fraction of a ``VLEN`` strip plus the
fixed per-row strip-mining overhead.

:func:`rvv_spgemm` is the execution semantics (an SPA walk applying the
semiring ``add`` in A-column order per output coordinate — the same
association order as the dict oracle, hence bit-identical results);
:func:`run_rvv_model` is the timing/traffic estimate behind the ``rvv``
registry model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.reuse import b_read_traffic, gustavson_row_stream
from repro.baselines.common import BaselineResult
from repro.config import CpuConfig, ELEMENT_BYTES, OFFSET_BYTES
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber
from repro.matrices.stats import flops as count_flops
from repro.semiring import ARITHMETIC

#: Vector length in 64-bit elements (VLEN=512, the common RVV build).
RVV_LANES = 8

#: Cycles per indexed gather+FMA+scatter strip (chained, one strip in
#: flight per cycle once the pipeline fills).
STRIP_CYCLES = 3

#: Fixed cycles per A nonzero: vsetvli, pointer chase, strip-mine setup.
ROW_SETUP_CYCLES = 8


def rvv_spgemm(a: CsrMatrix, b: CsrMatrix,
               semiring=ARITHMETIC) -> CsrMatrix:
    """SPA-dataflow Gustavson SpGEMM (RVV execution semantics).

    Per output coordinate the semiring ``add`` folds products in
    A-column (``k``) order — exactly the dict oracle's association
    order, so outputs are bit-identical under every semiring.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    add, mul = semiring.add, semiring.mul
    rows: List[Fiber] = []
    for row in range(a.num_rows):
        accumulator: Dict[int, float] = {}
        start, end = a.offsets[row], a.offsets[row + 1]
        for idx in range(start, end):
            k = int(a.coords[idx])
            scale = a.values[idx]
            for j in range(b.offsets[k], b.offsets[k + 1]):
                col = int(b.coords[j])
                product = mul(scale, b.values[j])
                if col in accumulator:
                    accumulator[col] = add(accumulator[col], product)
                else:
                    accumulator[col] = product
        cols = np.asarray(sorted(accumulator), dtype=np.int64)
        rows.append(Fiber(
            cols,
            np.asarray([accumulator[int(c)] for c in cols],
                       dtype=np.float64),
            check=False,
        ))
    return CsrMatrix.from_rows(rows, b.num_cols)


def lane_utilization(b: CsrMatrix) -> float:
    """Mean occupied fraction of a ``RVV_LANES``-wide strip over B rows.

    A row of length L runs ``ceil(L / RVV_LANES)`` strips; utilization
    is L over the strip capacity consumed. Empty rows are skipped by the
    kernel and excluded.
    """
    lengths = b.row_lengths()
    lengths = lengths[lengths > 0]
    if not len(lengths):
        return 1.0
    strips = np.ceil(lengths / RVV_LANES)
    return float(lengths.sum() / (strips.sum() * RVV_LANES))


def run_rvv_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[CpuConfig] = None,
    *,
    c_nnz: int,
) -> BaselineResult:
    """Estimate the RVV core's runtime and traffic for C = A x B."""
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

    utilization = lane_utilization(b)
    strips = flops / (RVV_LANES * utilization) if flops else 0.0
    compute_cycles = (strips * STRIP_CYCLES
                      + a.nnz * ROW_SETUP_CYCLES) / config.num_cores
    compute_seconds = compute_cycles / config.frequency_hz
    memory_seconds = (
        sum(traffic.values()) / config.memory_bandwidth_bytes_per_s
    )
    seconds = max(compute_seconds, memory_seconds)
    return BaselineResult(
        name="RVV",
        cycles=seconds * config.frequency_hz,
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
