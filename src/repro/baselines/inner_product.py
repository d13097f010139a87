"""Tiled inner-product spMspM traffic model (the 'IP' bars of Fig. 3).

Inner-product co-iterates rows of A against columns of B per output
element. With tiling, a block of A rows and a block of B columns are held
on chip and every pairwise intersection within the block pair is computed;
A is then re-read once per B column-block and B once per A row-block.
Following the paper's methodology (Sec. 5), coordinates and values are
stored separately for IP, and values are only fetched on an effectual
intersection.

The model picks the tile split that minimizes traffic subject to the block
pair fitting on chip — i.e., an *optimally* tiled inner product, which is
generous to the baseline.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.config import GammaConfig, OFFSET_BYTES
from repro.baselines.common import BaselineResult
from repro.matrices.csr import CsrMatrix
from repro.matrices.stats import flops as count_flops

#: IP stores 4 B coordinates and 8 B values separately (Sec. 5).
_COORD_BYTES = 4
_VALUE_BYTES = 8


def _length_cv(matrix: CsrMatrix) -> float:
    """Coefficient of variation of row lengths (tile irregularity)."""
    lengths = matrix.row_lengths()
    if len(lengths) == 0:
        return 0.0
    mean = lengths.mean()
    return float(lengths.std() / mean) if mean else 0.0


def run_inner_product_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    *,
    c_nnz: int,
) -> BaselineResult:
    """Estimate the traffic of an optimally tiled inner-product accelerator.

    Args:
        a: Left operand (traversed by row blocks).
        b: Right operand (traversed by column blocks).
        config: Provides the on-chip buffer capacity (iso with Gamma).
        c_nnz: Output nonzeros (:func:`repro.matrices.product_nnz`).
    """
    config = config or GammaConfig()
    flops = count_flops(a, b)
    # The tiler sizes blocks from average density, but per-tile occupancy
    # is "hard-to-predict" on irregular matrices (Sec. 2.3): blocks must
    # leave slack proportional to the row-length dispersion or they
    # overflow. Derate capacity by the coefficient of variation.
    capacity = config.fibercache_bytes / (
        1.0 + _length_cv(a) / 2 + _length_cv(b) / 2)

    a_coord_bytes = a.nnz * _COORD_BYTES + a.num_rows * OFFSET_BYTES
    b_coord_bytes = b.nnz * _COORD_BYTES + b.num_cols * OFFSET_BYTES
    # On-chip bytes per A row / B column (coords only; values stream).
    rows_m, cols_n = a.num_rows, b.num_cols
    avg_row_bytes = max(1.0, a_coord_bytes / max(1, rows_m))
    avg_col_bytes = max(1.0, b_coord_bytes / max(1, cols_n))

    # Choose the split M_t + N_t filling the buffer that minimizes
    #   A_bytes * N/N_t + B_bytes * M/M_t
    # (continuous optimum, then clamped) — an idealized tiler.
    best = None
    budget = capacity
    for fraction in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        tile_m = max(1.0, fraction * budget / avg_row_bytes)
        tile_n = max(1.0, (1 - fraction) * budget / avg_col_bytes)
        passes_a = math.ceil(cols_n / tile_n)
        passes_b = math.ceil(rows_m / tile_m)
        cost = a_coord_bytes * passes_a + b_coord_bytes * passes_b
        if best is None or cost < best[0]:
            best = (cost, passes_a, passes_b)
    coord_traffic, passes_a, passes_b = best

    # Values: fetched only on effectual intersections, cached per tile —
    # at most once per pass, at least once per effectual multiply.
    a_value_traffic = min(a.nnz * _VALUE_BYTES * passes_a,
                          flops * _VALUE_BYTES)
    b_value_traffic = min(b.nnz * _VALUE_BYTES * passes_b,
                          flops * _VALUE_BYTES)
    a_total = (a_coord_bytes * passes_a) + a_value_traffic
    b_total = (b_coord_bytes * passes_b) + b_value_traffic

    c_bytes = c_nnz * (_COORD_BYTES + _VALUE_BYTES) \
        + a.num_rows * OFFSET_BYTES
    traffic = {
        "A": int(a_total),
        "B": int(b_total),
        "C": int(c_bytes),
        "partial_read": 0,
        "partial_write": 0,
    }
    # Inner product traverses full rows/columns per intersection; time is
    # bounded below by coordinate traversal at one element per PE-cycle.
    traversal = (a.nnz * passes_a + b.nnz * passes_b) / config.num_pes
    memory_cycles = sum(traffic.values()) / config.bytes_per_cycle
    return BaselineResult(
        name="IP",
        cycles=max(traversal, memory_cycles),
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
