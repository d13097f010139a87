"""SparseZipper CPU matrix-extension SpGEMM model (PAPERS.md).

SparseZipper extends a CPU ISA with *stream zip* instructions: two
sorted (coordinate, value) streams merge in hardware, several elements
per cycle, turning Gustavson's inner merge loop — the part scalar cores
crawl through branch by branch — into a pipelined unit. The paper
reports ~2.4x over an optimized scalar Gustavson kernel on the same
core, with memory behavior unchanged (it is still a cache-based CPU).

Two artifacts here:

* :func:`zipper_spgemm` — the execution *semantics*: a left-fold of
  two-way sorted merges, scaled B row ``k`` zipped into the row
  accumulator in A-column order. Duplicate coordinates combine as
  ``add(accumulated, incoming)``, the same association order as the
  dict oracle, so results are bit-identical to
  :func:`~repro.baselines.spgemm_ref.spgemm_semiring` under *every*
  semiring — the differential suite leans on this.
* :func:`run_sparsezipper_model` — the timing/traffic estimate behind
  the ``sparsezipper`` registry model: MKL's memory model (A and C
  streamed once, B through the LLC reuse model) with the compute
  roofline replaced by the zipper's element throughput.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.reuse import b_read_traffic, gustavson_row_stream
from repro.baselines.common import BaselineResult
from repro.config import CpuConfig, ELEMENT_BYTES, OFFSET_BYTES
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber
from repro.matrices.stats import flops as count_flops
from repro.semiring import ARITHMETIC

#: Elements the zip unit retires per cycle per core (stream width).
ZIPPER_LANES = 4

#: Average passes an element makes through the zipper across the fold —
#: a product enters once and the surviving stream re-enters on later
#: zips; 2.0 is the calibrated Gustavson-fold average.
ZIP_PASS_FACTOR = 2.0

#: Cycles to (re)configure the stream engines per A nonzero.
STREAM_SETUP_CYCLES = 12


def _zip_merge(coords_acc, values_acc, coords_in, values_in, add):
    """Two-pointer sorted merge; duplicates combine as add(acc, in)."""
    out_coords: List[int] = []
    out_values: List[float] = []
    i = j = 0
    len_a, len_b = len(coords_acc), len(coords_in)
    while i < len_a and j < len_b:
        ca, cb = coords_acc[i], coords_in[j]
        if ca < cb:
            out_coords.append(ca)
            out_values.append(values_acc[i])
            i += 1
        elif cb < ca:
            out_coords.append(cb)
            out_values.append(values_in[j])
            j += 1
        else:
            out_coords.append(ca)
            out_values.append(add(values_acc[i], values_in[j]))
            i += 1
            j += 1
    out_coords.extend(coords_acc[i:])
    out_values.extend(values_acc[i:])
    out_coords.extend(coords_in[j:])
    out_values.extend(values_in[j:])
    return out_coords, out_values


def zipper_spgemm(a: CsrMatrix, b: CsrMatrix,
                  semiring=ARITHMETIC) -> CsrMatrix:
    """Stream-zip Gustavson SpGEMM (SparseZipper execution semantics)."""
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    add, mul = semiring.add, semiring.mul
    rows: List[Fiber] = []
    for row in range(a.num_rows):
        coords: List[int] = []
        values: List[float] = []
        start, end = a.offsets[row], a.offsets[row + 1]
        for idx in range(start, end):
            k = int(a.coords[idx])
            scale = a.values[idx]
            b_start, b_end = b.offsets[k], b.offsets[k + 1]
            in_coords = [int(c) for c in b.coords[b_start:b_end]]
            in_values = [mul(scale, v) for v in b.values[b_start:b_end]]
            coords, values = _zip_merge(
                coords, values, in_coords, in_values, add)
        rows.append(Fiber(
            np.asarray(coords, dtype=np.int64),
            np.asarray(values, dtype=np.float64), check=False))
    return CsrMatrix.from_rows(rows, b.num_cols)


def run_sparsezipper_model(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[CpuConfig] = None,
    *,
    c_nnz: int,
) -> BaselineResult:
    """Estimate SparseZipper's runtime and traffic for C = A x B."""
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

    zip_elements = flops * ZIP_PASS_FACTOR
    compute_cycles = (zip_elements / ZIPPER_LANES
                      + a.nnz * STREAM_SETUP_CYCLES) / config.num_cores
    compute_seconds = compute_cycles / config.frequency_hz
    memory_seconds = (
        sum(traffic.values()) / config.memory_bandwidth_bytes_per_s
    )
    seconds = max(compute_seconds, memory_seconds)
    return BaselineResult(
        name="SparseZipper",
        cycles=seconds * config.frequency_hz,
        frequency_hz=config.frequency_hz,
        traffic_bytes=traffic,
        flops=flops,
        c_nnz=c_nnz,
    )
