"""Reference software SpGEMM kernels (Gustavson's algorithm).

Two classic CPU formulations:

* :func:`spgemm_spa` — sparse accumulator (SPA): a dense value/flag array
  per output row, the MATLAB/MKL-style kernel [Gilbert et al. '92].
* :func:`spgemm_hash` — hash-map accumulator, the KNL-style kernel
  [Nagasaka et al. '18].

Both serve as ground truth for the accelerator simulators and as the
algorithmic core of the MKL baseline model. They also count the work the
CPU timing model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber


@dataclass(frozen=True)
class SpgemmCounts:
    """Work performed by a software SpGEMM run.

    Attributes:
        flops: Multiply-accumulate operations.
        output_nnz: Nonzeros in C (before dropping explicit zeros).
        touched_b_rows: Total B-row visits (with repetition).
    """

    flops: int
    output_nnz: int
    touched_b_rows: int


def spgemm_spa(a: CsrMatrix, b: CsrMatrix) -> tuple:
    """Gustavson SpGEMM with a dense sparse-accumulator.

    Returns:
        (C, SpgemmCounts) where C is a CsrMatrix.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    num_cols = b.num_cols
    values = np.zeros(num_cols, dtype=np.float64)
    occupied = np.zeros(num_cols, dtype=bool)
    rows: List[Fiber] = []
    flops = 0
    touched = 0
    for row in range(a.num_rows):
        start, end = a.offsets[row], a.offsets[row + 1]
        nonzero_cols: List[int] = []
        for idx in range(start, end):
            k = int(a.coords[idx])
            scale = a.values[idx]
            touched += 1
            b_start, b_end = b.offsets[k], b.offsets[k + 1]
            b_cols = b.coords[b_start:b_end]
            b_vals = b.values[b_start:b_end]
            flops += len(b_cols)
            fresh = ~occupied[b_cols]
            if fresh.any():
                new_cols = b_cols[fresh]
                occupied[new_cols] = True
                nonzero_cols.extend(new_cols.tolist())
            values[b_cols] += scale * b_vals
        nonzero_cols.sort()
        cols = np.asarray(nonzero_cols, dtype=np.int64)
        rows.append(Fiber(cols, values[cols].copy(), check=False))
        values[cols] = 0.0
        occupied[cols] = False
    c = CsrMatrix.from_rows(rows, num_cols)
    return c, SpgemmCounts(flops=flops, output_nnz=c.nnz,
                           touched_b_rows=touched)


def spgemm_hash(a: CsrMatrix, b: CsrMatrix) -> tuple:
    """Gustavson SpGEMM accumulating into a per-row hash map."""
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    rows: List[Fiber] = []
    flops = 0
    touched = 0
    for row in range(a.num_rows):
        start, end = a.offsets[row], a.offsets[row + 1]
        accumulator: Dict[int, float] = {}
        for idx in range(start, end):
            k = int(a.coords[idx])
            scale = a.values[idx]
            touched += 1
            b_start, b_end = b.offsets[k], b.offsets[k + 1]
            flops += b_end - b_start
            for j in range(b_start, b_end):
                col = int(b.coords[j])
                accumulator[col] = (
                    accumulator.get(col, 0.0) + scale * b.values[j]
                )
        cols = np.asarray(sorted(accumulator), dtype=np.int64)
        rows.append(Fiber(
            cols,
            np.asarray([accumulator[int(c)] for c in cols]),
            check=False,
        ))
    c = CsrMatrix.from_rows(rows, b.num_cols)
    return c, SpgemmCounts(flops=flops, output_nnz=c.nnz,
                           touched_b_rows=touched)


def spgemm_semiring(a: CsrMatrix, b: CsrMatrix, semiring,
                    mask: CsrMatrix = None,
                    complement: bool = False) -> CsrMatrix:
    """Gustavson SpGEMM over an arbitrary semiring (differential oracle).

    A direct dict-accumulator transliteration of C_ij = add_k
    mul(a_ik, b_kj) with no vectorization or reassociation tricks, used
    as ground truth for the accelerator simulator under non-arithmetic
    algebras. Every touched output coordinate is kept, even when the
    accumulated value lands on the semiring's zero — matching the
    hardware accumulator, which never re-sparsifies (Sec. 3.2).

    With ``mask``, computes the GraphBLAS-style masked product
    ``C<M> = A x B``: row ``i`` keeps only coordinates in the pattern of
    ``mask`` row ``i`` (or, with ``complement=True``, only coordinates
    *outside* it). The oracle deliberately filters the *full* product —
    masked == unmasked-then-filtered is the defining identity every
    execution model is tested against.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if mask is not None and mask.shape != (a.num_rows, b.num_cols):
        raise ValueError(
            f"mask shape {mask.shape} does not match output "
            f"{(a.num_rows, b.num_cols)}")
    add, mul = semiring.add, semiring.mul
    rows: List[Fiber] = []
    for row in range(a.num_rows):
        start, end = a.offsets[row], a.offsets[row + 1]
        accumulator: Dict[int, float] = {}
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
        if mask is not None:
            allowed = set(mask.row(row).coords.tolist())
            accumulator = {
                col: value for col, value in accumulator.items()
                if (col in allowed) != complement
            }
        cols = np.asarray(sorted(accumulator), dtype=np.int64)
        rows.append(Fiber(
            cols,
            np.asarray([accumulator[int(c)] for c in cols],
                       dtype=np.float64),
            check=False,
        ))
    return CsrMatrix.from_rows(rows, b.num_cols)
