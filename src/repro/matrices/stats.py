"""Matrix structure statistics used across the evaluation.

Includes the affinity score functions from paper Sec. 4.1 (Eq. 1-3), which
the reordering preprocessor maximizes and the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.config import ELEMENT_BYTES
from repro.matrices.csr import CsrMatrix


@dataclass(frozen=True)
class MatrixStats:
    """Summary statistics of one sparse matrix."""

    rows: int
    cols: int
    nnz: int
    density: float
    nnz_per_row_mean: float
    nnz_per_row_max: int
    nnz_per_row_std: float
    footprint_bytes: int

    @staticmethod
    def of(matrix: CsrMatrix) -> "MatrixStats":
        lengths = matrix.row_lengths()
        return MatrixStats(
            rows=matrix.num_rows,
            cols=matrix.num_cols,
            nnz=matrix.nnz,
            density=matrix.density,
            nnz_per_row_mean=float(lengths.mean()) if len(lengths) else 0.0,
            nnz_per_row_max=int(lengths.max()) if len(lengths) else 0,
            nnz_per_row_std=float(lengths.std()) if len(lengths) else 0.0,
            footprint_bytes=matrix.nbytes,
        )


def row_affinity(matrix: CsrMatrix, i: int, j: int) -> int:
    """s(i, j) from Eq. 1: shared nonzero coordinates of rows i and j."""
    a = matrix.row(i).coords
    b = matrix.row(j).coords
    return int(len(np.intersect1d(a, b, assume_unique=True)))


def window_size(matrix_b: CsrMatrix, fibercache_bytes: int) -> int:
    """W from Eq. 2: B rows that fit in the FiberCache on average."""
    avg_row = matrix_b.nnz / max(1, matrix_b.num_rows)
    denominator = max(1.0, avg_row * ELEMENT_BYTES)
    return max(1, int(fibercache_bytes / denominator))


def matrix_affinity(matrix: CsrMatrix, window: int) -> int:
    """F from Eq. 3: total affinity of rows with their preceding window.

    Computed with a sliding multiset of column counts so it runs in
    O(nnz * window-turnover) rather than O(rows^2).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    counts: Dict[int, int] = {}
    total = 0
    history: List[np.ndarray] = []
    for row in range(matrix.num_rows):
        coords = matrix.row(row).coords
        for coord in coords.tolist():
            total += counts.get(coord, 0)
        for coord in coords.tolist():
            counts[coord] = counts.get(coord, 0) + 1
        history.append(coords)
        if len(history) > window:
            old = history.pop(0)
            for coord in old.tolist():
                remaining = counts[coord] - 1
                if remaining:
                    counts[coord] = remaining
                else:
                    del counts[coord]
    return total


def flops(a: CsrMatrix, b: CsrMatrix) -> int:
    """Multiply-accumulate count of A x B (each MAC = 1 FLOP, Sec. 6.5)."""
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    b_lengths = b.row_lengths()
    if a.nnz == 0:
        return 0
    return int(b_lengths[a.coords].sum())


#: Products expanded per :func:`product_nnz` chunk, bounding the sort's
#: temporaries to a few int64 arrays of this length (a row with more
#: products than this is a chunk of its own).
_PRODUCT_CHUNK = 1 << 18


def product_nnz(a: CsrMatrix, b: CsrMatrix) -> int:
    """Exact structural nonzero count of C = A x B.

    Per row of A, the size of the union of the B-row patterns that
    row's nonzeros select. Entries that cancel to exactly zero still
    count, as they do in Gamma's output (``linear_combine`` keeps them),
    so this is the ``c_nnz`` every Gamma run reports, computed from the
    operands alone. Rows are processed in chunks of about
    :data:`_PRODUCT_CHUNK` products: each chunk's (row, column) keys are
    sorted and their distinct values counted.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    if a.nnz == 0:
        return 0
    work = b.row_lengths()[a.coords]
    done = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(work, out=done[1:])
    row_done = done[a.offsets]
    a_lengths = a.row_lengths()
    total = 0
    start = 0
    while start < a.num_rows:
        stop = int(np.searchsorted(
            row_done, row_done[start] + _PRODUCT_CHUNK, side="right")) - 1
        stop = min(max(stop, start + 1), a.num_rows)
        lo, hi = a.offsets[start], a.offsets[stop]
        counts = work[lo:hi]
        products = int(done[hi] - done[lo])
        if products:
            rows = np.repeat(np.repeat(
                np.arange(stop - start, dtype=np.int64),
                a_lengths[start:stop]), counts)
            # Position in b.coords of every product: the selected B
            # row's start plus the product's rank within that row.
            first = np.repeat(
                b.offsets[a.coords[lo:hi]] - (done[lo:hi] - done[lo]),
                counts)
            keys = rows * b.num_cols + b.coords[
                first + np.arange(products, dtype=np.int64)]
            keys.sort()
            total += 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
        start = stop
    return total


def reuse_factor(a: CsrMatrix, b: CsrMatrix) -> float:
    """Average times each touched row of B is consumed (Gustavson reuse)."""
    if a.nnz == 0:
        return 0.0
    touched = np.unique(a.coords)
    return a.nnz / len(touched)
