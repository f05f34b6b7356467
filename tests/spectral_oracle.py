"""Reference form of the exact spectral residual in ``qsym.spectral``.

``max_residuals`` is the row-by-row residual that ``qsym.spectral`` used
before it grouped vertices by their XOR-difference sets, kept unchanged: it
gathers the Walsh rows of every vertex's neighbours from the whole int8
Walsh table.  ``spectral._max_residuals`` must return bit-equal per-word
maxima in the same dtype.
"""

from __future__ import annotations

import numpy as np

from qsym.boolean_group import walsh_matrix

#: rows of the residual accumulator; a (128, N) block stays in cache while
#: every neighbour slot is gathered into it
RESIDUAL_ROWS = 128


def max_residuals(adjacency: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per word w, max_v |(A H)[v, w] - lams[w] H[v, w]|, exact in integers.

    H is the Walsh matrix (column w = psi(T_w) in the point basis).  Row v
    of A H is the sum of the Walsh rows of v's neighbours, read from the
    0/1 adjacency itself.  Rows are taken in order of falling degree,
    ``RESIDUAL_ROWS`` at a time: within a block the vertices with a j-th
    neighbour form a prefix, so each neighbour slot j is one gather-add.
    Every partial sum is bounded by deg(v) + |lambda|, so the accumulator
    is int8 when that bound is at most 127 and int16 otherwise.
    """
    size = adjacency.shape[0]
    h = walsh_matrix(size.bit_length() - 1)
    rows, cols = np.divmod(np.flatnonzero(adjacency.view(bool)), size)
    degree = np.bincount(rows, minlength=size)
    first = np.cumsum(degree) - degree  # offset of each vertex's neighbours in cols
    order = np.argsort(-degree, kind="stable")
    bound = int(degree.max()) + int(np.abs(lams).max())
    dtype = np.int8 if bound <= np.iinfo(np.int8).max else np.int16
    neg_lams = -lams.astype(dtype)
    block_residual = np.empty((min(RESIDUAL_ROWS, size), size), dtype=dtype)
    peak = np.zeros(size, dtype=dtype)
    for start in range(0, size, RESIDUAL_ROWS):
        block = order[start : start + RESIDUAL_ROWS]
        residual = block_residual[: len(block)]
        np.multiply(h[block], neg_lams, out=residual)
        block_degree = degree[block]
        for j in range(int(block_degree[0])):
            count = int(np.count_nonzero(block_degree > j))
            residual[:count] += h[cols[first[block[:count]] + j]]
        np.maximum(peak, np.abs(residual, out=residual).max(axis=0), out=peak)
    return peak
