"""Reference forms of the spectral computations in ``qsym.spectral``.

* ``eigenvalue_of_bits`` and ``eigen_data`` are the closed form word by
  word: the eigenvalue of one word, an int of width n-1, and the words grouped into
  levels.  ``spectral._eigenvalues`` and ``spectral.eigenprojections``
  must agree with them exactly.
* ``max_residuals`` is the row-by-row residual that ``qsym.spectral``
  used before it read the residual from the connection set S alone, kept
  unchanged: it gathers the Walsh rows of every vertex's neighbours from
  the whole int8 Walsh table, for any graph.  On a certified Cayley graph
  ``spectral._max_residuals(S, lams)`` must return equal per-word maxima.
* ``connection_set`` is the dense Cayley certificate that
  ``spectral._connection_set`` used before it read the graph's pairs:
  S = N(0) from row 0 of the adjacency, the nonzero count N |S| and the
  N |S| entries a[x, x ^ s].  The pair certificate must return the same
  S, or None exactly when this does.
* ``eigenspace_defects`` is the eigenspace check of
  ``spectral._eigenspace_defects`` as dense float products: max_k |P E_k
  - E_k P| per permutation, with P its permutation matrix and E_k from
  ``projection_stack``.  Both factors' products only copy entries, so
  the defects are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qsym import DimensionError, UsageError
from qsym.boolean_group import walsh_matrix


def eigenvalue_of_bits(bits: int, n: int) -> int:
    """Eigenvalue of the folded n-cube eigenvector indexed by the word ``bits``."""
    if not 0 <= bits < 1 << (n - 1):
        raise DimensionError(f"word {bits:#b} is not of width n-1 = {n - 1}")
    length = bits.bit_count()
    return (n - 1 - 2 * length) + (-1) ** (length & 1)


@dataclass(frozen=True)
class EigenLevel:
    k: int
    eigenvalue: int
    basis: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class EigenData:
    n: int
    levels: tuple[EigenLevel, ...]

    def level(self, k: int) -> EigenLevel:
        for lvl in self.levels:
            if lvl.k == k:
                return lvl
        raise UsageError(f"k={k} is not a level of the folded {self.n}-cube")

    def multiplicities(self) -> dict[int, int]:
        return {lvl.eigenvalue: lvl.multiplicity for lvl in self.levels}


def eigen_data(n: int) -> EigenData:
    """Group the 2^{n-1} eigenvector words of the folded n-cube by level.

    Level k (k even, 0 <= k <= n) collects the words of length k or k-1 and
    carries the eigenvalue n - 2k, checked word by word against
    ``eigenvalue_of_bits``.  Odd n only, as for the eigenprojections.
    """
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise UsageError(f"eigen_data needs an odd n >= 3, got {n!r}")
    buckets: dict[int, list[int]] = {}
    for w in range(1 << (n - 1)):
        length = w.bit_count()
        k = length if length % 2 == 0 else length + 1
        buckets.setdefault(k, []).append(w)
    levels = []
    for k in sorted(buckets):
        lam = n - 2 * k
        assert all(eigenvalue_of_bits(w, n) == lam for w in buckets[k])
        levels.append(EigenLevel(k=k, eigenvalue=lam, basis=tuple(buckets[k])))
    return EigenData(n=n, levels=tuple(levels))


def projection_stack(n: int) -> np.ndarray:
    """The eigenprojections of FQ_n by level, from ``eigen_data``: P = V V^T
    / 2^{n-1} with V the float Walsh columns of the level's words."""
    h = walsh_matrix(n - 1)
    size = 1 << (n - 1)
    levels = eigen_data(n).levels
    stack = np.empty((len(levels), size, size))
    for proj, lvl in zip(stack, levels):
        cols = h[:, list(lvl.basis)].astype(float)
        np.divide(cols @ cols.T, size, out=proj)
    return stack


def eigenspace_defects(n: int, images: np.ndarray) -> np.ndarray:
    """Per row p of a (P, 2^{n-1}) image array, max_k |P E_k - E_k P| over
    ``projection_stack(n)``, P the permutation matrix (P e_x = e_{p(x)})."""
    stack = projection_stack(n)
    size = stack.shape[-1]
    defects = []
    for row in np.asarray(images).reshape(-1, size):
        m = np.zeros((size, size))
        m[row, np.arange(size)] = 1.0
        defects.append(max(float(np.abs(m @ proj - proj @ m).max()) for proj in stack))
    return np.array(defects)


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


def connection_set(adjacency: np.ndarray) -> np.ndarray | None:
    """S = N(0) if the adjacency is that of Cay(Z_2^w, S), else None.

    The certificate: N is a power of two, A has N |S| nonzeros, and
    A[x, x ^ s] = 1 for every vertex x and s in S.  Those N |S| entries
    are distinct, so they are all of A's nonzeros: A = sum_{s in S} P_s,
    with P_s the XOR shift x -> x ^ s.
    """
    size = adjacency.shape[0]
    connection = np.flatnonzero(adjacency[0])
    if size & (size - 1) or np.count_nonzero(adjacency) != size * len(connection):
        return None
    x = np.arange(size)
    return connection if all(adjacency[x, x ^ s].all() for s in connection) else None
