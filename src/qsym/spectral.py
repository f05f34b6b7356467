"""Closed-form spectra and eigenspaces of folded cube graphs.

Every word w of width n-1 gives an eigenvector of the folded n-cube
adjacency matrix, namely the point-basis image psi(T_w) (a +-1 Walsh
character), with integer eigenvalue

    lambda(w) = sum_s (-1)^{w_s} + (-1)^{sum_s w_s}.

For odd n the eigenvalues are exactly lambda_k = n - 2k over even k in
[0, n], the eigenspace of lambda_k being spanned by the words of length k
or k-1, so its dimension is C(n-1, k) + C(n-1, k-1) = C(n, k).  Everything
here is cross-validated numerically against a dense symmetric eigensolver.

The check first certifies the graph as the XOR Cayley graph Cay(Z_2^w,
S) with S = N(0), so A = sum_{s in S} P_s (``_connection_set``), reading
the graph's vertex pairs in O(N |S|) and never its dense adjacency; FQ_n
certifies, with S its n connecting words.  The residuals A psi(T_w) -
lambda(w) psi(T_w) are then exact integer sums over S, and the
eigensolver gets 16-row blocks built from S (``_cayley_blocks``), with no
N x N intermediate.  Blocks repeat, so each distinct block is solved once
(n - 4 of them for FQ_n, n >= 5) and its eigenvalues are taken once per
block it stands for; the blocks are found equal from the bytes of their
integer entries alone (``graphs._distinct_rows``), never from the closed
form.  A graph that fails the certificate, which only a broken
``folded_cube`` could give, is an internal error (``RuntimeError``), so no
adjacency is ever written here.

Since each projection onto an eigenspace is a polynomial in the adjacency
matrix, a vertex permutation is an automorphism exactly when its matrix
commutes with every eigenprojection.  ``preserves_eigenspaces`` asks this
without building the matrix: N E_k[x, y] = F[k, x ^ y] for one cached
(levels, N) int16 table F, whose distinct columns are FQ_n's (n+1)/2
distance classes.  So the largest level difference of N E_k at (p(x),
p(y)) and at (x, y) is read from one small per-n class table
(``_class_table``) at p(x) ^ p(y) and x ^ y; these integer defects are N
times the entries of P E_k - E_k P, gathered in bounded blocks, and no
(levels, N, N) array is ever built for the check.  Up to n = 9 the class
offsets of every pair (x, y) are one cached, read-only int16 pair table
(``_pair_table``, 128 KiB at n = 9), so one permutation is one gather at
(p(x) ^ p(y)) + T; past n = 9 no N x N table is kept.  F comes from the
Walsh characters and the level rule, never from the adjacency, so the
check stays independent of ``graphs.is_automorphism``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boolean_group import _cube_size, _word_bits, folded_cube, walsh_rows
from .config import DEFAULT_TOLERANCES, Report, check_integer, check_tolerance
from .errors import DimensionError
from .graphs import _GATHER_BLOCK, Graph, Permutation, _distinct_rows

__all__ = [
    "verify_spectrum",
    "eigenprojections",
    "preserves_eigenspaces",
]


def _max_residuals(connection: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per word w, max_v |(A H)[v, w] - lams[w] H[v, w]| for A the
    adjacency of Cay(Z_2^w, S), S = ``connection``, exact in integers.

    H is the Walsh matrix (column w = psi(T_w) in the point basis), with
    H[v, w] = chi_w(v) = +-1 a character of Z_2^(n-1).  Row v of A H sums
    chi_w over v's neighbours v ^ s, and chi_w(v ^ s) = chi_w(s) chi_w(v), so

        |(A H)[v, w] - lams[w] H[v, w]| = |sum_{s in S} H[s, w] - lams[w]|

    at every vertex v: the sum of S's Walsh rows minus lambda.  Within
    the vertex bound |S| <= 4095, so the int16 sum is exact.
    """
    return np.abs(walsh_rows(connection, len(lams).bit_length() - 1).sum(axis=0, dtype=np.int16) - lams)


#: rows of each eigensolver block (FQ_5's size); each distinct block is
#: still a dense eigenproblem, so the closed form is never assumed
_BLOCK_ROWS = 16


def _connection_set(g: Graph) -> np.ndarray | None:
    """S = N(0), as intp, if g is Cay(Z_2^w, S), else None; read from g's
    pairs in O(N |S|), with no N x N array.

    The certificate: N is a power of two, every pair's difference r ^ c
    has a slot in S (an N-entry slot table), and an (N, |S|) bool grid
    marked at both endpoints of every pair, entry x |S| + slot(r ^ c) of
    the flat grid, is all True.  The first says A <= sum_{s in S} P_s,
    with P_s the XOR shift x -> x ^ s; the second that A[x, x ^ s] = 1
    for every vertex x and s in S, so A >= that sum.  The flat int32
    indices stay below N |S| < 2^24 and gather and scatter faster than
    intp or 2-D ones.
    """
    size = g.n_vertices
    if size & (size - 1):
        return None
    rows, cols = g.rows, g.cols
    # a mask: numpy's unique with no index asked for imports numpy.ma on
    # its first call in a process (about 15 ms), more than the whole
    # certificate at n = 13
    neighbour = np.zeros(size, dtype=bool)
    neighbour[cols[rows == 0]] = neighbour[rows[cols == 0]] = True
    connection = np.flatnonzero(neighbour)
    width = len(connection)
    slot = np.full(size, -1, dtype=np.int32)
    slot[connection] = np.arange(width)
    slots = slot.take(rows ^ cols)
    if np.any(slots < 0):
        return None
    marked = np.zeros(size * width, dtype=bool)
    marked[rows * width + slots] = True
    marked[cols * width + slots] = True
    return connection if marked.all() else None


def _cayley_blocks(connection: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, inverse): the distinct float64 blocks of R = min(N,
    ``_BLOCK_ROWS``) rows built from S, and an index of N / R rows into
    them, such that Cay(Z_2^w, S) on N = 2^w vertices is orthogonally
    similar to the direct sum of blocks[inverse].

    With x = (high, low), low its R-row index, P_s = P_{s_high} (x) P_{s_low},
    and the characters e of the high words diagonalize every P_{s_high}.
    So A is orthogonally similar to the sum over e of the blocks
    sum_s (-1)^{popcount(e & s_high)} P_{s_low}: entry [r, c] sums the
    signs of the s with s_low = r ^ c, an exact small integer, so block e
    is row e of an (N / R, R) coefficient table read at r ^ c, and equal
    rows are equal blocks.  Block j is e = j with its bits reversed, the
    order of halving [[B11, B12], [B12, B11]] into B11 + B12 and B11 - B12
    from the top bit down; inverse[j] is its row in the distinct stack.
    FQ_n has n - 4 distinct blocks for n >= 5, 9 of the 256 at n = 13.
    """
    rows = min(size, _BLOCK_ROWS)
    shift = rows.bit_length() - 1
    width = size.bit_length() - 1 - shift
    bits = (connection[:, None] >> (shift + np.arange(width))) & 1
    signs = walsh_rows(bits @ (1 << np.arange(width)[::-1]), width)
    # an integer product, |entries| <= |S| < 2^15: a first float one would
    # touch about 0.27 MiB more of BLAS's buffers
    low = (connection & (rows - 1))[:, None] == np.arange(rows)
    coefficients = signs.T @ low.astype(np.int16)
    first, inverse = _distinct_rows(coefficients)
    r = np.arange(rows)
    return np.take(coefficients[first], r[:, None] ^ r, axis=1).astype(float), inverse


def _eigenvalues(n: int) -> np.ndarray:
    """lambda(w) for every word w of width n-1, in word order.

    A word of length l has lambda(w) = (n - 1 - 2l) + (-1)^l, so it sits
    at level k = l rounded up to even, with eigenvalue n - 2k.  The
    lengths are the column sums of the word-bit table ``_word_bits``, taken
    as int64: a uint8 sum would wrap in n - 2 * (...).
    """
    length = _word_bits(n).sum(axis=0, dtype=np.int64)
    return n - 2 * (length + (length & 1))


def verify_spectrum(n: int, tol: float = DEFAULT_TOLERANCES.residual) -> Report:
    """Check every closed-form eigenpair of the folded n-cube numerically.

    For each word w the residual ||A psi(T_w) - lambda(w) psi(T_w)||_inf is
    computed exactly in integers (``_max_residuals``) from the connecting
    set S of the certified graph (``_connection_set``), and the closed-form
    eigenvalue multiset is compared with a dense symmetric eigensolver, run
    in one batch on the distinct blocks ``_cayley_blocks(S)`` (9 of 16 rows
    at n = 13, standing for 256), whose eigenvalue rows are gathered
    through the inverse index before the sort.  A graph that fails the
    certificate is a defect of ``folded_cube``, not a failed check: it
    raises ``RuntimeError`` before any residual is formed.  Needs n >= 3,
    where the closed form holds; levels are grouped by eigenvalue.
    """
    n = check_integer(n, "n", 3, need="verify_spectrum needs an integer n >= 3 (the closed form assumes it)")
    tol = check_tolerance(tol)
    g = folded_cube(n)
    connection = _connection_set(g)
    if connection is None:
        raise RuntimeError(f"folded_cube({n}) is not a Cayley graph of Z_2^{n - 1}")
    lams = _eigenvalues(n)
    per_word = _max_residuals(connection, lams)
    blocks, inverse = _cayley_blocks(connection, g.n_vertices)
    numeric = np.sort(np.linalg.eigvalsh(blocks)[inverse], axis=None)
    closed = np.sort(lams.astype(float))
    numeric_match = bool(np.max(np.abs(numeric - closed)) <= tol)

    levels = []
    for lam in sorted(set(lams.tolist()), reverse=True):
        mask = lams == lam
        levels.append(
            {
                "k": (n - lam) // 2,
                "lambda": int(lam),
                "multiplicity": int(mask.sum()),
                "max_residual": float(per_word[mask].max()),
            }
        )
    max_residual = float(per_word.max())
    return Report(
        n=n,
        levels=tuple(levels),
        numeric_match=numeric_match,
        max_residual=max_residual,
        tol=tol,
        passed=numeric_match and max_residual <= tol,
    )


@lru_cache(maxsize=None)
def _level_table(n: int) -> np.ndarray:
    """F[k, d] = sum of chi_w(d) over the words w at level k, as one
    read-only (levels, N) int16 table, levels in falling eigenvalue order;
    n is checked by the caller.  The Walsh columns are orthogonal with
    squared norm N, so N E_k[x, y] = sum_w chi_w(x) chi_w(y) = F[k, x ^ y],
    an exact integer with |F| <= N <= 4096."""
    lams = _eigenvalues(n)
    table = np.stack([walsh_rows(np.flatnonzero(lams == lam), n - 1).sum(axis=0, dtype=np.int16)
                      for lam in sorted(set(lams.tolist()), reverse=True)])
    table.setflags(write=False)
    return table


def _cube_points(n, points: int | None = None) -> tuple[int, int]:
    """(n, N) for an odd n >= 3 held to the vertex bound, N = 2^(n-1),
    before any cache is read (an unhashable n is a ``UsageError``) or any
    table is built; a permutation size ``points`` must equal N.  Odd n
    only: for even n distinct levels can share an eigenvalue."""
    n = check_integer(n, "n", 3, odd=True, need="eigenprojections need an odd n >= 3")
    size = _cube_size(n)
    if points not in (None, size):
        raise DimensionError(f"permutation on {points} points vs {size} vertices")
    return n, size


def eigenprojections(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Orthogonal projections onto the folded n-cube eigenspaces, as
    (level k, projection) pairs with eigenvalue n - 2k, k rising:
    read-only levels of F[:, x ^ y] / N, exact integers over a power of
    two, built per call.  For odd n the levels are k = 0, 2, ..., n-1."""
    n, size = _cube_points(n)
    vertices = np.arange(size)
    stack = _level_table(n)[:, vertices[:, None] ^ vertices] / size
    stack.setflags(write=False)
    return tuple(zip(range(0, 2 * len(stack), 2), stack))


@lru_cache(maxsize=None)
def _class_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, gaps) of the level table F, n checked by the caller.

    cls[d] numbers the distinct column F[:, d] among F's C distinct
    columns F[:, c], FQ_n's C = (n+1)/2 distance classes; offsets[d] =
    cls[d] N, as intp, and gaps is the flat (C, N) int16 table gaps[c N +
    e] = max_k |F[k, c] - F[k, e]|.  So gaps[offsets[x ^ y] + (p(x) ^
    p(y))] is the largest level difference of N E_k at (p(x), p(y)) and at
    (x, y).  Both are read-only, 0.09 MiB together at n = 13.  The
    distinct columns, numbered in byte order, are ``_distinct_rows`` of
    F's transpose."""
    table = _level_table(n)
    first, cls = _distinct_rows(table.T)
    columns = table[:, first].astype(np.int32)
    gaps = np.abs(columns[:, :, None] - table[:, None, :]).max(axis=0).astype(np.int16).ravel()
    offsets = cls * table.shape[1]
    for arr in (offsets, gaps):
        arr.setflags(write=False)
    return offsets, gaps


@lru_cache(maxsize=None)
def _pair_table(n: int) -> np.ndarray:
    """T[x, y] = offsets[x ^ y] of ``_class_table``, as one read-only (N,
    N) int16 table, n checked by the caller: so gaps[(p(x) ^ p(y)) + T[x,
    y]] is the largest level difference of N E_k at (p(x), p(y)) and at
    (x, y).  Built only where N^2 <= ``_GATHER_BLOCK`` // 8 (n <= 9): 512
    B at n = 5, 128 KiB at n = 9.  Its entries are at most (n - 1) N / 2
    < 2^15."""
    offsets = _class_table(n)[0]
    words = np.arange(len(offsets))
    table = offsets.take(words[:, None] ^ words).astype(np.int16)
    table.setflags(write=False)
    return table


def _eigenspace_defects(n: int, images: np.ndarray) -> np.ndarray:
    """Per row p of a (P, 2^{n-1}) image array, max_k |P E_k - E_k P| over
    the eigenprojections E_k of FQ_n; one (2^{n-1},) row gives a 0-d array.

    N E_k[x, y] = F[k, x ^ y], so the integer defect is the largest
    gaps[offsets[x ^ y] + (p(x) ^ p(y))] over every pair (x, y)
    (``_class_table``): the largest entry of the gathered N E_k, divided by
    N, so equal to the float products' defects.  Each gather holds at most
    an eighth of ``_GATHER_BLOCK`` entries, 1 MiB of intp indices (intp,
    because ``take`` would copy any other index dtype whole).  Up to n =
    9, where N^2 fits that bound, the offsets are read from the cached
    per-n pair table T[x, y] = offsets[x ^ y] (``_pair_table``), and a row
    p, or a block of rows, is one gather of gaps at (p(x) ^ p(y)) + T.
    Past n = 9 no N x N table is kept: one row at a time in blocks of
    d-rows, y = x ^ d, so one permutation at n = 13 peaks near 2.3 MiB.
    """
    n, size = _cube_points(n, images.shape[-1])
    offsets, gaps = _class_table(n)
    entries = max(1, _GATHER_BLOCK // 8)
    if size * size <= entries:
        pairs = _pair_table(n)
        if images.ndim == 1:
            return gaps.take((images[:, None] ^ images) + pairs).max() / size
        step, maxima = entries // (size * size), []
        for s in range(0, len(images), step):
            index = images[s : s + step, :, None] ^ images[s : s + step, None, :]
            index += pairs
            maxima.append(gaps.take(index).max(axis=(1, 2)))
        return np.concatenate(maxima) / size
    rows = max(1, entries // size)
    words = np.arange(size)

    def row_maximum(row: np.ndarray) -> int:
        peak = 0
        for d in range(0, size, rows):
            index = row.take(words[d : d + rows, None] ^ words)  # p(x ^ d) at [d, x]
            index ^= row
            index += offsets[d : d + rows, None]
            peak = max(peak, int(gaps.take(index).max()))
        return peak

    return np.array([row_maximum(row) for row in images.reshape(-1, size)]).reshape(images.shape[:-1]) / size


def preserves_eigenspaces(n: int, p: Permutation, tol: float = DEFAULT_TOLERANCES.projector) -> bool:
    """True iff p's matrix commutes with every eigenprojection of FQ_n
    within tol.

    The check is E_k[p(x), p(y)] = E_k[x, y] for every level k, read from
    the cached class table at p(x) ^ p(y) and x ^ y, up to n = 9 through
    the cached pair table (``_eigenspace_defects``), once p's size is
    checked; no permutation matrix and no N x N projection is built, so
    the call at n = 13 peaks near 2.3 MiB.  The eigenprojections generate
    the same commutant as the adjacency matrix, so for permutations this
    is equivalent to being a graph automorphism; non-automorphisms simply
    return False.
    """
    tol = check_tolerance(tol)
    return bool(_eigenspace_defects(n, np.array(p.images)) <= tol)
