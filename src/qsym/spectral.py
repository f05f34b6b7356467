"""Closed-form spectra and eigenspaces of folded cube graphs.

Every word w of width n-1 gives an eigenvector of the folded n-cube
adjacency matrix, namely the point-basis image psi(T_w) (a +-1 Walsh
character), with integer eigenvalue

    lambda(w) = sum_s (-1)^{w_s} + (-1)^{sum_s w_s}.

For odd n the eigenvalues are exactly lambda_k = n - 2k over even k in
[0, n], the eigenspace of lambda_k being spanned by the words of length k
or k-1, so its dimension is C(n-1, k) + C(n-1, k-1) = C(n, k).  Everything
here is cross-validated numerically against a dense symmetric eigensolver.
The residuals A psi(T_w) - lambda(w) psi(T_w) are computed exactly from the
graph's own adjacency: psi(T_w) is a character, so the residual at vertex
v depends only on v's XOR-difference set {u ^ v : u ~ v}, and one int16
accumulator row per distinct set, all sets summed at once, gives every
per-word maximum.  FQ_n has a single set, its n generators.

That eigensolver runs on blocks, not on the whole adjacency: FQ_n is a
Cayley graph of Z_2^(n-1), so each XOR translation x -> x ^ h is an
automorphism, and A is block diagonalized by the orthogonal splits
(1/sqrt 2)[[I, I], [I, -I]], exact in int8 and then int16, down to 16-row
blocks.  Each split is taken only after the symmetry it uses is checked on
the matrix itself, so the block eigenvalues are those of A for every input
graph.

Since each projection onto an eigenspace is a polynomial in the adjacency
matrix, a vertex permutation is an automorphism exactly when its matrix
commutes with every eigenprojection.  ``preserves_eigenspaces`` asks this
without building the matrix: E_k[p(x), p(y)] = E_k[x, y] for every level k
and pair (x, y), one index gather of the cached (levels, N, N) projection
stack, whose defects are exactly the entries of P E_k - E_k P.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .boolean_group import _cube_size, _word_bits, folded_cube, walsh_matrix, walsh_rows
from .config import DEFAULT_TOLERANCES, Report, check_integer, check_tolerance
from .errors import DimensionError
from .graphs import Permutation, _permutation_defects

__all__ = [
    "verify_spectrum",
    "eigenprojections",
    "preserves_eigenspaces",
]


def _difference_sets(adjacency: np.ndarray) -> np.ndarray:
    """The distinct sets D(v) = {u ^ v : u ~ v}, one row each, read from the
    adjacency's nonzeros.

    Each row lists its differences in falling order, padded with 0 on the
    right; 0 is never a difference, since a graph has no loops.  Rows equal
    as bytes are equal as sets, so grouping by the rows' bytes is exact.
    """
    size = adjacency.shape[0]
    # the uint8 adjacency read as bool: nonzero then needs no compare pass
    rows, cols = np.divmod(np.flatnonzero(adjacency.view(bool)), size)
    degree = np.bincount(rows, minlength=size)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
    diffs = np.zeros((size, max(1, int(degree.max()))), dtype=np.uint16)
    diffs[rows, slot] = rows ^ cols
    diffs = np.ascontiguousarray(np.sort(diffs, axis=1)[:, ::-1])
    keys = diffs.view(np.dtype((np.void, diffs.itemsize * diffs.shape[1]))).ravel()
    return np.unique(keys).view(np.uint16).reshape(-1, diffs.shape[1])


def _max_residuals(adjacency: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per word w, max_v |(A H)[v, w] - lams[w] H[v, w]|, exact in integers.

    H is the Walsh matrix (column w = psi(T_w) in the point basis), with
    H[v, w] = chi_w(v) = +-1 a character of Z_2^(n-1).  Row v of A H sums
    chi_w over v's neighbours u, and chi_w(u) = chi_w(u ^ v) chi_w(v), so

        |(A H)[v, w] - lams[w] H[v, w]| = |sum_{d in D(v)} H[d, w] - lams[w]|

    with D(v) = {u ^ v : u ~ v} read from the 0/1 adjacency itself.  The
    residual depends on v only through D(v): one accumulator row per
    distinct set (``_difference_sets``) gives the exact per-word maxima,
    from the Walsh rows of the differences only.  FQ_n has the single set
    of its n generators; a corrupted graph gets more sets, each checked.
    Every row starts at -lams and slot j adds the Walsh row of each set's
    j-th difference, all sets in one gather-add; the padding word 0 gets a
    zero row, so it adds nothing.  Every partial sum is bounded by deg(v) +
    |lambda| <= 4095 + 13 within the vertex bound, so int16 is exact.
    """
    sets = _difference_sets(adjacency)
    words, index = np.unique(sets, return_inverse=True)
    signs = walsh_rows(words, adjacency.shape[0].bit_length() - 1)
    signs[words == 0] = 0
    residual = np.tile(-lams.astype(np.int16), (len(sets), 1))
    for slot in index.reshape(sets.shape).T:
        residual += signs[slot]
    return np.abs(residual, out=residual).max(axis=0)


#: rows at which the XOR-translation splits stop (FQ_5's size); each block
#: left is still a dense eigenproblem, so the closed form is never assumed
_BLOCK_ROWS = 16


def _halves_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """x == y for two quarters of a block stack, each row read as 8-byte
    words when its bytes allow it and bytewise otherwise."""
    if x.shape == y.shape and x.shape[-1] * x.itemsize % 8 == 0:
        x, y = x.view(np.uint64), y.view(np.uint64)
    return np.array_equal(x, y)


def _decoupled_blocks(adjacency: np.ndarray) -> np.ndarray:
    """Stack of integer blocks whose joint spectrum is that of ``adjacency``.

    Starting from the (1, N, N) stack, a level with M = 2h rows splits when
    every block B = [[B11, B12], [B21, B22]] has B11 == B22 and B12 == B21,
    i.e. x -> x ^ h is a symmetry of every block; B is then orthogonally
    similar to diag(B11 + B12, B11 - B12).  The splits stop at the first
    level that fails this test (an odd M always does: the diagonal blocks
    differ in shape), or once blocks have at most ``_BLOCK_ROWS`` rows.
    The test reads the quarters' rows as 8-byte words where their width
    allows (``_halves_equal``).  Each split writes its halves into one new
    (2k, h, h) stack, the k sums before the k differences, with no
    concatenation buffer.

    The 0/1 uint8 adjacency is read as int8 without a copy.  Each entry
    after a split is a sum or difference of two entries before it, so after
    L splits every |entry| <= 2^L.  int8 holds 2^6 = 64 but not 2^7 = 128,
    so the seventh split, the first whose entries could pass 127, writes
    int16 from int8 halves.  int16 holds 2^14, and at most eight splits
    happen within the vertex bound (4096 rows down to 16; K_4096 reaches
    256), so every block is exact.
    """
    b = adjacency.view(np.int8)[None]
    bound = 1  # every |entry| of b is at most bound
    while b.shape[1] > _BLOCK_ROWS:
        k, h = len(b), b.shape[1] // 2
        b11, b12 = b[:, :h, :h], b[:, :h, h:]
        if not (_halves_equal(b11, b[:, h:, h:]) and _halves_equal(b12, b[:, h:, :h])):
            break
        bound *= 2
        dtype = b.dtype if bound <= np.iinfo(b.dtype).max else np.int16
        split = np.empty((2 * k, h, h), dtype=dtype)
        np.add(b11, b12, out=split[:k], dtype=dtype)
        np.subtract(b11, b12, out=split[k:], dtype=dtype)
        b = split
    return b


def _eigenvalues(n: int) -> np.ndarray:
    """lambda(w) for every word w of width n-1, in word order.

    A word of length l has lambda(w) = (n - 1 - 2l) + (-1)^l, so it sits
    at level k = l rounded up to even, with eigenvalue n - 2k.  The
    lengths are the column sums of the word-bit table ``_word_bits``, taken
    as int64: a uint8 sum would wrap in n - 2 * (...).
    """
    length = _word_bits(n)[0].sum(axis=0, dtype=np.int64)
    return n - 2 * (length + (length & 1))


def verify_spectrum(n: int, tol: float = DEFAULT_TOLERANCES.residual) -> Report:
    """Check every closed-form eigenpair of the folded n-cube numerically.

    For each word w the residual ||A psi(T_w) - lambda(w) psi(T_w)||_inf is
    computed exactly in integers (A the adjacency matrix), once per distinct
    XOR-difference set of the graph's vertices (see ``_max_residuals``), and
    the closed-form eigenvalue multiset is compared with a dense symmetric
    eigensolver, run in one batch on the blocks of ``_decoupled_blocks(A)``
    (256 blocks of 16 rows at n = 13).  Needs n >= 3, where the closed form
    holds; levels are grouped by eigenvalue.
    """
    n = check_integer(n, "n", 3, need="verify_spectrum needs an integer n >= 3 (the closed form assumes it)")
    check_tolerance(tol)
    g = folded_cube(n)
    lams = _eigenvalues(n)
    per_word = _max_residuals(g.adjacency, lams)
    numeric = np.sort(np.linalg.eigvalsh(_decoupled_blocks(g.adjacency).astype(float)), axis=None)
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


def _projection_stack(n: int) -> np.ndarray:
    """The folded n-cube eigenprojections as one read-only (levels, N, N)
    stack, one level per distinct eigenvalue, in falling order.

    n is checked before the cache is read, so an unhashable n is a
    ``UsageError``, and held to the vertex bound before 2^(n-1) is formed.
    Odd n only: for even n distinct levels can share an eigenvalue, and
    that regime is out of scope here.
    """
    n = check_integer(n, "n", 3, odd=True, need="eigenprojections need an odd n >= 3")
    return _cached_projection_stack(n, _cube_size(n))


@lru_cache(maxsize=None)
def _cached_projection_stack(n: int, size: int) -> np.ndarray:
    """P = V V^T / 2^{n-1} per level, with V the Walsh columns of the
    level's words, in word order; the columns are orthogonal with squared
    norm 2^{n-1} = ``size``."""
    lams = _eigenvalues(n)
    h = walsh_matrix(n - 1)
    levels = sorted(set(lams.tolist()), reverse=True)
    stack = np.empty((len(levels), size, size))
    for proj, lam in zip(stack, levels):
        cols = h[:, lams == lam].astype(float)
        np.divide(cols @ cols.T, size, out=proj)
    stack.setflags(write=False)
    return stack


def eigenprojections(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Orthogonal projections onto the folded n-cube eigenspaces, as
    (level k, projection) pairs with eigenvalue n - 2k, k rising:
    read-only views into one cached stack.  For odd n the levels are
    k = 0, 2, ..., n-1."""
    stack = _projection_stack(n)  # checks n before range reads it
    return tuple(zip(range(0, n, 2), stack))


def _eigenspace_defects(n: int, images: np.ndarray) -> np.ndarray:
    """Per row p of a (P, 2^{n-1}) image array, max_k |P E_k - E_k P| over
    the eigenprojections E_k of FQ_n, by index gathers."""
    return _permutation_defects(images, _projection_stack(n))


def preserves_eigenspaces(
    n: int, p: Permutation, tol: float = DEFAULT_TOLERANCES.projector
) -> bool:
    """True iff p's matrix commutes with every eigenprojection of FQ_n
    within tol.

    The check is E_k[p(x), p(y)] = E_k[x, y] for every level k, read by
    index gathers from the cached projection stack; no permutation matrix
    is built.  The eigenprojections generate the same commutant as the
    adjacency matrix, so for permutations this is equivalent to being a
    graph automorphism; non-automorphisms simply return False.
    """
    check_tolerance(tol)
    stack = _projection_stack(n)  # checks n before its size is read
    if p.size != stack.shape[-1]:
        raise DimensionError(f"permutation on {p.size} points vs {stack.shape[-1]} vertices")
    return bool(_permutation_defects(np.array([p.images]), stack)[0] <= tol)
