"""Closed-form spectra and eigenspaces of folded cube graphs.

Every word w of width n-1 gives an eigenvector of the folded n-cube
adjacency matrix, namely the point-basis image psi(T_w) (a +-1 Walsh
character), with integer eigenvalue

    lambda(w) = sum_s (-1)^{w_s} + (-1)^{sum_s w_s}.

For odd n the eigenvalues are exactly lambda_k = n - 2k over even k in
[0, n], the eigenspace of lambda_k being spanned by the words of length k
or k-1, so its dimension is C(n-1, k) + C(n-1, k-1) = C(n, k).  Everything
here is cross-validated numerically against a dense symmetric eigensolver.
The residuals A psi(T_w) - lambda(w) psi(T_w) are computed exactly, 128
vertex rows at a time in an int8 accumulator (int16 when the degree and
eigenvalue bound exceeds 127), from the graph's own adjacency.

That eigensolver runs on blocks, not on the whole adjacency: FQ_n is a
Cayley graph of Z_2^(n-1), so each XOR translation x -> x ^ h is an
automorphism, and A is block diagonalized by the orthogonal splits
(1/sqrt 2)[[I, I], [I, -I]], exact in int8, down to 256-row blocks.  Each
split is taken only after the symmetry it uses is checked on the matrix
itself, so the block eigenvalues are those of A for every input graph.

Since each projection onto an eigenspace is a polynomial in the adjacency
matrix, a vertex permutation is an automorphism exactly when its matrix
commutes with every eigenprojection.  ``preserves_eigenspaces`` asks this
without building the matrix: E_k[p(x), p(y)] = E_k[x, y] for every level k
and pair (x, y), one index gather of the cached (levels, N, N) projection
stack, whose defects are exactly the entries of P E_k - E_k P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolean_group import FOLDED_CUBE_VERTEX_BOUND, GroupWord, folded_cube, walsh_matrix
from .config import DEFAULT_TOLERANCES, check_tolerance
from .errors import CapacityError, DimensionError, UsageError
from .graphs import Permutation, _permutation_defects

__all__ = [
    "EigenLevel",
    "EigenData",
    "SpectrumReport",
    "eigenvalue_of_bits",
    "eigen_data",
    "verify_spectrum",
    "eigenprojection",
    "eigenprojections",
    "preserves_eigenspaces",
]


def eigenvalue_of_bits(bits: GroupWord, n: int) -> int:
    """Eigenvalue of the folded n-cube eigenvector indexed by ``bits``."""
    if bits.width != n - 1:
        raise DimensionError(f"word width {bits.width} != n-1 = {n - 1}")
    length = bits.length()
    return (n - 1 - 2 * length) + (-1) ** (length & 1)


@dataclass(frozen=True)
class EigenLevel:
    k: int
    eigenvalue: int
    basis: tuple[GroupWord, ...]

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
    carries the eigenvalue n - 2k.  Odd n only: for even n distinct levels
    can share an eigenvalue, and that regime is out of scope here.
    """
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise UsageError(f"eigen_data needs an odd n >= 3, got {n!r}")
    if 1 << (n - 1) > FOLDED_CUBE_VERTEX_BOUND:
        raise CapacityError(f"folded {n}-cube has {1 << (n - 1)} > {FOLDED_CUBE_VERTEX_BOUND} vertices")
    width = n - 1
    buckets: dict[int, list[GroupWord]] = {}
    for w in GroupWord.all_words(width):
        length = w.length()
        k = length if length % 2 == 0 else length + 1
        buckets.setdefault(k, []).append(w)
    levels = []
    for k in sorted(buckets):
        lam = n - 2 * k
        for w in buckets[k]:
            if eigenvalue_of_bits(w, n) != lam:  # pragma: no cover
                raise RuntimeError("level grouping disagrees with the eigenvalue formula")
        levels.append(EigenLevel(k=k, eigenvalue=lam, basis=tuple(buckets[k])))
    return EigenData(n=n, levels=tuple(levels))


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    levels: tuple[dict, ...]
    numeric_match: bool
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.numeric_match and self.max_residual <= self.tol

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "levels": [dict(lvl) for lvl in self.levels],
            "numeric_match": self.numeric_match,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "pass": self.passed,
        }


#: rows of the residual accumulator; a (128, N) block stays in cache while
#: every neighbour slot is gathered into it
_RESIDUAL_ROWS = 128


def _max_residuals(adjacency: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per word w, max_v |(A H)[v, w] - lams[w] H[v, w]|, exact in integers.

    H is the Walsh matrix (column w = psi(T_w) in the point basis).  Row v
    of A H is the sum of the Walsh rows of v's neighbours, read from the
    0/1 adjacency itself, so a corrupted graph shows up as a non-zero
    residual.  Rows are taken in order of falling degree, ``_RESIDUAL_ROWS``
    at a time: within a block the vertices with a j-th neighbour form a
    prefix, so each neighbour slot j is one gather-add and no regularity is
    assumed.  Every partial sum is bounded by deg(v) + |lambda|, so the
    accumulator is int8 when that bound is at most 127 (FQ_n: 2n) and
    int16 otherwise (<= 4095 + 13 within the vertex bound).
    """
    size = adjacency.shape[0]
    h = walsh_matrix(size.bit_length() - 1)
    # the uint8 adjacency read as bool: nonzero then needs no compare pass
    rows, cols = np.divmod(np.flatnonzero(adjacency.view(bool)), size)
    degree = np.bincount(rows, minlength=size)
    first = np.cumsum(degree) - degree  # offset of each vertex's neighbours in cols
    order = np.argsort(-degree, kind="stable")
    bound = int(degree.max()) + int(np.abs(lams).max())
    dtype = np.int8 if bound <= np.iinfo(np.int8).max else np.int16
    neg_lams = -lams.astype(dtype)
    block_residual = np.empty((min(_RESIDUAL_ROWS, size), size), dtype=dtype)
    peak = np.zeros(size, dtype=dtype)
    for start in range(0, size, _RESIDUAL_ROWS):
        block = order[start : start + _RESIDUAL_ROWS]
        residual = block_residual[: len(block)]
        np.multiply(h[block], neg_lams, out=residual)
        block_degree = degree[block]
        for j in range(int(block_degree[0])):
            count = int(np.count_nonzero(block_degree > j))
            residual[:count] += h[cols[first[block[:count]] + j]]
        np.maximum(peak, np.abs(residual, out=residual).max(axis=0), out=peak)
    return peak


#: rows at which the XOR-translation splits stop (FQ_9's size); each block
#: left is still a dense eigenproblem, so the closed form is never assumed
_BLOCK_ROWS = 256


def _decoupled_blocks(adjacency: np.ndarray) -> np.ndarray:
    """Stack of int8 blocks whose joint spectrum is that of ``adjacency``.

    Starting from the (1, N, N) stack, a level with M = 2h rows splits when
    every block B = [[B11, B12], [B21, B22]] has B11 == B22 and B12 == B21,
    i.e. x -> x ^ h is a symmetry of every block; B is then orthogonally
    similar to diag(B11 + B12, B11 - B12).  The splits stop at the first
    level that fails this test (an odd M always does: the diagonal blocks
    differ in shape), or once blocks have at most ``_BLOCK_ROWS`` rows.
    The 0/1 uint8 adjacency is read as int8 without a copy.  Entries at
    most double per level, and at most four levels split within the vertex
    bound (4096 rows down to 256), so |entry| <= 16 and int8 is exact.
    """
    b = adjacency.view(np.int8)[None]
    while b.shape[1] > _BLOCK_ROWS:
        h = b.shape[1] // 2
        b11, b12 = b[:, :h, :h], b[:, :h, h:]
        if not (np.array_equal(b11, b[:, h:, h:]) and np.array_equal(b12, b[:, h:, :h])):
            break
        b = np.concatenate((b11 + b12, b11 - b12))
    return b


def verify_spectrum(n: int, tol: float = DEFAULT_TOLERANCES.residual) -> SpectrumReport:
    """Check every closed-form eigenpair of the folded n-cube numerically.

    For each word w the residual ||A psi(T_w) - lambda(w) psi(T_w)||_inf is
    computed exactly in integers (A the adjacency matrix, see
    ``_max_residuals``), and the closed-form eigenvalue multiset is compared
    with a dense symmetric eigensolver, run in one batch on the blocks of
    ``_decoupled_blocks(A)`` (16 blocks of 256 rows at n = 13).  Needs
    n >= 3, where the closed form holds; levels are grouped by eigenvalue.
    """
    if not isinstance(n, int) or n < 3:
        raise UsageError(f"verify_spectrum needs an integer n >= 3 (the closed form assumes it), got {n!r}")
    check_tolerance(tol)
    g = folded_cube(n)
    width = n - 1
    lams = np.array([eigenvalue_of_bits(w, n) for w in GroupWord.all_words(width)])
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
    return SpectrumReport(
        n=n,
        levels=tuple(levels),
        numeric_match=numeric_match,
        max_residual=float(per_word.max()),
        tol=tol,
    )


@lru_cache(maxsize=None)
def _projection_stack(n: int) -> np.ndarray:
    """The folded n-cube eigenprojections as one read-only (levels, N, N)
    stack, in level order.

    P_k = V V^T / 2^{n-1} with V the Walsh columns of the level-k words;
    the columns are orthogonal with squared norm 2^{n-1}.
    """
    data = eigen_data(n)
    h = walsh_matrix(n - 1)
    size = 1 << (n - 1)
    stack = np.empty((len(data.levels), size, size))
    for proj, lvl in zip(stack, data.levels):
        cols = h[:, [w.bits for w in lvl.basis]].astype(float)
        np.divide(cols @ cols.T, size, out=proj)
    stack.setflags(write=False)
    return stack


def eigenprojections(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Orthogonal projections onto the folded n-cube eigenspaces, by level:
    read-only views into one cached stack."""
    levels = eigen_data(n).levels
    return tuple((lvl.k, proj) for lvl, proj in zip(levels, _projection_stack(n)))


def eigenprojection(n: int, k: int) -> np.ndarray:
    """Projection onto the level-k eigenspace (idempotent, symmetric)."""
    for kk, p in eigenprojections(n):
        if kk == k:
            return p
    raise UsageError(f"k={k} is not a level of the folded {n}-cube")


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
    if p.size != 1 << (n - 1):
        raise DimensionError(f"permutation on {p.size} points vs 2^{n - 1} vertices")
    return bool(_eigenspace_defects(n, np.array([p.images]))[0] <= tol)
