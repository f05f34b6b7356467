"""The group Z_2^w, its Fourier transform, and folded cube graphs.

Group elements are words t_1^{i_1} ... t_w^{i_w} in w commuting order-two
generators, encoded as integers: bit s of the index is the exponent of
t_{s+1}, so the 2^w words appear in bit-lexicographic order
(e, t_1, t_2, t_1 t_2, t_3, ...).  The group law is XOR.

Two function spaces live on this group:

* the point basis e_g of functions on the group,
* the group basis T_g of the group algebra.

They are exchanged by the Fourier pair

    phi: e_g  ->  (1/2^w) sum_h (-1)^{g.h} T_h      (point -> group)
    psi: T_g  ->  sum_h (-1)^{g.h} e_h              (group -> point)

with g.h the GF(2) dot product of exponent vectors.  Both maps are the +-1
Walsh-Hadamard matrix ``walsh_matrix`` applied along the word axis of a
coefficient array; phi is that product divided by 2^w, which makes the two
mutually inverse.

The folded n-cube graph lives on the 2^{n-1} words of width n-1: two words
are adjacent when they differ in exactly one exponent or are complementary.
It is built as the Cayley graph for the connecting set
{t_1, ..., t_{n-1}, t_n} with t_n = t_1 ... t_{n-1}, one XOR shift per
connecting word; the distance definition is the test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import check_integer
from .errors import CapacityError
from .graphs import GRAPH_VERTEX_BOUND, Graph

__all__ = [
    "folded_cube",
    "walsh_matrix",
    "walsh_rows",
    "tau_generators",
    "FOLDED_CUBE_VERTEX_BOUND",
]

#: cap on 2^{n-1}, the folded cube vertex count
FOLDED_CUBE_VERTEX_BOUND = GRAPH_VERTEX_BOUND


def walsh_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Rows H[g, :] of the 2^width Walsh matrix for the words g, as int8.

    H[g, h] = (-1)^{g.h} is built by doubling the columns one bit of h at a
    time: the columns with bit b set are the ones below it times
    (-1)^{g_b}.  The work is proportional to the rows asked for, so a few
    rows of a wide table never build the whole table.
    """
    words = np.asarray(words, dtype=np.intp)
    rows = np.empty((len(words), 1 << width), dtype=np.int8)
    rows[:, 0] = 1
    for bit in range(width):
        low = 1 << bit
        sign = (1 - 2 * ((words >> bit) & 1)).astype(np.int8)
        np.multiply(rows[:, :low], sign[:, None], out=rows[:, low : 2 * low])
    return rows


def walsh_matrix(width: int) -> np.ndarray:
    """The 2^width Walsh matrix H[g, h] = (-1)^{g.h} as int8, 16 MB at
    width 12; cast it before a matrix product, whose int8 sums would wrap.
    Deliberate public API with no library caller (the library reads
    ``walsh_rows``): the benchmark traces it and the tests' oracles use it.
    """
    return walsh_rows(np.arange(1 << width), width)


def _cube_size(n: int) -> int:
    """2^(n-1), the folded n-cube's vertex count, for an integer n >= 1.

    n is compared with the vertex bound before the shift, so a huge n is a
    ``CapacityError`` and never builds a huge integer.
    """
    if n > FOLDED_CUBE_VERTEX_BOUND.bit_length():
        raise CapacityError(f"folded {n}-cube has 2^{n - 1} > {FOLDED_CUBE_VERTEX_BOUND} vertices")
    return 1 << (n - 1)


@lru_cache(maxsize=None)
def _word_bits(n: int) -> np.ndarray:
    """The folded n-cube's 2^(n-1) words y as a read-only (n, N) uint8 bit
    table, n checked by the caller: row k holds bit k of every word (row
    n-1, y_n, is zero)."""
    bits = ((np.arange(1 << (n - 1)) >> np.arange(n)[:, None]) & 1).astype(np.uint8)
    bits.setflags(write=False)
    return bits


def _connection_words(n: int) -> np.ndarray:
    """FQ_n's connecting words t_1, ..., t_{n-1}, t_n = t_1...t_{n-1} as
    int32, n checked by the caller."""
    return np.array([1 << k for k in range(n - 1)] + [(1 << (n - 1)) - 1], dtype=np.int32)


def folded_cube(n: int) -> Graph:
    """Folded n-cube graph on the 2^{n-1} bit words of width n-1.

    The Cayley graph of Z_2^{n-1} for {t_1, ..., t_{n-1}, t_n =
    t_1...t_{n-1}}: the n-1 generators flip single bits, t_n complements.
    For n >= 3 the graph is n-regular; for n = 2 the two kinds of shift
    coincide and the graph is a single edge.

    The graph is built from its pairs (y, y ^ s) with y <= y ^ s: each
    edge once, as the one orientation y < y ^ s, and a zero word's loops
    (y, y) kept for the check.  One (n, 2^{n-1}) int32 array of shifted
    words against a broadcast view of the words is masked to that half,
    so the kept pair arrays hold 4 bytes per edge each.  ``Graph(...)``
    checks them (a zero word would be a loop) and keeps a copy; the dense
    matrix is written only when something reads it, which
    ``verify_spectrum`` does not.
    """
    n = check_integer(n, "n", 2, need="folded cube needs an integer n >= 2")
    size = _cube_size(n)
    ii = np.arange(size, dtype=np.int32)
    shifted = ii ^ _connection_words(n)[:, None]
    half = ii <= shifted
    return Graph(size, np.broadcast_to(ii, shifted.shape)[half], shifted[half])


def tau_generators(n: int) -> tuple[int, ...]:
    """The alternative generator system tau_1..tau_n of Z_2^{n-1}, n odd,
    as words of width n-1.

    tau_i = t_1 ... t_{i-1} t_{i+1} ... t_{n-1} for i <= n-1 (all generators
    but the i-th) and tau_n = t_1 ... t_{n-1}.  Each tau_i has order two and
    tau_n = tau_1 ... tau_{n-1}; the latter identity needs n odd, which is
    why even n is rejected.  n is held to the folded cube's vertex bound.
    """
    n = check_integer(n, "n", 3, odd=True, need="tau generators need an odd n >= 3")
    full = _cube_size(n) - 1
    return tuple(full ^ (1 << (i - 1)) for i in range(1, n)) + (full,)
