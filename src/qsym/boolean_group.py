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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import check_integer
from .errors import CapacityError, DimensionError, UsageError
from .graphs import GRAPH_VERTEX_BOUND, Graph

__all__ = [
    "GroupWord",
    "folded_cube",
    "walsh_matrix",
    "walsh_rows",
    "tau_generators",
    "FOLDED_CUBE_VERTEX_BOUND",
]

#: cap on 2^{n-1}, the folded cube vertex count
FOLDED_CUBE_VERTEX_BOUND = GRAPH_VERTEX_BOUND


@dataclass(frozen=True)
class GroupWord:
    """Element of Z_2^width; ``bits`` holds the exponent vector."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width < 0:
            raise UsageError("width must be non-negative")
        if not 0 <= self.bits < (1 << self.width):
            raise UsageError(f"bits {self.bits:#x} out of range for width {self.width}")

    @classmethod
    def identity(cls, width: int) -> "GroupWord":
        return cls(0, width)

    @classmethod
    def generator(cls, k: int, width: int) -> "GroupWord":
        """The generator t_k (1-based), i.e. the word with exponent vector e_k."""
        if not 1 <= k <= width:
            raise UsageError(f"generator index {k} out of range 1..{width}")
        return cls(1 << (k - 1), width)

    @classmethod
    def all_ones(cls, width: int) -> "GroupWord":
        return cls((1 << width) - 1, width)

    @classmethod
    def all_words(cls, width: int) -> Iterator["GroupWord"]:
        for bits in range(1 << width):
            yield cls(bits, width)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.width != other.width:
            raise DimensionError("group word widths differ")
        return GroupWord(self.bits ^ other.bits, self.width)

    def inverse(self) -> "GroupWord":
        return self

    def length(self) -> int:
        """Word length: number of generators with exponent 1."""
        return self.bits.bit_count()

    def dot(self, other: "GroupWord") -> int:
        """GF(2) dot product of exponent vectors (0 or 1)."""
        if self.width != other.width:
            raise DimensionError("group word widths differ")
        return (self.bits & other.bits).bit_count() & 1

    def exponents(self) -> tuple[int, ...]:
        return tuple((self.bits >> s) & 1 for s in range(self.width))

    def __repr__(self) -> str:
        if self.bits == 0:
            return f"GroupWord(e, width={self.width})"
        word = "*".join(f"t{s + 1}" for s in range(self.width) if (self.bits >> s) & 1)
        return f"GroupWord({word}, width={self.width})"


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
    """The 2^width Walsh matrix H[g, h] = (-1)^{g.h} as int8.

    int8 keeps the 4096 x 4096 table at 16 MB; cast it before a matrix
    product, whose int8 sums would wrap.
    """
    return walsh_rows(np.arange(1 << width), width)


def folded_cube(n: int) -> Graph:
    """Folded n-cube graph on the 2^{n-1} bit words of width n-1.

    The Cayley graph of Z_2^{n-1} for {t_1, ..., t_{n-1}, t_n =
    t_1...t_{n-1}}: the n-1 generators flip single bits, t_n complements.
    For n >= 3 the graph is n-regular; for n = 2 the two kinds of shift
    coincide and the graph is a single edge.
    """
    n = check_integer(n, "n", 2, need="folded cube needs an integer n >= 2")
    size = 1 << (n - 1)
    if size > FOLDED_CUBE_VERTEX_BOUND:
        raise CapacityError(f"folded {n}-cube has {size} > {FOLDED_CUBE_VERTEX_BOUND} vertices")
    ii = np.arange(size)
    adjacency = np.zeros((size, size), dtype=np.uint8)
    for s in [1 << k for k in range(n - 1)] + [size - 1]:
        adjacency[ii, ii ^ s] = 1
    # the fresh array is handed over: validated, but not copied again
    return Graph._from_owned(adjacency)


def tau_generators(n: int) -> list[GroupWord]:
    """The alternative generator system tau_1..tau_n of Z_2^{n-1}, n odd.

    tau_i = t_1 ... t_{i-1} t_{i+1} ... t_{n-1} for i <= n-1 (all generators
    but the i-th) and tau_n = t_1 ... t_{n-1}.  Each tau_i has order two and
    tau_n = tau_1 ... tau_{n-1}; the latter identity needs n odd, which is
    why even n is rejected.
    """
    n = check_integer(n, "n", 3, odd=True, need="tau generators need an odd n >= 3")
    width = n - 1
    full = (1 << width) - 1
    taus = [GroupWord(full ^ (1 << (i - 1)), width) for i in range(1, n)]
    taus.append(GroupWord(full, width))
    product = 0
    for t in taus[:-1]:
        product ^= t.bits
    if product != full:  # pragma: no cover - guards the n-odd arithmetic above
        raise RuntimeError("tau_n != tau_1...tau_{n-1}; generator table is inconsistent")
    return taus
