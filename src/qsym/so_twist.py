"""The q = -1 orthogonal relation system, its twist origin, and classical points.

Generators u_ij (1 <= i, j <= n) are subject to the relations

    (7.1)  u_ij = u_ij*
    (7.2)  sum_k u_ik u_jk = sum_k u_ki u_kj = delta_ij
    (7.3)  u_ij u_ik = -u_ik u_ij  and  u_ji u_ki = -u_ki u_ji   (j != k)
    (7.4)  u_ij u_kl = u_kl u_ij                                 (i != k, j != l)

defining the deformation O_n^{-1}; adding the sign-free quantum determinant

    (7.5)  sum_{sigma in S_n} u_{sigma(1)1} ... u_{sigma(n)n} = 1

gives SO_n^{-1}.  Two concrete models are certified here:

* the abelian model: commuting scalar solutions of (7.1)-(7.4) are exactly
  the signed permutation matrices, and (7.5) picks the ones whose entry
  product d is +1 (``abelian_points``).  It is the twist by the trivial
  (all-ones) table, so one evaluator, ``_relation_defects``, checks
  (7.1)-(7.4) in both models;

* the twisted model: for n = 2m+1 there is a unique +-1 bicharacter on
  Z_2^{2m} whose cocycle deformation of the function algebra of SO_{2m+1}
  reproduces (7.1)-(7.5).  The bigrading assigns u_ij the degree pair
  (t_i, t_j), the twisted product of homogeneous classes is

      [u_ij] * [u_kl] = sigma(t_i, t_k) sigma(t_j, t_l) [u_ij u_kl],

  and every relation becomes a polynomial identity in the entries of a
  special orthogonal matrix once each monomial carries its accumulated
  twist sign.  Because sigma is a bicharacter, the sign of a chain
  [u_{i_1 j_1}] * ... * [u_{i_l j_l}] is the closed form

      prod_{b < a} sigma(t_{i_b}, t_{i_a}) sigma(t_{j_b}, t_{j_a}),

  read straight off the generator table.  ``bicharacter(m)`` is that
  table, a read-only int8 (n, n) array, and ``chain_signs`` reads it.  The
  identities are verified pointwise on seeded random special orthogonal
  samples.

Only terms that can be non-zero are formed.  Signed permutation (pi, s)
has entry s_i at (pi(i), i) and zeros elsewhere, so for a column tuple I
its one non-zero product u_{j_1 i_1} ... u_{j_l i_l} sits at J = pi(I),
with value prod_a s_{i_a}: the abelian checks read that term for all
2^n n! matrices at once (``_support_terms``).  (7.2) is a running sum
over k, in the stack's dtype.  The other twisted checks are running sums
too: ``_signed_sums`` loops over the row tuples J in order and adds or
subtracts each product, for all column tuples I of a (C, l) array and a
block of samples at once, into its bucket of J; consecutive tuples share
their prefix products, so each distinct prefix is multiplied once.
(7.5) and the vanishing lemma share one determinant sum
(``_determinant_sums``).  A chain's twist sign splits into a row and a
column part, chain_signs(J, I) = r(J) c(I) (``_index_signs``): r(J) picks
the add or subtract, c(I) = +-1 is applied after the sum or dropped
where only |lhs - rhs| is read.  Every sum runs in the order of its
terms, a plain loop.  (7.3) and (7.4) are one commutation rule,
u_ij u_kl = eps u_kl u_ij, read from one int8 coefficient tensor; sample
entries are multiplied only where it is non-zero.  ``_relation_defects``
reads (7.1)-(7.4) from one (n, n, S) copy of the stack, samples last.

Finally, every abelian point acts on the folded n-cube: the generators
tau_i of Z_2^{n-1} are sent to sign * tau_{perm(i)}, which (precisely
because d = 1) extends to an algebra map of the group algebra.  That map
is affine on exponent vectors, t_k -> s_k s_n tau_{perm(k)} tau_{perm(n)},
so its point-basis matrix is the vertex permutation inverse to
y -> c + L_pi y.  The inverse linear part permutes the connecting words,
e_k -> t_{pi(k)} with t_n the all-ones word, so the action of (pi, s) is
x -> L(x) + L(c), and its row is built from FQ_n's connecting words
(``boolean_group._connection_words``) by doubling over the n-1 bits of x
(``classical_point_action`` for one point; ``_point_action_images`` for the
(points, n) arrays of ``_abelian_point_rows``, as one image array).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import prod
from typing import Iterable

import numpy as np

from .boolean_group import _connection_words, _cube_size, tau_generators
from .config import DEFAULT_TOLERANCES, Report, check_integer, check_tolerance
from .errors import CapacityError, DimensionError, UsageError
from .graphs import Permutation, _bijections, _distinct_rows, _integers, _permutation_rows

__all__ = [
    "SignedPermMatrix",
    "abelian_points",
    "lemma_SO_mismatches",
    "lemma_SO_bruteforce",
    "lemma_sumzero_check",
    "bicharacter",
    "chain_signs",
    "chain_sign",
    "twisted_relation_check",
    "lemma_P_check",
    "classical_point_action",
    "SIGNED_PERM_BOUND",
    "SO_BRUTEFORCE_BOUND",
    "SAMPLE_BOUND",
    "SAMPLE_STACK_BYTES",
]

#: enumeration caps: 2^n n! signed permutation matrices
SIGNED_PERM_BOUND = 6
SO_BRUTEFORCE_BOUND = 5

#: float64 elements that one block of samples of ``_signed_sums`` holds in
#: its slabs, its running term and its bucket sums together (4 MiB)
_SUM_BLOCK = 1 << 19

#: caps on sample counts: at most SAMPLE_BOUND samples, and an (S, n, n)
#: float64 sample stack of at most SAMPLE_STACK_BYTES (200 MiB at n = 5 and
#: the SAMPLE_BOUND; at n = 7, m = 3 of ``twisted_relation_check``, the
#: byte cap holds S to 684,784)
SAMPLE_BOUND = 1 << 20
SAMPLE_STACK_BYTES = 256 << 20


@lru_cache(maxsize=None)
def _permutations(n: int, l: int | None = None) -> np.ndarray:
    """All injective l-tuples of 0..n-1 (all permutations for l = None),
    in itertools order, as a read-only (count, l) array."""
    out = np.array(list(permutations(range(n), l)), dtype=np.intp)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# signed permutation matrices (the abelian model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SignedPermMatrix:
    """Matrix with one entry +-1 per row and column: column a holds
    ``signs[a]`` at row ``perm(a)``.  Slotted, like ``Permutation``."""

    perm: Permutation
    signs: tuple[int, ...]

    def __post_init__(self):
        signs = _integers(self.signs, "signs")
        object.__setattr__(self, "signs", signs)
        if len(signs) != self.perm.size:
            raise DimensionError("sign vector length != permutation size")
        if any(s not in (-1, 1) for s in signs):
            raise UsageError("signs must be +-1")

    @property
    def n(self) -> int:
        return self.perm.size


@dataclass(frozen=True)
class _SignedPermStack:
    """All 2^n n! signed permutation matrices as arrays; matrix index
    p * 2^n + s pairs permutation ``perms[p]`` with sign vector ``signs[s]``
    (itertools order: permutations outer, sign vectors from all +1 inner)."""

    perms: np.ndarray  # (n!, n) images
    signs: np.ndarray  # (2^n, n) +-1
    matrices: np.ndarray  # (2^n n!, n, n) int8
    determinants: np.ndarray  # (2^n n!,) quantum determinants


@lru_cache(maxsize=SIGNED_PERM_BOUND)
def _signed_perm_stack(n: int) -> _SignedPermStack:
    perms = _permutations(n)
    signs = np.array(list(product((1, -1), repeat=n)), dtype=np.int8)
    count = len(perms) * len(signs)
    index = np.arange(count)
    matrices = np.zeros((count, n, n), dtype=np.int8)
    matrices[index[:, None], perms[index // len(signs)], np.arange(n)] = signs[index % len(signs)]
    determinants = np.tile(signs.prod(axis=1, dtype=np.int8), len(perms))
    for arr in (signs, matrices, determinants):
        arr.setflags(write=False)
    return _SignedPermStack(perms, signs, matrices, determinants)


def _support_terms(stack: _SignedPermStack, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of the products u_{j_1 i_1} ... u_{j_l i_l} of matrix (p, s), over
    the row tuples J of ``rows``, only J = perms[p][I] can be non-zero for
    I = ``cols[c]``.  Returns ``hit`` (n!, C), its index in ``rows`` by
    base-n code (-1 if absent), and ``value`` (2^n, C), prod_a signs[s][i_a]."""
    n = stack.perms.shape[1]
    weights = n ** np.arange(cols.shape[1])[::-1]
    lookup = np.full(n ** cols.shape[1], -1, dtype=np.intp)
    lookup[rows @ weights] = np.arange(len(rows))
    hit = lookup[stack.perms[:, cols] @ weights]
    value = stack.signs[:, cols].prod(axis=-1, dtype=np.int8)
    return hit, value


def _abelian_point_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Commutative solutions of (7.1)-(7.5) as (P, n) arrays: row i of
    ``perms`` holds the images of point i's permutation and row i of
    ``signs`` its +-1 signs, in enumeration order.

    Exactly half of the 2^n n! signed permutation matrices survive the
    quantum determinant condition.  Each survivor is also checked against
    (7.1)-(7.4) literally, by the evaluator of the twisted check under the
    trivial (all-ones) sign table (``_relation_defects``).
    """
    n = check_integer(n, "n", 1)
    if n > SIGNED_PERM_BOUND:
        raise CapacityError(f"n={n} exceeds the signed-permutation bound {SIGNED_PERM_BOUND}")
    stack = _signed_perm_stack(n)
    keep = np.flatnonzero(stack.determinants == 1)
    if any(_relation_defects(stack.matrices[keep], np.ones((n, n), np.int8))):
        raise RuntimeError(f"an abelian point of size {n} violates the scalar relations")
    return stack.perms[keep // len(stack.signs)], stack.signs[keep % len(stack.signs)]


def _stack_points(perms: np.ndarray, signs: np.ndarray) -> list[SignedPermMatrix]:
    """The rows of (P, n) ``perms`` and ``signs`` as SignedPermMatrix
    objects, in order, sharing one Permutation per distinct permutation
    and one tuple per distinct sign vector (each found by its bytes,
    ``_distinct_rows``).  The permutations are checked once per array; the
    sign vectors are +-1 by construction.  Neither is checked again per
    matrix: each object is a bare instance given its two fields by slot
    stores."""
    first, which = _distinct_rows(_bijections(perms))
    sign_first, sign_which = _distinct_rows(signs)
    shared, sign_tuples = _permutation_rows(perms[first]), list(map(tuple, signs[sign_first].tolist()))
    new, points = object.__new__, []
    put_perm, put_signs = SignedPermMatrix.perm.__set__, SignedPermMatrix.signs.__set__
    for p, s in zip(which.tolist(), sign_which.tolist()):
        point = new(SignedPermMatrix)
        put_perm(point, shared[p])
        put_signs(point, sign_tuples[s])
        points.append(point)
    return points


def abelian_points(n: int) -> list[SignedPermMatrix]:
    """Commutative solutions of (7.1)-(7.5): signed permutations with d = +1,
    the rows of ``_abelian_point_rows`` as SignedPermMatrix objects."""
    return _stack_points(*_abelian_point_rows(n))


# ---------------------------------------------------------------------------
# the quantum determinant in the abelian model
# ---------------------------------------------------------------------------


def lemma_SO_mismatches(n: int) -> int:
    """Number of signed permutation matrices for which "quantum determinant
    one" and "every column-n entry equals its injective-product expansion"
    (the two formulations of (7.5)) disagree; 0 confirms the equivalence."""
    n = check_integer(n, "n", 1)
    if n > SO_BRUTEFORCE_BOUND:
        raise CapacityError(f"n={n} exceeds the brute-force bound {SO_BRUTEFORCE_BOUND}")
    stack = _signed_perm_stack(n)
    rows = _permutations(n, n - 1)
    hit, value = _support_terms(stack, rows, np.arange(n - 1)[None])
    # the expansion's one term sits in the row its tuple avoids
    avoided = n * (n - 1) // 2 - rows.sum(axis=1)
    expansion = np.zeros((len(stack.perms), len(stack.signs), n), dtype=np.int8)
    expansion[np.arange(len(stack.perms)), :, avoided[hit[:, 0]]] = value[:, 0]
    agree = (expansion.reshape(len(stack.matrices), n) == stack.matrices[:, :, n - 1]).all(axis=1)
    return int(np.count_nonzero((stack.determinants == 1) != agree))


def lemma_SO_bruteforce(n: int) -> bool:
    """Exhaustively confirm, over all signed permutation matrices, that the
    quantum determinant equals one iff every column-n entry equals its
    injective-product expansion (the two formulations of (7.5))."""
    return lemma_SO_mismatches(n) == 0


# ---------------------------------------------------------------------------
# the bicharacter and the twist signs
# ---------------------------------------------------------------------------


def bicharacter(m: int) -> np.ndarray:
    """The bicharacter's table T on the generators t_1..t_{2m+1}, n = 2m+1,
    as a read-only int8 (n, n) array: T[i-1, j-1] = sigma(t_i, t_j).

    Among t_1..t_{2m} it is antisymmetric off the diagonal (-1 for i < j),
    (-1)^m on the whole diagonal, and sigma(t_i, t_{2m+1}) = (-1)^{m-i} =
    -sigma(t_{2m+1}, t_i) against the full product t_{2m+1} = t_1...t_{2m}.
    These three value families fix the unique bicharacter on Z_2^{2m} that
    twists SO_{2m+1} into SO_{2m+1}^{-1}.  m is checked before the cache
    is read, so an unhashable m is a ``UsageError``.
    """
    return _bicharacter_table(check_integer(m, "m", 1))


@lru_cache(maxsize=None)
def _bicharacter_table(m: int) -> np.ndarray:
    width = 2 * m
    i = np.arange(width)  # t_{i+1}
    table = np.empty((width + 1, width + 1), dtype=np.int8)
    table[:width, :width] = np.where(i[:, None] < i, -1, 1)
    last = 1 - 2 * ((m - 1 - i) & 1)  # (-1)^{m-(i+1)}
    table[:width, width], table[width, :width] = last, -last
    np.fill_diagonal(table, (-1) ** m)
    table.setflags(write=False)
    return table


def chain_signs(I, J, table: np.ndarray) -> np.ndarray:
    """Accumulated twist signs of the chains [u_{i_1 j_1}] * ... * [u_{i_l j_l}].

    ``I`` and ``J`` hold 0-based generator indices (index i is t_{i+1}) in
    arrays broadcastable to a common shape (..., l); the result has shape
    (...,).  Each sign is prod_{b < a} T[i_b, i_a] T[j_b, j_a] with T the
    generator ``table`` of ``bicharacter``: moving [u_{i_a j_a}] past the
    product of the earlier factors costs sigma(t_{i_1}...t_{i_{a-1}}, t_{i_a})
    times the same on the right, and sigma is multiplicative in each argument.
    """
    I, J = np.broadcast_arrays(np.asarray(I, dtype=np.intp), np.asarray(J, dtype=np.intp))
    if I.ndim == 0:
        raise DimensionError("index arrays need a chain axis")
    n = len(table)
    if I.size and (min(I.min(), J.min()) < 0 or max(I.max(), J.max()) >= n):
        raise UsageError(f"generator index out of range for n={n}")
    return _index_signs(I, table) * _index_signs(J, table)


def _index_signs(indices: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One side of a chain's twist sign: prod_{b < a} T[k_b, k_a] over the
    last axis of ``indices``, shape (...,).  ``chain_signs(I, J)`` is
    ``_index_signs(I) * _index_signs(J)``, so the sign of a row tuple J
    against a column tuple I is r(J) c(I), a row part times a column part."""
    out = np.ones(indices.shape[:-1], dtype=np.int8)
    for a in range(1, indices.shape[-1]):
        for b in range(a):
            out *= table[indices[..., b], indices[..., a]]
    return out


def chain_sign(pairs: Iterable[tuple[int, int]], table: np.ndarray) -> int:
    """Accumulated twist sign of one chain of 1-based pairs (i, j)."""
    idx = np.array(list(pairs), dtype=np.intp).reshape(-1, 2) - 1
    return int(chain_signs(idx[:, 0], idx[:, 1], table))


# ---------------------------------------------------------------------------
# sampled special orthogonal matrices
# ---------------------------------------------------------------------------


def _sample_bound(n: int) -> int:
    """The most samples an (S, n, n) float64 stack may hold."""
    return min(SAMPLE_BOUND, SAMPLE_STACK_BYTES // (n * n * np.dtype(np.float64).itemsize))


def _check_samples(samples, name: str, n: int) -> int:
    """samples as an int in 1..``_sample_bound(n)``, checked before any draw."""
    bound = _sample_bound(n)
    if check_integer(samples, name, 1) > bound:
        raise CapacityError(f"{name}={samples} exceeds the sample bound {bound} at n={n}")
    return int(samples)


def _stack_samples(n: int, count: int, rng: np.random.Generator, negative: bool) -> np.ndarray:
    """``count`` seeded random orthogonal matrices of determinant -1 if
    ``negative`` else +1: QR of Gaussians, R-diagonal signs absorbed, last
    column flipped where the determinant has the wrong sign."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q *= np.where(np.diagonal(r, axis1=1, axis2=2) >= 0, 1.0, -1.0)[:, None, :]
    flip = (np.linalg.det(q) < 0) != negative
    q[flip, :, -1] = -q[flip, :, -1]
    return q


# ---------------------------------------------------------------------------
# relation certification: one evaluator, and the twisted model
# ---------------------------------------------------------------------------


def _relation_defects(stack: np.ndarray, table: np.ndarray) -> tuple[float, float, float, float]:
    """Worst violations (d71, d72, d73, d74) of (7.1)-(7.4) by an (S, n, n)
    stack of commuting samples, each monomial carrying its ``chain_signs``
    sign under the generator ``table`` (``bicharacter(m)``, or all ones for
    the abelian model).

    (7.3) and (7.4) are one rule, u_ij u_kl = eps u_kl u_ij with eps = -1
    where exactly one of i = k, j = l holds, else +1.  On samples it reads
    coef u_ij u_kl = 0, coef = chain_signs((i,k),(j,l)) - eps
    chain_signs((k,i),(l,j)): (7.3), rows and columns alike, where one
    index pair coincides, (7.4) where neither does.  Entries are multiplied
    only where coef is non-zero: nowhere for the bicharacter, on (7.3)
    (coef = 2) for the all-ones table.

    Both run on one contiguous (n, n, S) copy of the stack, samples last,
    so every product and gather reads whole (S,) rows.  T[k, k] = +-1 adds
    or subtracts its (7.2) product, which is exact: (-a) b = -(a b).
    """
    n = stack.shape[-1]
    d71 = float(np.abs(stack.imag).max()) if np.iscomplexobj(stack) else 0.0
    last = np.ascontiguousarray(stack.transpose(1, 2, 0))  # last[i, j] = u_ij over the samples

    # (7.2), per orientation: T[i, j] times the running sum of T[k, k] u_ki u_kj
    defects, total, product = [], np.empty_like(last), np.empty_like(last)
    for u in (last, last.transpose(1, 0, 2)):
        total.fill(0)
        for k in range(n):
            np.multiply(u[k, :, None], u[k, None, :], product)
            (np.add if table[k, k] > 0 else np.subtract)(total, product, total)
        total *= table[:, :, None]
        total -= np.eye(n, dtype=stack.dtype)[:, :, None]
        defects.append(float(np.abs(total).max()))
    d72 = max(defects)
    del total, product  # two (n, n, S) arrays less under the (7.3) products

    idx = np.arange(n)
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1)  # pairs[i, j] = (i, j)
    same = idx[:, None] == idx
    one = same[:, :, None, None] != same  # one[i, k, j, l]: exactly one of i = k, j = l
    flip = pairs[:, :, ::-1]
    swapped = chain_signs(flip[:, :, None, None], flip, table)
    coef = chain_signs(pairs[:, :, None, None], pairs, table) - np.where(one, -swapped, swapped)
    i, k, j, l = np.nonzero(coef)
    terms = np.abs(coef[i, k, j, l, None] * last[i, j] * last[k, l])
    part = one[i, k, j, l]
    d73, d74 = (float(terms[cut].max(initial=0)) for cut in (part, ~part))
    return d71, d72, d73, d74


def _signed_sums(stack, rows, cols, signs, buckets):
    """Per-sample bucket sums of signed entry products, one running sum each.

    ``stack`` holds S matrices, shape (S, n, n), read as float64; ``rows``
    is (P, l), ``cols`` is (C, l), ``signs`` is (P,) +-1 and ``buckets`` is
    (T, P), T bucketings of the row tuples into ids 0..K-1, with -1 for a
    tuple a bucketing leaves out.  Term (p, c) of sample s is

        signs[p] * stack[s, rows[p, 0], cols[c, 0]] * ... * stack[s, rows[p, l-1], cols[c, l-1]],

    and bucket k of bucketing t adds the terms of its tuples to +0.0 in
    the order of ``rows``: a plain loop.  The product is formed left to
    right without the sign, and the sign picks ``+=`` or ``-=``; as
    round-to-nearest is symmetric under negation, every sum is the float
    the loop would give that starts each term from the sign.  A row of
    width 0 adds its sign.

    Each tuple's product shares its prefix with the previous tuple's:
    prefix buffer a holds the product of the first a + 2 factors, and only
    the factors past the longest common prefix of the two tuples are
    multiplied.  In itertools order that is one multiply per distinct
    prefix (775 for the 625 tuples of lemma P at n = 5, l = 4).

    Yields ``(sblk, sums)`` per block of samples, ``sums`` the (T, K, C, Sb)
    sums of samples ``sblk``.  ``sums`` is one buffer, zeroed again for the
    next block: a caller reads it before it asks for the next block and
    holds no part of it after.  A block gathers its entries once, as (l, n,
    C, Sb) slabs of entries (j, cols[c, a], s), so each factor is one
    (C, Sb) slab; its slabs, l - 1 prefix buffers and sums hold at most
    about ``_SUM_BLOCK`` elements, or one sample's.
    """
    stack = np.asarray(stack, dtype=np.float64)
    n, l, kinds, width = stack.shape[-1], rows.shape[1], len(buckets), int(buckets.max(initial=-1)) + 1
    step = max(1, _SUM_BLOCK // ((kinds * width + l * n + max(l - 1, 0)) * len(cols)))
    entries = np.arange(n)[:, None], cols.T[:, None]  # (l, n, C): (j, cols[c, a])
    # per tuple: the first factor it does not share with the previous tuple,
    # the add or subtract of its sign, and its cell t * width + k per
    # bucketing t (-1 where t leaves it out)
    shared = np.concatenate([[0], (rows[1:] == rows[:-1]).cumprod(axis=1).sum(axis=1)])
    targets = np.where(buckets >= 0, buckets + width * np.arange(kinds)[:, None], -1)
    ops = [np.add if sign > 0 else np.subtract for sign in signs.tolist()]
    plan = list(zip(rows.tolist(), shared.tolist(), ops, targets.T.tolist()))
    size = min(step, len(stack))
    sums, prefix = np.empty((kinds, width, len(cols), size)), np.empty((max(l - 1, 0), len(cols), size))
    for s in range(0, len(stack), step):
        sblk = slice(s, s + step)
        slabs = stack[sblk].transpose(1, 2, 0)[entries]
        out = sums[..., : slabs.shape[-1]]
        out.fill(0.0)
        # (C, Sb) views: factors[a][j], cells[t * width + k] and chain[a], the
        # product of the first a + 1 factors (the first factor itself at a = 0;
        # 1.0 at l = 0)
        factors, cells = [list(slab) for slab in slabs], [cell for bucketing in out for cell in bucketing]
        chain = [1.0, *prefix[..., : slabs.shape[-1]]]
        for row, start, op, into in plan:
            for a in range(start, l):  # out= as the third argument: no keyword to parse
                chain[a] = np.multiply(chain[a - 1], factors[a][row[a]], chain[a]) if a else factors[0][row[0]]
            for c in into:
                if c >= 0:
                    op(cells[c], chain[-1], cells[c])
        yield sblk, out
        del slabs, factors, chain  # the next block's gather does not overlap this one's


def _determinant_sums(stack: np.ndarray, cols: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c(I) sum_sigma r(sigma) u_{sigma(1) i_1} ... u_{sigma(n) i_n} under the
    twist ``table``, per column tuple I of the (C, n) ``cols`` and sample of
    the (S, n, n) ``stack``: a (C, S) array, the determinant at I = 1..n."""
    perms = _permutations(stack.shape[-1])
    out = np.empty((len(cols), len(stack)))
    for sblk, sums in _signed_sums(stack, perms, cols, _index_signs(perms, table), np.zeros((1, len(perms)), int)):
        out[:, sblk] = sums[0, 0]
    return _index_signs(cols, table)[:, None] * out


def twisted_relation_check(
    m: int,
    n_samples: int = 50,
    seed: int = 42,
    tol: float = DEFAULT_TOLERANCES.residual,
) -> list[Report]:
    """Certify (7.1)-(7.5) for the twisted generators, pointwise.

    Each monomial is evaluated as its accumulated twist sign times the
    product of matrix entries, on ``n_samples`` seeded special orthogonal
    matrices.  For (7.5) the twist signs collapse to the permutation sign,
    so the sum becomes the classical determinant: 1 on the special
    orthogonal samples and -1 on the determinant-(-1) control samples.
    """
    m = check_integer(m, "m", 1)
    if m > 3:
        raise UsageError(f"twisted relation check supports m in 1..3, got {m}")
    n = 2 * m + 1
    n_samples = _check_samples(n_samples, "n_samples", n)
    seed = check_integer(seed, "seed")
    tol = check_tolerance(tol)
    twist = bicharacter(m)
    rng = np.random.default_rng(seed)
    so = _stack_samples(n, n_samples, rng, negative=False)
    refl = _stack_samples(n, n_samples, rng, negative=True)
    base = {"m": m, "n": n, "samples": n_samples, "seed": seed}
    reports = [
        Report(relation=relation, max_defect=defect, tol=tol, passed=defect <= tol, **base)
        for relation, defect in zip(("7.1", "7.2", "7.3", "7.4"), _relation_defects(so, twist))
    ]

    total, total_refl = (_determinant_sums(u, np.arange(n)[None], twist)[0] for u in (so, refl))
    d75 = float(np.abs(total - 1.0).max())
    control = float(np.abs(total_refl + 1.0).max())
    passed = d75 <= tol and control <= tol
    reports.append(Report(relation="7.5", max_defect=d75, tol=tol, passed=passed, **base,
                          control_det_negative_defect=control))
    return reports


# ---------------------------------------------------------------------------
# the two vanishing lemmas, abelian and twisted
# ---------------------------------------------------------------------------


def lemma_sumzero_check(
    n: int,
    model: str = "abelian",
    samples: int = 50,
    seed: int = 42,
    tol: float = DEFAULT_TOLERANCES.residual,
) -> Report:
    """Check that sum_sigma u_{sigma(1)1} ... u_{sigma(n-1)n-1} u_{sigma(n)k}
    vanishes for every k != n, plus the k = n control (the quantum
    determinant itself: d per matrix in the abelian model, 1 on special
    orthogonal samples in the twisted model).  The n column tuples
    (1..n-1, k) are read in one call."""
    n = check_integer(n, "n", 1)
    seed = check_integer(seed, "seed")
    tol = check_tolerance(tol)
    if model not in ("abelian", "twisted"):
        raise UsageError(f'model must be "abelian" or "twisted", got {model!r}')
    if model == "twisted" and (n % 2 == 0 or n < 3):
        raise UsageError("twisted model needs odd n >= 3")
    if n > SO_BRUTEFORCE_BOUND:
        raise CapacityError(f"n={n} exceeds the {model} bound {SO_BRUTEFORCE_BOUND}")
    samples = _check_samples(samples, "samples", n)

    cols = np.tile(np.arange(n), (n, 1))
    cols[:, -1] = np.arange(n)  # row k: (1..n-1, k)
    if model == "abelian":
        stack = _signed_perm_stack(n)
        # a total is its support term where that is a permutation, else 0
        hit, value = _support_terms(stack, _permutations(n), cols)
        totals = np.where(hit[:, None, :] >= 0, value[None], 0).reshape(-1, n).T
        target = stack.determinants
        details = {"model": "abelian", "n": n, "matrices": len(stack.matrices)}
    else:
        values = _stack_samples(n, samples, np.random.default_rng(seed), negative=False)
        totals = _determinant_sums(values, cols, bicharacter((n - 1) // 2))
        target = 1.0
        details = {"model": "twisted", "n": n, "samples": samples, "seed": seed}
    max_defect = float(np.abs(totals[:-1]).max(initial=0.0))
    control = float(np.abs(totals[-1] - target).max())
    passed = max_defect <= tol and control <= tol
    return Report(relation="lemma_sumzero", max_defect=max_defect, tol=tol, passed=passed, **details,
                  control_defect=control)


def lemma_P_check(
    n: int,
    l: int,
    model: str = "abelian",
    samples: int = 20,
    seed: int = 42,
    tol: float = DEFAULT_TOLERANCES.residual,
) -> Report:
    """Check the repeated-index collapse of the tau-twisted sums.

    For every injective column tuple (i_1..i_l), the full sum
    sum_{j_1..j_l} tau_{j_1}...tau_{j_l} (x) u_{j_1 i_1}...u_{j_l i_l} must
    equal its restriction to pairwise-distinct row tuples.  Both sides are
    accumulated as coefficient vectors over Z_2^{n-1} (the tau products)
    and compared: exactly in the abelian model, within tol on seeded
    special orthogonal samples in the twisted model.  The abelian
    difference is the sum over row tuples with a repeated index, to which
    only the support term (``_support_terms``) can add.  For a true signed
    permutation that lookup never hits: a permutation maps an injective
    column tuple to an injective row tuple, and the looked-up rows all
    repeat an index.  So the abelian defect is 0 by construction, and the
    check reads it only to catch a stack that is not made of permutations.

    The twisted column tuples go through ``_signed_sums`` in one call; c(I)
    multiplies both sides alike and is left out.  lhs and rhs come from the
    same pass, as two bucketings of the row tuples by tau word: all of them
    for lhs, the distinct ones for rhs.  Each block of samples' difference
    folds into a running maximum.
    """
    n = check_integer(n, "n", 1)
    l = check_integer(l, "l", 1)
    seed = check_integer(seed, "seed")
    if n % 2 == 0 or n < 3:
        raise UsageError("lemma_P needs odd n >= 3 (tau generators)")
    if n > SO_BRUTEFORCE_BOUND:
        raise CapacityError(f"n={n} exceeds the bound {SO_BRUTEFORCE_BOUND}")
    samples = _check_samples(samples, "samples", n)
    if not 1 <= l <= n:
        raise UsageError(f"l must lie in 1..{n}, got {l}")
    tol = check_tolerance(tol)
    if model not in ("abelian", "twisted"):
        raise UsageError(f'model must be "abelian" or "twisted", got {model!r}')

    j_tuples = np.array(list(product(range(n), repeat=l)), dtype=np.intp)
    ordered = np.sort(j_tuples, axis=1)
    distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    cols = _permutations(n, l)
    if model == "abelian":
        stack = _signed_perm_stack(n)
        hit, value = _support_terms(stack, j_tuples[~distinct], cols)
        # a bucket's difference is the support term where that is repeated
        max_defect = float(np.abs(value[:, (hit >= 0).any(axis=0)]).max(initial=0))
        details = {"model": "abelian", "n": n, "l": l, "matrices": len(stack.matrices)}
        return Report(relation="lemma_P", max_defect=max_defect, tol=tol, passed=max_defect <= tol, **details)

    twist = bicharacter((n - 1) // 2)
    values = _stack_samples(n, samples, np.random.default_rng(seed), negative=False)
    details = {"model": "twisted", "n": n, "l": l, "samples": samples, "seed": seed}
    tau_bits = np.array(tau_generators(n), dtype=np.intp)
    bits = np.bitwise_xor.reduce(tau_bits[j_tuples], axis=1)
    max_defect = 0.0
    for _, (lhs, rhs) in _signed_sums(values, j_tuples, cols, _index_signs(j_tuples, twist),
                                      np.stack([bits, np.where(distinct, bits, -1)])):
        lhs -= rhs
        max_defect = max(max_defect, float(np.abs(lhs, out=lhs).max(initial=0.0)))
    return Report(relation="lemma_P", max_defect=max_defect, tol=tol, passed=max_defect <= tol, **details)


# ---------------------------------------------------------------------------
# classical points acting on the folded cube
# ---------------------------------------------------------------------------


def _point_action_images(perms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The vertex permutations of ``classical_point_action`` for the (P, n)
    ``perms`` and ``signs`` rows of abelian points of one odd n >= 3 (such
    as ``_abelian_point_rows``), as a (P, 2^(n-1)) image array.

    Row x of point (pi, s)'s action is L(x) + L(c), where L sends e_k to
    the connecting word t_{pi(k)} and bit k of c is set when s_k s_n = -1.
    The rows start at L(c) and double over the n-1 bits of x, every point
    at once, one XOR per bit; the shifts and the bijection check
    (``_bijections``) are one array operation each, so this is the path
    for many points (the CLI).
    """
    n = perms.shape[1]
    moved = _connection_words(n)[perms]  # t_{pi(k)}: (P, n)
    images = np.empty((len(perms), 1 << (n - 1)), dtype=np.intp)
    images[:, 0] = np.bitwise_xor.reduce(moved[:, :-1] * (signs[:, :-1] != signs[:, -1:]), axis=1)
    for k in range(n - 1):
        low = 1 << k
        np.bitwise_xor(images[:, :low], moved[:, k, None], out=images[:, low : 2 * low])
    return _bijections(images)


@lru_cache(maxsize=None)
def _connection_ints(n: int) -> tuple[int, ...]:
    """``_connection_words(n)`` as Python ints, for the one-point path;
    n is checked against the vertex bound by the caller."""
    return tuple(_connection_words(n).tolist())


def classical_point_action(point: SignedPermMatrix) -> Permutation:
    """Vertex permutation of FQ_n induced by an abelian point.

    The point sends tau_i to signs[i] tau_{perm(i)}; because its quantum
    determinant is one this respects tau_n = tau_1...tau_{n-1} and extends
    to an algebra map of the group algebra of Z_2^{n-1}.  On the generators
    t_k = tau_k tau_n (k < n) the map reads

        t_k  ->  s_k s_n tau_{pi(k)} tau_{pi(n)},

    which is affine in the exponents: T_g -> (-1)^{c.g} T_{Phi g}, where
    column k of Phi is the word tau_{pi(k)} tau_{pi(n)} and bit k of c is
    set when s_k s_n = -1.  The Fourier pair turns this into the point
    permutation sending e_x to e_y where x = c + Phi^T y.  Bit k of
    L_pi y = Phi^T y is y_{pi(k)} + y_{pi(n)} (y_n = 0), so L_pi sends the
    connecting word t_{pi(k)} to e_k (t_n the all-ones word), and the
    action is x -> L(x) + L(c) with L = L_pi^{-1}: e_k -> t_{pi(k)}.  Its
    row starts at L(c) and doubles over the n-1 bits of x, from
    ``boolean_group._connection_words``, and is checked to be a bijection;
    n is held to odd n >= 3 and the folded cube's vertex bound, in that
    order, before the determinant.  That the result is a graph automorphism
    preserving every eigenspace is the caller's to check
    (``is_automorphism``, ``preserves_eigenspaces``); ``qsym so-points``
    reports both.
    """
    n, signs = point.n, point.signs
    if n % 2 == 0 or n < 3:
        raise UsageError("classical point action needs odd n >= 3")
    size = _cube_size(n)
    if prod(signs) != 1:
        raise UsageError("quantum determinant is -1: the sign pattern does not respect "
                         "tau_n = tau_1...tau_{n-1}, so no vertex action exists")
    words = _connection_ints(n)
    shift = 0  # L(c)
    for i, s in zip(point.perm.images, signs):
        if s != signs[-1]:
            shift ^= words[i]
    row = [shift]
    for i in point.perm.images[:-1]:
        word = words[i]
        row += [r ^ word for r in row]
    if sorted(row) != list(range(size)):
        _bijections(np.array([row]))
    action = object.__new__(Permutation)
    Permutation.images.__set__(action, tuple(row))
    return action
