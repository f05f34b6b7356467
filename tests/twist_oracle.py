"""Reference implementations for the tests of ``qsym.so_twist``.

* The bicharacter as a pairing of words: ``word_sign`` extends the
  generator table of ``so_twist.bicharacter`` multiplicatively, and
  ``consistency_defect`` checks that the table's row and column of the
  full product t_{2m+1} agree with that extension.
* The symbolic twist layer: graded monomials, exact linear combinations
  of them and the bilinear twisted product built on ``word_sign``.  It
  derives twist signs independently of the closed form behind
  ``chain_signs``.
* The per-tuple loops that ``so_twist`` used before its checks were
  batched: one Python call per index tuple, one QR per sample, the
  bit-loop chain sign and the dense matrix of each signed permutation
  (``dense_matrix``).  The batched checks must reproduce their reports.
* The dense abelian evaluation: every entry product of every signed
  permutation matrix of ``so_twist._signed_perm_stack``, summed by the
  running sums of ``so_twist._signed_sums`` as if the matrices were
  samples.  The abelian checks,
  which read only the one non-zero product per column tuple, must
  reproduce its reports, also on a planted stack.
* The relation evaluators before prefix sharing: ``unshared_signed_sums``
  forms every term of ``so_twist._signed_sums`` from scratch, starting
  from its sign, and ``strided_relation_defects`` evaluates
  ``so_twist._relation_defects`` on the (S, n, n) stack with T[k, k]
  multiplied in.  The helpers must return their floats bit for bit.
* The classical point action by Fourier conjugation: the group-basis
  matrix of the algebra map, built word by word, conjugated by the Walsh
  matrix.  The closed-form XOR rule must return the same permutation.
* The classical point action by a table of inverse linear parts: the
  inverses of all n! maps L_pi, found by argsorting them, for n <= 7
  (2.6 MB at n = 7, 743 MB at n = 9).  Both action paths, which build
  their rows from the connecting words, must read the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations, product
from math import prod
from typing import Iterable

import numpy as np

from qsym import Permutation, SignedPermMatrix, tau_generators
from qsym.boolean_group import walsh_matrix
from qsym.config import Report
from qsym.errors import DimensionError, UsageError
from qsym import so_twist
from qsym.so_twist import bicharacter, chain_signs

# ---------------------------------------------------------------------------
# the bicharacter as a pairing of words
# ---------------------------------------------------------------------------


def generator_bits(i: int, width: int) -> int:
    """Exponent word of t_i in Z_2^width; t_{width+1} is the full product."""
    if 1 <= i <= width:
        return 1 << (i - 1)
    if i == width + 1:
        return (1 << width) - 1
    raise UsageError(f"generator index {i} out of range 1..{width + 1}")


def word_sign(table: np.ndarray, g_bits: int, h_bits: int) -> int:
    """Multiplicative extension of the generator table to two words of
    width 2m: the product of table entries over their generator supports."""
    sign = 1
    g = g_bits
    while g:
        a = (g & -g).bit_length() - 1
        h = h_bits
        while h:
            b = (h & -h).bit_length() - 1
            sign *= int(table[a, b])
            h &= h - 1
        g &= g - 1
    return sign


def consistency_defect(table: np.ndarray) -> int:
    """0 iff the table's last row and column, the values against t_{2m+1},
    agree with the multiplicative extension of its first 2m rows to the
    full product t_1...t_{2m}; else the number of disagreeing entries."""
    n = len(table)
    full = generator_bits(n, n - 1)
    bad = 0
    for i in range(1, n + 1):
        gi = generator_bits(i, n - 1)
        bad += int(word_sign(table, gi, full) != table[i - 1, n - 1])
        bad += int(word_sign(table, full, gi) != table[n - 1, i - 1])
    return bad


# ---------------------------------------------------------------------------
# the symbolic twist layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedMonomial:
    """Class [u_{i_1 j_1} ... u_{i_d j_d}] of a commutative monomial.

    Factors are kept sorted (the underlying function algebra is
    commutative, so the sorted tuple is a canonical key); the bidegree over
    Z_2^{2m} is the product of the factor degrees (t_i, t_j).
    """

    factors: tuple[tuple[int, int], ...]
    width: int

    @classmethod
    def of(cls, factors: Iterable[tuple[int, int]], width: int) -> "GradedMonomial":
        return cls(tuple(sorted(tuple(f) for f in factors)), width)

    @property
    def left_bits(self) -> int:
        bits = 0
        for i, _ in self.factors:
            bits ^= generator_bits(i, self.width)
        return bits

    @property
    def right_bits(self) -> int:
        bits = 0
        for _, j in self.factors:
            bits ^= generator_bits(j, self.width)
        return bits

    def evaluate(self, u: np.ndarray):
        out = 1.0
        for i, j in self.factors:
            out = out * u[..., i - 1, j - 1]
        return out


class TwistedElement:
    """Finite combination sum c_M [M] of graded monomials, exact coefficients."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms=None):
        self.width = width
        self.terms: dict[GradedMonomial, complex] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                self._add(mono, coeff)

    def _add(self, mono: GradedMonomial, coeff):
        if mono.width != self.width:
            raise DimensionError("monomial width differs from element width")
        new = self.terms.get(mono, 0) + coeff
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    @classmethod
    def one(cls, m: int) -> "TwistedElement":
        width = 2 * m
        return cls(width, {GradedMonomial.of((), width): 1})

    @classmethod
    def generator(cls, i: int, j: int, m: int) -> "TwistedElement":
        """The class [u_ij] for n = 2m+1."""
        n = 2 * m + 1
        if not (1 <= i <= n and 1 <= j <= n):
            raise UsageError(f"generator indices ({i},{j}) out of range 1..{n}")
        width = 2 * m
        return cls(width, {GradedMonomial.of(((i, j),), width): 1})

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        if self.width != other.width:
            raise DimensionError("widths differ")
        out = TwistedElement(self.width, dict(self.terms))
        for mono, coeff in other.terms.items():
            out._add(mono, coeff)
        return out

    def __neg__(self) -> "TwistedElement":
        return TwistedElement(self.width, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "TwistedElement":
        return TwistedElement(self.width, {m: scalar * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwistedElement)
            and self.width == other.width
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, u: np.ndarray):
        """Pointwise value at a matrix (or stack of matrices) u."""
        total = 0.0
        for mono, coeff in self.terms.items():
            total = total + coeff * mono.evaluate(u)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "TwistedElement(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items(), key=lambda t: t[0].factors):
            word = "".join(f"u{i}{j}" for i, j in mono.factors) or "1"
            bits.append(f"{coeff:+}[{word}]")
        return f"TwistedElement({' '.join(bits)})"


def twisted_product(f: TwistedElement, h: TwistedElement, table: np.ndarray) -> TwistedElement:
    """Bilinear extension of [x][y] = sigma(deg_L x, deg_L y) sigma(deg_R x, deg_R y) [xy]."""
    if f.width != h.width or f.width != len(table) - 1:
        raise DimensionError("element widths do not match the bicharacter")
    out = TwistedElement(f.width)
    for mf, cf in f.terms.items():
        for mh, ch in h.terms.items():
            sign = word_sign(table, mf.left_bits, mh.left_bits) * word_sign(table, mf.right_bits, mh.right_bits)
            out._add(GradedMonomial.of(mf.factors + mh.factors, f.width), cf * ch * sign)
    return out


def twisted_chain(pairs: Iterable[tuple[int, int]], table: np.ndarray) -> TwistedElement:
    """Twisted product [u_{i_1 j_1}] * ... * [u_{i_d j_d}], left to right."""
    m = (len(table) - 1) // 2
    gens = [TwistedElement.generator(i, j, m) for i, j in pairs]
    return reduce(lambda a, b: twisted_product(a, b, table), gens, TwistedElement.one(m))


# ---------------------------------------------------------------------------
# per-tuple reference loops
# ---------------------------------------------------------------------------


def loop_chain_sign(pairs: Iterable[tuple[int, int]], table: np.ndarray) -> int:
    """Twist sign of a chain accumulated word by word with the bit loops
    of ``word_sign``."""
    width = len(table) - 1
    sign = 1
    gl = gr = 0
    for i, j in pairs:
        wi = generator_bits(i, width)
        wj = generator_bits(j, width)
        sign *= word_sign(table, gl, wi) * word_sign(table, gr, wj)
        gl ^= wi
        gr ^= wj
    return sign


def loop_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)[None, :]
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def loop_orthogonal_reflection(n: int, rng: np.random.Generator) -> np.ndarray:
    q = loop_special_orthogonal(n, rng)
    q[:, -1] = -q[:, -1]
    return q


def loop_stack_samples(n: int, count: int, rng: np.random.Generator, negative: bool) -> np.ndarray:
    maker = loop_orthogonal_reflection if negative else loop_special_orthogonal
    return np.stack([maker(n, rng) for _ in range(count)])


def dense_matrix(sp: SignedPermMatrix) -> np.ndarray:
    """The n x n int64 matrix of a signed permutation: column a holds
    signs[a] at row perm(a)."""
    m = np.zeros((sp.n, sp.n), dtype=np.int64)
    m[list(sp.perm.images), np.arange(sp.n)] = sp.signs
    return m


def loop_signed_perm_matrices(n: int) -> list[SignedPermMatrix]:
    return [
        SignedPermMatrix(Permutation(images), signs)
        for images in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    ]


def loop_lemma_SO_mismatches(n: int) -> int:
    count = 0
    for sp in loop_signed_perm_matrices(n):
        m = dense_matrix(sp)
        expansion = True
        for j in range(n):
            rhs = 0
            for rows in permutations([r for r in range(n) if r != j]):
                term = 1
                for col, row in enumerate(rows):
                    term *= int(m[row, col])
                rhs += term
            expansion = expansion and int(m[j, n - 1]) == rhs
        count += (prod(sp.signs) == 1) != expansion
    return count


def loop_lemma_sumzero_check(n, model, samples=50, seed=42, tol=1e-9) -> Report:
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    if model == "abelian":
        first_cols = np.arange(n - 1)
        max_defect = 0
        control = 0
        mats = loop_signed_perm_matrices(n)
        for sp in mats:
            mat = dense_matrix(sp)
            heads = mat[perms[:, :-1], first_cols[None, :]].prod(axis=1)
            for k in range(n):
                total = int((heads * mat[perms[:, -1], k]).sum())
                if k == n - 1:
                    control = max(control, abs(total - prod(sp.signs)))
                else:
                    max_defect = max(max_defect, abs(total))
        details = {"model": "abelian", "n": n, "matrices": len(mats), "control_defect": float(control)}
        passed = max_defect <= tol and control <= tol
        return Report(relation="lemma_sumzero", max_defect=float(max_defect), tol=tol, passed=passed, **details)
    twist = bicharacter((n - 1) // 2)
    so = loop_stack_samples(n, samples, np.random.default_rng(seed), negative=False)
    max_defect = 0.0
    control = 0.0
    for k in range(1, n + 1):
        cols = list(range(1, n)) + [k]
        col_idx = np.array(cols) - 1
        total = np.zeros(samples)
        for sigma in permutations(range(1, n + 1)):
            sign = loop_chain_sign(tuple(zip(sigma, cols)), twist)
            rows = np.array(sigma) - 1
            total += sign * np.prod(so[:, rows, col_idx], axis=1)
        if k == n:
            control = float(np.abs(total - 1.0).max())
        else:
            max_defect = max(max_defect, float(np.abs(total).max()))
    details = {"model": "twisted", "n": n, "samples": samples, "seed": seed, "control_defect": control}
    passed = max_defect <= tol and control <= tol
    return Report(relation="lemma_sumzero", max_defect=max_defect, tol=tol, passed=passed, **details)


def loop_lemma_P_check(n, l, model, samples=20, seed=42, tol=1e-9) -> Report:
    tau_bits = tau_generators(n)
    size = 1 << (n - 1)
    i_tuples = list(permutations(range(1, n + 1), l))
    j_info = []
    for jt in product(range(1, n + 1), repeat=l):
        bits = 0
        for j in jt:
            bits ^= tau_bits[j - 1]
        j_info.append((jt, bits, len(set(jt)) == l))
    if model == "abelian":
        mats = loop_signed_perm_matrices(n)
        max_defect = 0
        for sp in mats:
            mat = dense_matrix(sp)
            for it in i_tuples:
                lhs = np.zeros(size, dtype=np.int64)
                rhs = np.zeros(size, dtype=np.int64)
                for jt, bits, distinct in j_info:
                    coeff = 1
                    for a in range(l):
                        coeff *= int(mat[jt[a] - 1, it[a] - 1])
                    lhs[bits] += coeff
                    if distinct:
                        rhs[bits] += coeff
                max_defect = max(max_defect, int(np.abs(lhs - rhs).max()))
        details = {"model": "abelian", "n": n, "l": l, "matrices": len(mats)}
        return Report(relation="lemma_P", max_defect=float(max_defect), tol=tol, passed=max_defect <= tol, **details)
    twist = bicharacter((n - 1) // 2)
    so = loop_stack_samples(n, samples, np.random.default_rng(seed), negative=False)
    max_defect = 0.0
    for it in i_tuples:
        it_idx = np.array(it) - 1
        lhs = np.zeros((size, samples))
        rhs = np.zeros((size, samples))
        for jt, bits, distinct in j_info:
            sign = loop_chain_sign(tuple(zip(jt, it)), twist)
            vals = sign * np.prod(so[:, np.array(jt) - 1, it_idx], axis=1)
            lhs[bits] += vals
            if distinct:
                rhs[bits] += vals
        max_defect = max(max_defect, float(np.abs(lhs - rhs).max()))
    details = {"model": "twisted", "n": n, "l": l, "samples": samples, "seed": seed}
    return Report(relation="lemma_P", max_defect=max_defect, tol=tol, passed=max_defect <= tol, **details)


def loop_twisted_relation_check(m, n_samples=50, seed=42, tol=1e-9) -> list[Report]:
    n = 2 * m + 1
    twist = bicharacter(m)
    rng = np.random.default_rng(seed)
    so = loop_stack_samples(n, n_samples, rng, negative=False)
    refl = loop_stack_samples(n, n_samples, rng, negative=True)
    base = {"m": m, "n": n, "samples": n_samples, "seed": seed}
    cs = loop_chain_sign
    reports = [Report(relation="7.1", max_defect=0.0, tol=tol, passed=True, **base)]

    d72 = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            target = 1.0 if i == j else 0.0
            row = np.zeros(n_samples)
            col = np.zeros(n_samples)
            for k in range(1, n + 1):
                row += cs(((i, k), (j, k)), twist) * so[:, i - 1, k - 1] * so[:, j - 1, k - 1]
                col += cs(((k, i), (k, j)), twist) * so[:, k - 1, i - 1] * so[:, k - 1, j - 1]
            d72 = max(d72, float(np.abs(row - target).max()), float(np.abs(col - target).max()))
    reports.append(Report(relation="7.2", max_defect=d72, tol=tol, passed=d72 <= tol, **base))

    d73 = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                anti_row = (cs(((i, j), (i, k)), twist) + cs(((i, k), (i, j)), twist)) * so[:, i - 1, j - 1] * so[:, i - 1, k - 1]
                anti_col = (cs(((j, i), (k, i)), twist) + cs(((k, i), (j, i)), twist)) * so[:, j - 1, i - 1] * so[:, k - 1, i - 1]
                d73 = max(d73, float(np.abs(anti_row).max()), float(np.abs(anti_col).max()))
    reports.append(Report(relation="7.3", max_defect=d73, tol=tol, passed=d73 <= tol, **base))

    d74 = 0.0
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    if i == k or j == l:
                        continue
                    comm = (cs(((i, j), (k, l)), twist) - cs(((k, l), (i, j)), twist)) * so[:, i - 1, j - 1] * so[:, k - 1, l - 1]
                    d74 = max(d74, float(np.abs(comm).max()))
    reports.append(Report(relation="7.4", max_defect=d74, tol=tol, passed=d74 <= tol, **base))

    cols = np.arange(n)
    total = np.zeros(n_samples)
    total_refl = np.zeros(n_samples)
    for sigma in permutations(range(1, n + 1)):
        sign = cs(tuple((sigma[a], a + 1) for a in range(n)), twist)
        rows = np.array(sigma) - 1
        total += sign * np.prod(so[:, rows, cols], axis=1)
        total_refl += sign * np.prod(refl[:, rows, cols], axis=1)
    d75 = float(np.abs(total - 1.0).max())
    control = float(np.abs(total_refl + 1.0).max())
    reports.append(Report(relation="7.5", max_defect=d75, tol=tol, passed=d75 <= tol and control <= tol, **base,
                          control_det_negative_defect=control))
    return reports


# ---------------------------------------------------------------------------
# the dense abelian evaluation
# ---------------------------------------------------------------------------


def _unsigned(rows: np.ndarray) -> np.ndarray:
    return np.ones(len(rows), dtype=np.int8)


def dense_column_expansions(matrices: np.ndarray) -> np.ndarray:
    """For each j and each matrix of the (S, n, n) stack: the sum over
    injective tuples of rows {0..n-1}\\{j} of the column products
    u_{i_1 1} ... u_{i_{n-1} n-1}, every product formed; shape (n, S)."""
    n = matrices.shape[-1]
    tuples = so_twist._permutations(n, n - 1)
    # the row a tuple avoids: each tuple misses exactly one of 0..n-1
    avoided = n * (n - 1) // 2 - tuples.sum(axis=1)
    out = np.zeros((n, len(matrices)))
    for sblk, sums in so_twist._signed_sums(matrices, tuples, np.arange(n - 1)[None], _unsigned(tuples),
                                            avoided[None]):
        out[:, sblk] = sums[0, :, 0]
    return out


def dense_lemma_SO_mismatches(n: int) -> int:
    stack = so_twist._signed_perm_stack(n)
    expansion = (stack.matrices[:, :, n - 1].T == dense_column_expansions(stack.matrices)).all(axis=0)
    return int(np.count_nonzero((stack.determinants == 1) != expansion))


def dense_lemma_sumzero_check(n: int, tol: float = 1e-9) -> Report:
    stack = so_twist._signed_perm_stack(n)
    perms = so_twist._permutations(n)
    cols = np.tile(np.arange(n), (n, 1))
    cols[:, -1] = np.arange(n)
    # each block's sums are copied out before the helper zeroes them again
    totals = np.concatenate([sums[0, 0].copy() for _, sums in so_twist._signed_sums(
        stack.matrices, perms, cols, _unsigned(perms), np.zeros((1, len(perms)), int))], axis=1)
    max_defect = float(np.abs(totals[:-1]).max(initial=0.0))
    control = float(np.abs(totals[-1] - stack.determinants).max())
    details = {"model": "abelian", "n": n, "matrices": len(stack.matrices), "control_defect": control}
    passed = max_defect <= tol and control <= tol
    return Report(relation="lemma_sumzero", max_defect=max_defect, tol=tol, passed=passed, **details)


def dense_lemma_P_check(n: int, l: int, tol: float = 1e-9) -> Report:
    """The abelian lemma P: lhs - rhs summed exactly over the row tuples
    with a repeated index, per tau-word bucket, matrix and column tuple."""
    stack = so_twist._signed_perm_stack(n)
    tau_bits = np.array(tau_generators(n), dtype=np.intp)
    j_tuples = np.array(list(product(range(n), repeat=l)), dtype=np.intp)
    ordered = np.sort(j_tuples, axis=1)
    repeated = j_tuples[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
    words = np.bitwise_xor.reduce(tau_bits[repeated], axis=1)
    max_defect = 0.0
    for _, (diff,) in so_twist._signed_sums(stack.matrices, repeated, so_twist._permutations(n, l),
                                            _unsigned(repeated), words[None]):
        max_defect = max(max_defect, float(np.abs(diff).max(initial=0.0)))
    details = {"model": "abelian", "n": n, "l": l, "matrices": len(stack.matrices)}
    return Report(relation="lemma_P", max_defect=max_defect, tol=tol, passed=max_defect <= tol, **details)


# ---------------------------------------------------------------------------
# the relation evaluators before prefix sharing and samples-last layout
# ---------------------------------------------------------------------------


def unshared_signed_sums(stack, rows, cols, signs, buckets) -> np.ndarray:
    """The (T, K, C, S) sums of ``so_twist._signed_sums`` for all samples at
    once, each term formed from scratch: it starts from its sign and is
    multiplied by its l factors left to right, then added to its buckets."""
    n, kinds, width = stack.shape[-1], len(buckets), int(buckets.max(initial=-1)) + 1
    slabs = stack.transpose(1, 2, 0)[np.arange(n)[:, None], cols.T[:, None]]  # (l, n, C, S)
    sums = np.zeros((kinds, width) + slabs.shape[2:])
    term = np.empty(slabs.shape[2:])
    for row, sign, ids in zip(rows.tolist(), signs.tolist(), buckets.T.tolist()):
        term.fill(sign)
        for a, j in enumerate(row):
            term *= slabs[a, j]
        for t, k in enumerate(ids):
            if k >= 0:
                sums[t, k] += term
    return sums


def strided_relation_defects(stack: np.ndarray, table: np.ndarray) -> tuple[float, float, float, float]:
    """``so_twist._relation_defects`` on the (S, n, n) stack as it is: the
    (7.2) sums multiply by T[k, k] and the (7.3)/(7.4) gathers read the
    strided middle axes."""
    n = stack.shape[-1]
    d71 = float(np.abs(stack.imag).max()) if np.iscomplexobj(stack) else 0.0
    defects = []
    for u in (stack, stack.transpose(0, 2, 1)):
        total = np.zeros_like(stack)
        for k in range(n):
            total += table[k, k] * u[:, k, :, None] * u[:, k, None, :]
        defects.append(float(np.abs(table * total - np.eye(n, dtype=stack.dtype)).max()))
    idx = np.arange(n)
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1)
    same = idx[:, None] == idx
    one = same[:, :, None, None] != same
    flip = pairs[:, :, ::-1]
    swapped = chain_signs(flip[:, :, None, None], flip, table)
    coef = chain_signs(pairs[:, :, None, None], pairs, table) - np.where(one, -swapped, swapped)
    i, k, j, l = np.nonzero(coef)
    terms = np.abs(coef[i, k, j, l] * stack[:, i, j] * stack[:, k, l])
    part = one[i, k, j, l]
    d73, d74 = (float(terms[:, cut].max(initial=0)) for cut in (part, ~part))
    return d71, max(defects), d73, d74


# ---------------------------------------------------------------------------
# planted faults
# ---------------------------------------------------------------------------


def negate_support_terms(monkeypatch) -> None:
    """Make every abelian check read the negated value of each support term."""
    real = so_twist._support_terms

    def negated(*args):
        hit, value = real(*args)
        return hit, -value

    monkeypatch.setattr(so_twist, "_support_terms", negated)


def planted_stack(n: int, perms: np.ndarray, signs: np.ndarray) -> "so_twist._SignedPermStack":
    """A stack of matrices built from ``perms`` and ``signs`` as the true
    one is (column a of matrix (p, s) holds signs[s][a] at row
    perms[p][a]), but with the determinants of the true stack."""
    count = len(perms) * len(signs)
    index = np.arange(count)
    matrices = np.zeros((count, n, n), dtype=np.int8)
    matrices[index[:, None], perms[index // len(signs)], np.arange(n)] = signs[index % len(signs)]
    return so_twist._SignedPermStack(perms, signs, matrices, so_twist._signed_perm_stack(n).determinants)


def flipped_bicharacter(m: int, a: int, b: int) -> np.ndarray:
    """A wrong bicharacter table: the true pairing on Z_2^{2m} with the value
    on generators (t_{a+1}, t_{b+1}), a, b < 2m, negated, and its row and
    column of t_{2m+1} extended multiplicatively from the changed table."""
    n = 2 * m + 1
    table = bicharacter(m).copy()
    table[a, b] *= -1
    full = generator_bits(n, n - 1)
    for i in range(1, n + 1):
        gi = generator_bits(i, n - 1)
        table[i - 1, n - 1] = word_sign(table, gi, full)
        table[n - 1, i - 1] = word_sign(table, full, gi)
    assert consistency_defect(table) == 0
    return table


# ---------------------------------------------------------------------------
# the classical point action by Fourier conjugation
# ---------------------------------------------------------------------------


def fourier_point_action(point: SignedPermMatrix) -> Permutation:
    """Vertex permutation of FQ_n induced by an abelian point with d = +1.

    The point sends tau_i to signs[i] tau_{perm(i)}.  Its group-basis
    matrix is filled word by word from the tau-exponents of each word and
    conjugated by the Fourier transform; the point-basis result must be a
    permutation matrix, which is returned.
    """
    n = point.n
    width = n - 1
    size = 1 << width
    full = size - 1
    pi = point.perm.images
    signs = point.signs

    m = np.zeros((size, size))
    for g in range(size):
        # tau-exponent vector of the word g: the t-exponent bits plus a
        # tau_n exponent equal to the bit parity
        exps = [(g >> s) & 1 for s in range(width)] + [g.bit_count() & 1]
        sign = 1
        img = [0] * n
        for i, e in enumerate(exps):
            if e:
                sign *= signs[i]
                img[pi[i]] = 1
        # back to a t-word: tau_j = t_j tau_n for j < n, tau_n the full word
        bits = 0
        for j in range(width):
            if img[j]:
                bits |= 1 << j
        if (sum(img[:width]) + img[width]) & 1:
            bits ^= full
        m[bits, g] = sign

    h = walsh_matrix(width)
    v = h @ m @ h / size
    images = []
    for col in range(size):
        row = int(np.argmax(v[:, col]))
        onehot = np.zeros(size)
        onehot[row] = 1.0
        if np.max(np.abs(v[:, col] - onehot)) > 1e-9:
            raise UsageError("point does not induce a vertex permutation")
        images.append(row)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# the classical point action by a table of inverse linear parts
# ---------------------------------------------------------------------------


def linear_inverses(n: int) -> tuple[np.ndarray, dict[tuple[int, ...], int]]:
    """For odd n in 3..7: the (n!, 2^(n-1)) table of the inverses of the
    linear maps y -> L_pi y, bit k of L_pi y being y_{pi(k)} + y_{pi(n)}
    (y_n = 0), one row per permutation pi in itertools order, and a dict
    from pi's image tuple to its row.  Each map is inverted by argsort."""
    if n % 2 == 0 or not 3 <= n <= 7:
        raise UsageError(f"the inverse table oracle needs odd n in 3..7, got {n}")
    perms = np.array(list(permutations(range(n))))
    bits = (np.arange(1 << (n - 1)) >> np.arange(n)[:, None]) & 1  # row n-1, y_n, is zero
    moved = bits[perms]  # exponent y_{pi(k)} of every word y: (n!, n, words)
    linear = (1 << np.arange(n - 1)) @ (moved[:, :-1] ^ moved[:, -1:])
    assert (np.sort(linear, axis=1) == np.arange(1 << (n - 1))).all()
    return np.argsort(linear, axis=1), {perm: row for row, perm in enumerate(map(tuple, perms.tolist()))}


def table_point_images(points: list[SignedPermMatrix]) -> np.ndarray:
    """The (points, 2^(n-1)) image array of the point actions, row x of
    point (pi, s) being L_pi^{-1}(x + c) with bit k of c set when
    s_k s_n = -1, read from ``linear_inverses``."""
    inverses, rows = linear_inverses(points[0].n)
    signs = np.array([p.signs for p in points])
    shifts = (signs[:, :-1] != signs[:, -1:]) @ (1 << np.arange(signs.shape[1] - 1))
    words = np.arange(inverses.shape[1]) ^ shifts[:, None]
    return inverses[np.array([rows[p.perm.images] for p in points])[:, None], words]
