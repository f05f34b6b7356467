"""Matrix models for magic-unitary witnesses of quantum symmetry.

Given two non-trivial disjoint automorphisms sigma (order n) and tau
(order m) of a graph on r vertices, the r x r matrix over an auxiliary
*-algebra

    u' = sum_{l=1..m} tau^l (x) q_l  +  sum_{k=1..n} sigma^k (x) p_k  -  id

is a magic unitary commuting with the adjacency matrix, where p_1..p_n and
q_1..q_m are projections summing to the identity (the images of the two
cyclic-group generators in a free product).  When the p's and q's do not
commute, u' certifies that the graph's symmetries do not all commute, i.e.
the graph has quantum symmetry.

This module builds a concrete finite-dimensional model of the p's and q's
(dimension n*m, generically non-commuting via a seeded Haar-style random
unitary), assembles u', and certifies all its defining relations
numerically, including the recovery products that exhibit every p_k and
q_l as a product of entries of u'.

Algebra elements are plain complex numpy matrices; defects are measured in
the operator (spectral) norm.  A witness's r^2 entries repeat (5 distinct
ones among the 256 of a Clebsch witness), so the certifier dedupes them
once by their exact bytes (``graphs._distinct_rows``, first occurrences
in row-major order) and reads every per-entry defect, and the pairwise
noncommutativity certificate, on those entries alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, Report, check_tolerance
from .errors import DimensionError, UsageError
from .graphs import Graph, Permutation, _distinct_rows, are_disjoint, is_automorphism

__all__ = [
    "MagicUnitary",
    "op_norm",
    "rep_free_product",
    "build_witness",
    "certify_witness",
    "recovery_products",
]

#: complex elements per block of stacked commutators in ``_noncomm_certificate``
#: (4 MiB); each block also holds its two factor stacks and two products
_PAIR_BLOCK = 1 << 18


def op_norm(x: np.ndarray) -> float:
    """Operator (spectral) norm; of a stack (..., d, d), the largest one."""
    return float(np.linalg.norm(x, 2, axis=(-2, -1)).max())


def adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded pseudo-random unitary: QR of a complex Gaussian matrix.

    The R-diagonal phases are absorbed into Q, which makes the result a
    deterministic function of the generator state.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def spectral_projections(x: np.ndarray, order: int) -> list[np.ndarray]:
    """Projections p_k = (1/order) sum_{j=1..order} w^{-kj} x^j, k = 1..order.

    For x unitary with x^order = 1 these are the spectral projections onto
    the w^k eigenspaces (w the primitive order-th root of unity), indexed so
    that p_order projects onto the fixed space.  Each sum adds its terms
    in order of j to a complex zero matrix, which fixes its rounding.
    """
    powers = [x]
    while len(powers) < order:
        powers.append(powers[-1] @ x)
    omega, zero = np.exp(2j * np.pi / order), np.zeros(x.shape, dtype=complex)
    return [sum((omega ** (-k * j) * x_j for j, x_j in enumerate(powers, 1)), zero) / order
            for k in range(1, order + 1)]


def rep_free_product(n: int, m: int, seed: int = 42) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Matrix model of projections p_1..p_n, q_1..q_m with both sums = 1.

    In dimension n*m, U is diagonal with the n-th roots of unity each
    repeated m times and V is a seeded random-unitary conjugate of the
    diagonal with the m-th roots each repeated n times; p_k and q_l are
    their spectral projections.  A generic conjugation makes some [p_k,q_l]
    non-zero, which is the point of the model.
    """
    if n < 2 or m < 2:
        raise UsageError(f"orders must be >= 2, got n={n}, m={m}")
    dim = n * m
    omega_n = np.exp(2j * np.pi / n)
    omega_m = np.exp(2j * np.pi / m)
    u = np.diag(np.repeat(omega_n ** np.arange(1, n + 1), m))
    rng = np.random.default_rng(seed)
    q = haar_unitary(dim, rng)
    v = q @ np.diag(np.repeat(omega_m ** np.arange(1, m + 1), n)) @ adjoint(q)
    return spectral_projections(u, n), spectral_projections(v, m)


@dataclass
class MagicUnitary:
    """r x r array of dim x dim matrices, a candidate magic unitary."""

    entries: np.ndarray  # shape (r, r, dim, dim), complex
    seed: Optional[int] = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 4 or e.shape[0] != e.shape[1] or e.shape[2] != e.shape[3]:
            raise DimensionError(f"entries must have shape (r, r, d, d), got {e.shape}")
        self.entries = e

    @property
    def r(self) -> int:
        return int(self.entries.shape[0])

    @property
    def dim(self) -> int:
        return int(self.entries.shape[2])


def _power_table(p: Permutation, order: int) -> np.ndarray:
    """The (order, r) intp image table of p's powers: row k-1 is p^k."""
    table = [np.array(p.images, dtype=np.intp)]
    while len(table) < order:
        table.append(table[0][table[-1]])
    return np.array(table)


def build_witness(
    g: Graph,
    sigma: Permutation,
    tau: Permutation,
    p: list[np.ndarray],
    q: list[np.ndarray],
    seed: Optional[int] = None,
) -> MagicUnitary:
    """Assemble u' = sum tau^l (x) q_l + sum sigma^k (x) p_k - id.

    Entry (i, j) is sum_{l: tau^l(i)=j} q_l + sum_{k: sigma^k(i)=j} p_k
    minus the identity when i = j.  Disjointness makes every entry a sum of
    p's only, a sum of q's only, or the identity.  Each power adds its block
    to all r rows at once (q's by l, then p's by k, then -1 on the diagonal,
    the order of the per-entry sums), after the hypotheses are checked.
    """
    r = g.n_vertices
    n, m = len(p), len(q)
    if sigma.size != r or tau.size != r:
        raise UsageError("hypothesis failed: permutation size != vertex count")
    if sigma.is_identity() or tau.is_identity():
        raise UsageError("hypothesis failed: sigma and tau must be non-trivial")
    if not is_automorphism(g, sigma):
        raise UsageError("hypothesis failed: sigma is not an automorphism")
    if not is_automorphism(g, tau):
        raise UsageError("hypothesis failed: tau is not an automorphism")
    if not are_disjoint(sigma, tau):
        raise UsageError("hypothesis failed: sigma and tau are not disjoint")
    if sigma.order() != n:
        raise UsageError(f"hypothesis failed: order(sigma)={sigma.order()} != len(p)={n}")
    if tau.order() != m:
        raise UsageError(f"hypothesis failed: order(tau)={tau.order()} != len(q)={m}")
    dims = {mat.shape for mat in list(p) + list(q)}
    if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
        raise DimensionError("p and q must share one square matrix shape")
    d = p[0].shape[0]

    rows = np.arange(r)
    entries = np.zeros((r, r, d, d), dtype=complex)
    for blocks, perm in ((q, tau), (p, sigma)):
        for block, image in zip(blocks, _power_table(perm, len(blocks))):
            entries[rows, image] += block
    entries[rows, rows] -= np.eye(d)
    return MagicUnitary(entries, seed=seed)


def _byte_distinct(u: MagicUnitary) -> np.ndarray:
    """The entries of u with distinct bytes, as a (K, d, d) stack, each the
    first occurrence in row-major order.  Entries with equal bytes are
    equal matrices, so any defect read entry by entry is read exactly
    from these."""
    d = u.dim
    flat = u.entries.reshape(-1, d * d)
    return flat[np.sort(_distinct_rows(flat)[0])].reshape(-1, d, d)


def _distinct_entries(entries: np.ndarray) -> np.ndarray:
    """Of a (K, d, d) stack of entries, those distinct after rounding to 9
    decimals, each first occurrence in stack order, with -0.0 made +0.0
    (adding 0.0) so equal entries share bytes.  Given ``_byte_distinct(u)``,
    these are u's distinct entries in row-major order, and only its K
    entries are rounded."""
    rounded = (np.round(entries, 9) + 0.0).reshape(len(entries), -1)
    return entries[np.sort(_distinct_rows(rounded)[0])]


def _noncomm_certificate(entries: np.ndarray) -> float:
    """max ||[x, y]|| over the pairs x before y of a (K, d, d) stack, 0.0
    with no pair: the commutators of all pairs stacked in
    ``itertools.combinations`` order, one ``op_norm`` per block of at most
    ``_PAIR_BLOCK`` complex elements (one block for every witness that
    ``build_witness`` makes on the bundled graphs)."""
    first, second = np.triu_indices(len(entries), 1)
    step = max(1, _PAIR_BLOCK // entries.shape[-1] ** 2)
    certificate = 0.0
    for s in range(0, len(first), step):
        x, y = entries[first[s : s + step]], entries[second[s : s + step]]
        certificate = max(certificate, op_norm(x @ y - y @ x))
    return certificate


def certify_witness(
    g: Graph,
    u: MagicUnitary,
    tol: float = DEFAULT_TOLERANCES.projector,
) -> Report:
    """Measure all magic-unitary defects of u against the graph g.

    Reports the worst projection defect over entries, the worst row and
    column sum defect against the identity, the commutation defect
    ||[u, A (x) 1]|| with the adjacency A, and the noncommutativity
    certificate c = max ||[u_ab, u_cd]|| over entry pairs.  PASS requires
    the first three at most tol; c is reported either way (c above
    ``DEFAULT_TOLERANCES.certificate_floor`` is the positive
    quantum-symmetry signal, c = 0 the commutative case).  A (x) 1 is never
    formed: the commutator is the d^2 stacked r x r products U_ab A - A U_ab,
    U_ab the matrix of component (a, b) of every entry, laid out rd x rd.

    The entries are deduped once by their exact bytes (``_byte_distinct``).
    The projection defect is measured on those entries only: equal bytes
    give equal defects, so the maximum is the one over all r^2 entries.
    Only they are rounded to find the entries distinct to 9 decimals
    (``_distinct_entries``), and c is one batched ``op_norm`` over the
    stacked commutators of all their pairs (``_noncomm_certificate``).
    Every field equals the all-entries computation exactly.
    """
    tol = check_tolerance(tol)
    if u.r != g.n_vertices:
        raise DimensionError(f"witness on {u.r} vertices vs graph on {g.n_vertices}")
    e, distinct = u.entries, _byte_distinct(u)
    eye = np.eye(u.dim)
    projection_defect = max(op_norm(distinct - adjoint(distinct)), op_norm(distinct - distinct @ distinct))
    rowsum_defect = op_norm(e.sum(axis=1) - eye)
    colsum_defect = op_norm(e.sum(axis=0) - eye)

    adj = g.adjacency.astype(float)
    per_ab = e.transpose(2, 3, 0, 1)  # per_ab[a, b] = U_ab
    commutator = (per_ab @ adj - adj @ per_ab).transpose(2, 0, 3, 1)
    commutation_defect = op_norm(commutator.reshape(u.r * u.dim, u.r * u.dim))

    certificate = _noncomm_certificate(_distinct_entries(distinct))

    passed = max(projection_defect, rowsum_defect, colsum_defect, commutation_defect) <= tol
    return Report(
        projection_defect=projection_defect,
        rowsum_defect=rowsum_defect,
        colsum_defect=colsum_defect,
        commutation_defect=commutation_defect,
        noncomm_certificate=certificate,
        seed=u.seed,
        tol=tol,
        certificate_floor=DEFAULT_TOLERANCES.certificate_floor,
        passed=passed,
    )


def _recovery_side(
    u: MagicUnitary, perm: Permutation, targets: list[np.ndarray]
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    cycles = perm.cycles()
    if not cycles:
        raise UsageError("recovery products need a non-trivial permutation")
    reps = tuple(sorted(min(c) for c in cycles))
    residuals = []
    for target, image in zip(targets, _power_table(perm, len(targets))):
        prod = np.eye(u.dim, dtype=complex)
        for s in reps:
            prod = prod @ u.entries[s, image[s]]
        residuals.append(op_norm(prod - target))
    return reps, tuple(residuals)


def recovery_products(
    u: MagicUnitary,
    sigma: Permutation,
    tau: Permutation,
    p: list[np.ndarray],
    q: list[np.ndarray],
    tol: float = DEFAULT_TOLERANCES.projector,
) -> Report:
    """Recover every p_k and q_l as a product of witness entries.

    One representative s per non-trivial cycle (the cycle minimum, taken in
    ascending order) makes the image tuples (sigma^k(s_1), ..., sigma^k(s_a))
    pairwise distinct over k, and then

        prod_s u'_{s, sigma^k(s)} = p_k        for k = 1..order(sigma)

    and likewise for tau and the q_l.
    """
    tol = check_tolerance(tol)
    sigma_reps, sigma_res = _recovery_side(u, sigma, p)
    tau_reps, tau_res = _recovery_side(u, tau, q)
    max_residual = max(sigma_res + tau_res)
    return Report(
        sigma_residuals=sigma_res,
        tau_residuals=tau_res,
        sigma_representatives=sigma_reps,
        tau_representatives=tau_reps,
        max_residual=max_residual,
        tol=tol,
        passed=max_residual <= tol,
    )
