"""Helpers for the tests that build magic-unitary witnesses.

* ``is_projection`` checks one algebra element in the operator norm.
* ``classical_witness`` is the magic unitary of a single classical
  automorphism, entry delta_{j, p(i)} 1: all its entries commute, so its
  noncommutativity certificate is zero.
* ``unchecked_witness`` assembles u' entry by entry, the per-row loop that
  ``build_witness`` replaced, with none of its hypothesis checks: broken
  inputs (a non-disjoint pair, say) can be assembled and watched to fail
  certification, and on valid inputs its entries are the reference for
  ``build_witness``, bit for bit.
* ``certify_witness_oracle`` is ``certify_witness`` as it read every
  entry: the projection defect over all r^2 entries, and the
  noncommutativity certificate as one ``op_norm`` per pair of the entries
  distinct after rounding all r^2 of them (``distinct_entries``).  The
  certifier, which reads each byte-distinct entry once and stacks the
  pairs, must report every field equal to it.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from qsym import DEFAULT_TOLERANCES, DimensionError, Graph, MagicUnitary, Permutation, UsageError, is_automorphism
from qsym.config import Report, check_tolerance
from qsym.star_algebra import adjoint, op_norm


def is_projection(x: np.ndarray, tol: float = DEFAULT_TOLERANCES.projector) -> bool:
    """True iff x is self-adjoint and idempotent within tol (operator norm)."""
    tol = check_tolerance(tol)
    return op_norm(x - adjoint(x)) <= tol and op_norm(x - x @ x) <= tol


def classical_witness(g: Graph, p: Permutation, dim: int = 1) -> MagicUnitary:
    """Magic unitary of a single classical automorphism: entries delta_{j,p(i)} 1."""
    if p.size != g.n_vertices:
        raise DimensionError("permutation size != vertex count")
    if not is_automorphism(g, p):
        raise UsageError("p is not an automorphism")
    r = g.n_vertices
    entries = np.zeros((r, r, dim, dim), dtype=complex)
    for i in range(r):
        entries[i, p.images[i]] = np.eye(dim)
    return MagicUnitary(entries)


def _powers(p: Permutation, order: int) -> list[tuple[int, ...]]:
    """Image tuples of p^1, ..., p^order."""
    out = [p.images]
    while len(out) < order:
        out.append(tuple(p.images[j] for j in out[-1]))
    return out


def unchecked_witness(sigma: Permutation, tau: Permutation, p, q) -> MagicUnitary:
    """u' = sum tau^l (x) q_l + sum sigma^k (x) p_k - id, one entry at a time:
    per row i the q's by l, then the p's by k, then -1 on the diagonal."""
    r, d = sigma.size, p[0].shape[0]
    sigma_powers, tau_powers = _powers(sigma, len(p)), _powers(tau, len(q))
    entries = np.zeros((r, r, d, d), dtype=complex)
    for i in range(r):
        for l in range(len(q)):
            entries[i, tau_powers[l][i]] += q[l]
        for k in range(len(p)):
            entries[i, sigma_powers[k][i]] += p[k]
        entries[i, i] -= np.eye(d)
    return MagicUnitary(entries)


def distinct_entries(u: MagicUnitary) -> list[np.ndarray]:
    """The entries of u up to equality after rounding all r^2 of them to 9
    decimals, each first occurrence in row-major order, with -0.0 made
    +0.0 so equal entries share bytes."""
    r, d = u.r, u.dim
    rounded = (np.round(u.entries, 9) + 0.0).reshape(r * r, d * d)
    keys = rounded.view(np.dtype((np.void, rounded.itemsize * d * d))).ravel()
    first = np.unique(keys, return_index=True)[1]
    return list(u.entries.reshape(r * r, d, d)[np.sort(first)])


def certify_witness_oracle(g: Graph, u: MagicUnitary, tol: float = DEFAULT_TOLERANCES.projector) -> Report:
    """``certify_witness`` over every entry: both projection defects over
    the r^2 entries, and one ``op_norm`` per pair of distinct entries."""
    tol = check_tolerance(tol)
    e = u.entries
    eye = np.eye(u.dim)
    projection_defect = max(op_norm(e - adjoint(e)), op_norm(e - e @ e))
    rowsum_defect = op_norm(e.sum(axis=1) - eye)
    colsum_defect = op_norm(e.sum(axis=0) - eye)
    adj = g.adjacency.astype(float)
    per_ab = e.transpose(2, 3, 0, 1)
    commutator = (per_ab @ adj - adj @ per_ab).transpose(2, 0, 3, 1)
    commutation_defect = op_norm(commutator.reshape(u.r * u.dim, u.r * u.dim))
    pairs = combinations(distinct_entries(u), 2)
    certificate = max([0.0] + [op_norm(x @ y - y @ x) for x, y in pairs])
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
