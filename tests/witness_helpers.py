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
"""

from __future__ import annotations

import numpy as np

from qsym import DEFAULT_TOLERANCES, DimensionError, Graph, MagicUnitary, Permutation, UsageError, is_automorphism
from qsym.config import check_tolerance
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
