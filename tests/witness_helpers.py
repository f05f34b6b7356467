"""Helpers for the tests that build magic-unitary witnesses.

* ``is_projection`` checks one algebra element in the operator norm.
* ``classical_witness`` is the magic unitary of a single classical
  automorphism, entry delta_{j, p(i)} 1: all its entries commute, so its
  noncommutativity certificate is zero.
"""

from __future__ import annotations

import numpy as np

from qsym import DEFAULT_TOLERANCES, DimensionError, Graph, MagicUnitary, Permutation, UsageError, is_automorphism
from qsym.config import check_tolerance
from qsym.star_algebra import adjoint, op_norm


def is_projection(x: np.ndarray, tol: float = DEFAULT_TOLERANCES.projector) -> bool:
    """True iff x is self-adjoint and idempotent within tol (operator norm)."""
    check_tolerance(tol)
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
        entries[i, p(i)] = np.eye(dim)
    return MagicUnitary(entries)
