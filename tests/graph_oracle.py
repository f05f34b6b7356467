"""Reference forms for the tests of ``qsym.graphs`` and of eigenspace
preservation in ``qsym.spectral``.

The search is the static-order backtracking search that ``qsym.graphs``
used before its search was vectorized, kept unchanged.  It orders vertices
by (degree, neighbour degree multiset), tracks images with Python bit masks
and builds one ``Permutation`` per automorphism.  ``automorphisms`` and
``find_disjoint_pair`` in the library must return exactly what these
return.

The commutation checks are the dense permutation-matrix products that the
library used before it read them by index gathers: P A == A P for the
adjacency, and max |P E_k - E_k P| for each eigenprojection E_k, with P
from ``permutation_matrix``.  The library's defects and booleans must be
bit-equal to these.

``dense_graph`` builds a graph from a dense 0/1 matrix, which the tests
edit to make corrupted graphs; the library builds graphs only from vertex
pairs.  ``from_cycles`` and ``compose`` build and multiply permutations
for the tests; the library itself reads permutations only as image tuples.
``PENTAGONAL_SIGMA`` and ``PENTAGONAL_TAU`` are a disjoint pair of
automorphisms of the ``clebsch_pentagonal`` fixture.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from qsym import CapacityError, DimensionError, Graph, Permutation, UsageError
from qsym.graphs import AUTOMORPHISM_VERTEX_BOUND
from qsym.spectral import eigenprojections


def dense_graph(a) -> Graph:
    """The graph with adjacency matrix a, which must be symmetric, 0/1 and
    loop-free: ``Graph`` built from the pairs above the diagonal."""
    a = np.asarray(a)
    assert a.ndim == 2 and a.shape[0] == a.shape[1] and np.array_equal(a, a.T)
    assert np.all((a == 0) | (a == 1)) and not np.any(np.diag(a))
    return Graph(len(a), *np.nonzero(np.triu(a)))


def from_cycles(n: int, cycles) -> Permutation:
    """The permutation of 0..n-1 with these disjoint cycles, each a tuple
    of points a_1, ..., a_k sending a_i to a_{i+1} and a_k to a_1."""
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if images[a] != a:
                raise UsageError(f"cycles reuse point {a}")
            images[a] = b
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: compose(p, q).images[i] = p.images[q.images[i]]."""
    if p.size != q.size:
        raise DimensionError("permutation sizes differ")
    return Permutation(tuple(p.images[j] for j in q.images))


#: disjoint automorphism pair of the pentagonal-labeled Clebsch graph
PENTAGONAL_SIGMA = from_cycles(16, [(1, 2), (5, 6), (9, 10), (13, 14)])
PENTAGONAL_TAU = from_cycles(16, [(0, 3), (4, 7), (8, 11), (12, 15)])


def permutation_matrix(p: Permutation) -> np.ndarray:
    """Permutation matrix P with P e_i = e_{p(i)}, as uint8."""
    m = np.zeros((p.size, p.size), dtype=np.uint8)
    m[list(p.images), np.arange(p.size)] = 1
    return m


def adjacency_defect(g: Graph, p: Permutation) -> int:
    """max |P A - A P|, for p's permutation matrix P (P e_i = e_{p(i)})."""
    m = permutation_matrix(p).astype(np.int64)
    a = g.adjacency.astype(np.int64)
    return int(np.max(np.abs(m @ a - a @ m)))


def commutes_with_adjacency(g: Graph, p: Permutation) -> bool:
    """P A == A P, for p's permutation matrix P."""
    m = permutation_matrix(p).astype(np.int64)
    a = g.adjacency.astype(np.int64)
    return bool(np.array_equal(m @ a, a @ m))


def eigenspace_defects(n: int, p: Permutation) -> list[float]:
    """max |P E_k - E_k P| for each eigenprojection E_k of FQ_n, in level order."""
    m = permutation_matrix(p).astype(float)
    return [float(np.max(np.abs(m @ proj - proj @ m))) for _, proj in eigenprojections(n)]


def automorphisms(g: Graph) -> list[Permutation]:
    """Enumerate the full automorphism group by backtracking.

    Vertices are processed in the static order sorted by (degree,
    neighborhood degree multiset); at each depth the candidate images are
    exactly those whose adjacency to all previously assigned images matches
    the source pattern, tracked with bit masks.  The result is sorted by
    image tuple, so the output order is deterministic.
    """
    n = g.n_vertices
    if n > AUTOMORPHISM_VERTEX_BOUND:
        raise CapacityError(f"graph has {n} > {AUTOMORPHISM_VERTEX_BOUND} vertices")
    a = g.adjacency
    rows = [sum(1 << u for u in range(n) if a[v, u]) for v in range(n)]
    deg = [r.bit_count() for r in rows]
    sig = [
        (deg[v], tuple(sorted(deg[u] for u in range(n) if a[v, u])))
        for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: (sig[v], v))
    cands = [[w for w in range(n) if sig[w] == sig[v]] for v in range(n)]

    img = [-1] * n
    found: list[Permutation] = []

    def extend(depth: int, used: int):
        if depth == n:
            found.append(Permutation(tuple(img)))
            return
        v = order[depth]
        need = 0
        for u in order[:depth]:
            if a[v, u]:
                need |= 1 << img[u]
        for w in cands[v]:
            bit = 1 << w
            if used & bit or (rows[w] & used) != need:
                continue
            img[v] = w
            extend(depth + 1, used | bit)
        img[v] = -1

    extend(0, 0)
    found.sort(key=lambda p: p.images)
    return found


def find_disjoint_pair(g: Graph) -> Optional[tuple[Permutation, Permutation]]:
    """First pair of non-trivial disjoint automorphisms, or None.

    "First" means lexicographically smallest (i, j), i < j, over the sorted
    automorphism list, so the result is deterministic.
    """
    autos = [p for p in automorphisms(g) if not p.is_identity()]
    masks = [sum(1 << v for v in p.support()) for p in autos]
    for i, p in enumerate(autos):
        for j in range(i + 1, len(autos)):
            if masks[i] & masks[j] == 0:
                return p, autos[j]
    return None
