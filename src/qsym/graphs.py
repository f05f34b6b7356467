"""Finite simple graphs, permutations, and automorphism-group search.

Graphs are stored as dense 0/1 adjacency matrices; everything here targets
the classical symmetry side of the toolkit: exhaustive backtracking
enumeration of the automorphism group and the search for a pair of
non-trivial automorphisms with disjoint supports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CapacityError, DimensionError, GraphFormatError, UsageError

__all__ = [
    "Graph",
    "Permutation",
    "is_automorphism",
    "automorphisms",
    "are_disjoint",
    "find_disjoint_pair",
    "AUTOMORPHISM_VERTEX_BOUND",
    "GRAPH_VERTEX_BOUND",
]

#: cap on the vertex count of a graph built from an edge list: the dense
#: N x N adjacency and the dense spectral checks are sized for it
GRAPH_VERTEX_BOUND = 4096

#: cap for exhaustive automorphism enumeration
AUTOMORPHISM_VERTEX_BOUND = 32

#: block side for Graph's validation passes: at 4096 vertices whole-matrix
#: temporaries and a strided a.T are several times slower than 256 x 256 tiles
_TILE = 256


def _is_int(x) -> bool:
    """A JSON integer: int but not bool (JSON true/false load as bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_symmetric(a: np.ndarray) -> bool:
    """a == a.T, each tile above the diagonal against its mirror tile."""
    size, t = a.shape[0], _TILE
    for r in range(0, size, t):
        for c in range(r, size, t):
            if not np.array_equal(a[r : r + t, c : c + t], a[c : c + t, r : r + t].T):
                return False
    return True


class Graph:
    """Undirected simple graph (no loops, no multiple edges)."""

    def __init__(self, adjacency):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise GraphFormatError("adjacency matrix must be square and non-empty")
        stripes = (a[r : r + _TILE] for r in range(0, a.shape[0], _TILE))
        if not all(np.all((s == 0) | (s == 1)) for s in stripes):
            raise GraphFormatError("adjacency entries must be 0 or 1")
        a = a.astype(np.uint8)
        if not _is_symmetric(a):
            raise GraphFormatError("adjacency matrix must be symmetric")
        if np.any(np.diag(a) != 0):
            raise GraphFormatError("loops are not allowed")
        a.setflags(write=False)
        self.adjacency = a

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an edge list with 0-based endpoints.

        Duplicate unordered pairs, loops and out-of-range endpoints are
        rejected; isolated vertices are fine.  More than
        ``GRAPH_VERTEX_BOUND`` vertices is a ``CapacityError``, raised before
        the adjacency is allocated.
        """
        if not _is_int(n) or n <= 0:
            raise GraphFormatError(f"vertex count must be a positive integer, got {n!r}")
        if n > GRAPH_VERTEX_BOUND:
            raise CapacityError(f"graph has {n} > {GRAPH_VERTEX_BOUND} vertices")
        a = np.zeros((n, n), dtype=np.uint8)
        seen = set()
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {e!r} is not a pair") from None
            if not (_is_int(i) and _is_int(j)):
                raise GraphFormatError(f"edge {e!r} has non-integer endpoints")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge {e!r} out of range for n={n}")
            if i == j:
                raise GraphFormatError(f"loop at vertex {i} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {key}")
            seen.add(key)
            a[i, j] = a[j, i] = 1
        return cls(a)

    @classmethod
    def from_json(cls, obj) -> "Graph":
        """Parse the ``{"n": int, "edges": [[i, j], ...]}`` format."""
        if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
            raise GraphFormatError('graph JSON must have exactly the keys "n" and "edges"')
        if not isinstance(obj["edges"], list):
            raise GraphFormatError(f'"edges" must be an array of pairs, got {json.dumps(obj["edges"])}')
        return cls.from_edges(obj["n"], obj["edges"])

    @classmethod
    def load(cls, path) -> "Graph":
        try:
            obj = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: invalid JSON ({exc})") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"{path}: cannot read a graph file ({exc})") from None
        return cls.from_json(obj)

    @property
    def n_vertices(self) -> int:
        return int(self.adjacency.shape[0])

    def edges(self) -> list[list[int]]:
        ii, jj = np.nonzero(np.triu(self.adjacency))
        return [[int(i), int(j)] for i, j in zip(ii, jj)]

    def to_json(self) -> dict:
        return {"n": self.n_vertices, "edges": self.edges()}

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].sum())

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def neighbors(self, v: int) -> list[int]:
        return [int(w) for w in np.nonzero(self.adjacency[v])[0]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self) -> str:
        n_edges = int(self.adjacency.sum()) // 2
        return f"Graph(n={self.n_vertices}, edges={n_edges})"


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        imgs = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(len(imgs))):
            raise UsageError(f"{imgs!r} is not a bijection on 0..{len(imgs) - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles given as tuples of 0-based points."""
        imgs = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if imgs[a] != a:
                    raise UsageError(f"cycles reuse point {a}")
                imgs[a] = b
        return cls(tuple(imgs))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self after other: (self.compose(other))(i) = self(other(i))."""
        if self.size != other.size:
            raise DimensionError("permutation sizes differ")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start] or self.images[start] == start:
                continue
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = True
                cyc.append(v)
                v = self.images[v]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def support(self) -> frozenset[int]:
        return frozenset(i for i, j in enumerate(self.images) if i != j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def matrix(self) -> np.ndarray:
        """Permutation matrix P with P e_i = e_{p(i)}."""
        m = np.zeros((self.size, self.size), dtype=np.uint8)
        for i, j in enumerate(self.images):
            m[j, i] = 1
        return m

    def to_json(self) -> list[int]:
        return list(self.images)

    @classmethod
    def from_json(cls, obj) -> "Permutation":
        if not isinstance(obj, list):
            raise UsageError("permutation JSON must be a list of images")
        return cls(tuple(obj))


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """True iff p preserves adjacency, i.e. P A = A P for its matrix P."""
    if p.size != g.n_vertices:
        raise DimensionError(
            f"permutation on {p.size} points vs graph on {g.n_vertices} vertices"
        )
    idx = np.asarray(p.images)
    return np.array_equal(g.adjacency[np.ix_(idx, idx)], g.adjacency)


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


def are_disjoint(p: Permutation, q: Permutation) -> bool:
    """True iff the supports of p and q are disjoint (identity vacuously so)."""
    if p.size != q.size:
        raise DimensionError("permutation sizes differ")
    return not (p.support() & q.support())


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
