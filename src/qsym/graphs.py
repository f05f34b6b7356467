"""Finite simple graphs, permutations, and automorphism-group search.

Graphs are stored as dense 0/1 adjacency matrices; everything here targets
the classical symmetry side of the toolkit: exhaustive enumeration of the
automorphism group and the search for a pair of non-trivial automorphisms
with disjoint supports.

The enumeration places vertices in a connectivity order (next comes the
unplaced vertex with the most placed neighbours, ties broken by label) and
extends a frontier of partial maps, held as one numpy array, a depth at a
time.  Both ``automorphisms`` and ``find_disjoint_pair`` read the one
(|Aut|, n) image array it returns.
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

#: partial maps the automorphism search expands together; at the 32-vertex
#: bound a block grows into at most 2^14 * 32 maps of at most 32 bytes (16 MB)
_SEARCH_BLOCK = 1 << 14

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
        imgs = tuple(map(int, self.images))
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


def _search_order(a: np.ndarray) -> list[int]:
    """Vertices in search order: next is the unplaced vertex with the most
    placed neighbours, ties broken by label.

    The order follows connectivity, not labels, so a relabeled graph is
    searched along the same structure.
    """
    placed_neighbours = np.zeros(a.shape[0], dtype=np.int64)
    order: list[int] = []
    for _ in range(a.shape[0]):
        score = placed_neighbours.copy()
        score[order] = -1
        v = int(np.argmax(score))
        order.append(v)
        placed_neighbours += a[v]
    return order


def _automorphism_images(g: Graph) -> np.ndarray:
    """The automorphism group as an (|Aut|, n) int8 array of image rows,
    sorted by image tuple.

    A frontier holds partial maps as a (k, d) array: row i sends
    ``order[j]`` to ``maps[i, j]``.  Neighbourhoods are n-bit words, so at
    depth d the images allowed for ``v = order[d]`` come for all k maps from
    one comparison of the words ``rows[maps]`` (k, d) with the pattern
    ``adjacency[v, order[:d]]``: an image must be adjacent to ``maps[i, j]``
    exactly where v is adjacent to ``order[j]``.  They are then masked by
    degree and by the images already used.  Frontiers are expanded
    depth-first in blocks of at most ``_SEARCH_BLOCK`` maps.
    """
    n = g.n_vertices
    if n > AUTOMORPHISM_VERTEX_BOUND:
        raise CapacityError(f"graph has {n} > {AUTOMORPHISM_VERTEX_BOUND} vertices")
    a = g.adjacency
    shifts = np.arange(n, dtype=np.uint64)
    bits = np.uint64(1) << shifts
    rows = a.astype(np.uint64) @ bits
    degree = a.sum(axis=1)
    same_degree = (degree[:, None] == degree).astype(np.uint64) @ bits
    order = _search_order(a)
    full = []
    stack = [np.zeros((1, 0), dtype=np.int8)]
    while stack:
        maps = stack.pop()
        depth = maps.shape[1]
        if depth == n:
            full.append(maps)
            continue
        v = order[depth]
        words = np.where(a[v, order[:depth]] == 1, rows[maps], ~rows[maps])
        allowed = np.bitwise_and.reduce(words, axis=1) & same_degree[v]
        allowed &= ~np.bitwise_or.reduce(bits[maps], axis=1)
        parent, image = np.nonzero((allowed[:, None] >> shifts) & np.uint64(1))
        grown = np.concatenate([maps[parent], image[:, None].astype(np.int8)], axis=1)
        blocks = np.split(grown, range(_SEARCH_BLOCK, len(grown), _SEARCH_BLOCK))
        stack.extend(reversed(blocks))
    maps = np.concatenate(full)
    images = np.empty_like(maps)
    images[:, order] = maps
    return images[np.lexsort(images.T[::-1])]


def automorphisms(g: Graph) -> list[Permutation]:
    """Enumerate the full automorphism group, sorted by image tuple.

    The search places vertices in a connectivity order (the next vertex is
    the unplaced one with the most placed neighbours) and extends a whole
    frontier of partial maps at once with numpy; see
    ``_automorphism_images``.  More than ``AUTOMORPHISM_VERTEX_BOUND``
    vertices is a ``CapacityError``.
    """
    return [Permutation(row) for row in _automorphism_images(g).tolist()]


def are_disjoint(p: Permutation, q: Permutation) -> bool:
    """True iff the supports of p and q are disjoint (identity vacuously so)."""
    if p.size != q.size:
        raise DimensionError("permutation sizes differ")
    return not (p.support() & q.support())


def find_disjoint_pair(g: Graph) -> Optional[tuple[Permutation, Permutation]]:
    """First pair of non-trivial disjoint automorphisms, or None.

    "First" means lexicographically smallest (i, j), i < j, over the sorted
    list of non-trivial automorphisms, so the result is deterministic.  Each
    support is packed into one int64 bit mask, and row i is tested against
    all later rows at once.
    """
    images = _automorphism_images(g)
    n = g.n_vertices
    moved = images != np.arange(n)
    masks = moved.astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
    nontrivial = masks != 0
    images, masks = images[nontrivial], masks[nontrivial]
    for i in range(len(masks)):
        later = np.flatnonzero((masks[i + 1 :] & masks[i]) == 0)
        if later.size:
            j = i + 1 + int(later[0])
            return Permutation(images[i].tolist()), Permutation(images[j].tolist())
    return None
