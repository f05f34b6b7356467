"""Finite simple graphs, permutations, and automorphism-group search.

A graph is built from vertex pairs, checked as arrays, and keeps a copy of
them; there is no other way to make one.  The dense 0/1 adjacency is
written from the pairs on first read, so code that only needs the pairs
(the Cayley certificate in ``spectral``, ``==`` and ``repr``) never forms
an N x N array; ``folded_cube`` passes each edge once, so neither the
adjacency nor the certificate writes an edge twice.  The rest targets the
classical symmetry side of the toolkit: exhaustive enumeration of the
automorphism group and the search for a pair of non-trivial automorphisms
with disjoint supports.

The enumeration places vertices in a connectivity order (next comes the
unplaced vertex with the most placed neighbours, ties broken by label).
Its frontier is one numpy array of candidate masks, an n-bit word of
possible images per vertex and partial map; placing a vertex is one AND
per mask.  A block of maps is grown only when popped off the stack.  It
stops branching once every unplaced vertex has at most one candidate,
and its rows are then checked as whole maps and kept as uint8.  More
than ``AUTOMORPHISM_ORDER_BOUND`` maps found stops the search with a
``CapacityError``, before the rows are joined.

Rows are found equal one way in the package, by their bytes
(``_distinct_rows``): the automorphism rows here, the eigensolver blocks
and distance classes in ``spectral``, the witness entries in
``star_algebra`` and the abelian points in ``so_twist``.

The group is searched once per graph: its sorted (|Aut|, n) uint8 image
table is written on first read, like the adjacency, and held read-only on
the graph (``Graph._automorphism_table``).  ``automorphisms``,
``find_disjoint_pair`` and the CLI's ``so-points`` comparison all read it.
A search that raises caches nothing.  ``Permutation`` is a slotted frozen
dataclass, and the rows of an array checked as a whole become Permutations
by one slot store each (``_permutation_rows``), with no check per row, so
every call of ``automorphisms`` returns a new list.

Whether permutations preserve the adjacency, read as an int8 table, is
asked by index gathers: of one permutation by two axis takes
(``is_automorphism``), of a whole (P, n) image array in blocks
(``_adjacency_defects``); no permutation matrix is built.  The
eigenprojections have their own class-table gather in ``spectral``.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from numbers import Integral
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
    "AUTOMORPHISM_ORDER_BOUND",
    "AUTOMORPHISM_VERTEX_BOUND",
    "GRAPH_VERTEX_BOUND",
]

#: cap on the vertex count of every graph: the dense N x N adjacency and
#: the dense spectral checks are sized for it
GRAPH_VERTEX_BOUND = 4096

#: cap for exhaustive automorphism enumeration
AUTOMORPHISM_VERTEX_BOUND = 32

#: cap on the group order the enumeration lists: at least |Aut(FQ_7)| =
#: 322,560 and 9! = 362,880, while 10! rows would take about 1 GB to find
AUTOMORPHISM_ORDER_BOUND = 1 << 19

#: partial maps the automorphism search expands together; at the 32-vertex
#: bound a block grows into at most 2^11 * 32 maps of 32 uint64 masks (16 MB)
_SEARCH_BLOCK = 1 << 11

#: gathered int8 table entries per block of ``_adjacency_defects`` (1 MB)
#: unless one permutation's gather alone is larger; the eigenspace check in
#: ``spectral`` gathers an eighth as many, its intp indices taking 1 MiB
_GATHER_BLOCK = 1 << 20

#: deepest nesting of arrays and objects ``Graph.load`` parses; a graph
#: file needs 3 (the object, its edge list, an edge)
_NESTING_BOUND = 64

#: a JSON string, or a run of characters that are neither brackets nor quotes
_NOT_A_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[^][{}"]+')


def _is_int(x) -> bool:
    """A JSON integer: int but not bool (JSON true/false load as bool)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints.  Python and numpy integers pass; a bool,
    a float (1.7, and 2.0 too) or any other value is a ``UsageError``,
    never silently truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, Integral)):
            raise UsageError(f"{what} must be integers, got {_quote(v)}")
    return tuple(map(int, values))


def _quote(value) -> str:
    """A graph file's value for an error message: ``reprlib``'s repr, cut to 80 characters."""
    return reprlib.repr(value)[:80]


def _check_vertex_count(n) -> None:
    """n is a positive integer of at most ``GRAPH_VERTEX_BOUND``: else a
    ``GraphFormatError``, or a ``CapacityError`` past the bound."""
    if not _is_int(n) or n <= 0:
        raise GraphFormatError(f"vertex count must be a positive integer, got {_quote(n)}")
    if n > GRAPH_VERTEX_BOUND:
        raise CapacityError(f"graph has {_quote(n)} > {GRAPH_VERTEX_BOUND} vertices")


def _nesting_depth(text: str) -> int:
    """How deep arrays and objects nest in JSON text, brackets inside
    strings skipped: one regex pass and a running sum, no recursion.  The
    scan ends at an unterminated string, where the parser stops too."""
    bare = _NOT_A_BRACKET.sub("", text).partition('"')[0]
    brackets = np.frombuffer(bare.encode(), dtype=np.uint8)
    steps = np.where((brackets == ord("[")) | (brackets == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


class Graph:
    """Undirected simple graph (no loops, no multiple edges) on 0..n-1,
    held as its checked vertex pairs, with a read-only uint8 adjacency
    matrix written from them on first read.

    ``Graph(n, rows, cols)`` is the one constructor, with the edges
    {rows[k], cols[k]}.  n must be a positive integer, at most
    ``GRAPH_VERTEX_BOUND`` (else ``CapacityError``), and rows and cols
    integer arrays of one shape (broadcast views too) with every endpoint
    in 0..n-1 and no loop, else ``GraphFormatError``.  The pairs are
    copied before they are checked and kept, flattened, as the read-only
    int32 arrays ``rows`` and ``cols``; a later change to the caller's
    arrays reaches neither the graph nor its checks.  ``adjacency`` writes
    a[rows, cols] = a[cols, rows] = 1 into a fresh zero matrix, which
    makes it symmetric and 0/1; repeated pairs write the same 1 again.
    ``from_edges`` (graph files) and ``folded_cube`` make their pairs, one
    per edge, and call it.  The automorphism group is held the same way,
    searched on first read (``_automorphism_table``).
    """

    def __init__(self, n: int, rows, cols):
        _check_vertex_count(n)
        try:
            rows, cols = np.array(rows), np.array(cols)
            arrays = rows.dtype.kind in "iu" and cols.dtype.kind in "iu" and rows.shape == cols.shape
        except ValueError:  # ragged nested sequences
            arrays = False
        if not arrays:
            raise GraphFormatError("edge endpoints must be integer arrays of one shape")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise GraphFormatError(f"edge endpoint out of range for n={n}")
        if np.any(rows == cols):
            raise GraphFormatError("loops are not allowed")
        self._n = int(n)
        # every endpoint is below n <= 4096, so int32 holds it exactly
        self.rows, self.cols = (x.astype(np.int32, copy=False).ravel() for x in (rows, cols))
        for x in (self.rows, self.cols):
            x.setflags(write=False)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The dense uint8 adjacency, written from the pairs on first read
        and read-only."""
        a = np.zeros((self._n, self._n), dtype=np.uint8)
        a[self.rows, self.cols] = 1
        a[self.cols, self.rows] = 1
        a.setflags(write=False)
        return a

    @cached_property
    def _automorphism_table(self) -> np.ndarray:
        """The automorphism group as a sorted (|Aut|, n) uint8 image table
        (n <= 32 < 256), written by one ``_automorphism_images`` search on
        first read and read-only.  A search that raises a ``CapacityError``
        caches nothing, so every read raises it again."""
        table = _automorphism_images(self)
        table.setflags(write=False)
        return table

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an edge list with 0-based endpoints.

        Duplicate unordered pairs, loops and out-of-range endpoints are
        rejected, edge by edge, with a message that quotes the edge;
        isolated vertices are fine.  n is checked first, by the
        constructor's rule, and the checked pairs go to the constructor.
        """
        _check_vertex_count(n)
        seen = set()
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {_quote(e)} is not a pair") from None
            if not (_is_int(i) and _is_int(j)):
                raise GraphFormatError(f"edge {_quote(e)} has non-integer endpoints")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge {_quote(e)} out of range for n={n}")
            if i == j:
                raise GraphFormatError(f"loop at vertex {i} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {key}")
            seen.add(key)
        pairs = np.array(list(seen), dtype=np.intp).reshape(-1, 2)
        return cls(n, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_json(cls, obj) -> "Graph":
        """Parse the ``{"n": int, "edges": [[i, j], ...]}`` format."""
        if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
            raise GraphFormatError('graph JSON must have exactly the keys "n" and "edges"')
        if not isinstance(obj["edges"], list):
            raise GraphFormatError(f'"edges" must be an array of pairs, got {_quote(obj["edges"])}')
        return cls.from_edges(obj["n"], obj["edges"])

    @classmethod
    def load(cls, path) -> "Graph":
        """Read a graph file, refusing nesting past ``_NESTING_BOUND`` before
        parsing: the verdict never depends on the caller's stack depth."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"{path}: cannot read a graph file ({exc})") from None
        if _nesting_depth(text) > _NESTING_BOUND:
            raise GraphFormatError(f"{path}: JSON nested too deeply to be a graph")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_json(obj)

    @property
    def n_vertices(self) -> int:
        return self._n

    def _edge_keys(self) -> np.ndarray:
        """The edges as sorted distinct int64 keys min * n + max, read from
        the pairs: equal for equal graphs, however their pairs are ordered,
        oriented or repeated."""
        lo, hi = np.minimum(self.rows, self.cols), np.maximum(self.rows, self.cols)
        keys = np.sort(lo.astype(np.int64) * self._n + hi)
        return keys[np.diff(keys, prepend=-1) != 0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self._n == other._n
                and np.array_equal(self._edge_keys(), other._edge_keys()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n_vertices}, edges={len(self._edge_keys())})"


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection on {0..n-1}, stored as the tuple of images: integers
    (Python or numpy), else a ``UsageError``.  Slotted: an instance holds
    its one field and no ``__dict__``."""

    images: tuple[int, ...]

    def __post_init__(self):
        imgs = _integers(self.images, "permutation images")
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(len(imgs))):
            raise UsageError(f"{imgs!r} is not a bijection on 0..{len(imgs) - 1}")

    @property
    def size(self) -> int:
        return len(self.images)

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
        return lcm(*(len(c) for c in self.cycles()))

    def support(self) -> frozenset[int]:
        return frozenset(i for i, j in enumerate(self.images) if i != j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def to_json(self) -> list[int]:
        return list(self.images)


def _bijections(images: np.ndarray) -> np.ndarray:
    """The (P, n) image array, after one sort-compare that every row is a
    bijection on 0..n-1."""
    if np.count_nonzero(np.sort(images, axis=1) != np.arange(images.shape[1])):
        bad = next(row for row in images.tolist() if sorted(row) != list(range(len(row))))
        raise UsageError(f"{tuple(bad)!r} is not a bijection on 0..{len(bad) - 1}")
    return images


def _permutation_rows(images: np.ndarray) -> list[Permutation]:
    """The rows of a (P, n) image array as Permutations, with no check per
    row: the array must be checked once by ``_bijections`` or consist of
    bijections by construction.  Each row is one slot store of its image
    tuple into a bare instance, past ``__post_init__`` and the frozen
    ``__setattr__``."""
    new, put, rows = object.__new__, Permutation.images.__set__, []
    for row in images.tolist():
        p = new(Permutation)
        put(p, tuple(row))
        rows.append(p)
    return rows


def _adjacency_defects(g: Graph, images: np.ndarray) -> np.ndarray:
    """Per row p of the (P, n) image array, max |A[p(x), p(y)] - A[x, y]|
    over every pair (x, y) of g's adjacency A, read as int8: 0 iff p is an
    automorphism of g.

    For the permutation matrix P (P e_x = e_{p(x)}) these are exactly the
    entries of P A - A P, since (P A - A P)[p(x), y] = A[x, y] - A[p(x),
    p(y)] and a permutation-matrix product only copies entries.
    Permutations are gathered in blocks of as many as fit in
    ``_GATHER_BLOCK`` entries, each block reading the flattened table at
    p(x) n + p(y), 1.9-3x faster than one broadcast fancy index A[p[:,
    None], p[None, :]] on the 1920 FQ_5 point actions.  This is the path
    for many permutations (``qsym so-points``, n <= 32 vertices); one
    permutation is ``is_automorphism``'s two axis takes.
    """
    table = g.adjacency.view(np.int8)
    size = len(table)
    step = max(1, _GATHER_BLOCK // table.size)
    defects = []
    for block in (images[s : s + step] for s in range(0, len(images), step)):
        gathered = table.ravel().take(block[:, :, None] * size + block[:, None, :])
        gathered -= table
        defects.append(np.abs(gathered, out=gathered).max(axis=(1, 2)))
    return np.concatenate(defects)


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """True iff p preserves adjacency, i.e. A[p(x), p(y)] = A[x, y] for all
    x, y, equivalent to P A = A P for p's matrix P: two axis takes
    A[p][:, p], compared with A.  They need no n x n index and beat a
    broadcast fancy index A[p[:, None], p[None, :]] by 1.5-2.5x on FQ_5
    and FQ_7 (``_adjacency_defects`` gathers many permutations)."""
    if p.size != g.n_vertices:
        raise DimensionError(
            f"permutation on {p.size} points vs graph on {g.n_vertices} vertices"
        )
    a, images = g.adjacency, np.array(p.images)
    return bool((a.take(images, axis=0).take(images, axis=1) == a).all())


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


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) for every set bit of a uint64 array, row-major within each
    round: each round peels the lowest set bit, low = x & (~x + 1), off every
    word still non-zero and reads its position as log2(low)."""
    rows = np.flatnonzero(words)
    words = words[rows]
    parents, images = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    while rows.size:
        low = words & (~words + np.uint64(1))
        parents.append(rows)
        images.append(np.log2(low).astype(np.intp))
        words = words ^ low
        live = words != 0
        rows, words = rows[live], words[live]
    return np.concatenate(parents), np.concatenate(images)


def _automorphism_images(g: Graph) -> np.ndarray:
    """The automorphism group as an (|Aut|, n) uint8 array of image rows
    (n <= 32 < 256), sorted by image tuple.

    A frontier is a (k, n) uint64 array of candidate masks: bit w of
    ``masks[i, v]`` is set when v may still go to w in map i.  A placed
    vertex holds one bit.  Vertices are placed in ``_search_order``; placing
    v -> w ANDs every column u with w's neighbour word where v is adjacent
    to u, with its complement where not, and clears w's bit, all as one
    row ``place[v, w]``, and the children of a block are read off its
    column v (``_set_bits``).  Masks start as the vertices of equal degree.
    A block stops branching once no unplaced vertex has more than one
    candidate: ``_forced_maps`` then reads the images and keeps the rows
    that are automorphisms, checked (``_bijections``) and kept as uint8.
    Frontiers are expanded depth-first in blocks of at most
    ``_SEARCH_BLOCK`` maps, each pushed as its parents' masks and slices of
    ``parent`` and ``image`` and grown when popped, so a depth holds one
    parent block.  More than ``AUTOMORPHISM_ORDER_BOUND`` rows found is a
    ``CapacityError``, raised before they are joined.  The rows are sorted
    by their bytes (``_distinct_rows``).  ``Graph``'s table is this
    search's one library caller.
    """
    n = g.n_vertices
    if n > AUTOMORPHISM_VERTEX_BOUND:
        raise CapacityError(f"graph has {n} > {AUTOMORPHISM_VERTEX_BOUND} vertices")
    a = g.adjacency
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    words = a.astype(np.uint64) @ bits
    degree = a.sum(axis=1)
    same_degree = (degree[:, None] == degree).astype(np.uint64) @ bits
    order = _search_order(a)
    # place[v, w, u]: the mask of u after v -> w, applied by one AND
    place = np.where(a[:, None, :] == 1, words[:, None], ~words[:, None]) & ~bits[:, None]
    place[np.arange(n), :, np.arange(n)] = bits
    full, found = [], 0
    stack = [(0, same_degree[None], np.zeros(1, dtype=np.intp), None)]
    while stack:
        depth, parents, parent, image = stack.pop()
        masks = parents[parent]
        if depth:
            masks &= place[order[depth - 1], image]
        tail = masks[:, order[depth:]]
        if not np.any(tail & (tail - np.uint64(1))):
            full.append(_bijections(_forced_maps(g, masks, words, order[depth:])).astype(np.uint8))
            found += len(full[-1])
            if found > AUTOMORPHISM_ORDER_BOUND:
                raise CapacityError(f"graph has more than {AUTOMORPHISM_ORDER_BOUND} automorphisms")
            continue
        parent, image = _set_bits(masks[:, order[depth]])
        stack.extend((depth + 1, masks, parent[s : s + _SEARCH_BLOCK], image[s : s + _SEARCH_BLOCK])
                     for s in reversed(range(0, len(parent), _SEARCH_BLOCK)))
    images = np.concatenate(full)
    return images[_distinct_rows(images)[0]]


def _forced_maps(g: Graph, masks: np.ndarray, words: np.ndarray, tail: list[int]) -> np.ndarray:
    """The automorphisms among a block of masks in which every vertex of
    ``tail`` (the unplaced ones) has at most one candidate, as image rows.

    A row is dropped if a mask is empty.  Its images are read by log2 and
    kept only if the tail images are distinct (the masks' sum equals
    their OR) and every pair of g with both ends in the tail maps to an
    edge.  The placed images are distinct, every tail mask excludes them,
    and every pair with a placed end was matched when that end was
    placed, so a kept row is a bijection that maps E into E: an
    automorphism.
    """
    masks = masks[(masks != 0).all(axis=1)]
    ends = masks[:, tail]
    distinct = ends.sum(axis=1) == np.bitwise_or.reduce(ends, axis=1)
    inside = np.zeros(g.n_vertices, dtype=bool)
    inside[tail] = True
    both = inside[g.rows] & inside[g.cols]
    images = np.log2(masks).astype(np.intp)
    rows, cols = g.rows[both], g.cols[both]
    edges = (words[images[:, rows]] & masks[:, cols] != 0).all(axis=1)
    return images[distinct & edges]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the distinct rows of a 2-D array, rows being
    equal when their bytes are: ``rows[first]`` are the distinct rows in
    byte order, each its first occurrence, and ``rows[first][inverse]`` is
    ``rows``.  Each C-contiguous row is one void key for ``np.unique``;
    for uint8 rows byte order is tuple order.  Asking for the indices
    keeps ``np.unique`` off its bare path, whose first call in a process
    imports ``numpy.ma`` (about 15 ms, ``python -X importtime``)."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def automorphisms(g: Graph) -> list[Permutation]:
    """Enumerate the full automorphism group, sorted by image tuple.

    The search places vertices in a connectivity order (the next vertex is
    the unplaced one with the most placed neighbours) and narrows a whole
    frontier of candidate masks at once with numpy, until every image is
    forced; see ``_automorphism_images``.  More than
    ``AUTOMORPHISM_VERTEX_BOUND`` vertices, or more than
    ``AUTOMORPHISM_ORDER_BOUND`` automorphisms, is a ``CapacityError``.
    The search runs once per graph; each call builds a new list from the
    graph's table.
    """
    return _permutation_rows(g._automorphism_table)


def are_disjoint(p: Permutation, q: Permutation) -> bool:
    """True iff the supports of p and q are disjoint (identity vacuously so)."""
    if p.size != q.size:
        raise DimensionError("permutation sizes differ")
    return not (p.support() & q.support())


def find_disjoint_pair(g: Graph) -> Optional[tuple[Permutation, Permutation]]:
    """First pair of non-trivial disjoint automorphisms, or None.

    "First" means lexicographically smallest (i, j), i < j, over the sorted
    list of non-trivial automorphisms, so the result is deterministic.  The
    rows are the graph's table, searched once per graph.  Each support is
    packed into one int64 bit mask, and row i is tested against all later
    rows at once.
    """
    images = g._automorphism_table
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
