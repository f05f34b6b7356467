import copy
import json
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import permutations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from qsym import graphs
from qsym import (
    CapacityError,
    DimensionError,
    Graph,
    GraphFormatError,
    Permutation,
    SignedPermMatrix,
    UsageError,
    abelian_points,
    are_disjoint,
    automorphisms,
    find_disjoint_pair,
    folded_cube,
    is_automorphism,
)
from qsym.fixtures import fixture_names, fixture_path
from graph_oracle import PENTAGONAL_SIGMA, PENTAGONAL_TAU, compose, from_cycles


def edge_list(g: Graph) -> list[list[int]]:
    """The edges (i, j), i < j, of g in row-major order."""
    return np.argwhere(np.triu(g.adjacency)).tolist()


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


# ---------------------------------------------------------------------------
# Graph construction and JSON format
# ---------------------------------------------------------------------------


def test_from_edges_roundtrip(c5):
    assert c5.n_vertices == 5
    assert edge_list(c5) == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    again = Graph.from_json({"n": c5.n_vertices, "edges": edge_list(c5)})
    assert again == c5


def test_isolated_vertices_and_disconnection_allowed():
    g = Graph.from_edges(4, [[0, 1]])
    assert g.adjacency.sum(axis=1).tolist() == [1, 1, 0, 0]


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [[0, 0]]),            # loop
        (3, [[0, 1], [1, 0]]),    # duplicate unordered pair
        (3, [[0, 1], [0, 1]]),    # duplicate
        (3, [[0, 5]]),            # out of range
        (3, [[0]]),               # not a pair
        (0, []),                  # empty graph
    ],
)
def test_malformed_edge_lists_rejected(n, edges):
    with pytest.raises(GraphFormatError):
        Graph.from_edges(n, edges)


def _nested(depth: int):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [_nested(980)], "edge [[[[[[[...]]]]]]] is not a pair"),
        (3, [[0, _nested(980)]], "edge [0, [[[[[[...]]]]]]] has non-integer endpoints"),
        (3, [list(range(10**5))], "edge [0, 1, 2, 3, 4, 5, ...] is not a pair"),
        (_nested(980), [], "vertex count must be a positive integer, got [[[[[[[...]]]]]]]"),
        (10**100, [], f"graph has {str(10**100)[:18]}...{str(10**100)[-19:]} > 4096 vertices"),
    ],
    ids=["nested-edge", "nested-endpoint", "long-edge", "nested-n", "huge-n"],
)
def test_quoted_values_are_capped_in_error_messages(n, edges, message):
    with pytest.raises((GraphFormatError, CapacityError)) as exc:
        Graph.from_edges(n, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 5]], "edge [0, 5] out of range for n=3"),
        ([[0, 0, 0]], "edge [0, 0, 0] is not a pair"),
        ([[0, "1"]], "edge [0, '1'] has non-integer endpoints"),
        ([[0, 0]], "loop at vertex 0 is not allowed"),
    ],
)
def test_short_bad_edges_are_quoted_in_full(edges, message):
    with pytest.raises(GraphFormatError) as exc:
        Graph.from_edges(3, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ([0, 2], [1, 2], "loops are not allowed"),
        ([0, -1], [1, 2], "out of range for n=3"),
        ([0, 1], [1, 3], "out of range for n=3"),
    ],
    ids=["loop", "endpoint-minus-1", "endpoint-n"],
)
def test_pairs_are_checked_before_the_adjacency_is_written(rows, cols, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(3, np.array(rows), np.array(cols))


@pytest.mark.parametrize(
    "n, rows, cols, error, message",
    [
        (True, [0], [1], GraphFormatError, "vertex count must be a positive integer, got True"),
        (3.0, [0], [1], GraphFormatError, "vertex count must be a positive integer, got 3.0"),
        (0, [0], [1], GraphFormatError, "vertex count must be a positive integer, got 0"),
        (4097, [0], [1], CapacityError, "graph has 4097 > 4096 vertices"),
        (3, [0.0], [1.0], GraphFormatError, "edge endpoints must be integer arrays of one shape"),
        (3, [0, 1], [[1, 2]], GraphFormatError, "edge endpoints must be integer arrays of one shape"),
        (3, [[0], [1, 2]], [1, 2], GraphFormatError, "edge endpoints must be integer arrays of one shape"),
    ],
    ids=["bool-n", "float-n", "zero-n", "n-past-bound", "float-rows", "shapes-differ", "ragged-rows"],
)
def test_constructor_refuses_bad_input_with_exit_2_errors(n, rows, cols, error, message):
    # endpoints out of range and loops: test_pairs_are_checked_before_the_adjacency_is_written
    with pytest.raises(error) as exc:
        Graph(n, rows, cols)
    assert str(exc.value) == message


def test_pairs_write_both_orientations_into_a_frozen_matrix():
    g = Graph(4, np.array([0, 1, 0]), np.array([1, 2, 1]))
    assert np.array_equal(g.adjacency, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert g.adjacency.dtype == np.uint8 and not g.adjacency.flags.writeable


def test_lists_and_broadcast_views_are_accepted_as_pairs():
    words = np.arange(4)
    shifted = words ^ np.array([[1], [2]])
    g = Graph(4, np.broadcast_to(words, shifted.shape), shifted)
    assert g == Graph(4, [0, 0, 1, 2], [1, 2, 3, 3])  # the 4-cycle 0-1-3-2


@pytest.mark.parametrize("name", fixture_names())
def test_from_edges_equals_a_dense_fill_of_every_fixture(name):
    obj = json.loads(fixture_path(name).read_text())
    dense = np.zeros((obj["n"], obj["n"]), dtype=np.uint8)
    for i, j in obj["edges"]:
        dense[i, j] = dense[j, i] = 1
    adjacency = Graph.from_json(obj).adjacency
    assert adjacency.dtype == np.uint8 and np.array_equal(adjacency, dense)


def test_bad_json_keys_rejected():
    with pytest.raises(GraphFormatError):
        Graph.from_json({"n": 3, "edges": [], "extra": 1})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        Graph.load(path)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"n": 3, "edges": ' + "[" * 5000 + "]" * 5000 + "}"],
                         ids=["open-brackets", "nested-edges"])
def test_load_rejects_json_nested_too_deeply(tmp_path, text):
    # refused by a bracket count before the recursive JSON parser runs
    path = tmp_path / "nested.json"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match="nested too deeply"):
        Graph.load(path)


@pytest.mark.parametrize("depth, message", [(64, "is not a pair"), (65, "nested too deeply")])
def test_load_parses_nesting_up_to_64(tmp_path, depth, message):
    # the object and the edge list are two levels, the one edge the rest
    path = tmp_path / "deep.json"
    path.write_text('{"n": 3, "edges": [' + "[" * (depth - 2) + "0" + "]" * (depth - 2) + "]}")
    with pytest.raises(GraphFormatError, match=message):
        Graph.load(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"n": 3, "edges": [], "note": '"[{' * 100}), 'exactly the keys "n" and "edges"'),
        ('{"n": 3, "edges": [], "note": "' + "[" * 100, "invalid JSON"),
    ],
    ids=["escaped-quotes", "unterminated"],
)
def test_brackets_inside_strings_are_not_nesting(tmp_path, text, message):
    path = tmp_path / "note.json"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=message):
        Graph.load(path)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def test_permutation_basics():
    p = from_cycles(5, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3, 4)
    assert p.cycles() == [(0, 1, 2)]
    assert p.order() == 3
    assert p.support() == {0, 1, 2}
    assert compose(Permutation((2, 0, 1, 3, 4)), p).is_identity()
    assert identity(4).order() == 1


def test_permutation_compose_order():
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    # (p o q)(1) = p(q(1)) = p(2) = 2
    assert compose(p, q).images[1] == 2


def test_permutation_matrix_convention():
    # the dense reference of the gathered commutation defects
    p = from_cycles(3, [(0, 1, 2)])
    m = oracle.permutation_matrix(p)
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.array_equal(m @ e0, np.eye(3)[p.images[0]])


def test_permutation_validation():
    with pytest.raises(UsageError):
        Permutation((0, 0, 1))
    with pytest.raises(UsageError):
        from_cycles(4, [(0, 1), (1, 2)])  # reuses 1


@pytest.mark.parametrize("images", [(0, 1.7, 2), (0, 2.0, 1), (True, False), (np.True_, np.False_), ("0", "1")])
def test_permutation_images_must_be_integers(images):
    """Neither truncated (1.7 -> 1) nor read as 0/1: a usage error."""
    with pytest.raises(UsageError, match="permutation images must be integers"):
        Permutation(images)


def test_numpy_integer_images_are_kept_as_ints():
    p = Permutation((np.int64(1), np.int8(0), np.uint16(2)))
    assert p.images == (1, 0, 2) and all(type(i) is int for i in p.images)


def test_rows_of_a_checked_stack_equal_validated_permutations(clebsch):
    rows = graphs._permutation_rows(graphs._bijections(np.array([[1, 0, 2], [2, 0, 1]], dtype=np.int8)))
    assert rows == [Permutation((1, 0, 2)), Permutation((2, 0, 1))]
    assert all(type(i) is int for p in rows for i in p.images)
    images = graphs._automorphism_images(clebsch)
    rows = graphs._permutation_rows(images)
    assert len(rows) == 1920
    assert all(row == Permutation(tuple(image)) for row, image in zip(rows, images.tolist()))
    assert all(type(row.images) is tuple and not hasattr(row, "__dict__") for row in rows)


@pytest.mark.parametrize("row", [Permutation((2, 0, 1)), SignedPermMatrix(Permutation((2, 0, 1)), (1, -1, -1))])
def test_rows_are_slotted_and_frozen(row):
    """No instance dictionary, and no field or new attribute can be set.
    A new name is refused with an exception type that depends on the
    Python version (the frozen ``__setattr__`` of a slotted dataclass)."""
    assert not hasattr(row, "__dict__")
    name = "images" if isinstance(row, Permutation) else "signs"
    with pytest.raises(FrozenInstanceError):
        setattr(row, name, (0, 1, 2))
    with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
        row.extra = 1


@pytest.mark.parametrize("row", [Permutation((2, 0, 1)), SignedPermMatrix(Permutation((2, 0, 1)), (1, -1, -1)),
                                 abelian_points(5)[77], graphs._permutation_rows(np.array([[1, 0, 3, 2]]))[0]])
def test_rows_round_trip_through_pickle_and_deepcopy(row):
    for twin in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert twin == row and hash(twin) == hash(row) and twin is not row
        assert type(twin) is type(row) and not hasattr(twin, "__dict__")


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_graph_copies_and_never_freezes_the_callers_array(dtype):
    a = np.zeros((3, 3), dtype=dtype)
    a[0, 1] = a[1, 0] = 1
    g = oracle.dense_graph(a)
    assert a.flags.writeable and not g.adjacency.flags.writeable
    assert not np.shares_memory(a, g.adjacency)
    a[0, 2] = 1
    assert g.adjacency[0, 2] == 0


def test_folded_cube_hands_its_adjacency_over_without_a_copy():
    """The 16 MiB FQ_13 adjacency, written on first read, plus its two
    0.2 MiB int32 pair arrays and numpy's index buffers, and no copy: a
    stray copy of even a sixteenth of the adjacency would pass 17 MiB."""
    tracemalloc.start()
    try:
        g = folded_cube(13)
        assert g.adjacency.nbytes == 16 * 2**20
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 17


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_graph_keeps_its_own_copy_of_the_checked_pairs(dtype):
    """The adjacency is written from the pairs on first read, so the graph
    must not share them with the caller: a loop and an out-of-range
    endpoint written into the caller's arrays afterwards change nothing.
    int32 pairs are kept in their own dtype, so no conversion copies them."""
    rows, cols = np.array([0, 1], dtype=dtype), np.array([1, 2], dtype=dtype)
    g = Graph(4, rows, cols)
    assert g.n_vertices == 4 and "adjacency" not in vars(g)
    rows[0], cols[1] = 1, 9
    assert np.array_equal(g.adjacency, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert g.rows.tolist() == [0, 1] and g.cols.tolist() == [1, 2]
    assert not (g.rows.flags.writeable or g.cols.flags.writeable)


def test_equality_and_repr_read_the_pairs_without_the_adjacency():
    """FQ_13's dense adjacency is 16 MiB; comparing two cubes and printing
    one read their 53,248 pairs only."""
    g, h = folded_cube(13), folded_cube(13)
    tracemalloc.start()
    try:
        assert g == h
        equal_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        assert repr(g) == "Graph(n=4096, edges=26624)"
        repr_peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert equal_peak < 4 and repr_peak < 4
    assert "adjacency" not in vars(g) and "adjacency" not in vars(h)


def test_reordered_flipped_and_repeated_pairs_give_an_equal_graph():
    g = Graph(5, [0, 1, 2], [1, 2, 3])
    same = Graph(5, [3, 1, 1, 0, 2, 1], [2, 0, 2, 1, 3, 2])
    assert g == same and same == g
    assert repr(same) == repr(g) == "Graph(n=5, edges=3)"
    assert g == oracle.dense_graph(g.adjacency)


def test_another_vertex_count_or_a_missing_edge_compares_unequal(c5):
    assert c5 != Graph(6, c5.rows, c5.cols)
    assert c5 != Graph(5, c5.rows[1:], c5.cols[1:])
    assert c5 != Graph(5, np.zeros(0, np.intp), np.zeros(0, np.intp))
    assert c5 != c5.adjacency


def test_repr_counts_distinct_edges(c5, k4, clebsch):
    assert [repr(g) for g in (c5, k4, clebsch)] == [
        "Graph(n=5, edges=5)", "Graph(n=4, edges=6)", "Graph(n=16, edges=40)"]
    assert repr(Graph.from_edges(3, [])) == "Graph(n=3, edges=0)"


def test_permutation_order_is_lcm():
    p = from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.order() == 6


# ---------------------------------------------------------------------------
# is_automorphism
# ---------------------------------------------------------------------------


def test_pentagonal_pair_are_automorphisms(clebsch_pentagonal):
    assert is_automorphism(clebsch_pentagonal, PENTAGONAL_SIGMA)
    assert is_automorphism(clebsch_pentagonal, PENTAGONAL_TAU)


def test_identity_is_automorphism(c5, k4, clebsch):
    for g in (c5, k4, clebsch):
        assert is_automorphism(g, identity(g.n_vertices))


def test_adjacent_transposition_on_c5_is_not_automorphism(c5):
    p = from_cycles(5, [(0, 1)])
    # direct adjacency oracle: permuted edge set differs
    edges = {frozenset(e) for e in edge_list(c5)}
    permuted = {frozenset((p.images[a], p.images[b])) for a, b in edges}
    assert permuted != edges
    assert not is_automorphism(c5, p)


def test_is_automorphism_size_mismatch(c5):
    with pytest.raises(DimensionError):
        is_automorphism(c5, identity(4))


# ---------------------------------------------------------------------------
# automorphism enumeration
# ---------------------------------------------------------------------------


def test_k4_has_full_symmetric_group(k4):
    autos = automorphisms(k4)
    assert len(autos) == 24
    assert len({p.images for p in autos}) == 24


def test_c5_has_dihedral_group(c5):
    assert len(automorphisms(c5)) == 10


def test_clebsch_automorphism_count(clebsch_autos):
    # regression value for the folded 5-cube: 2^4 * 5!
    assert len(clebsch_autos) == 1920


def test_automorphisms_contain_identity_and_are_sorted(c5):
    autos = automorphisms(c5)
    assert autos[0].is_identity()
    assert [p.images for p in autos] == sorted(p.images for p in autos)


@pytest.mark.parametrize("graph_fixture", ["k4", "c5"])
def test_group_closure_and_inverse_small(graph_fixture, request):
    g = request.getfixturevalue(graph_fixture)
    autos = automorphisms(g)
    group = {p.images for p in autos}
    for p in autos:
        assert tuple(np.argsort(p.images).tolist()) in group
        for q in autos:
            assert compose(p, q).images in group


def test_clebsch_group_closure_and_inverse(clebsch_autos):
    group = {p.images for p in clebsch_autos}
    arr = np.array([p.images for p in clebsch_autos], dtype=np.uint8)
    for inverse in np.argsort(arr, axis=1).tolist():
        assert tuple(inverse) in group
    # closure over all 1920^2 compositions; images are nibbles, so a row
    # packs into one uint64 for fast set membership
    shifts = (4 * np.arange(16, dtype=np.uint64))[None, :]
    packed = (arr.astype(np.uint64) << shifts).sum(axis=1)
    packed_set = np.sort(packed)
    for a in range(0, len(arr), 256):
        composed = arr[a : a + 256][:, arr]  # (chunk, 1920, 16): row a o row b
        keys = (composed.astype(np.uint64) << shifts[None, :, :]).sum(axis=2)
        assert np.all(np.isin(keys, packed_set))


def test_folded_cubes_are_vertex_transitive():
    for n in (3, 5):
        g = folded_cube(n)
        autos = automorphisms(g)
        moved = set()
        for p in autos:
            moved |= p.support()
        assert moved == set(range(g.n_vertices))


def test_capacity_bound():
    g = folded_cube(7)  # 64 vertices
    with pytest.raises(CapacityError):
        automorphisms(g)
    with pytest.raises(CapacityError):
        find_disjoint_pair(g)


# ---------------------------------------------------------------------------
# disjointness and pair search
# ---------------------------------------------------------------------------


def test_pentagonal_pair_is_disjoint():
    assert are_disjoint(PENTAGONAL_SIGMA, PENTAGONAL_TAU)


def test_nontrivial_permutation_not_disjoint_from_itself():
    p = from_cycles(4, [(0, 1)])
    assert not are_disjoint(p, p)


def test_transpositions_on_four_points_disjoint():
    p = from_cycles(4, [(0, 1)])
    q = from_cycles(4, [(2, 3)])
    assert are_disjoint(p, q)


def test_identity_vacuously_disjoint():
    p = identity(4)
    q = from_cycles(4, [(0, 1, 2, 3)])
    assert are_disjoint(p, q)


def test_are_disjoint_size_mismatch():
    with pytest.raises(DimensionError):
        are_disjoint(identity(3), identity(4))


def test_find_disjoint_pair_on_clebsch(clebsch):
    pair = find_disjoint_pair(clebsch)
    assert pair is not None
    sigma, tau = pair
    assert not sigma.is_identity() and not tau.is_identity()
    assert is_automorphism(clebsch, sigma) and is_automorphism(clebsch, tau)
    assert are_disjoint(sigma, tau)


def test_find_disjoint_pair_none_on_c5(c5):
    assert find_disjoint_pair(c5) is None


def test_find_disjoint_pair_k4(k4):
    sigma, tau = find_disjoint_pair(k4)
    assert {sigma.support(), tau.support()} == {frozenset({0, 1}), frozenset({2, 3})}


def test_find_disjoint_pair_deterministic(clebsch):
    first = find_disjoint_pair(clebsch)
    second = find_disjoint_pair(clebsch)
    assert first[0].images == second[0].images
    assert first[1].images == second[1].images


# ---------------------------------------------------------------------------
# the search against the old backtracking oracle, and metamorphic relations
# ---------------------------------------------------------------------------

#: random graphs whose degree classes allow more than this many
#: automorphisms are skipped: the oracle enumerates them one by one
ORACLE_GROUP_BOUND = factorial(7)


def relabel(g: Graph, perm) -> Graph:
    """The graph with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n_vertices, [[int(perm[i]), int(perm[j])] for i, j in edge_list(g)])


def conjugated(autos, perm) -> list[tuple[int, ...]]:
    """perm p perm^-1 for each p, as sorted image tuples."""
    images = np.array([p.images for p in autos])
    out = np.empty_like(images)
    out[:, perm] = perm[images]
    return sorted(map(tuple, out.tolist()))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    _, sizes = np.unique(g.adjacency.sum(axis=1), return_counts=True)
    assume(prod(factorial(int(s)) for s in sizes) <= ORACLE_GROUP_BOUND)
    return g


@settings(max_examples=300)
@given(small_graphs())
def test_automorphisms_equal_the_oracle_on_random_graphs(g):
    assert automorphisms(g) == oracle.automorphisms(g)


@settings(max_examples=300)
@given(small_graphs())
def test_disjoint_pair_equals_the_oracle_on_random_graphs(g):
    assert find_disjoint_pair(g) == oracle.find_disjoint_pair(g)


@given(small_graphs(), st.randoms(use_true_random=False))
def test_relabeling_conjugates_the_group(g, rnd):
    perm = np.array(rnd.sample(range(g.n_vertices), g.n_vertices))
    h = relabel(g, perm)
    autos = automorphisms(g)
    assert [p.images for p in automorphisms(h)] == conjugated(autos, perm)
    assert (find_disjoint_pair(h) is None) == (find_disjoint_pair(g) is None)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["clebsch", "fq5"])
def test_relabeled_clebsch_and_fq5_keep_group_and_pair(name, seed, clebsch):
    g = clebsch if name == "clebsch" else folded_cube(5)
    autos = automorphisms(g)
    perm = np.random.default_rng(seed).permutation(g.n_vertices)
    h = relabel(g, perm)
    relabeled = automorphisms(h)
    assert len(relabeled) == len(autos) == 1920
    assert [p.images for p in relabeled] == conjugated(autos, perm)
    sigma, tau = find_disjoint_pair(h)
    assert is_automorphism(h, sigma) and is_automorphism(h, tau) and are_disjoint(sigma, tau)


def _cycle(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def _petersen() -> Graph:
    spokes = [[i, i + 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    return Graph.from_edges(10, _cycle(5) + spokes + inner)


def _hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [[v, v ^ (1 << k)] for v in range(1 << d) for k in range(d) if v < v ^ (1 << k)])


def _clebsch_and_c5() -> Graph:
    clebsch = folded_cube(5)
    return Graph(21, np.append(clebsch.rows, np.arange(16, 21)), np.append(clebsch.cols, 16 + (np.arange(1, 6) % 5)))


def _relabeled_clebsch(seed: int) -> Graph:
    return relabel(folded_cube(5), np.random.default_rng(seed).permutation(16))


#: graphs past the hypothesis strategy's 10 vertices, with their group orders
LARGER_GRAPHS = {
    "petersen": (_petersen, 120),
    "q4": (lambda: _hypercube(4), 384),
    "k44_fq4": (lambda: folded_cube(4), 1152),
    "c32": (lambda: Graph.from_edges(32, _cycle(32)), 64),
    "clebsch_and_c5": (_clebsch_and_c5, 19200),
    "clebsch_seed_11": (lambda: _relabeled_clebsch(11), 1920),
    "clebsch_seed_23": (lambda: _relabeled_clebsch(23), 1920),
    "clebsch_seed_57": (lambda: _relabeled_clebsch(57), 1920),
}


def test_sort_keys_order_64_point_rows_as_tuples():
    """Images of 32..63 need 6-bit digits: with 5 bits the digit 32 would
    carry into its neighbour and misorder the rows."""
    rng = np.random.default_rng(64)
    images = np.array([rng.permutation(64) for _ in range(300)])
    images[1::3, :40] = images[0, :40]  # long shared prefixes
    want = np.lexsort(images.T[::-1])
    assert np.array_equal(np.lexsort(graphs._sort_keys(images)[::-1]), want)
    assert len(graphs._sort_keys(images)) == 7


def test_sort_keys_order_the_images_of_c32():
    g = Graph.from_edges(32, _cycle(32))
    images = graphs._automorphism_images(g)
    assert [tuple(r) for r in images.tolist()] == sorted(tuple(r) for r in images.tolist())
    shuffled = images[np.random.default_rng(32).permutation(len(images))]
    assert np.array_equal(shuffled[np.lexsort(graphs._sort_keys(shuffled)[::-1])], images)
    assert len(graphs._sort_keys(images)) == 3


@pytest.mark.parametrize("name", sorted(LARGER_GRAPHS))
def test_group_and_pair_equal_the_oracle_on_larger_graphs(name):
    build, order = LARGER_GRAPHS[name]
    g = build()
    group = oracle.automorphisms(g)
    assert len(group) == order
    assert automorphisms(g) == group
    assert find_disjoint_pair(g) == oracle.find_disjoint_pair(g)


def test_fq4_is_k44():
    parity = np.array([bin(v).count("1") & 1 for v in range(8)])
    assert np.array_equal(folded_cube(4).adjacency, parity[:, None] != parity)


#: a rigid graph on 10 vertices: a search that skips the pairs inside the
#: forced tail accepts the non-automorphism (4, 9, 2, 8, 0, 5, 7, 6, 3, 1)
RIGID_EDGES = [[0, 1], [0, 4], [0, 5], [0, 7], [0, 8], [0, 9], [1, 2], [1, 3], [1, 4], [1, 6], [1, 9],
               [2, 3], [2, 5], [2, 6], [2, 7], [2, 9], [3, 4], [3, 6], [4, 5], [4, 6], [4, 9], [5, 7],
               [6, 8], [7, 8], [7, 9], [8, 9]]


def test_rigid_graph_has_the_identity_alone():
    g = Graph.from_edges(10, RIGID_EDGES)
    assert not is_automorphism(g, Permutation((4, 9, 2, 8, 0, 5, 7, 6, 3, 1)))
    assert automorphisms(g) == oracle.automorphisms(g) == [identity(10)]
    assert find_disjoint_pair(g) is None


def test_edgeless_graph_gives_every_permutation_in_order():
    # 8! = 40320 maps outgrow one block of the frontier
    g = Graph.from_edges(8, [])
    autos = automorphisms(g)
    assert len(autos) > graphs._SEARCH_BLOCK
    assert [p.images for p in autos] == list(permutations(range(8)))
    sigma, tau = find_disjoint_pair(g)
    # the first non-trivial permutation swaps 6 and 7; the first later one
    # that fixes both swaps 4 and 5
    assert sigma.images == (0, 1, 2, 3, 4, 5, 7, 6)
    assert tau.images == (0, 1, 2, 3, 5, 4, 6, 7)


#: C4 on 0..3, an edge 4-5, isolated 6 and 7, a path 8-9-10
DISCONNECTED_EDGES = [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [8, 9], [9, 10]]


def test_disconnected_graph_with_isolated_vertices_matches_the_oracle():
    g = Graph.from_edges(11, DISCONNECTED_EDGES)
    autos = automorphisms(g)
    assert len(autos) == 8 * 2 * 2 * 2
    assert autos == oracle.automorphisms(g)
    assert find_disjoint_pair(g) == oracle.find_disjoint_pair(g)


def test_small_blocks_give_the_same_group(monkeypatch, clebsch, clebsch_autos):
    monkeypatch.setattr(graphs, "_SEARCH_BLOCK", 3)
    assert automorphisms(clebsch) == clebsch_autos
    g = Graph.from_edges(11, DISCONNECTED_EDGES)
    assert automorphisms(g) == oracle.automorphisms(g)


def _set_bits_oracle(words):
    return sorted((i, b) for i, w in enumerate(words.tolist()) for b in range(64) if w >> b & 1)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_set_bits_finds_every_bit(words):
    words = np.array(words, dtype=np.uint64)
    rows, bits = graphs._set_bits(words)
    assert sorted(zip(rows.tolist(), bits.tolist())) == _set_bits_oracle(words)
    assert rows.dtype == bits.dtype == np.intp


def test_set_bits_on_full_and_empty_words():
    words = np.array([0, 2**64 - 1, 2**63, 1, 0], dtype=np.uint64)
    rows, bits = graphs._set_bits(words)
    assert sorted(zip(rows.tolist(), bits.tolist())) == _set_bits_oracle(words)
    assert len(rows) == 64 + 2


def test_search_bound_is_32_vertices():
    assert graphs.AUTOMORPHISM_VERTEX_BOUND == 32
    g = Graph.from_edges(33, [])
    with pytest.raises(CapacityError, match="33 > 32"):
        automorphisms(g)
    with pytest.raises(CapacityError, match="33 > 32"):
        find_disjoint_pair(g)
