import numpy as np
import pytest

from qsym import (
    CapacityError,
    DimensionError,
    Graph,
    GraphFormatError,
    Permutation,
    UsageError,
    are_disjoint,
    automorphisms,
    find_disjoint_pair,
    folded_cube,
    is_automorphism,
)
from qsym.fixtures import PENTAGONAL_SIGMA, PENTAGONAL_TAU


# ---------------------------------------------------------------------------
# Graph construction and JSON format
# ---------------------------------------------------------------------------


def test_from_edges_roundtrip(c5):
    assert c5.n_vertices == 5
    assert c5.edges() == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    again = Graph.from_json(c5.to_json())
    assert again == c5


def test_isolated_vertices_and_disconnection_allowed():
    g = Graph.from_edges(4, [[0, 1]])
    assert g.degrees().tolist() == [1, 1, 0, 0]


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


def test_bad_json_keys_rejected():
    with pytest.raises(GraphFormatError):
        Graph.from_json({"n": 3, "edges": [], "extra": 1})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        Graph.load(path)


def test_adjacency_validation():
    with pytest.raises(GraphFormatError):
        Graph(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(GraphFormatError):
        Graph(np.array([[1, 0], [0, 0]]))  # loop
    with pytest.raises(GraphFormatError):
        Graph(np.array([[0, 2], [2, 0]]))  # non 0/1


@pytest.mark.parametrize(
    "size, entry",
    [
        (300, (299, 3)),  # the last, partial row of tiles
        (300, (3, 299)),
        (4096, (0, 4095)),  # the top-right tile
        (4096, (300, 20)),  # an off-diagonal tile below the diagonal
    ],
)
def test_asymmetry_found_in_any_tile(size, entry):
    a = np.zeros((size, size), dtype=np.uint8)
    a[entry] = 1
    with pytest.raises(GraphFormatError, match="must be symmetric"):
        Graph(a)
    a[entry[::-1]] = 1
    assert Graph(a).n_vertices == size


def test_non_binary_entry_found_in_last_stripe():
    a = np.zeros((300, 300))
    a[299, 3] = a[3, 299] = 0.5
    with pytest.raises(GraphFormatError, match="0 or 1"):
        Graph(a)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def test_permutation_basics():
    p = Permutation.from_cycles(5, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3, 4)
    assert p.cycles() == [(0, 1, 2)]
    assert p.order() == 3
    assert p.support() == {0, 1, 2}
    assert p.inverse().compose(p).is_identity()
    assert Permutation.identity(4).order() == 1


def test_permutation_compose_order():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    # (p o q)(1) = p(q(1)) = p(2) = 2
    assert p.compose(q)(1) == 2


def test_permutation_matrix_convention():
    p = Permutation.from_cycles(3, [(0, 1, 2)])
    m = p.matrix()
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.array_equal(m @ e0, np.eye(3)[p(0)])


def test_permutation_validation():
    with pytest.raises(UsageError):
        Permutation((0, 0, 1))
    with pytest.raises(UsageError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])  # reuses 1


def test_permutation_order_is_lcm():
    p = Permutation.from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.order() == 6


# ---------------------------------------------------------------------------
# is_automorphism
# ---------------------------------------------------------------------------


def test_pentagonal_pair_are_automorphisms(clebsch_pentagonal):
    assert is_automorphism(clebsch_pentagonal, PENTAGONAL_SIGMA)
    assert is_automorphism(clebsch_pentagonal, PENTAGONAL_TAU)


def test_identity_is_automorphism(c5, k4, clebsch):
    for g in (c5, k4, clebsch):
        assert is_automorphism(g, Permutation.identity(g.n_vertices))


def test_adjacent_transposition_on_c5_is_not_automorphism(c5):
    p = Permutation.from_cycles(5, [(0, 1)])
    # direct adjacency oracle: permuted edge set differs
    edges = {frozenset(e) for e in c5.edges()}
    permuted = {frozenset((p(a), p(b))) for a, b in edges}
    assert permuted != edges
    assert not is_automorphism(c5, p)


def test_is_automorphism_size_mismatch(c5):
    with pytest.raises(DimensionError):
        is_automorphism(c5, Permutation.identity(4))


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
        assert p.inverse().images in group
        for q in autos:
            assert p.compose(q).images in group


def test_clebsch_group_closure_and_inverse(clebsch_autos):
    group = {p.images for p in clebsch_autos}
    arr = np.array([p.images for p in clebsch_autos], dtype=np.uint8)
    for p in clebsch_autos:
        assert p.inverse().images in group
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
    p = Permutation.from_cycles(4, [(0, 1)])
    assert not are_disjoint(p, p)


def test_transpositions_on_four_points_disjoint():
    p = Permutation.from_cycles(4, [(0, 1)])
    q = Permutation.from_cycles(4, [(2, 3)])
    assert are_disjoint(p, q)


def test_identity_vacuously_disjoint():
    p = Permutation.identity(4)
    q = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    assert are_disjoint(p, q)


def test_are_disjoint_size_mismatch():
    with pytest.raises(DimensionError):
        are_disjoint(Permutation.identity(3), Permutation.identity(4))


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
