"""The index-gather commutation kernel against the dense permutation-matrix
products of ``graph_oracle``: defects bit-equal, booleans equal."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from qsym import (
    Graph,
    Permutation,
    UsageError,
    abelian_points,
    classical_point_action,
    folded_cube,
    is_automorphism,
    preserves_eigenspaces,
)
from qsym import graphs, so_twist, spectral
from qsym.config import DEFAULT_TOLERANCES


def _images(perms) -> np.ndarray:
    return np.array([p.images for p in perms])


def _level_defects(n: int, images: np.ndarray) -> np.ndarray:
    """(levels, P) kernel defects, one scaled eigenprojection N E_k at a
    time, its integer defects divided by N."""
    scaled, size = spectral._scaled_projections(n)
    return np.array([graphs._permutation_defects(images, scaled[k : k + 1]) / size for k in range(len(scaled))])


def _assert_matches_oracle(n: int, perms) -> None:
    g = folded_cube(n)
    images = _images(perms)
    adjacency = graphs._adjacency_defects(g, images)
    eigen = spectral._eigenspace_defects(n, images)
    levels = _level_defects(n, images)
    for i, p in enumerate(perms):
        dense = oracle.eigenspace_defects(n, p)
        assert adjacency[i] == oracle.adjacency_defect(g, p)
        assert levels[:, i].tolist() == dense
        assert eigen[i] == max(dense)
        assert is_automorphism(g, p) == oracle.commutes_with_adjacency(g, p)
        assert preserves_eigenspaces(n, p) == (max(dense) <= DEFAULT_TOLERANCES.projector)


# ---------------------------------------------------------------------------
# whole groups: every defect is exactly 0, as in the dense products
# ---------------------------------------------------------------------------


def test_all_1920_fq5_point_actions_match_the_dense_oracle():
    points = abelian_points(5)
    images = so_twist._point_action_images(points)
    actions = [classical_point_action(sp) for sp in points]
    assert [p.images for p in actions] == list(map(tuple, images.tolist()))
    _assert_matches_oracle(5, actions)
    assert not graphs._adjacency_defects(folded_cube(5), images).any()
    assert not spectral._eigenspace_defects(5, images).any()


def test_all_1920_clebsch_automorphisms_match_the_dense_oracle(clebsch, clebsch_autos):
    # the bundled Clebsch labeling is FQ_5's
    assert clebsch == folded_cube(5)
    assert len(clebsch_autos) == 1920
    _assert_matches_oracle(5, clebsch_autos)


# ---------------------------------------------------------------------------
# random permutations: mostly non-automorphisms, with non-zero defects
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(1 << (n - 1))), min_size=1, max_size=4))))
def test_random_permutations_match_the_dense_oracle(case):
    n, rows = case
    _assert_matches_oracle(n, [Permutation(tuple(r)) for r in rows])


def test_random_permutations_on_fq7_are_mostly_rejected():
    rng = np.random.default_rng(7)
    perms = [Permutation(tuple(rng.permutation(64).tolist())) for _ in range(20)]
    _assert_matches_oracle(7, perms)
    assert not any(preserves_eigenspaces(7, p) for p in perms)
    assert not any(is_automorphism(folded_cube(7), p) for p in perms)


@st.composite
def graphs_and_permutations(draw):
    n = draw(st.integers(1, 12))
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    return g, [Permutation(tuple(p)) for p in perms]


@settings(max_examples=200)
@given(graphs_and_permutations())
def test_adjacency_defects_match_the_dense_oracle_on_random_graphs(case):
    g, perms = case
    defects = graphs._adjacency_defects(g, _images(perms))
    assert defects.tolist() == [oracle.adjacency_defect(g, p) for p in perms]
    assert [is_automorphism(g, p) for p in perms] == [oracle.commutes_with_adjacency(g, p) for p in perms]


# ---------------------------------------------------------------------------
# blocks, and the stacks the kernel reads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [1, 256 * 3 * 5, 1 << 20])
def test_gather_blocks_give_the_same_defects(monkeypatch, block):
    """One permutation per gather, five per gather, and all at once."""
    rng = np.random.default_rng(3)
    images = np.array([rng.permutation(16) for _ in range(12)] + [np.arange(16)])
    want = [max(oracle.eigenspace_defects(5, Permutation(tuple(r)))) for r in images.tolist()]
    monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
    assert spectral._eigenspace_defects(5, images).tolist() == want


def test_level_table_and_eigenprojections_are_read_only():
    """The cache holds one (levels, N) int16 table; each call's projections
    are its rows read at x ^ y, over N, in memory of their own."""
    table = spectral._level_table(5)
    assert table.shape == (3, 16) and table.dtype == np.int16 and not table.flags.writeable
    assert spectral._level_table(5) is table
    xor = np.arange(16)[:, None] ^ np.arange(16)
    for (k, proj), row in zip(spectral.eigenprojections(5), table):
        assert not proj.flags.writeable and not np.shares_memory(proj, table)
        assert np.array_equal(proj * 16, row[xor])


@pytest.mark.parametrize("n", [5, 7])
def test_eigenspace_defects_read_every_level(monkeypatch, n):
    """The projections sum to I and E_0 commutes with every permutation, so
    one level dropped changes no boolean; the stack passed must be whole:
    the int16 tables N E_k, summing to N I exactly."""
    seen = []
    real = spectral._permutation_defects
    monkeypatch.setattr(spectral, "_permutation_defects", lambda images, tables: seen.append(tables) or real(images, tables))
    spectral._eigenspace_defects(n, np.arange(1 << (n - 1))[None])
    (tables,) = seen
    levels = spectral.eigenprojections(n)
    size = 1 << (n - 1)
    assert tables.dtype == np.int16 and len(tables) == len(levels) == (n + 1) // 2
    assert all(np.array_equal(t, proj * size) for t, (_, proj) in zip(tables, levels))
    assert np.array_equal(tables.sum(axis=0), size * np.eye(size, dtype=int))


def test_one_non_bijective_row_fails_the_whole_stack():
    images = np.array([[0, 1, 2], [2, 0, 1], [0, 0, 2], [1, 2, 0]])
    with pytest.raises(UsageError, match=r"\(0, 0, 2\) is not a bijection"):
        graphs._bijections(images)
    good = images[[0, 1, 3]]
    assert graphs._bijections(good) is good


def test_point_actions_of_a_stack_are_checked_as_bijections(monkeypatch):
    """A map y -> c + Phi^T y that is not one-to-one is refused, not
    inverted, when the table of inverse linear parts is built: a fresh
    cache builds it from the corrupted bit table."""
    points = abelian_points(3)[:2]
    real = so_twist._word_bits(3)
    bits = real[0].copy()
    bits[1] = 0  # bit 1 of every word reads as zero: two words collide
    monkeypatch.setattr(so_twist, "_word_bits", lambda n: (bits, real[1]))
    monkeypatch.setattr(so_twist, "_linear_inverses", lru_cache(so_twist._linear_inverses.__wrapped__))
    with pytest.raises(UsageError, match="not a bijection"):
        so_twist._point_action_images(points)
    with pytest.raises(UsageError, match="not a bijection"):
        classical_point_action(points[1])
