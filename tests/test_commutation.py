"""The index-gather commutation kernel against the dense permutation-matrix
products of ``graph_oracle``: defects bit-equal, booleans equal."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
import spectral_oracle
from qsym import (
    Graph,
    Permutation,
    UsageError,
    abelian_points,
    classical_point_action,
    eigenprojections,
    folded_cube,
    is_automorphism,
    preserves_eigenspaces,
)
from qsym import graphs, so_twist, spectral
from qsym.config import DEFAULT_TOLERANCES


def _images(perms) -> np.ndarray:
    return np.array([p.images for p in perms])


def _level_defects(n: int, images: np.ndarray) -> np.ndarray:
    """(levels, P): max |E_k[p(x), p(y)] - E_k[x, y]| per row p of the
    image array, by index gathers of each projection of
    ``eigenprojections(n)``, level by level."""
    return np.array([np.abs(proj[images[:, :, None], images[:, None, :]] - proj).max(axis=(1, 2))
                     for _, proj in eigenprojections(n)])


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
        assert eigen[i] == spectral._eigenspace_defects(n, images[i]) == max(dense)
        assert is_automorphism(g, p) == oracle.commutes_with_adjacency(g, p)
        assert preserves_eigenspaces(n, p) == (max(dense) <= DEFAULT_TOLERANCES.projector)


# ---------------------------------------------------------------------------
# whole groups: every defect is exactly 0, as in the dense products
# ---------------------------------------------------------------------------


def test_all_1920_fq5_point_actions_match_the_dense_oracle():
    points = abelian_points(5)
    images = so_twist._point_action_images(*so_twist._abelian_point_rows(5))
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


@pytest.mark.parametrize("block", [1, 256 * 3 * 5, 256 * 8 * 5, 1 << 20])
def test_gather_blocks_give_the_same_defects(monkeypatch, block):
    """The eigenspace check gathers an eighth of the block: one d-row per
    gather, one permutation, five permutations and all at once; the
    adjacency gathers one permutation, 3840 // 256 = 15 and all at once."""
    rng = np.random.default_rng(3)
    images = np.array([rng.permutation(16) for _ in range(12)] + [np.arange(16)])
    perms = [Permutation(tuple(r)) for r in images.tolist()]
    want = [max(oracle.eigenspace_defects(5, p)) for p in perms]
    monkeypatch.setattr(spectral, "_GATHER_BLOCK", block)
    monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
    assert spectral._eigenspace_defects(5, images).tolist() == want
    g = folded_cube(5)
    assert graphs._adjacency_defects(g, images).tolist() == [oracle.adjacency_defect(g, p) for p in perms]


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
    """The class table is built from every row of the level table F: with
    row k tripled, the defects are the per-level oracle's with level k
    tripled, and some permutation's defect changes.  Row 0 is the constant
    all-ones row (E_0 = J / N commutes with every permutation), so no
    permutation can read it.  Zeroing a row would not tell: at n = 5 the
    rows 1 and 2 sum to -1 off d = 0, so their defects are always equal."""
    rng = np.random.default_rng(n)
    size = 1 << (n - 1)
    images = np.array([rng.permutation(size) for _ in range(20)] + [np.arange(size)])
    per_level = _level_defects(n, images)
    real = spectral._level_table(n)
    assert (real[0] == 1).all() and len(real) == (n + 1) // 2
    defects = spectral._eigenspace_defects(n, images)
    assert defects.tolist() == per_level.max(axis=0).tolist()
    for k in range(1, len(real)):
        table = real.copy()
        table[k] *= 3
        monkeypatch.setattr(spectral, "_level_table", lambda m: table)
        monkeypatch.setattr(spectral, "_class_table", lru_cache(spectral._class_table.__wrapped__))
        scaled = per_level.copy()
        scaled[k] *= 3
        tripled = spectral._eigenspace_defects(n, images)
        assert tripled.tolist() == scaled.max(axis=0).tolist()
        assert (tripled != defects).any()


# ---------------------------------------------------------------------------
# the per-n pair table of the eigenspace check
# ---------------------------------------------------------------------------


def _seeded_permutations(n: int, count: int) -> np.ndarray:
    """Seeded random permutations of FQ_n's vertices, and as many single
    transpositions where there are enough vertices."""
    rng = np.random.default_rng(n)
    size = 1 << (n - 1)
    rows = [rng.permutation(size) for _ in range(count)]
    for x, y in rng.choice(size, size=(count, 2), replace=False).tolist() if size > 2 * count else []:
        swap = np.arange(size)
        swap[[x, y]] = y, x
        rows.append(swap)
    return np.array(rows)


def test_the_fq5_point_actions_read_the_dense_oracles_defects_on_both_paths():
    images = so_twist._point_action_images(*so_twist._abelian_point_rows(5))
    want = spectral_oracle.eigenspace_defects(5, images).tolist()
    assert len(want) == 1920 and not any(want)
    assert spectral._eigenspace_defects(5, images).tolist() == want
    assert [spectral._eigenspace_defects(5, row) for row in images] == want


@pytest.mark.parametrize("n, count", [(3, 6), (5, 8), (7, 8), (9, 3)])
def test_seeded_permutations_read_the_dense_oracles_defects_on_both_paths(n, count):
    """Past n = 3 none of them is an automorphism; FQ_3 is K4, whose
    group is all of S_4, so there every defect is 0."""
    images = _seeded_permutations(n, count)
    want = spectral_oracle.eigenspace_defects(n, images).tolist()
    automorphic = graphs._adjacency_defects(folded_cube(n), images) == 0
    assert automorphic.all() if n == 3 else not automorphic.any()
    assert not any(want) if n == 3 else all(want)
    assert spectral._eigenspace_defects(n, images).tolist() == want
    assert [spectral._eigenspace_defects(n, row) for row in images] == want


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pair_table_is_read_only_int16_offsets_of_each_xor(n):
    size = 1 << (n - 1)
    table = spectral._pair_table(n)
    words = np.arange(size)
    assert table.dtype == np.int16 and table.shape == (size, size) and not table.flags.writeable
    assert np.array_equal(table, spectral._class_table(n)[0][words[:, None] ^ words])
    assert spectral._pair_table(n) is table
    assert table.nbytes == {3: 32, 5: 512, 7: 8 << 10, 9: 128 << 10}[n]


def test_no_pair_table_is_built_at_n11(monkeypatch):
    """Past n = 9, N^2 is over the gather bound, so the check reads its
    d-row blocks and never asks for an (N, N) table."""
    def refuse(n):
        raise AssertionError(f"pair table built at n = {n}")

    monkeypatch.setattr(spectral, "_pair_table", refuse)
    words = np.arange(1024)
    assert spectral._eigenspace_defects(11, words ^ 0b101_0110_011) == 0
    assert spectral._eigenspace_defects(11, np.random.default_rng(11).permutation(1024)) > 0
    with pytest.raises(AssertionError, match="n = 9"):
        spectral._eigenspace_defects(9, np.arange(256))


@pytest.mark.parametrize("n", [5, 9])
def test_a_pair_table_entry_off_by_n_fails_the_oracle(monkeypatch, n):
    """One entry T[x, y] raised by N reads the next distance class's gaps
    at (x, y), which are non-zero for every automorphism, so the point
    actions (n = 5) and a shift (n = 9) no longer read the oracle's 0."""
    size = 1 << (n - 1)
    real = spectral._pair_table(n)
    x, y = 1, 2
    assert real[x, y] + size < len(spectral._class_table(n)[1])
    planted = real.copy()
    planted[x, y] += size
    planted.setflags(write=False)
    if n == 5:
        images = so_twist._point_action_images(*so_twist._abelian_point_rows(5))
    else:
        images = np.arange(size)[None] ^ np.array([[0], [0b1011_0110]])
    want = spectral_oracle.eigenspace_defects(n, images).tolist()
    assert spectral._eigenspace_defects(n, images).tolist() == want
    monkeypatch.setattr(spectral, "_pair_table", lambda m: planted)
    assert spectral._eigenspace_defects(n, images).tolist() != want
    assert all(spectral._eigenspace_defects(n, row) > 0 for row in images)


def test_one_non_bijective_row_fails_the_whole_stack():
    images = np.array([[0, 1, 2], [2, 0, 1], [0, 0, 2], [1, 2, 0]])
    with pytest.raises(UsageError, match=r"\(0, 0, 2\) is not a bijection"):
        graphs._bijections(images)
    good = images[[0, 1, 3]]
    assert graphs._bijections(good) is good


def test_point_actions_of_a_stack_are_checked_as_bijections(monkeypatch):
    """A map x -> L(x) + L(c) that is not one-to-one is refused, not
    returned, on both paths, with the same error: here t_2 reads as t_1,
    so the rows built from the connecting words repeat a vertex."""
    perms, signs = so_twist._abelian_point_rows(3)
    point = abelian_points(3)[1]
    real = so_twist._connection_words
    monkeypatch.setattr(so_twist, "_connection_words", lambda n: real(n)[[0, 0, 2]])
    # a fresh cache of the one-point path's words, dropped with the patch
    monkeypatch.setattr(so_twist, "_connection_ints", lru_cache(so_twist._connection_ints.__wrapped__))
    with pytest.raises(UsageError, match="not a bijection") as many:
        so_twist._point_action_images(perms[1:2], signs[1:2])
    with pytest.raises(UsageError, match="not a bijection") as one:
        classical_point_action(point)
    assert str(one.value) == str(many.value)
    with pytest.raises(UsageError, match="not a bijection"):
        so_twist._point_action_images(perms[:2], signs[:2])
