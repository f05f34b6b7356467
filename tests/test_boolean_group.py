import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsym import (
    CapacityError,
    DimensionError,
    Graph,
    GraphFormatError,
    UsageError,
    folded_cube,
    tau_generators,
    walsh_matrix,
)
from qsym import boolean_group
from qsym.boolean_group import walsh_rows
from walsh_oracle import walsh_transform


# ---------------------------------------------------------------------------
# words of Z_2^w are ints under XOR
# ---------------------------------------------------------------------------


def test_unary_laws_exhaustive_width_12():
    # identity and self-inverse over all 4096 elements, vectorized
    bits = np.arange(1 << 12)
    assert np.all(bits ^ bits == 0)
    assert np.all(bits ^ 0 == bits)


# ---------------------------------------------------------------------------
# folded cubes
# ---------------------------------------------------------------------------


def test_folded_3_cube_is_k4():
    g = folded_cube(3)
    expected = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
    assert np.array_equal(g.adjacency, expected)


def test_folded_5_cube_is_16_vertex_5_regular():
    g = folded_cube(5)
    assert g.n_vertices == 16
    assert set(g.adjacency.sum(axis=1).tolist()) == {5}


@pytest.mark.parametrize("n", range(3, 10))
def test_folded_cube_counts(n):
    g = folded_cube(n)
    assert g.n_vertices == 2 ** (n - 1)
    assert set(g.adjacency.sum(axis=1).tolist()) == {n}


def test_folded_cube_bounds():
    with pytest.raises(UsageError):
        folded_cube(1)
    assert folded_cube(13).n_vertices == 4096
    with pytest.raises(CapacityError):
        folded_cube(14)  # 8192 vertices > 4096


@pytest.mark.parametrize("n", range(3, 14))
def test_folded_cube_passes_each_edge_once(n):
    """n 2^(n-2) pairs, one per edge, each as (y, y ^ s) with y < y ^ s,
    and the graph of all 2 n 2^(n-2) shifted pairs (y, y ^ s)."""
    g = folded_cube(n)
    assert len(g.rows) == len(g.cols) == n * 2 ** (n - 2)
    assert (g.rows < g.cols).all()
    assert len(np.unique(g.rows.astype(np.int64) << 12 | g.cols)) == len(g.rows)
    words = np.arange(1 << (n - 1))
    shifted = words ^ boolean_group._connection_words(n)[:, None]
    assert g == Graph(1 << (n - 1), np.broadcast_to(words, shifted.shape), shifted)


def test_folded_cube_checks_its_shift_pairs(monkeypatch):
    words = boolean_group._connection_words
    monkeypatch.setattr(boolean_group, "_connection_words", lambda n: np.append(words(n), np.int32(0)))
    with pytest.raises(GraphFormatError, match="loops are not allowed"):
        folded_cube(5)


def distance_folded_cube(n: int) -> np.ndarray:
    """Oracle: words of width n-1 are adjacent iff they differ in exactly
    one position or are complementary (Hamming distance 1 or n-1)."""
    size = 1 << (n - 1)
    table = np.array([x.bit_count() for x in range(size)], dtype=np.int64)
    ii = np.arange(size)
    dist = table[ii[:, None] ^ ii[None, :]]
    return ((dist == 1) | (dist == n - 1)).astype(np.uint8)


@pytest.mark.parametrize("n", range(2, 13))
def test_cayley_matches_folded_cube(n):
    assert np.array_equal(folded_cube(n).adjacency, distance_folded_cube(n))


def test_cayley_neighbor_sets():
    n = 5
    g = folded_cube(n)
    width = n - 1
    gens = [1 << s for s in range(width)] + [(1 << width) - 1]
    for v in range(g.n_vertices):
        assert set(np.flatnonzero(g.adjacency[v]).tolist()) == {v ^ s for s in gens}


# ---------------------------------------------------------------------------
# Fourier pair: phi = walsh_transform / 2^w (point -> group), psi =
# walsh_transform (group -> point), each along the word axis
# ---------------------------------------------------------------------------


def _indicator(bits, width):
    e = np.zeros(1 << width)
    e[bits] = 1.0
    return e


def test_fourier_of_identity_indicator():
    for width in (1, 3, 4):
        f = walsh_transform(_indicator(0, width)) / (1 << width)
        assert np.array_equal(f, np.full(1 << width, 1.0 / (1 << width)))


def test_fourier_of_t1_indicator_width_2():
    f = walsh_transform(_indicator(0b01, 2)) / 4  # t_1
    # independent oracle: (1/4) sum_j (-1)^{i.j} with i = (1,0)
    oracle = np.array(
        [0.25 * (-1) ** ((0b01 & j).bit_count() & 1) for j in range(4)]
    )
    assert np.array_equal(f, oracle)
    assert np.array_equal(f, walsh_matrix(2)[1] / 4)
    assert np.array_equal(f, [0.25, -0.25, 0.25, -0.25])


def test_inverse_fourier_of_group_identity_is_all_ones():
    assert np.array_equal(walsh_transform(_indicator(0, 3)), np.ones(8))


def test_inverse_fourier_of_t1_is_sign_of_first_bit():
    width = 4
    out = walsh_transform(_indicator(0b0001, width))  # t_1
    expected = np.array([(-1) ** (j & 1) for j in range(1 << width)], dtype=float)
    assert np.array_equal(out, expected)
    assert np.array_equal(out, walsh_matrix(width)[1])


def test_round_trip_on_full_bases():
    # the transform of the identity is the whole Walsh matrix, one basis
    # vector per column; point -> group -> point and group -> point -> group
    # are both H H / 2^w
    for width in range(1, 7):
        h = walsh_transform(np.eye(1 << width), axis=0)
        assert np.array_equal(h, walsh_matrix(width))
        rt = walsh_transform(h, axis=0) / (1 << width)
        assert np.max(np.abs(rt - np.eye(1 << width))) <= 1e-12


def test_round_trip_100_random_vectors():
    rng = np.random.default_rng(7)
    for trial in range(100):
        width = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
        rt = walsh_transform(walsh_transform(coeffs) / (1 << width))
        assert np.max(np.abs(rt - coeffs)) <= 1e-12
        assert np.max(np.abs(walsh_transform(coeffs) - walsh_matrix(width) @ coeffs)) <= 1e-12 * (1 << width)


@given(width=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
def test_round_trip_property(width, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
    rt = walsh_transform(walsh_transform(coeffs) / (1 << width))
    assert np.max(np.abs(rt - coeffs)) <= 1e-12


def test_fourier_scaled_unitarity():
    rng = np.random.default_rng(11)
    width = 6
    v = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
    w = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
    fv = walsh_transform(v) / (1 << width)
    fw = walsh_transform(w) / (1 << width)
    lhs = np.vdot(fv, fw)
    rhs = np.vdot(v, w) / (1 << width)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_walsh_transform_requires_power_of_two():
    with pytest.raises(DimensionError):
        walsh_transform(np.ones(3))
    with pytest.raises(DimensionError):
        walsh_transform(np.ones((4, 6)), axis=1)
    with pytest.raises(DimensionError):
        walsh_transform(np.ones((6, 4)), axis=0)


@pytest.mark.parametrize("width", [0, 1, 3, 5])
def test_walsh_transform_axis_1_is_the_transpose_of_axis_0(width):
    x = np.random.default_rng(width).standard_normal((1 << width, 3 << width))
    assert np.array_equal(walsh_transform(x.T, axis=1), walsh_transform(x, axis=0).T)
    assert np.array_equal(walsh_transform(x.T, axis=-1), walsh_transform(x, axis=0).T)


@pytest.mark.parametrize("dtype, want", [(np.int8, np.float64), (np.float32, np.float64), (complex, complex)])
def test_walsh_transform_dtype_and_batch(dtype, want):
    x = np.random.default_rng(5).integers(-3, 4, size=(2, 8, 3)).astype(dtype)
    before = x.copy()
    got = walsh_transform(x, axis=1)
    assert got.dtype == want
    # each (i, :, k) fibre is one product with the Walsh matrix, exact on
    # these small integers
    assert np.array_equal(got, np.einsum("gh,ihk->igk", walsh_matrix(3).astype(want), x.astype(want)))
    assert np.array_equal(x, before)  # the transform works on a copy
    # inputs not in C order, along the first and the last axis: each stage
    # must write into the copy, not into a temporary made by reshape
    y = np.random.default_rng(6).integers(-3, 4, size=(8, 2, 8)).astype(dtype)
    permuted = np.ascontiguousarray(y.transpose(1, 2, 0)).transpose(2, 0, 1)
    h, yw = walsh_matrix(3).astype(want), y.astype(want)
    for axis, ref in ((0, np.einsum("gh,hik->gik", h, yw)), (2, np.einsum("gh,ikh->ikg", h, yw))):
        for z in (np.asfortranarray(y), permuted):
            assert np.array_equal(walsh_transform(z, axis=axis), ref)


@pytest.mark.parametrize("width", [0, 1, 4, 6])
def test_walsh_matrix_is_the_int8_character_table(width):
    h = walsh_matrix(width)
    assert h.dtype == np.int8
    for g in range(1 << width):
        for k in range(1 << width):
            assert h[g, k] == (-1) ** ((g & k).bit_count() & 1)


def _kron_walsh(width):
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(width):
        h = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int8), h)
    return h


@pytest.mark.parametrize("width", range(13))
def test_walsh_matrix_equals_the_kronecker_power(width):
    got = walsh_matrix(width)
    assert got.dtype == np.int8 and np.array_equal(got, _kron_walsh(width))


@given(st.integers(0, 10).flatmap(lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=20))))
def test_walsh_rows_are_rows_of_the_walsh_matrix(case):
    width, words = case
    got = walsh_rows(np.array(words, dtype=np.int64), width)
    assert got.dtype == np.int8 and got.shape == (len(words), 1 << width)
    assert np.array_equal(got, _kron_walsh(width)[words])


# ---------------------------------------------------------------------------
# tau generators
# ---------------------------------------------------------------------------


def test_tau_generators_n3():
    t1, t2, t3 = tau_generators(3)
    assert t1 == 0b10  # t_2
    assert t2 == 0b01  # t_1
    assert t3 == 0b11  # t_1 t_2


def test_tau_product_identity_n5():
    taus = tau_generators(5)
    prod = 0
    for t in taus[:-1]:
        prod ^= t
    assert prod == taus[-1]  # each t_k appears 3 times across tau_1..tau_4


@pytest.mark.parametrize("n", [3, 7, 9, 13])
def test_tau_product_identity_up_to_the_bound(n):
    # tau_n = tau_1 ... tau_{n-1}: each t_k appears n - 2 times, an odd count
    taus = tau_generators(n)
    prod = 0
    for t in taus[:-1]:
        prod ^= t
    assert prod == taus[-1] == (1 << (n - 1)) - 1


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_tau_generators_span(n):
    # GF(2) rank of the exponent matrix must be n-1
    rows = list(tau_generators(n))
    rank = 0
    for col in range(n - 1):
        pivot = next((i for i, r in enumerate(rows) if (r >> col) & 1), None)
        if pivot is None:
            continue
        rank += 1
        pivot_row = rows.pop(pivot)
        rows = [r ^ pivot_row if (r >> col) & 1 else r for r in rows]
    assert rank == n - 1


def test_tau_generators_involutive_and_commuting():
    # Z_2^4 is abelian of exponent two, so each tau is an involution as long
    # as it is a non-identity word of width 4; the five are distinct
    taus = tau_generators(5)
    assert all(isinstance(t, int) and 0 < t < 16 for t in taus)
    assert len(set(taus)) == 5


def test_tau_generators_reject_even_n():
    with pytest.raises(UsageError):
        tau_generators(4)
    with pytest.raises(UsageError):
        tau_generators(1)
