import json
import time
import tracemalloc
from itertools import permutations, product
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twist_oracle as oracle
from graph_oracle import compose, from_cycles
from qsym import (
    CapacityError,
    DimensionError,
    Permutation,
    SignedPermMatrix,
    UsageError,
    abelian_points,
    automorphisms,
    bicharacter,
    chain_sign,
    chain_signs,
    classical_point_action,
    folded_cube,
    lemma_P_check,
    lemma_SO_bruteforce,
    lemma_SO_mismatches,
    lemma_sumzero_check,
    preserves_eigenspaces,
    is_automorphism,
    twisted_relation_check,
)
from qsym import cli, so_twist
from twist_oracle import GradedMonomial, TwistedElement, twisted_chain, twisted_product


def diag_point(*signs):
    return SignedPermMatrix(Permutation(tuple(range(len(signs)))), signs)


def rows_of(points) -> tuple[np.ndarray, np.ndarray]:
    """The (P, n) ``perms`` and ``signs`` arrays of a list of points, as
    ``_point_action_images`` reads them."""
    return np.array([sp.perm.images for sp in points]), np.array([sp.signs for sp in points])


def point_of(m: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm images, signs) of a dense signed permutation matrix."""
    rows = np.abs(m).argmax(axis=0)
    return tuple(rows.tolist()), tuple(m[rows, np.arange(len(m))].tolist())


def matrix_stack(points):
    return np.stack([oracle.dense_matrix(sp) for sp in points])


def so_sides(sp):
    """For each j: (u_jn, the column expansion of u avoiding row j), from
    the dense oracle on the one-matrix stack."""
    m = oracle.dense_matrix(sp)
    rhs = oracle.dense_column_expansions(m[None])[:, 0]
    return [(int(m[j, sp.n - 1]), int(rhs[j])) for j in range(sp.n)]


# ---------------------------------------------------------------------------
# signed permutation matrices
# ---------------------------------------------------------------------------


def test_signed_perm_matrix_basics():
    sp = SignedPermMatrix(from_cycles(3, [(0, 1)]), (1, -1, 1))
    m = oracle.dense_matrix(sp)
    assert m.tolist() == [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    assert point_of(m) == (sp.perm.images, sp.signs)
    assert prod(sp.signs) == -1
    assert np.array_equal(m @ m.T, np.eye(3, dtype=np.int64))


def test_signed_perm_validation():
    with pytest.raises(UsageError):
        SignedPermMatrix(Permutation((0, 1)), (2, 1))
    with pytest.raises(DimensionError):
        SignedPermMatrix(Permutation((0, 1)), (1,))


@pytest.mark.parametrize("signs", [(True, -1), (1.0, -1), (-1.5, 1), ("1", "-1")])
def test_signs_must_be_integers(signs):
    """True is not read as +1, nor 1.0 or -1.5 truncated to an integer."""
    with pytest.raises(UsageError, match="signs must be integers"):
        SignedPermMatrix(Permutation((1, 0)), signs)


def test_numpy_integer_signs_are_kept_as_ints():
    sp = SignedPermMatrix(Permutation((1, 0)), tuple(np.array([1, -1], dtype=np.int8)))
    assert sp.signs == (1, -1) and all(type(s) is int for s in sp.signs)


# ---------------------------------------------------------------------------
# abelian points
# ---------------------------------------------------------------------------


def test_abelian_points_n3_count():
    assert len(so_twist._signed_perm_stack(3).matrices) == 48
    assert len(abelian_points(3)) == 24


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_is_an_abelian_point(n):
    pts = abelian_points(n)
    assert any(sp.perm.is_identity() and all(s == 1 for s in sp.signs) for sp in pts)


def test_diagonal_sign_patterns():
    pts = {(p.perm.images, p.signs) for p in abelian_points(3)}
    assert ((0, 1, 2), (-1, -1, 1)) in pts
    assert ((0, 1, 2), (-1, 1, 1)) not in pts


def test_abelian_points_form_a_group():
    # closed under dense matrix products and inverses (transposes)
    mats = matrix_stack(abelian_points(3))
    keys = {point_of(m) for m in mats}
    assert len(keys) == 24
    for a in mats:
        assert point_of(a.T) in keys
        for b in mats:
            assert point_of(a @ b) in keys


def test_all_signed_perms_satisfy_the_relations_under_the_trivial_table():
    mats = matrix_stack(oracle.loop_signed_perm_matrices(3))
    assert len(mats) == 48 and set(np.rint(np.linalg.det(mats)).tolist()) == {-1.0, 1.0}
    assert so_twist._relation_defects(mats, np.ones((3, 3), np.int8)) == (0.0, 0.0, 0.0, 0.0)


def test_relation_defects_detect_a_matrix_that_is_no_point():
    # row 1 has norm 2 and meets row 2 (7.2: 1), and u_11 u_12 = 1 breaks (7.3)
    assert so_twist._relation_defects(np.array([[[1, 1], [0, 1]]]), np.ones((2, 2), np.int8)) == (0.0, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_table_is_all_that_the_twist_changes(m):
    # special orthogonal samples break (7.3) under the trivial table, where
    # it reads u_ij u_ik = 0 (max |2 u_ij u_ik| is 1 at u_ij = u_ik = 2^-1/2),
    # and satisfy (7.1)-(7.4) under the bicharacter
    n = 2 * m + 1
    samples = so_twist._stack_samples(n, 2000, np.random.default_rng(m), negative=False)
    d71, d72, d73, d74 = so_twist._relation_defects(samples, np.ones((n, n), np.int8))
    assert d71 == d74 == 0.0 and d72 <= 1e-9 and 0.9 < d73 <= 1 + 1e-9
    assert max(so_twist._relation_defects(samples, bicharacter(m))) <= 1e-9


def test_the_relation_evaluator_makes_no_kernel_call(monkeypatch):
    # (7.2) is a running sum over k; the signed sums serve (7.5) and the lemmas
    def refuse(*args):
        raise AssertionError("_signed_sums called")

    monkeypatch.setattr(so_twist, "_signed_sums", refuse)
    assert len(abelian_points(5)) == 1920
    samples = so_twist._stack_samples(5, 20, np.random.default_rng(0), negative=False)
    assert max(so_twist._relation_defects(samples, bicharacter(2))) <= 1e-9


def _planted_stacks(m):
    """Seeded samples of n = 2m+1 with planted faults, as float64 (one
    entry moved, which breaks (7.2)-(7.4)), complex128 (a small imaginary
    part, (7.1)) and int8 (scaled and rounded)."""
    n = 2 * m + 1
    rng = np.random.default_rng(10 + m)
    floats = so_twist._stack_samples(n, 40, rng, negative=False)
    floats[3, 0, 1] += 0.25
    floats[7, n - 1, 0] = -0.0
    complexes = floats + 1e-3j * rng.standard_normal(floats.shape)
    return floats, complexes, np.rint(4 * floats).astype(np.int8)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_relation_defects_equal_the_strided_evaluator(m):
    # the samples-last evaluator returns the same four floats as the (S, n,
    # n) one that multiplies by T[k, k]; the flipped table breaks (7.4)
    n = 2 * m + 1
    tables = [bicharacter(m), np.ones((n, n), np.int8)] + ([oracle.flipped_bicharacter(m, 0, 1)] if m > 1 else [])
    seen = set()
    for stack in _planted_stacks(m):
        for table in tables:
            defects = so_twist._relation_defects(stack, table)
            assert defects == oracle.strided_relation_defects(stack, table)
            seen.update(name for name, d in zip(("7.1", "7.2", "7.3", "7.4"), defects) if d > 1e-6)
    assert seen == ({"7.1", "7.2", "7.3", "7.4"} if m > 1 else {"7.1", "7.2", "7.3"})


@pytest.mark.parametrize("m", [1, 2, 3])
def test_swapping_two_generators_costs_the_commutation_sign(m):
    # chain_signs((i,k),(j,l)) chain_signs((k,i),(l,j)) = (-1)^([i!=k] + [j!=l]):
    # the bicharacter turns u_ij u_kl = eps u_kl u_ij into commutativity, so
    # the coefficient of (7.3) and (7.4) vanishes on every index quadruple
    n = 2 * m + 1
    i, k, j, l = np.indices((n,) * 4).reshape(4, -1)
    ik, ki, jl, lj = (np.stack(pair, axis=-1) for pair in ((i, k), (k, i), (j, l), (l, j)))
    product = chain_signs(ik, jl, bicharacter(m)) * chain_signs(ki, lj, bicharacter(m))
    assert np.array_equal(product, (-1) ** ((i != k).astype(int) + (j != l)))


def test_capacity_bound():
    with pytest.raises(CapacityError):
        abelian_points(7)


# ---------------------------------------------------------------------------
# the determinant expansion equivalence
# ---------------------------------------------------------------------------


def test_equivalence_over_all_48_matrices():
    assert lemma_SO_bruteforce(3) is True


def test_identity_sides():
    sides = so_sides(diag_point(1, 1, 1))
    assert sides == [(0, 0), (0, 0), (1, 1)]


def test_negative_determinant_fails_at_the_nonzero_column():
    sp = diag_point(-1, 1, 1)  # d = -1
    sides = so_sides(sp)
    lhs, rhs = sides[2]  # the column of the nonzero entry in column n
    assert lhs == 1 and rhs == -1  # sign mismatch u_jn = -(product)
    assert all(l == r for l, r in sides[:2])


def test_bruteforce_capacity():
    with pytest.raises(CapacityError):
        lemma_SO_bruteforce(6)


@pytest.mark.parametrize("n", [2, 4])
def test_equivalence_other_sizes(n):
    assert lemma_SO_bruteforce(n) is True


def test_lemma_SO_sides_against_naive_oracle():
    # independent pure-python evaluation of the expansion side, for every
    # 3 x 3 signed permutation matrix at once through the dense oracle
    from itertools import permutations as iperm

    points = oracle.loop_signed_perm_matrices(3)
    got = oracle.dense_column_expansions(matrix_stack(points))
    assert got.shape == (3, 48)
    for s, sp in enumerate(points):
        m = oracle.dense_matrix(sp)
        for j in range(3):
            rhs = 0
            for rows in iperm([r for r in range(3) if r != j]):
                term = 1
                for col, row in enumerate(rows):
                    term *= int(m[row, col])
                rhs += term
            assert got[j, s] == rhs
        assert so_sides(sp) == [(int(m[j, 2]), int(got[j, s])) for j in range(3)]


# ---------------------------------------------------------------------------
# bicharacter
# ---------------------------------------------------------------------------


def test_bicharacter_m1_values():
    table = bicharacter(1)
    assert table.dtype == np.int8 and table.shape == (3, 3)
    assert table[0, 1] == -1
    assert all(table[i, i] == -1 for i in range(3))
    assert table[0, 2] == 1
    assert table[1, 2] == -1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bicharacter_antisymmetry(m):
    table = bicharacter(m)
    n = 2 * m + 1
    for i in range(n):
        for j in range(n):
            if i != j:
                assert table[i, j] * table[j, i] == -1
            else:
                assert table[i, i] == (-1) ** m


@pytest.mark.parametrize("m", range(1, 7))
def test_bicharacter_consistency(m):
    assert oracle.consistency_defect(bicharacter(m)) == 0


def test_bicharacter_consistency_defect_counts_a_changed_last_column():
    table = bicharacter(2).copy()
    table[0, 4] *= -1
    assert oracle.consistency_defect(table) == 1
    table[4, 1] *= -1
    assert oracle.consistency_defect(table) == 2


def test_bicharacter_column_product_identity():
    # the multiplicative extension row product equals the prescribed value
    for m in (1, 2, 3):
        table = bicharacter(m)
        for i in range(1, 2 * m + 1):
            assert int(table[i - 1, : 2 * m].prod()) == (-1) ** ((m - i) % 2)


def test_bicharacter_is_a_cached_read_only_table():
    table = bicharacter(3)
    assert bicharacter(3) is table and bicharacter(np.int64(3)) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_bicharacter_rejects_bad_m():
    # m is checked before the cache is read: an unhashable m is no TypeError
    for m in (0, -1, True, 1.0, "1", [1], None):
        with pytest.raises(UsageError):
            bicharacter(m)


# ---------------------------------------------------------------------------
# twisted product
# ---------------------------------------------------------------------------


def test_twisted_product_of_u12_u13():
    table = bicharacter(1)
    f = TwistedElement.generator(1, 2, 1)
    h = TwistedElement.generator(1, 3, 1)
    prod = twisted_product(f, h, table)
    mono = GradedMonomial.of(((1, 2), (1, 3)), 2)
    # sigma(t1,t1) sigma(t2,t3) = (-1)(-1) = +1
    assert prod.terms == {mono: 1}


def test_twisted_anticommutator_vanishes_symbolically():
    for m in (1, 2):
        table = bicharacter(m)
        n = 2 * m + 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if j == k:
                        continue
                    f = TwistedElement.generator(i, j, m)
                    h = TwistedElement.generator(i, k, m)
                    anti = twisted_product(f, h, table) + twisted_product(h, f, table)
                    assert anti.is_zero()


def test_twisted_commutator_vanishes_for_disjoint_indices():
    for m in (1, 2):
        table = bicharacter(m)
        n = 2 * m + 1
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i == k:
                    continue
                for j in range(1, n + 1):
                    for l in range(1, n + 1):
                        if j == l:
                            continue
                        f = TwistedElement.generator(i, j, m)
                        h = TwistedElement.generator(k, l, m)
                        comm = twisted_product(f, h, table) - twisted_product(h, f, table)
                        assert comm.is_zero()


def test_unit_element_is_neutral():
    table = bicharacter(2)
    f = TwistedElement.generator(2, 5, 2)
    one = TwistedElement.one(2)
    assert twisted_product(one, f, table) == f
    assert twisted_product(f, one, table) == f


def test_twisted_product_associative_on_random_triples():
    rng = np.random.default_rng(4)
    for m in (1, 2):
        table = bicharacter(m)
        n = 2 * m + 1
        for _ in range(50):
            gens = [
                TwistedElement.generator(
                    int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)), m
                )
                for _ in range(3)
            ]
            left = twisted_product(twisted_product(gens[0], gens[1], table), gens[2], table)
            right = twisted_product(gens[0], twisted_product(gens[1], gens[2], table), table)
            assert left == right


def test_chain_sign_matches_twisted_chain():
    rng = np.random.default_rng(6)
    for m in (1, 2):
        table = bicharacter(m)
        n = 2 * m + 1
        for _ in range(30):
            length = int(rng.integers(1, 6))
            pairs = tuple(
                (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                for _ in range(length)
            )
            elem = twisted_chain(pairs, table)
            assert len(elem.terms) == 1
            ((mono, coeff),) = elem.terms.items()
            assert coeff == chain_sign(pairs, table)
            assert mono == GradedMonomial.of(pairs, 2 * m)


def test_chain_sign_collapses_to_permutation_parity():
    from itertools import permutations as iperm

    def parity(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    for m in (1, 2):
        table = bicharacter(m)
        n = 2 * m + 1
        for sigma in iperm(range(1, n + 1)):
            pairs = tuple((sigma[a], a + 1) for a in range(n))
            assert chain_sign(pairs, table) == parity(sigma)


@st.composite
def chains(draw):
    """(m, pairs): a random generator chain of length 0..6 for m = 1, 2, 3."""
    m = draw(st.integers(1, 3))
    index = st.integers(1, 2 * m + 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=6))
    return m, tuple(pairs)


@given(chains())
def test_chain_signs_matches_loop_sign_and_symbolic_chain(chain):
    m, pairs = chain
    table = bicharacter(m)
    idx = np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1
    sign = int(chain_signs(idx[:, 0], idx[:, 1], table))
    assert sign == chain_sign(pairs, table) == oracle.loop_chain_sign(pairs, table)
    ((mono, coeff),) = twisted_chain(pairs, table).terms.items()
    assert coeff == sign


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chain_signs_batched_over_chains_of_length_3(m):
    # one batched call against the bit-loop sign of each chain: all of
    # them for m = 1, 2 and every 7th of the 7^6 for m = 3
    table = bicharacter(m)
    n = 2 * m + 1
    idx = np.array(list(product(range(n), repeat=6)), dtype=np.intp)[:: 7 if m == 3 else 1]
    signs = chain_signs(idx[:, :3], idx[:, 3:], table)
    assert signs.shape == (len(idx),)
    for (i1, i2, i3, j1, j2, j3), s in zip(idx.tolist(), signs.tolist()):
        pairs = ((i1 + 1, j1 + 1), (i2 + 1, j2 + 1), (i3 + 1, j3 + 1))
        assert s == oracle.loop_chain_sign(pairs, table)


def test_chain_signs_rejects_out_of_range_indices():
    table = bicharacter(1)
    with pytest.raises(UsageError):
        chain_signs([0, 3], [0, 0], table)
    with pytest.raises(UsageError):
        chain_sign(((0, 1),), table)


def test_graded_monomial_degrees():
    mono = GradedMonomial.of(((1, 3), (2, 3)), 2)
    assert mono.left_bits == 0b11  # t1 t2
    assert mono.right_bits == 0  # t3 t3 = e
    assert GradedMonomial.of(((3, 1),), 2).left_bits == 0b11  # t3 = t1 t2


def test_twisted_element_width_mismatch():
    table = bicharacter(1)
    with pytest.raises(DimensionError):
        twisted_product(
            TwistedElement.generator(1, 1, 1), TwistedElement.generator(1, 1, 2), table
        )


def test_twisted_element_evaluate():
    elem = TwistedElement.generator(1, 2, 1) + TwistedElement.generator(2, 1, 1)
    u = np.arange(9, dtype=float).reshape(3, 3)
    assert elem.evaluate(u) == u[0, 1] + u[1, 0]


# ---------------------------------------------------------------------------
# sampled orthogonal matrices
# ---------------------------------------------------------------------------


def test_samples_are_orthogonal_with_correct_determinant():
    rng = np.random.default_rng(0)
    for n in (3, 5):
        for negative, det in ((False, 1.0), (True, -1.0)):
            q = so_twist._stack_samples(n, 20, rng, negative)
            assert np.max(np.abs(q @ q.transpose(0, 2, 1) - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.det(q) - det)) <= 1e-12


def test_sampling_deterministic_given_seed():
    a = so_twist._stack_samples(5, 3, np.random.default_rng(42), negative=False)
    b = so_twist._stack_samples(5, 3, np.random.default_rng(42), negative=False)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("negative", [False, True])
def test_batched_samples_are_byte_identical_to_one_at_a_time(n, negative):
    batched = so_twist._stack_samples(n, 2000, np.random.default_rng(9), negative)
    rng = np.random.default_rng(9)
    one_by_one = np.stack([so_twist._stack_samples(n, 1, rng, negative)[0] for _ in range(2000)])
    reference = oracle.loop_stack_samples(n, 2000, np.random.default_rng(9), negative)
    assert batched.tobytes() == one_by_one.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# relation certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_twisted_relations_hold(m):
    reports = twisted_relation_check(m, n_samples=50, seed=42)
    assert [r.relation for r in reports] == ["7.1", "7.2", "7.3", "7.4", "7.5"]
    for r in reports:
        assert r.passed, (r.relation, r.max_defect)
        assert r.max_defect <= 1e-9
    control = reports[-1].control_det_negative_defect
    assert control <= 1e-9  # the determinant-(-1) control lands on -1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_twisted_relations_equal_the_per_tuple_loops(m):
    assert twisted_relation_check(m, n_samples=200, seed=5) == oracle.loop_twisted_relation_check(m, 200, seed=5)


def test_twisted_relations_reject_large_m():
    with pytest.raises(UsageError):
        twisted_relation_check(4)


# ---------------------------------------------------------------------------
# the vanishing sums
# ---------------------------------------------------------------------------


def test_sumzero_abelian_exact():
    rep = lemma_sumzero_check(3, "abelian")
    assert rep.passed
    assert rep.max_defect == 0.0
    assert rep.control_defect == 0.0
    assert rep.matrices == 48


def test_sumzero_twisted_sampled():
    rep = lemma_sumzero_check(3, "twisted", samples=50, seed=42)
    assert rep.passed
    assert rep.max_defect <= 1e-9
    assert rep.control_defect <= 1e-9


def test_sumzero_rejects_bad_model():
    with pytest.raises(UsageError):
        lemma_sumzero_check(3, "quantum")
    with pytest.raises(UsageError):
        lemma_sumzero_check(4, "twisted")
    with pytest.raises(CapacityError):
        lemma_sumzero_check(7, "abelian")


def test_sumzero_abelian_against_naive_oracle():
    # re-derive the sums for a few matrices with plain loops
    from itertools import permutations as iperm

    for sp in oracle.loop_signed_perm_matrices(3)[::11]:
        m = oracle.dense_matrix(sp)
        for k in range(3):
            total = 0
            for sigma in iperm(range(3)):
                term = int(m[sigma[0], 0]) * int(m[sigma[1], 1]) * int(m[sigma[2], k])
                total += term
            if k == 2:
                assert total == prod(sp.signs)
            else:
                assert total == 0


def test_twisted_orthogonality_via_full_symbolic_route():
    # dual route: assemble sum_k [u_ik] * [u_jk] with twisted_product and
    # evaluate it pointwise; must agree with the identity matrix target
    table = bicharacter(1)
    rng = np.random.default_rng(5)
    u = oracle.loop_special_orthogonal(3, rng)
    for i in range(1, 4):
        for j in range(1, 4):
            total = None
            for k in range(1, 4):
                term = twisted_product(
                    TwistedElement.generator(i, k, 1),
                    TwistedElement.generator(j, k, 1),
                    table,
                )
                total = term if total is None else total + term
            value = total.evaluate(u)
            target = 1.0 if i == j else 0.0
            assert abs(value - target) <= 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_lemma_P_abelian_exact_n3(l):
    rep = lemma_P_check(3, l, "abelian")
    assert rep.passed and rep.max_defect == 0.0


@pytest.mark.parametrize("l", [1, 2, 3])
def test_lemma_P_twisted_n3(l):
    rep = lemma_P_check(3, l, "twisted", samples=20, seed=42)
    assert rep.passed and rep.max_defect <= 1e-9


@pytest.mark.parametrize("l", [1, 2])
def test_lemma_P_twisted_n5(l):
    rep = lemma_P_check(5, l, "twisted", samples=5, seed=42)
    assert rep.passed and rep.max_defect <= 1e-9


@pytest.mark.parametrize(
    "n, model",
    [pytest.param(3, model, id=model) for model in ("abelian", "twisted")]
    + [pytest.param(5, model, id=f"n5-{model}") for model in ("abelian", "twisted")],
)
def test_sumzero_equals_the_per_tuple_loops(n, model):
    assert lemma_sumzero_check(n, model) == oracle.loop_lemma_sumzero_check(n, model)


@pytest.mark.parametrize(
    "n, l, model, samples",
    [pytest.param(3, l, model, 30, id=f"{l}-{model}") for l in (1, 2, 3) for model in ("abelian", "twisted")]
    + [
        pytest.param(n, l, model, samples, id=f"n{n}-{l}-{model}-samples{samples}")
        for n, l, model, samples in [
            (5, 1, "twisted", 20), (5, 2, "twisted", 20), (5, 3, "twisted", 20), (5, 4, "twisted", 5),
            (5, 1, "abelian", 20), (5, 3, "twisted", 1), (3, 2, "twisted", 1),
        ]
    ],
)
def test_lemma_P_equals_the_per_tuple_loops(n, l, model, samples):
    assert lemma_P_check(n, l, model, samples=samples, seed=8) == oracle.loop_lemma_P_check(
        n, l, model, samples=samples, seed=8
    )


def _relation_reports():
    """One report of every relation check, at sizes where a block of one
    sample stays quick."""
    reports = [*twisted_relation_check(1, n_samples=3, seed=4), *twisted_relation_check(2, n_samples=2, seed=4),
               *twisted_relation_check(3, n_samples=2, seed=4)]
    reports += [lemma_sumzero_check(n, "twisted", samples=3, seed=4) for n in (3, 5)]
    reports += [lemma_P_check(3, l, model, samples=3, seed=4) for l in (1, 2, 3) for model in ("abelian", "twisted")]
    reports += [lemma_P_check(5, l, "twisted", samples=2, seed=4) for l in (1, 2, 3, 4)]
    reports += [lemma_sumzero_check(n, "abelian") for n in (3, 4)]
    return reports + [lemma_SO_mismatches(3), lemma_SO_mismatches(4)]


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    # a block of one sample crosses every boundary
    expected = _relation_reports()
    monkeypatch.setattr(so_twist, "_SUM_BLOCK", 1)
    assert _relation_reports() == expected


def test_lemma_P_holds_one_block_of_samples_at_a_time(monkeypatch):
    # at (5, 5) a sample takes 7,320 float64 elements of slabs, prefix
    # buffers and bucket sums, so 200 samples in one block hold about
    # 11 MiB; a block of 2^17 elements is 1 MiB.  The rest, mostly the
    # 3,125 row tuples as lists, stays under 2 MiB
    block = 1 << 17
    monkeypatch.setattr(so_twist, "_SUM_BLOCK", block)
    tracemalloc.start()
    try:
        assert lemma_P_check(5, 5, "twisted", samples=200).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 << 20) + 3 * 8 * block


def test_kernel_adds_each_bucket_in_tuple_order():
    # one bucket, one column tuple, one sample: pairwise summation of these
    # 16 terms would give another float than the running sum
    column = np.array([1.0, 1e16, 1.0, -1e16] + [0.1, 3.0, -7.0, 1e-8] * 3)
    stack = np.zeros((1, 16, 16))
    stack[0, :, 0] = column
    rows, cols = np.arange(16)[:, None], np.zeros((1, 1), dtype=np.intp)
    ((_, sums),) = so_twist._signed_sums(stack, rows, cols, np.ones(16, np.int8), np.zeros((1, 16), int))
    running = 0.0
    for term in column:
        running += term
    assert running != float(np.add.reduce(column))
    assert sums.shape == (1, 1, 1, 1) and sums[0, 0, 0, 0] == running

    # two bucketings from the same pass, signed, one leaving tuples out
    signs = np.array([1, -1] * 8, np.int8)
    buckets = np.array([np.arange(16) % 2, np.where(np.arange(16) < 13, np.arange(16) % 3, -1)])
    ((_, sums),) = so_twist._signed_sums(stack, rows, cols, signs, buckets)
    expected = np.zeros((2, 3))
    for p, term in enumerate(signs * column):
        for t in range(2):
            if buckets[t, p] >= 0:
                expected[t, buckets[t, p]] += term
    assert sums.shape == (2, 3, 1, 1) and np.array_equal(sums[:, :, 0, 0], expected)


def _blocks(stack, rows, cols, signs, buckets):
    """The blocks of ``_signed_sums`` joined along the sample axis, each
    copied before the helper zeroes its buffer for the next block."""
    return np.concatenate([sums.copy() for _, sums in so_twist._signed_sums(stack, rows, cols, signs, buckets)],
                          axis=-1)


@pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("order", ["itertools", "shuffled", "repeated"])
@pytest.mark.parametrize("block", [1 << 19, 5000, 1])
def test_signed_sums_equal_the_unshared_loop_bit_for_bit(monkeypatch, l, order, block):
    # prefix sharing and the signed add or subtract change no bit of any
    # sum, in any row order, for rows of width 0 and 1, across blocks (at
    # 5000 elements l = 2 and 3 end on a shorter block)
    monkeypatch.setattr(so_twist, "_SUM_BLOCK", block)
    rng = np.random.default_rng(l)
    stack = so_twist._stack_samples(5, 23, rng, negative=False)
    rows = np.array(list(product(range(5), repeat=l)), dtype=np.intp).reshape(5**l, l)
    if order == "shuffled":
        rows = rows[rng.permutation(len(rows))]
    elif order == "repeated":
        rows = np.repeat(rows, rng.integers(1, 4, len(rows)), axis=0)
    cols = so_twist._permutations(5, l) if l else np.zeros((1, 0), np.intp)
    signs = rng.choice(np.array([1, -1], np.int8), len(rows))
    buckets = np.stack([rng.integers(-1, 4, len(rows)), rng.integers(0, 2, len(rows))])
    sums = _blocks(stack, rows, cols, signs, buckets)
    assert sums.tobytes() == oracle.unshared_signed_sums(stack, rows, cols, signs, buckets).tobytes()


def test_signed_sums_keep_the_cancellation_column_of_the_unshared_loop():
    # the column of test_kernel_adds_each_bucket_in_tuple_order, read by
    # rows of width 1 and 2 (each of width 2 repeats its first index), with
    # both signs: the running sums keep every cancellation of the loop
    column = np.array([1.0, 1e16, 1.0, -1e16] + [0.1, 3.0, -7.0, 1e-8] * 3)
    stack = np.zeros((2, 16, 16))
    stack[:, :, 0] = stack[:, :, 1] = column
    stack[1] *= -1
    for rows in (np.arange(16)[:, None], np.repeat(np.arange(16), 2).reshape(16, 2)):
        cols = np.arange(rows.shape[1])[None]
        for signs in (np.ones(16, np.int8), np.array([1, -1, -1, 1] * 4, np.int8)):
            buckets = np.array([np.zeros(16, int), np.arange(16) % 3])
            sums = _blocks(stack, rows, cols, signs, buckets)
            assert sums.tobytes() == oracle.unshared_signed_sums(stack, rows, cols, signs, buckets).tobytes()


def test_signed_sums_reuse_one_block_of_sums(monkeypatch):
    # at a 2^17-element block, twisted lemma P at (5, 5) takes 17 samples a
    # block; its bucket sums are 2 x 16 x 120 x 17 float64 (0.5 MiB).  200
    # samples peak above one block of samples by less than that: the sums
    # of a block are not alive beside the next block's
    block = 1 << 17
    monkeypatch.setattr(so_twist, "_SUM_BLOCK", block)
    step = block // ((2 * 16 + 5 * 5 + 4) * 120)
    assert step == 17

    def peak(samples):
        tracemalloc.start()
        try:
            assert lemma_P_check(5, 5, "twisted", samples=samples).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the caches of permutations and tables
    assert peak(200) - peak(step) < 2 * 16 * 120 * step * 8


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_chain_signs_split_into_row_and_column_signs(l):
    # chain_signs(J, I) = r(J) c(I): the kernel's sign rule, for every row
    # tuple J against every injective column tuple I at n = 5
    table = bicharacter(2)
    rows = np.array(list(product(range(5), repeat=l)))
    cols = so_twist._permutations(5, l)
    expected = so_twist._index_signs(rows, table)[:, None] * so_twist._index_signs(cols, table)[None, :]
    assert np.array_equal(chain_signs(rows[:, None], cols[None, :], table), expected)


def test_lemma_P_abelian_l1_has_no_repeated_tuple():
    # every 1-tuple is distinct, so the repeated-index sum is empty
    rep = lemma_P_check(5, 1, "abelian")
    assert rep.passed and rep.max_defect == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma_SO_mismatches_equal_the_per_tuple_loops(n):
    assert lemma_SO_mismatches(n) == oracle.loop_lemma_SO_mismatches(n) == 0


def test_lemma_SO_mismatches_counts_every_disagreement(monkeypatch):
    # negated expansions agree with u_jn exactly on the d = -1 matrices, so
    # all 48 matrices of n = 3 disagree with the determinant test
    oracle.negate_support_terms(monkeypatch)
    assert lemma_SO_mismatches(3) == 48
    assert lemma_SO_bruteforce(3) is False


# ---------------------------------------------------------------------------
# the abelian support terms against the dense oracle
# ---------------------------------------------------------------------------


def as_json(report):
    return json.dumps(report.to_json())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sumzero_abelian_equals_the_dense_oracle(n):
    assert as_json(lemma_sumzero_check(n, "abelian")) == as_json(oracle.dense_lemma_sumzero_check(n))


@pytest.mark.parametrize("n, l", [(3, l) for l in (1, 2, 3)] + [(5, l) for l in (1, 2, 3, 4)])
def test_lemma_P_abelian_equals_the_dense_oracle(n, l):
    assert as_json(lemma_P_check(n, l, "abelian")) == as_json(oracle.dense_lemma_P_check(n, l))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lemma_SO_mismatches_equal_the_dense_oracle(n):
    assert lemma_SO_mismatches(n) == oracle.dense_lemma_SO_mismatches(n) == 0


def plant(monkeypatch, n, perms=None, signs=None):
    stack = so_twist._signed_perm_stack(n)
    perms = stack.perms if perms is None else perms
    signs = stack.signs if signs is None else signs
    planted = oracle.planted_stack(n, perms, signs)
    monkeypatch.setattr(so_twist, "_signed_perm_stack", lambda size: planted)


@pytest.mark.parametrize("n", [3, 5])
def test_a_flipped_sign_vector_fails_like_the_dense_oracle(monkeypatch, n):
    # the matrices of sign vector 3 change their determinant, the stored
    # determinants do not: both routes must count the same disagreements
    signs = so_twist._signed_perm_stack(n).signs.copy()
    signs[3] *= -1
    plant(monkeypatch, n, signs=signs)
    mismatches = lemma_SO_mismatches(n)
    assert mismatches == oracle.dense_lemma_SO_mismatches(n) > 0
    report = lemma_sumzero_check(n, "abelian")
    assert as_json(report) == as_json(oracle.dense_lemma_sumzero_check(n))
    assert report.max_defect == 0.0 and report.control_defect == 2.0 and not report.passed


@pytest.mark.parametrize("n", [3, 5])
def test_a_collapsed_permutation_fails_like_the_dense_oracle(monkeypatch, n):
    # perms[1] sends columns 0 and 1 to one row: the column tuple (0, 1)
    # then meets a repeated row tuple, and lemma P sees its term
    perms = so_twist._signed_perm_stack(n).perms.copy()
    perms[1, 1] = perms[1, 0]
    plant(monkeypatch, n, perms=perms)
    for l in (2, 3):
        report = lemma_P_check(n, l, "abelian")
        assert as_json(report) == as_json(oracle.dense_lemma_P_check(n, l))
        assert report.max_defect == 1.0 and not report.passed
    assert as_json(lemma_sumzero_check(n, "abelian")) == as_json(oracle.dense_lemma_sumzero_check(n))


@pytest.mark.parametrize("n", [3, 5, 6])
def test_a_collapsed_permutation_fails_the_abelian_self_check(monkeypatch, capsys, n):
    # matrices of perms[1] put two entries in one row: no point, so (7.2) fails
    perms = so_twist._signed_perm_stack(n).perms.copy()
    perms[1, 1] = perms[1, 0]
    plant(monkeypatch, n, perms=perms)
    with pytest.raises(RuntimeError, match="violates the scalar relations"):
        abelian_points(n)
    if n % 2:
        assert cli.main(["so-points", "--n", str(n)]) == 3
        assert capsys.readouterr().out == ""


def test_lemma_P_abelian_n5_l5_is_fast():
    start = time.perf_counter()
    report = lemma_P_check(5, 5, "abelian")
    assert time.perf_counter() - start < 0.1
    assert report.passed and report.max_defect == 0.0


# ---------------------------------------------------------------------------
# pinned and planted twisted relation reports
# ---------------------------------------------------------------------------


#: (m, seed) -> max defects of 7.1-7.5 and the 7.5 control, at 2000 samples
PINNED_TWIST_DEFECTS = {
    (1, 7): (0.0, 1.1102230246251565e-15, 0.0, 0.0, 1.1102230246251565e-15, 8.881784197001252e-16),
    (1, 2024): (0.0, 1.1102230246251565e-15, 0.0, 0.0, 8.881784197001252e-16, 1.1102230246251565e-15),
    (2, 7): (0.0, 1.3322676295501878e-15, 0.0, 0.0, 1.7763568394002505e-15, 2.220446049250313e-15),
    (2, 2024): (0.0, 1.3322676295501878e-15, 0.0, 0.0, 1.7763568394002505e-15, 1.9984014443252818e-15),
}


@pytest.mark.parametrize("m, seed", sorted(PINNED_TWIST_DEFECTS))
def test_twisted_relation_reports_are_pinned(m, seed):
    *defects, control = PINNED_TWIST_DEFECTS[m, seed]
    base = {"tol": 1e-09, "pass": True, "m": m, "n": 2 * m + 1, "samples": 2000, "seed": seed}
    expected = [dict(relation=r, max_defect=d, **base) for r, d in zip(("7.1", "7.2", "7.3", "7.4", "7.5"), defects)]
    expected[-1]["control_det_negative_defect"] = control
    got = [r.to_json() for r in twisted_relation_check(m, 2000, seed)]
    assert json.dumps(got) == json.dumps(expected)


@pytest.mark.parametrize("m, a, b", [(1, 0, 1), (1, 1, 0), (2, 0, 3), (2, 1, 2), (2, 3, 1), (3, 0, 5), (3, 2, 4)])
def test_a_flipped_bicharacter_entry_fails_like_the_loops(monkeypatch, m, a, b):
    # an off-diagonal flip breaks the antisymmetry behind 7.3 and 7.4
    wrong = oracle.flipped_bicharacter(m, a, b)
    for module in (so_twist, oracle):
        monkeypatch.setattr(module, "bicharacter", lambda _m: wrong)
    reports = twisted_relation_check(m, n_samples=50, seed=3)
    assert [as_json(r) for r in reports] == [as_json(r) for r in oracle.loop_twisted_relation_check(m, 50, seed=3)]
    failed = {r.relation for r in reports if not r.passed}
    assert failed & {"7.3", "7.4"}


@pytest.mark.parametrize("m, a", [(1, 0), (1, 1), (2, 0), (2, 3), (3, 2), (3, 5)])
def test_a_flipped_bicharacter_diagonal_fails_like_the_loops(monkeypatch, m, a):
    # a diagonal flip keeps the off-diagonal antisymmetry, so 7.3 and 7.4
    # hold; only the row signs T[k, k] of the (7.2) running sum see it
    wrong = oracle.flipped_bicharacter(m, a, a)
    for module in (so_twist, oracle):
        monkeypatch.setattr(module, "bicharacter", lambda _m: wrong)
    reports = twisted_relation_check(m, n_samples=50, seed=3)
    assert [as_json(r) for r in reports] == [as_json(r) for r in oracle.loop_twisted_relation_check(m, 50, seed=3)]
    assert {r.relation for r in reports if not r.passed} == {"7.2"}


def test_lemma_P_twisted_n5_l5():
    rep = lemma_P_check(5, 5, "twisted", samples=20, seed=42)
    assert rep.passed and rep.max_defect <= 1e-9


def test_lemma_P_abelian_exact_n5_l3():
    rep = lemma_P_check(5, 3, "abelian")
    assert rep.passed and rep.max_defect == 0.0
    assert rep.matrices == 3840


def test_abelian_points_keep_the_enumeration_order():
    points = abelian_points(4)
    expected = [sp for sp in oracle.loop_signed_perm_matrices(4) if prod(sp.signs) == 1]
    assert points == expected
    every = oracle.loop_signed_perm_matrices(3)
    assert so_twist._stack_points(*rows_of(every)) == every


@pytest.mark.parametrize("n", [3, 5])
def test_the_point_rows_are_abelian_points_row_for_row(n):
    perms, signs = so_twist._abelian_point_rows(n)
    points = abelian_points(n)
    assert perms.shape == signs.shape == (len(points), n)
    assert [(sp.perm.images, sp.signs) for sp in points] == list(zip(map(tuple, perms.tolist()),
                                                                     map(tuple, signs.tolist())))
    # one Permutation per permutation, shared by its 2^(n-1) sign vectors
    assert len({id(sp.perm) for sp in points}) == len({sp.perm for sp in points}) == len(points) >> (n - 1)
    # and one tuple per sign vector, shared by its n! permutations
    assert len({id(sp.signs) for sp in points}) == len({sp.signs for sp in points}) == 1 << (n - 1)


def test_lemma_P_repeated_adjacent_subsum_vanishes():
    # sum_k u_{k i} u_{k j} = 0 for i != j is what kills repeated indices:
    # exact for signed permutation matrices, numeric on orthogonal samples
    for sp in oracle.loop_signed_perm_matrices(3)[:8]:
        m = oracle.dense_matrix(sp)
        assert int((m[:, 0] * m[:, 1]).sum()) == 0
    q = oracle.loop_special_orthogonal(5, np.random.default_rng(3))
    assert abs(float((q[:, 0] * q[:, 1]).sum())) <= 1e-12


def test_lemma_P_validation():
    with pytest.raises(UsageError):
        lemma_P_check(4, 1)
    with pytest.raises(UsageError):
        lemma_P_check(3, 0)
    with pytest.raises(UsageError):
        lemma_P_check(3, 4)


# ---------------------------------------------------------------------------
# classical point action
# ---------------------------------------------------------------------------


def test_identity_point_acts_as_identity():
    assert classical_point_action(diag_point(1, 1, 1)).is_identity()
    assert classical_point_action(diag_point(1, 1, 1, 1, 1)).is_identity()


def test_n3_points_biject_onto_aut_k4():
    pts = abelian_points(3)
    actions = [classical_point_action(sp) for sp in pts]
    images = {a.images for a in actions}
    assert len(images) == 24  # injective
    auto_images = {a.images for a in automorphisms(folded_cube(3))}
    assert images == auto_images


def test_action_is_a_group_homomorphism_n3():
    pts = abelian_points(3)
    action = {(sp.perm.images, sp.signs): classical_point_action(sp) for sp in pts}
    for a in pts:
        for b in pts:
            lhs = action[point_of(oracle.dense_matrix(a) @ oracle.dense_matrix(b))]
            rhs = compose(action[(a.perm.images, a.signs)], action[(b.perm.images, b.signs)])
            assert lhs.images == rhs.images


def test_negative_determinant_rejected():
    with pytest.raises(UsageError, match="determinant"):
        classical_point_action(diag_point(-1, 1, 1))


def test_even_n_rejected():
    with pytest.raises(UsageError):
        classical_point_action(diag_point(1, 1, 1, 1))


def test_point_actions_past_the_vertex_bound_are_a_capacity_error():
    with pytest.raises(CapacityError, match=r"folded 15-cube has 2\^14 > 4096 vertices"):
        classical_point_action(diag_point(*[1] * 15))


def test_point_action_errors_come_in_order_size_parity_bound_determinant():
    # a point's size is its permutation's (SignedPermMatrix checks the
    # signs against it), so one point's errors start at the parity
    with pytest.raises(UsageError, match="odd n"):
        classical_point_action(diag_point(-1, 1, 1, 1))
    with pytest.raises(CapacityError, match="2\\^14 > 4096 vertices"):
        classical_point_action(diag_point(-1, *[1] * 14))
    with pytest.raises(UsageError, match="determinant"):
        classical_point_action(diag_point(-1, 1, 1))


def test_both_point_action_paths_equal_the_inverse_table_on_every_n7_permutation():
    rng = np.random.default_rng(5040)
    points = []
    for perm in permutations(range(7)):
        signs = rng.choice((-1, 1), size=7)
        signs[-1] = signs[:-1].prod()  # quantum determinant one
        points.append(SignedPermMatrix(Permutation(perm), tuple(signs.tolist())))
    table = oracle.table_point_images(points)
    assert so_twist._point_action_images(*rows_of(points)).tolist() == table.tolist()
    assert [classical_point_action(sp).images for sp in points] == list(map(tuple, table.tolist()))


def test_n5_sample_points_act_on_clebsch():
    pts = abelian_points(5)[:48]
    for sp in pts:
        perm = classical_point_action(sp)
        assert is_automorphism(folded_cube(5), perm)
        assert preserves_eigenspaces(5, perm)


@pytest.mark.parametrize("n, count", [(3, 24), (5, 1920)])
def test_point_action_matches_the_fourier_oracle_on_every_point(n, count):
    pts = abelian_points(n)
    assert len(pts) == count
    for sp in pts:
        assert classical_point_action(sp) == oracle.fourier_point_action(sp)


def _seeded_points(n: int, count: int, seed: int) -> list[SignedPermMatrix]:
    """count points of SO_n^{-1} built directly: random permutations and
    signs, the last sign making the quantum determinant one."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        signs = rng.choice((-1, 1), size=n)
        signs[-1] = signs[:-1].prod()
        points.append(SignedPermMatrix(Permutation(tuple(rng.permutation(n).tolist())), tuple(signs.tolist())))
    return points


def test_one_point_and_the_array_path_give_the_same_actions_at_n7():
    points = _seeded_points(7, 300, 77)
    images = so_twist._point_action_images(*rows_of(points))
    assert [classical_point_action(sp).images for sp in points] == list(map(tuple, images.tolist()))


def test_point_action_matches_the_fourier_oracle_on_seeded_n7_points():
    rng = np.random.default_rng(7)
    cube = folded_cube(7)
    for _ in range(200):
        signs = rng.choice((-1, 1), size=7)
        signs[-1] = signs[:-1].prod()  # quantum determinant one
        sp = SignedPermMatrix(Permutation(tuple(rng.permutation(7).tolist())), tuple(signs.tolist()))
        action = classical_point_action(sp)
        assert action == oracle.fourier_point_action(sp)
        assert is_automorphism(cube, action)
        assert preserves_eigenspaces(7, action)


@pytest.mark.parametrize("n, count, checked", [(9, 60, 20), (11, 40, 6), (13, 20, 2)])
def test_point_actions_past_n7_are_automorphisms_on_both_paths(n, count, checked):
    points = _seeded_points(n, count, n)
    images = so_twist._point_action_images(*rows_of(points))
    actions = [classical_point_action(sp) for sp in points]
    assert [a.images for a in actions] == list(map(tuple, images.tolist()))
    cube = folded_cube(n)
    assert all(is_automorphism(cube, a) for a in actions)
    # one eigenspace check takes about 0.1 s at n = 13
    assert all(preserves_eigenspaces(n, a) for a in actions[:checked])


def test_point_action_matches_the_fourier_oracle_on_seeded_n9_points():
    for sp in _seeded_points(9, 12, 99):
        assert classical_point_action(sp) == oracle.fourier_point_action(sp)
