from functools import lru_cache

import numpy as np
import pytest

from qsym import (
    DimensionError,
    Graph,
    MagicUnitary,
    Permutation,
    UsageError,
    build_witness,
    certify_witness,
    find_disjoint_pair,
    op_norm,
    recovery_products,
    rep_free_product,
)
from graph_oracle import PENTAGONAL_SIGMA, PENTAGONAL_TAU, from_cycles
from qsym import fixtures, folded_cube, star_algebra
from qsym.star_algebra import _byte_distinct, _distinct_entries, haar_unitary, spectral_projections
from witness_helpers import certify_witness_oracle, classical_witness, is_projection, unchecked_witness

#: regression: max ||[p_k, q_l]|| for the n=m=2, seed-42 model
SEED42_COMMUTATOR = 0.49988694811776474


# ---------------------------------------------------------------------------
# the free-product matrix model
# ---------------------------------------------------------------------------


def test_projections_resolve_identity():
    p, q = rep_free_product(2, 2, seed=0)
    eye = np.eye(4)
    assert op_norm(sum(p) - eye) <= 1e-12
    assert op_norm(sum(q) - eye) <= 1e-12
    assert all(is_projection(x, tol=1e-12) for x in p + q)


def test_spectral_projections_orthogonal_n4_m2():
    p, q = rep_free_product(4, 2, seed=5)
    for k in range(4):
        for kk in range(4):
            if k != kk:
                assert op_norm(p[k] @ p[kk]) <= 1e-12
    assert all(is_projection(x, tol=1e-12) for x in q)


def test_seed42_commutator_positive_and_pinned():
    p, q = rep_free_product(2, 2, seed=42)
    c = max(op_norm(a @ b - b @ a) for a in p for b in q)
    assert c > 0.01
    assert abs(c - SEED42_COMMUTATOR) <= 1e-9


def test_rep_free_product_rejects_order_one():
    with pytest.raises(UsageError):
        rep_free_product(1, 2)


def test_commuting_model_from_two_diagonals():
    # both spectral families diagonal: everything commutes
    n, m = 2, 2
    u = np.diag(np.repeat(np.exp(2j * np.pi * np.arange(1, n + 1) / n), m))
    v = np.diag(np.tile(np.exp(2j * np.pi * np.arange(1, m + 1) / m), n))
    p = spectral_projections(u, n)
    q = spectral_projections(v, m)
    assert max(op_norm(a @ b - b @ a) for a in p for b in q) <= 1e-12


# ---------------------------------------------------------------------------
# witness assembly
# ---------------------------------------------------------------------------


def test_k4_witness_matches_the_two_by_two_block_matrix(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(k4, sigma, tau, p, q, seed=42)
    eye = np.eye(4)
    pp, qq = p[1], q[1]  # identity-power projections: "p" and "q"
    assert np.allclose(u.entries[0, 0], pp) and np.allclose(u.entries[1, 1], pp)
    assert np.allclose(u.entries[0, 1], eye - pp) and np.allclose(u.entries[1, 0], eye - pp)
    assert np.allclose(u.entries[2, 2], qq) and np.allclose(u.entries[3, 3], qq)
    assert np.allclose(u.entries[2, 3], eye - qq) and np.allclose(u.entries[3, 2], eye - qq)
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]:
        assert np.allclose(u.entries[i, j], 0)
    # and p_1 really is 1 - p_2
    assert np.allclose(p[0], eye - p[1])


def test_clebsch_witness_is_block_diagonal_with_four_copies(clebsch_pentagonal):
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(
        clebsch_pentagonal, PENTAGONAL_SIGMA, PENTAGONAL_TAU, p, q, seed=42
    )
    eye = np.eye(4)
    pp, qq = p[1], q[1]
    block = {
        (0, 0): qq, (0, 3): eye - qq, (3, 0): eye - qq, (3, 3): qq,
        (1, 1): pp, (1, 2): eye - pp, (2, 1): eye - pp, (2, 2): pp,
    }
    for a in range(4):
        base = 4 * a
        for r in range(4):
            for c in range(4):
                expected = block.get((r, c), np.zeros((4, 4)))
                assert np.allclose(u.entries[base + r, base + c], expected)
        for b in range(4):
            if a != b:
                assert np.allclose(u.entries[base : base + 4, 4 * b : 4 * b + 4], 0)


def test_entry_is_identity_when_both_fix_the_vertex():
    # C5 + K2 + an isolated vertex: sigma rotates the cycle, tau swaps the
    # edge, vertex 7 is fixed by both
    g = Graph.from_edges(8, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 6]])
    sigma = from_cycles(8, [(0, 1, 2, 3, 4)])
    tau = from_cycles(8, [(5, 6)])
    p, q = rep_free_product(5, 2, seed=1)
    u = build_witness(g, sigma, tau, p, q)
    assert np.allclose(u.entries[7, 7], np.eye(10))
    for j in range(7):
        assert np.allclose(u.entries[7, j], 0)


def _cases():
    """(graph, sigma, tau, seed): the disjoint pairs of the k4, clebsch and
    clebsch_pentagonal fixtures, and the C5 + K2 graph with a fixed vertex,
    whose sigma has order 5."""
    g = Graph.from_edges(8, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 6]])
    yield g, from_cycles(8, [(0, 1, 2, 3, 4)]), from_cycles(8, [(5, 6)]), 1
    for name in ("k4", "clebsch", "clebsch_pentagonal"):
        graph = fixtures.load_graph(name)
        yield (graph, *find_disjoint_pair(graph), 7)


def test_witness_entries_equal_the_per_entry_loop_bit_for_bit():
    for g, sigma, tau, seed in _cases():
        p, q = rep_free_product(sigma.order(), tau.order(), seed=seed)
        u = build_witness(g, sigma, tau, p, q, seed=seed)
        want = unchecked_witness(sigma, tau, p, q)
        assert u.entries.tobytes() == want.entries.tobytes() and u.seed == seed


def test_commutation_defect_equals_the_dense_kron_product():
    """The stacked commutator against [u, A (x) 1] formed densely, as the
    block matrix of u times kron(A, 1), on witnesses with complex noise in
    every entry: a noise term of the form E_xy (x) H would give a partial
    transpose of the block matrix the same norm."""
    for g, sigma, tau, seed in _cases():
        p, q = rep_free_product(sigma.order(), tau.order(), seed=seed)
        u = build_witness(g, sigma, tau, p, q)
        rng = np.random.default_rng(seed)
        u.entries += 0.01 * (rng.standard_normal(u.entries.shape) + 1j * rng.standard_normal(u.entries.shape))
        r, d = u.r, u.dim
        flat = u.entries.transpose(0, 2, 1, 3).reshape(r * d, r * d)
        big = np.kron(g.adjacency.astype(float), np.eye(d))
        dense = op_norm(flat @ big - big @ flat)
        defect = certify_witness(g, u).commutation_defect
        assert defect > 0.01 and abs(defect - dense) <= 1e-12 * max(1.0, dense)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda s, t: (Permutation((0, 1, 2, 3)), t), "non-trivial"),
        (lambda s, t: (s, from_cycles(4, [(0, 2)])), "disjoint"),
    ],
)
def test_build_witness_hypothesis_errors(k4, mutate, message):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    bad_sigma, bad_tau = mutate(sigma, tau)
    with pytest.raises(UsageError, match=message):
        build_witness(k4, bad_sigma, bad_tau, p, q)


def test_build_witness_rejects_non_automorphism(c5):
    sigma = from_cycles(5, [(0, 1)])  # breaks C5 adjacency
    tau = from_cycles(5, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    with pytest.raises(UsageError, match="automorphism"):
        build_witness(c5, sigma, tau, p, q)


def test_build_witness_order_mismatch(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(3, 2, seed=42)
    with pytest.raises(UsageError, match="order"):
        build_witness(k4, sigma, tau, p, q)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_clebsch_witness(clebsch):
    sigma, tau = find_disjoint_pair(clebsch)
    p, q = rep_free_product(sigma.order(), tau.order(), seed=42)
    u = build_witness(clebsch, sigma, tau, p, q, seed=42)
    rep = certify_witness(clebsch, u)
    assert rep.passed
    assert rep.projection_defect <= 1e-10
    assert rep.rowsum_defect <= 1e-10
    assert rep.colsum_defect <= 1e-10
    assert rep.commutation_defect <= 1e-10
    assert rep.noncomm_certificate > 0.01
    assert rep.seed == 42
    js = rep.to_json()
    assert set(js) == {
        "projection_defect", "rowsum_defect", "colsum_defect",
        "commutation_defect", "noncomm_certificate", "seed", "tol",
        "certificate_floor", "pass",
    }


def test_witness_with_orders_5_and_2_certifies_end_to_end():
    # C5 + K2 + an isolated vertex: a 5-cycle and a transposition, so the
    # p_k are spectral projections of a unitary with complex eigenvalues
    g = Graph.from_edges(8, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 6]])
    sigma = from_cycles(8, [(0, 1, 2, 3, 4)])
    tau = from_cycles(8, [(5, 6)])
    p, q = rep_free_product(5, 2, seed=1)
    u = build_witness(g, sigma, tau, p, q, seed=1)
    rep = certify_witness(g, u)
    assert rep.passed
    assert max(rep.projection_defect, rep.rowsum_defect, rep.colsum_defect) <= 1e-10
    assert rep.commutation_defect <= 1e-10
    assert rep.noncomm_certificate > rep.certificate_floor == 0.01
    assert abs(rep.noncomm_certificate - 0.499) <= 1e-3
    recovered = recovery_products(u, sigma, tau, p, q)
    assert recovered.passed and recovered.max_residual <= 1e-10
    assert recovered.sigma_representatives == (0,) and recovered.tau_representatives == (5,)


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("cells", [((3, 1), (3, 2)), ((1, 3), (2, 3)), ((0, 0), (0, 1))])
def test_stacked_defects_equal_the_per_entry_loops(k4, cells, hermitian):
    # +h in one cell and -h in another of the same row (or column) leaves
    # that row (column) sum alone and moves two column (row) sums
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(k4, sigma, tau, p, q)
    h = 0.1 * np.triu(np.ones((4, 4)), 1)
    h = h + h.T if hermitian else h
    u.entries[cells[0]] += h
    u.entries[cells[1]] -= h
    eye = np.eye(4)
    projection = max(
        max(op_norm(e - e.conj().T), op_norm(e - e @ e)) for row in u.entries for e in row
    )
    rowsum = max(op_norm(u.entries[i].sum(axis=0) - eye) for i in range(4))
    colsum = max(op_norm(u.entries[:, j].sum(axis=0) - eye) for j in range(4))
    rep = certify_witness(k4, u)
    assert (rep.projection_defect, rep.rowsum_defect, rep.colsum_defect) == (projection, rowsum, colsum)
    assert projection > 0.01 and max(rowsum, colsum) > 0.01 and min(rowsum, colsum) < 1e-12
    assert not rep.passed


def test_classical_witness_passes_with_zero_certificate(k4):
    perm = from_cycles(4, [(0, 1, 2, 3)])
    u = classical_witness(k4, perm)
    rep = certify_witness(k4, u)
    assert rep.passed
    assert rep.noncomm_certificate == 0.0


def _distinct_entries_per_entry(u: MagicUnitary) -> list[np.ndarray]:
    """The entry-by-entry form: each entry rounded to 9 decimals on its own,
    with its signed zeros made +0.0."""
    out = {}
    for i in range(u.r):
        for j in range(u.r):
            out.setdefault((np.round(u.entries[i, j], 9) + 0.0).tobytes(), u.entries[i, j])
    return list(out.values())


def _same_entries(got, want) -> bool:
    return len(got) == len(want) and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_distinct_entries_equal_the_per_entry_loop_with_negative_zeros(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(k4, sigma, tau, p, q)
    entries = u.entries.copy()
    # four zero entries of u, each planted with negative zeros
    assert not entries[0, 2].any() and not entries[1, 3].any()
    assert not entries[2, 0].any() and not entries[3, 1].any()
    entries[0, 2] = -0.0  # -0.0 + 0j
    entries[1, 3] = complex(-0.0, -0.0)
    entries[2, 0] = -1e-12  # rounds to -0.0
    entries[3, 1, 0, 0] = complex(0.0, -1e-12)
    planted = MagicUnitary(entries)
    want = _distinct_entries_per_entry(planted)
    got = _distinct_entries(_byte_distinct(planted))
    assert _same_entries(got, want)
    # each -0.0 entry merges with its +0.0 twin: the planted entries add
    # no distinct entry, and the kept entries equal u's in value
    plain = _distinct_entries(_byte_distinct(u))
    assert len(got) == len(plain)
    assert all(np.array_equal(a, b) for a, b in zip(got, plain))
    assert certify_witness(k4, planted).noncomm_certificate == certify_witness(k4, u).noncomm_certificate


def test_distinct_entries_of_a_classical_witness(k4):
    u = classical_witness(k4, from_cycles(4, [(0, 1, 2, 3)]), dim=2)
    assert _same_entries(_distinct_entries(_byte_distinct(u)), _distinct_entries_per_entry(u))
    assert len(_byte_distinct(u)) == 2  # the identity and the zero block
    assert certify_witness(k4, u).noncomm_certificate == 0.0


# ---------------------------------------------------------------------------
# the certifier against the all-entries oracle
# ---------------------------------------------------------------------------


def _witness(g: Graph, seed: int) -> MagicUnitary:
    sigma, tau = find_disjoint_pair(g)
    p, q = rep_free_product(sigma.order(), tau.order(), seed=seed)
    return build_witness(g, sigma, tau, p, q, seed=seed)


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = np.random.default_rng(seed).permutation(g.n_vertices)
    return Graph(g.n_vertices, perm[g.rows], perm[g.cols])


def _perturbed(g: Graph) -> MagicUnitary:
    """A Clebsch witness with 1e-3 k added to the last diagonal cell of
    entry k = 1..256 (row-major): all 256 entries distinct, and each
    entry's first row left as it was."""
    u = _witness(g, 42)
    entries = u.entries.copy()
    entries[:, :, -1, -1] += 1e-3 * np.arange(1, u.r * u.r + 1).reshape(u.r, u.r)
    return MagicUnitary(entries, seed=u.seed)


def _certifier_cases():
    """(name, graph, witness): the fixtures with a pair and FQ_5 at three
    seeds, four seeded Clebsch relabelings, two classical witnesses (with
    one pair of distinct entries and with none) and a perturbed one."""
    graphs = {name: fixtures.load_graph(name) for name in ("k4", "clebsch", "clebsch_pentagonal")}
    graphs["fq5"] = folded_cube(5)
    cases = [(f"{name}-{seed}", g, _witness(g, seed)) for name, g in graphs.items() for seed in (1, 7, 42)]
    for seed in range(4):
        g = _relabeled(graphs["clebsch"], seed)
        cases.append((f"clebsch-relabeled-{seed}", g, _witness(g, seed)))
    cases.append(("classical-k4", graphs["k4"], classical_witness(graphs["k4"], from_cycles(4, [(0, 1, 2, 3)]))))
    single = Graph.from_edges(1, [])
    cases.append(("classical-one-vertex", single, classical_witness(single, Permutation((0,)), dim=3)))
    cases.append(("perturbed-clebsch", graphs["clebsch"], _perturbed(graphs["clebsch"])))
    return cases


CERTIFIER_CASES = _certifier_cases()


@lru_cache(maxsize=None)
def _oracle_fields(name: str) -> list:
    """The oracle's report of a case as its (key, value) list, computed
    once: the perturbed case's 32,640 pairs take about a second."""
    _, g, u = next(case for case in CERTIFIER_CASES if case[0] == name)
    return list(vars(certify_witness_oracle(g, u)).items())


def _mismatches(cases) -> list[str]:
    return [name for name, g, u in cases if list(vars(certify_witness(g, u)).items()) != _oracle_fields(name)]


@pytest.mark.parametrize("case", CERTIFIER_CASES, ids=[name for name, *_ in CERTIFIER_CASES])
def test_certifier_equals_the_all_entries_oracle(case):
    name, g, u = case
    assert list(vars(certify_witness(g, u)).items()) == _oracle_fields(name)


def test_certifier_cases_cover_their_shapes():
    cases = {name: (g, u) for name, g, u in CERTIFIER_CASES}
    for name in ("classical-k4", "classical-one-vertex"):
        assert certify_witness(*cases[name]).noncomm_certificate == 0.0
    assert len(_distinct_entries(_byte_distinct(cases["classical-k4"][1]))) == 2  # one pair
    assert len(_byte_distinct(cases["classical-one-vertex"][1])) == 1  # no pair
    assert len(_byte_distinct(cases["clebsch-42"][1])) < 16
    perturbed = cases["perturbed-clebsch"][1]
    assert len(_distinct_entries(_byte_distinct(perturbed))) == 256
    assert all(certify_witness(*cases[f"{name}-{seed}"]).passed
               for name in ("k4", "clebsch", "clebsch_pentagonal", "fq5") for seed in (1, 7, 42))


def test_a_dedupe_on_the_first_row_fails_the_oracle(monkeypatch):
    """The byte dedupe keys on the whole entry: keyed on its first d
    numbers, the perturbed witness's entries, which differ only in their
    last row, merge, and its defects fall short of the oracle's."""
    def first_row_only(u: MagicUnitary) -> np.ndarray:
        flat = u.entries.reshape(u.r * u.r, u.dim * u.dim)
        keys = np.ascontiguousarray(flat[:, : u.dim])
        first = np.unique(keys.view(np.dtype((np.void, keys.itemsize * u.dim))).ravel(), return_index=True)[1]
        return flat[np.sort(first)].reshape(-1, u.dim, u.dim)

    assert _mismatches(CERTIFIER_CASES) == []
    monkeypatch.setattr(star_algebra, "_byte_distinct", first_row_only)
    assert "perturbed-clebsch" in _mismatches(CERTIFIER_CASES)


@pytest.mark.parametrize("name, block", [("clebsch-42", 1), ("perturbed-clebsch", 16 * 1000),
                                         ("perturbed-clebsch", 1 << 18)])
def test_commutator_blocks_give_the_same_certificate(monkeypatch, name, block):
    """One commutator per ``op_norm`` (each 4 x 4 entry has 16 elements),
    a thousand, or the default block: the perturbed witness's 32,640
    pairs take 33 blocks and 2 blocks, and the certificate is the
    oracle's per-pair maximum each time."""
    _, g, u = next(case for case in CERTIFIER_CASES if case[0] == name)
    monkeypatch.setattr(star_algebra, "_PAIR_BLOCK", block)
    assert certify_witness(g, u).noncomm_certificate == dict(_oracle_fields(name))["noncomm_certificate"]


def test_non_disjoint_pair_fails_projection_test(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(0, 1), (2, 3)])  # overlaps sigma
    p, q = rep_free_product(2, 2, seed=42)
    with pytest.raises(UsageError, match="disjoint"):
        build_witness(k4, sigma, tau, p, q)
    u = unchecked_witness(sigma, tau, p, q)
    rep = certify_witness(k4, u)
    assert rep.projection_defect > 1e-10
    assert not rep.passed


def test_commuting_projections_give_zero_certificate(k4):
    n = m = 2
    u_diag = np.diag(np.repeat(np.exp(2j * np.pi * np.arange(1, n + 1) / n), m))
    v_diag = np.diag(np.tile(np.exp(2j * np.pi * np.arange(1, m + 1) / m), n))
    p = spectral_projections(u_diag, n)
    q = spectral_projections(v_diag, m)
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    u = build_witness(k4, sigma, tau, p, q)
    rep = certify_witness(k4, u)
    assert rep.passed
    assert rep.noncomm_certificate <= 1e-12


def test_functoriality_under_unitary_conjugation(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    w = haar_unitary(4, np.random.default_rng(123))
    p2 = [w @ x @ w.conj().T for x in p]
    q2 = [w @ x @ w.conj().T for x in q]
    u1 = build_witness(k4, sigma, tau, p, q)
    u2 = build_witness(k4, sigma, tau, p2, q2)
    for i in range(4):
        for j in range(4):
            conj = w @ u1.entries[i, j] @ w.conj().T
            assert np.allclose(conj, u2.entries[i, j], atol=1e-12)


def test_certify_dimension_mismatch(k4, c5):
    p, q = rep_free_product(2, 2, seed=42)
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    u = build_witness(k4, sigma, tau, p, q)
    with pytest.raises(DimensionError):
        certify_witness(c5, u)


def test_magic_unitary_shape_validation():
    with pytest.raises(DimensionError):
        MagicUnitary(np.zeros((2, 3, 4, 4)))
    with pytest.raises(DimensionError):
        MagicUnitary(np.zeros((2, 2, 4, 3)))


# ---------------------------------------------------------------------------
# recovery products
# ---------------------------------------------------------------------------


def test_k4_recovery_recovers_both_p_components(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(k4, sigma, tau, p, q)
    rep = recovery_products(u, sigma, tau, p, q)
    assert rep.passed and rep.max_residual <= 1e-10
    assert rep.sigma_representatives == (0,)
    assert rep.tau_representatives == (2,)
    # entry (0, sigma(0)) is p_1 = 1 - p_2, entry (0, 0) is p_2
    assert np.allclose(u.entries[0, 1], p[0])
    assert np.allclose(u.entries[0, 0], p[1])


def test_clebsch_recovery(clebsch_pentagonal):
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(clebsch_pentagonal, PENTAGONAL_SIGMA, PENTAGONAL_TAU, p, q)
    rep = recovery_products(u, PENTAGONAL_SIGMA, PENTAGONAL_TAU, p, q)
    assert rep.passed and rep.max_residual <= 1e-10
    assert rep.sigma_representatives == (1, 5, 9, 13)
    assert rep.tau_representatives == (0, 4, 8, 12)


def test_single_cycle_recovery_recovers_all_powers():
    # sigma a single 5-cycle: one representative recovers all five p_k
    g = Graph.from_edges(7, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 6]])
    sigma = from_cycles(7, [(0, 1, 2, 3, 4)])
    tau = from_cycles(7, [(5, 6)])
    p, q = rep_free_product(5, 2, seed=9)
    u = build_witness(g, sigma, tau, p, q)
    rep = recovery_products(u, sigma, tau, p, q)
    assert rep.passed and rep.max_residual <= 1e-10
    assert rep.sigma_representatives == (0,)
    for k in range(1, 6):
        val = u.entries[0, [1, 2, 3, 4, 0][k - 1]]  # sigma^k(0)
        assert op_norm(val - p[k - 1]) <= 1e-10


def test_recovery_requires_nontrivial_permutation(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    u = build_witness(k4, sigma, tau, p, q)
    with pytest.raises(UsageError):
        recovery_products(u, Permutation((0, 1, 2, 3)), tau, p, q)
