import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from graph_oracle import dense_graph
import spectral_oracle
import qsym.spectral
from qsym import (
    CapacityError,
    DimensionError,
    Graph,
    Permutation,
    UsageError,
    eigenprojections,
    folded_cube,
    preserves_eigenspaces,
    verify_spectrum,
)
from qsym.cli import main
from walsh_oracle import walsh_transform
from spectral_oracle import eigen_data, eigenvalue_of_bits


# ---------------------------------------------------------------------------
# the eigenvalue formula
# ---------------------------------------------------------------------------


def test_all_zero_word_gives_degree():
    assert eigenvalue_of_bits(0b0000, 5) == 5


def test_length_two_word_n5():
    assert eigenvalue_of_bits(0b0011, 5) == 1  # -1-1+1+1 +1


def test_length_one_word_n5():
    # length 1 = k-1 for level k=2, eigenvalue 5 - 4 = 1
    assert eigenvalue_of_bits(0b0001, 5) == 1


def test_eigenvalue_width_mismatch():
    with pytest.raises(DimensionError):
        eigenvalue_of_bits(0b10000, 5)  # a word of width 5, not 4


def test_eigenvalue_against_direct_sum_formula():
    n = 7
    for w in range(1 << (n - 1)):
        exps = [(w >> s) & 1 for s in range(n - 1)]
        direct = sum((-1) ** e for e in exps) + (-1) ** (sum(exps) % 2)
        assert eigenvalue_of_bits(w, n) == direct


# ---------------------------------------------------------------------------
# eigen_data level structure
# ---------------------------------------------------------------------------


def test_eigen_data_n5():
    assert eigen_data(5).multiplicities() == {5: 1, 1: 10, -3: 5}


def test_eigen_data_n3_is_k4_spectrum():
    assert eigen_data(3).multiplicities() == {3: 1, -1: 3}


def test_eigen_data_n7():
    assert eigen_data(7).multiplicities() == {7: 1, 3: 21, -1: 35, -5: 7}


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_level_structure(n):
    data = eigen_data(n)
    seen = set()
    total = 0
    for lvl in data.levels:
        assert lvl.k % 2 == 0 and 0 <= lvl.k <= n
        assert lvl.eigenvalue == n - 2 * lvl.k
        assert lvl.multiplicity == comb(n, lvl.k)
        lower = comb(n - 1, lvl.k - 1) if lvl.k >= 1 else 0
        assert lvl.multiplicity == comb(n - 1, lvl.k) + lower
        for w in lvl.basis:
            assert w.bit_count() in (lvl.k, lvl.k - 1)
            assert w not in seen
            seen.add(w)
        total += lvl.multiplicity
    assert total == 1 << (n - 1)
    # distinct levels have distinct eigenvalues
    lams = [lvl.eigenvalue for lvl in data.levels]
    assert len(set(lams)) == len(lams)


def test_eigen_data_rejects_even_n():
    with pytest.raises(UsageError):
        eigen_data(4)


# ---------------------------------------------------------------------------
# numeric verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7])
def test_verify_spectrum_small(n):
    rep = verify_spectrum(n)
    assert rep.passed
    assert rep.max_residual <= 1e-9
    assert rep.numeric_match


def test_verify_spectrum_n9_fast():
    t0 = time.time()
    rep = verify_spectrum(9)
    elapsed = time.time() - t0
    assert rep.passed and rep.max_residual <= 1e-9
    assert sum(lvl["multiplicity"] for lvl in rep.levels) == 256
    assert elapsed < 1.0


def test_verify_spectrum_even_n_still_matches_numerics():
    rep = verify_spectrum(4)
    assert rep.numeric_match and rep.max_residual <= 1e-9


def dense_spectrum_report(n, g, tol=1e-9):
    """Reference report for graph g in place of FQ_n: float64 dense residual
    A H - H diag(lambda) and eigvalsh."""
    width = n - 1
    a = g.adjacency.astype(float)
    h = np.array([[1.0]])
    for _ in range(width):
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    lams = np.array([eigenvalue_of_bits(w, n) for w in range(1 << width)])
    per_word = np.abs(a @ h - h * lams[None, :]).max(axis=0)
    numeric = np.sort(np.linalg.eigvalsh(a))
    numeric_match = bool(np.max(np.abs(numeric - np.sort(lams.astype(float)))) <= tol)
    levels = []
    for lam in sorted(set(lams.tolist()), reverse=True):
        mask = lams == lam
        levels.append(
            {
                "k": (n - lam) // 2,
                "lambda": int(lam),
                "multiplicity": int(mask.sum()),
                "max_residual": float(per_word[mask].max()),
            }
        )
    max_residual = float(per_word.max())
    return {
        "n": n,
        "levels": levels,
        "numeric_match": numeric_match,
        "max_residual": max_residual,
        "tol": tol,
        "pass": numeric_match and max_residual <= tol,
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9, 11])
def test_verify_spectrum_matches_dense_oracle(n):
    got = verify_spectrum(n).to_json()
    want = dense_spectrum_report(n, folded_cube(n))
    assert got["levels"] == want["levels"]
    assert got == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_spectrum_rejects_n_below_3(n):
    with pytest.raises(UsageError, match="n >= 3"):
        verify_spectrum(n)


def _fq7_edge_removed():
    a = np.array(folded_cube(7).adjacency)
    a[0, 1] = a[1, 0] = 0
    return dense_graph(a)


def _fq7_edges_swapped(v=0, u=1):
    """FQ_7 with edges {v, u}, {x, y} replaced by {v, y}, {x, u}, with x and
    y other than 0: still 7-regular."""
    a = np.array(folded_cube(7).adjacency)
    assert a[v, u]
    for x, y in zip(*np.nonzero(a)):
        if 0 not in (x, y) and len({v, u, x, y}) == 4 and not a[v, y] and not a[x, u]:
            break
    a[v, u] = a[u, v] = a[x, y] = a[y, x] = 0
    a[v, y] = a[y, v] = a[x, u] = a[u, x] = 1
    return dense_graph(a)


def _assert_internal_error(monkeypatch, capsys, n, g):
    """g, in place of FQ_n, fails the certificate: verify_spectrum raises
    RuntimeError, ``spectra`` exits 3 with no report, and g's dense
    adjacency is never written."""
    assert qsym.spectral._connection_set(g) is None
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: g)
    with pytest.raises(RuntimeError, match=rf"folded_cube\({n}\) is not a Cayley graph"):
        verify_spectrum(n)
    assert main(["spectra", "--n", str(n)]) == 3
    assert capsys.readouterr().out == ""
    assert "adjacency" not in vars(g)


@pytest.mark.parametrize(
    "corrupt, regular", [(_fq7_edge_removed, False), (_fq7_edges_swapped, True)]
)
def test_corrupted_adjacency_fails(monkeypatch, capsys, corrupt, regular):
    bad = corrupt()
    degrees = np.bincount(np.r_[bad.rows, bad.cols], minlength=bad.n_vertices)
    assert (len(set(degrees.tolist())) == 1) == regular
    _assert_internal_error(monkeypatch, capsys, 7, bad)


def test_residual_exact_at_high_degree(monkeypatch):
    """K_1024 in place of FQ_11: the constant character psi(T_e) has residual 1023 - 11."""
    complete = dense_graph(1 - np.eye(1024, dtype=np.uint8))
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: complete)
    rep = verify_spectrum(11)
    assert rep.to_json() == dense_spectrum_report(11, complete)
    assert rep.max_residual == 1023 - 11


# ---------------------------------------------------------------------------
# the residual from S, against the row-by-row oracle
# ---------------------------------------------------------------------------


def _closed_form_lams(n):
    return np.array([eigenvalue_of_bits(w, n) for w in range(1 << (n - 1))])


def _row_classes(adjacency):
    """The distinct XOR-difference sets {v ^ u : u ~ v} of the rows v, each
    an intp word array.  chi_w(v ^ s) = chi_w(s) chi_w(v), so the residual
    at row v is ``_max_residuals`` of v's set: any graph's residual is the
    largest over its classes, and a Cayley graph has the one class S."""
    sets = {tuple(np.sort(np.flatnonzero(row) ^ v).tolist()) for v, row in enumerate(adjacency)}
    return [np.array(s, dtype=np.intp) for s in sorted(sets)]


def _assert_residuals_equal_the_oracle(g, lams):
    """The residual over g's row classes against the row-by-row oracle on
    g's adjacency; g certifies exactly when it has one class, and then
    that class is its connection set.  Returns whether g certifies."""
    connection = qsym.spectral._connection_set(g)
    classes = _row_classes(g.adjacency)
    assert (connection is not None) == (len(classes) == 1)
    if connection is not None:
        assert classes[0].tolist() == connection.tolist()
    got = np.max([qsym.spectral._max_residuals(c, lams) for c in classes], axis=0)
    assert np.array_equal(got, spectral_oracle.max_residuals(g.adjacency, lams))
    return connection is not None


def _even_words(n, count):
    """The first ``count`` non-zero words of width n - 1 and even popcount."""
    return [u for u in range(1, 1 << (n - 1)) if bin(u).count("1") % 2 == 0][:count]


def _even_word_cayley(n, degree):
    """Cay(Z_2^(n-1), S), S = ``_even_words(n, degree)``.  The all-ones
    word w has psi_w(s) = (-1)^|s| = 1 on S and lambda_w = -n (n even) or
    -(n - 2) (n odd), so its residual is degree + |lambda_w|, the largest
    of all words."""
    return _cayley_graph(n - 1, _even_words(n, degree))


# (n, degree, largest residual): the oracle's int8 accumulator holds
# exactly when degree + max |lambda| <= 127; at 1024 vertices max |lambda|
# = 11 comes only from the all-zero word, whose residual is degree - 11,
# so 127 itself is reached at 512 vertices
_DTYPE_BOUNDARY_CASES = [
    pytest.param(10, 117, 117 + 10, id="512-residual-127-int8"),
    pytest.param(11, 116, 116 + 9, id="1024-bound-127-int8"),
    pytest.param(11, 119, 119 + 9, id="1024-residual-128-int16"),
]


@pytest.mark.parametrize("n, degree, residual", _DTYPE_BOUNDARY_CASES)
def test_residual_exact_at_the_int8_boundary(monkeypatch, n, degree, residual):
    g = _even_word_cayley(n, degree)
    assert _assert_residuals_equal_the_oracle(g, _closed_form_lams(n))
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: g)
    rep = verify_spectrum(n)
    assert rep.max_residual == residual
    assert rep.to_json() == dense_spectrum_report(n, g)


@pytest.mark.parametrize("n", range(3, 14))
def test_folded_cube_has_one_difference_set(n):
    """FQ_n certifies as a Cayley graph with S its n connecting words, the
    one XOR-difference set u ^ v of its edges."""
    generators = [1 << s for s in range(n - 1)] + [(1 << (n - 1)) - 1]
    assert qsym.spectral._connection_set(folded_cube(n)).tolist() == sorted(generators)


@pytest.mark.parametrize("n", range(3, 14))
def test_residual_classes_equal_the_row_oracle_on_folded_cubes(n):
    assert _assert_residuals_equal_the_oracle(folded_cube(n), _closed_form_lams(n))


def _fq11_thinned(*cuts):
    """FQ_11 without the edges {x, x ^ s} for each cut (s, lo, hi) and
    lo <= x < hi; each range is closed under x -> x ^ s."""
    a = np.array(folded_cube(11).adjacency)
    for s, lo, hi in cuts:
        x = np.arange(lo, hi)
        assert a[x, x ^ s].all() and set((x ^ s).tolist()) == set(x.tolist())
        a[x, x ^ s] = 0
    return dense_graph(a)


# (degree, vertices) classes in falling degree; the row-by-row oracle takes
# rows in that order, 128 at a time, so FQ_11 is 8 row blocks for it
_ROW_BLOCK_CASES = [
    # labels [924, 1024) keep degree 11, [0, 52) drop to 9: the order is not
    # the labels, and degrees differ inside the first and the last block
    pytest.param(
        lambda: _fq11_thinned((1, 0, 924), (2, 0, 52)),
        [(11, 100), (10, 872), (9, 52)],
        id="first-and-last-block-mixed",
    ),
    # the degree-10 class takes rows 120..135, across the boundary at 128
    pytest.param(
        lambda: _fq11_thinned((1, 120, 1024), (2, 136, 1024)),
        [(11, 120), (10, 16), (9, 888)],
        id="class-straddles-row-128",
    ),
]


@pytest.mark.parametrize("make, classes", _ROW_BLOCK_CASES)
def test_residual_row_blocks_match_dense_oracle(monkeypatch, capsys, make, classes):
    """The thinned FQ_11 is no Cayley graph, so the spectrum check is an
    internal error; its residual over the row classes still equals the
    oracle's, whose row blocks of 128 cut across the degree classes."""
    g = make()
    _assert_internal_error(monkeypatch, capsys, 11, g)
    degrees, counts = np.unique(g.adjacency.sum(axis=1), return_counts=True)
    assert list(zip(degrees[::-1].tolist(), counts[::-1].tolist())) == classes
    assert g.n_vertices == 8 * spectral_oracle.RESIDUAL_ROWS
    assert not _assert_residuals_equal_the_oracle(g, _closed_form_lams(11))


def _rewired_to_even_words(n, degree):
    """FQ_n with vertex 0 joined to the first ``degree`` non-zero vertices
    of even popcount instead: ``_even_word_cayley``'s neighbours of 0 only."""
    a = np.array(folded_cube(n).adjacency)
    a[0, :] = a[:, 0] = 0
    even = _even_words(n, degree)
    a[0, even] = a[even, 0] = 1
    return dense_graph(a)


def _flipped_pairs(n, count, seed):
    """FQ_n with ``count`` random vertex pairs toggled between edge and non-edge."""
    a = np.array(folded_cube(n).adjacency)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x, y = rng.choice(len(a), size=2, replace=False)
        a[x, y] = a[y, x] = 1 - a[x, y]
    return dense_graph(a)


def _fq11_without_edge(u, v):
    a = np.array(folded_cube(11).adjacency)
    assert a[u, v]
    a[u, v] = a[v, u] = 0
    return dense_graph(a)


def _fq11_minus_edge_twice():
    """Two disjoint copies of FQ_11 minus an edge: x -> x ^ 1024 is a
    symmetry, but the graph is no Cayley graph of Z_2^11."""
    b = _fq11_without_edge(0, 1).adjacency
    return dense_graph(np.block([[b, np.zeros_like(b)], [np.zeros_like(b), b]]))


def _fq7_isolated(v):
    a = np.array(folded_cube(7).adjacency)
    a[v, :] = a[:, v] = 0
    return dense_graph(a)


# every corrupted graph of this file, with the n whose closed form it stands
# in for and whether it is a Cayley graph of Z_2^(n-1): K_1024 is, with S
# every non-zero word, and so is the edgeless graph, with S empty
_CORRUPTED_GRAPHS = [
    pytest.param(7, _fq7_edge_removed, False, id="FQ_7-edge_removed"),
    pytest.param(7, _fq7_edges_swapped, False, id="FQ_7-edges_swapped"),
    pytest.param(11, lambda: dense_graph(1 - np.eye(1024, dtype=np.uint8)), True, id="K_1024"),
    *(pytest.param(11, p.values[0], False, id=f"thinned-{p.id}") for p in _ROW_BLOCK_CASES),
    *(
        pytest.param(p.values[0], lambda p=p: _rewired_to_even_words(*p.values[:2]), False, id=f"rewired-{p.id}")
        for p in _DTYPE_BOUNDARY_CASES
    ),
    pytest.param(11, lambda: _fq11_without_edge(0, 1), False, id="FQ_11-edge_0_1"),
    pytest.param(11, lambda: _fq11_without_edge(0, 1023), False, id="FQ_11-edge_0_1023"),
    pytest.param(12, _fq11_minus_edge_twice, False, id="FQ_11-edge_0_1-twice"),
    pytest.param(11, lambda: _flipped_pairs(11, 150, 0), False, id="FQ_11-150_flipped_pairs"),
    pytest.param(7, lambda: _fq7_isolated(5), False, id="FQ_7-isolated_vertex"),
    pytest.param(7, lambda: dense_graph(np.zeros((64, 64), dtype=np.uint8)), True, id="edgeless-64"),
    pytest.param(13, lambda: _flipped_pairs(13, 50, 0), False, id="FQ_13-50_flipped_pairs"),
]


@pytest.mark.parametrize("n, make, cayley", _CORRUPTED_GRAPHS)
def test_corrupted_graphs_fail_the_certificate_or_the_check(monkeypatch, capsys, n, make, cayley):
    """No corruption passes: each fails the certificate, an internal error,
    or is a Cayley graph whose report is the dense oracle's and fails."""
    g = make()
    if not cayley:
        _assert_internal_error(monkeypatch, capsys, n, g)
        return
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: g)
    rep = verify_spectrum(n)
    assert rep.to_json() == dense_spectrum_report(n, g)
    assert not rep.passed
    assert main(["spectra", "--n", str(n)]) == 1


@pytest.mark.parametrize("n, make, cayley", _CORRUPTED_GRAPHS)
def test_residual_classes_equal_the_row_oracle_on_corrupted_graphs(n, make, cayley):
    assert _assert_residuals_equal_the_oracle(make(), _closed_form_lams(n)) == cayley


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_residual_classes_equal_the_row_oracle_on_random_graphs(seed, lam_bound):
    """Random Cayley graphs (``_random_cayley``) with random integer
    lambdas; a bound past 127 takes the oracle's int16 accumulator."""
    rng = np.random.default_rng(seed)
    g = _random_cayley(rng, bool(rng.integers(2)), False)
    assert _assert_residuals_equal_the_oracle(g, rng.integers(-lam_bound, lam_bound + 1, g.n_vertices))


@settings(max_examples=60)
@given(st.integers(3, 11), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_residual_classes_equal_the_row_oracle_on_perturbed_folded_cubes(n, count, seed):
    _assert_residuals_equal_the_oracle(_flipped_pairs(n, count, seed), _closed_form_lams(n))


@settings(max_examples=60)
@given(st.integers(3, 11), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_perturbed_folded_cubes_fail_the_certificate_or_the_check(n, count, seed):
    """A perturbed FQ_n is an internal error or a Cayley graph whose report
    is the dense oracle's, and passes only if the flips cancel: a zero
    residual on every Walsh character pins A to FQ_n's adjacency."""
    g = _flipped_pairs(n, count, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsym.spectral, "folded_cube", lambda n: g)
        if qsym.spectral._connection_set(g) is None:
            with pytest.raises(RuntimeError):
                verify_spectrum(n)
            return
        rep = verify_spectrum(n)
    assert rep.to_json() == dense_spectrum_report(n, g)
    assert rep.passed == np.array_equal(g.adjacency, folded_cube(n).adjacency)


@pytest.mark.parametrize("n", range(3, 14))
def test_vectorized_eigenvalues_equal_the_per_word_formula(n):
    got = qsym.spectral._eigenvalues(n)
    assert got.tolist() == _closed_form_lams(n).tolist()


def _traced_peak_mib(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_spectrum_check_memory_at_n13():
    """verify_spectrum holds FQ_13's pairs (0.4 MiB of int32), the
    certificate's index arrays and (N, |S|) bool grid, the 13 Walsh rows of
    S, and the 18 KiB of distinct float64 blocks built from S, and no N x N
    array: about 1.3 MiB, where the 16 MiB uint8 adjacency or int8 Walsh
    table alone would pass the bound."""
    assert _traced_peak_mib(verify_spectrum, 13) <= 4


# ---------------------------------------------------------------------------
# the Cayley certificate and the eigensolver blocks built from S
# ---------------------------------------------------------------------------


def _record_eigvalsh(monkeypatch, keep):
    """Append keep(a) to the returned list at each np.linalg.eigvalsh(a)."""
    kept = []
    real = np.linalg.eigvalsh

    def recording(a):
        kept.append(keep(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return kept


def _record_eigvalsh_shapes(monkeypatch):
    return _record_eigvalsh(monkeypatch, np.shape)


# n - 4 distinct blocks of 16 rows, FQ_5's size
@pytest.mark.parametrize("n, shape", [(9, (5, 16, 16)), (11, (7, 16, 16)), (13, (9, 16, 16))])
def test_eigensolver_gets_16_row_blocks(monkeypatch, n, shape):
    shapes = _record_eigvalsh_shapes(monkeypatch)
    assert verify_spectrum(n).passed
    assert shapes == [shape]


def test_graph_that_decouples_once_gets_one_dense_block(monkeypatch, capsys):
    """Two disjoint copies of FQ_11 minus an edge: x -> x ^ 1024 is a
    symmetry, so the halving split decouples A once, into one dense
    1024-row block twice; but the graph is no Cayley graph of Z_2^11, so
    verify_spectrum raises and no block reaches eigvalsh."""
    twice = _fq11_minus_edge_twice()
    shapes = _record_eigvalsh_shapes(monkeypatch)
    _assert_internal_error(monkeypatch, capsys, 12, twice)
    assert shapes == []
    blocks = _int64_blocks(twice.adjacency)
    assert blocks.shape == (2, 1024, 1024)
    assert np.array_equal(blocks[0], blocks[1])
    assert np.array_equal(blocks[0], _fq11_without_edge(0, 1).adjacency)


# (graph, n it stands in for, shape of the distinct stack, exact spectrum
# or None for the full eigvalsh of A); the full eigvalsh of K_1024 is itself
# 1.7e-12 off {1023, -1 x 1023}, so the blocks are held to the exact
# spectrum there, under the same bound
_BLOCK_CASES = [
    *(
        pytest.param(lambda n=n: folded_cube(n), n, (max(1, n - 4),) + 2 * (min(1 << n - 1, 16),), None, id=f"FQ_{n}")
        for n in range(3, 12)
    ),
    pytest.param(
        lambda: dense_graph(1 - np.eye(1024, dtype=np.uint8)),
        11,
        (2, 16, 16),
        np.r_[1023.0, -np.ones(1023)],
        id="K_1024",
    ),
    # an edge removed: no Cayley graph, and no stack (shape None)
    pytest.param(lambda: _fq11_without_edge(0, 1), 11, None, None, id="FQ_11-edge_0_1"),
    pytest.param(lambda: _fq11_without_edge(0, 1023), 11, None, None, id="FQ_11-edge_0_1023"),
]


@pytest.mark.parametrize("make, n, shape, exact", _BLOCK_CASES)
def test_block_eigenvalues_equal_the_full_spectrum(monkeypatch, make, n, shape, exact):
    """The stack verify_spectrum hands to eigvalsh, each block taken as
    often as the inverse index names it, has the spectrum of A; and its
    eigenvalues are bit for bit those of the halving split's every block.
    A graph that fails the certificate gets no stack: the halving split
    cannot split it, and the blocks of its row 0's set miss its spectrum."""
    g = make()
    a = g.adjacency
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: g)
    inverses = []
    real_blocks = qsym.spectral._cayley_blocks

    def recording(connection, size):
        blocks, inverse = real_blocks(connection, size)
        inverses.append(inverse)
        return blocks, inverse

    monkeypatch.setattr(qsym.spectral, "_cayley_blocks", recording)
    inputs = _record_eigvalsh(monkeypatch, np.array)
    if shape is None:
        with pytest.raises(RuntimeError, match=rf"folded_cube\({n}\) is not a Cayley graph"):
            verify_spectrum(n)
        assert inputs == [] and inverses == []
        assert _int64_blocks(a).shape == (1,) + a.shape
        blocks, inverse = real_blocks(np.flatnonzero(a[0]), len(a))
        got = np.sort(np.linalg.eigvalsh(blocks)[inverse], axis=None)
        assert np.max(np.abs(got - np.linalg.eigvalsh(a.astype(float)))) > 0.1
        return
    verify_spectrum(n)
    [blocks] = inputs
    [inverse] = inverses
    assert blocks.dtype == np.float64 and blocks.shape == shape
    got = np.sort(np.linalg.eigvalsh(blocks)[inverse], axis=None)
    want = np.linalg.eigvalsh(a.astype(float)) if exact is None else np.sort(exact)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got, np.sort(np.linalg.eigvalsh(_int64_blocks(a).astype(float)), axis=None))


def _cayley_graph(width, connection):
    """Cay(Z_2^width, S): x ~ x ^ s for every word x and s in S."""
    x = np.arange(1 << width)
    shifted = x ^ np.array(connection)[:, None]
    return Graph(1 << width, np.broadcast_to(x, shifted.shape), shifted)


def _int64_blocks(adjacency):
    """The halving split on an int64 copy of the adjacency: while every
    block [[B11, B12], [B21, B22]] has B11 == B22 and B12 == B21, replace
    it by B11 + B12 and B11 - B12, all sums before all differences.  The
    oracle for ``_cayley_blocks``, block for block."""
    b = adjacency.astype(np.int64)[None]
    while b.shape[1] > qsym.spectral._BLOCK_ROWS:
        h = b.shape[1] // 2
        b11, b12 = b[:, :h, :h], b[:, :h, h:]
        if not (np.array_equal(b11, b[:, h:, h:]) and np.array_equal(b12, b[:, h:, :h])):
            break
        b = np.concatenate((b11 + b12, b11 - b12))
    return b


def _fq_counts(n):
    """How often each of FQ_n's distinct blocks occurs: the blocks depend on
    e only through its length k, C(n - 5, k) of them each, for n >= 5."""
    return [comb(n - 5, k) for k in range(n - 4)] if n >= 5 else [1]


@pytest.mark.parametrize(
    "make, largest, counts",
    [
        *(pytest.param(lambda n=n: folded_cube(n), max(1, n - 5), _fq_counts(n), id=f"FQ_{n}") for n in range(3, 14)),
        pytest.param(lambda: dense_graph(1 - np.eye(1024, dtype=np.uint8)), 64, [63, 1], id="K_1024"),
        # entries double at each of the eight levels: 256, the most within the bound
        pytest.param(lambda: dense_graph(1 - np.eye(4096, dtype=np.uint8)), 256, [255, 1], id="K_4096"),
        # high parts 1, 3 and 12, which bit reversal moves: unlike FQ_n and
        # K_N, this graph tells the split's block order from j's own order
        pytest.param(lambda: _cayley_graph(8, [1, 16, 48, 200]), 2, [2, 2, 4, 4, 2, 2], id="Cay_256-1_16_48_200"),
        pytest.param(lambda: dense_graph(np.zeros((64, 64), dtype=np.uint8)), 0, [4], id="edgeless_64"),
    ],
)
def test_cayley_blocks_equal_the_dense_split(make, largest, counts):
    """The distinct blocks, read through the inverse index, are the split's
    blocks in its order; no two distinct blocks are equal."""
    g = make()
    a = g.adjacency
    connection = qsym.spectral._connection_set(g)
    got, inverse = qsym.spectral._cayley_blocks(connection, a.shape[0])
    want = _int64_blocks(a)
    rows = min(a.shape[0], 16)
    assert got.dtype == np.float64 and got.shape == (len(counts), rows, rows)
    assert want.shape == (a.shape[0] // rows, rows, rows)
    assert inverse.shape == want.shape[:1]
    assert np.array_equal(got[inverse], want)
    assert np.bincount(inverse).tolist() == counts
    assert len(np.unique(got.reshape(len(got), -1), axis=0)) == len(got)
    assert int(np.abs(want).max()) == largest


# faults that each break one part of the certificate: (graph, the count
# N |S| holds, row 0 is FQ_7's)
_CERTIFICATE_FAULTS = [
    pytest.param(_fq7_edge_removed, False, False, id="edge_removed"),
    pytest.param(_fq7_edges_swapped, True, False, id="edges_swapped"),
    pytest.param(lambda: _fq7_edges_swapped(1, 3), True, True, id="edges_swapped_away_from_0"),
]


@pytest.mark.parametrize("corrupt, count_holds, row_0_intact", _CERTIFICATE_FAULTS)
def test_graph_that_fails_the_certificate_is_an_internal_error(monkeypatch, capsys, corrupt, count_holds, row_0_intact):
    """Whichever part of the certificate fails, no eigensolve runs."""
    bad = corrupt()
    shapes = _record_eigvalsh_shapes(monkeypatch)
    _assert_internal_error(monkeypatch, capsys, 7, bad)
    assert shapes == []
    a = bad.adjacency
    assert (np.count_nonzero(a) == 64 * np.count_nonzero(a[0])) == count_holds
    assert np.array_equal(a[0], folded_cube(7).adjacency[0]) == row_0_intact


@pytest.mark.parametrize(
    "g",
    [
        # a Cayley graph of Z_48, not of a Boolean group
        pytest.param(Graph.from_edges(48, [(i, (i + d) % 48) for i in range(48) for d in (1, 5)]), id="circulant-48"),
        # x ~ x ^ 1 on 0..5: the count and the gather hold, and only the
        # vertex count shows that 0..5 is no group
        pytest.param(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), id="matching-6"),
    ],
)
def test_certificate_needs_a_power_of_two_vertices(g):
    assert qsym.spectral._connection_set(g) is None


def test_edgeless_graph_is_the_cayley_graph_of_the_empty_set(monkeypatch):
    edgeless = dense_graph(np.zeros((64, 64), dtype=np.uint8))
    assert qsym.spectral._connection_set(edgeless).tolist() == []
    monkeypatch.setattr(qsym.spectral, "folded_cube", lambda n: edgeless)
    shapes = _record_eigvalsh_shapes(monkeypatch)
    rep = verify_spectrum(7)
    assert shapes == [(1, 16, 16)]
    assert rep.to_json() == dense_spectrum_report(7, edgeless)


def _record_folded_cubes(monkeypatch, change=lambda g: g):
    """The graphs verify_spectrum builds, each passed through change."""
    built = []

    def recording(n):
        built.append(change(folded_cube(n)))
        return built[-1]

    monkeypatch.setattr(qsym.spectral, "folded_cube", recording)
    return built


def _without_edge_0_1(g):
    """g with both orientations of the pair {0, 1} taken out of its pairs."""
    keep = ~(((g.rows == 0) & (g.cols == 1)) | ((g.rows == 1) & (g.cols == 0)))
    return Graph(g.n_vertices, g.rows[keep], g.cols[keep])


def test_cayley_route_never_builds_the_dense_adjacency(monkeypatch):
    built = _record_folded_cubes(monkeypatch)
    assert verify_spectrum(13).passed
    [g] = built
    assert "adjacency" not in vars(g)


def test_a_graph_that_fails_the_certificate_never_builds_its_dense_adjacency(monkeypatch):
    built = _record_folded_cubes(monkeypatch, _without_edge_0_1)
    with pytest.raises(RuntimeError, match=r"folded_cube\(7\)"):
        verify_spectrum(7)
    [g] = built
    assert "adjacency" not in vars(g)


def _random_cayley(rng, both_orientations, drop):
    """Cay(Z_2^w, S) for a random w in 2..8 and S, from pairs (x, x ^ s)
    with x < x ^ s, or every x; with drop, its first pair taken out."""
    width = int(rng.integers(2, 9))
    words = np.arange(1, 1 << width)
    connection = words[rng.random(len(words)) < rng.choice([0.05, 0.3, 0.8])]
    x = np.arange(1 << width)
    rows = np.broadcast_to(x, (len(connection), len(x))).ravel()
    cols = (x ^ connection[:, None]).ravel()
    keep = slice(None) if both_orientations else rows < cols
    rows, cols = rows[keep], cols[keep]
    if drop:
        rows, cols = rows[1:], cols[1:]
    return Graph(len(x), rows, cols)


def _swapped_folded_cube(rng):
    """FQ_n for a random n in 3..11, each pair's endpoints swapped at random."""
    g = folded_cube(int(rng.integers(3, 12)))
    swap = rng.random(len(g.rows)) < 0.5
    return Graph(g.n_vertices, np.where(swap, g.cols, g.rows), np.where(swap, g.rows, g.cols))


def _circulant(rng):
    """A circulant on N in 5..300 vertices, N not a power of two."""
    size = int(rng.choice([m for m in range(5, 301) if m & (m - 1)]))
    offsets = rng.choice(np.arange(1, size), size=int(rng.integers(1, 4)), replace=False)
    x = np.arange(size)
    return Graph(size, np.repeat(x, len(offsets)), (x[:, None] + offsets).ravel() % size)


def _random_graph(rng):
    """Random pairs on N in 1..256 vertices, any N."""
    size = int(rng.integers(1, 257))
    rows, cols = rng.integers(0, size, size=(2, int(rng.integers(0, 4 * size))))
    return Graph(size, rows[rows != cols], cols[rows != cols])


_CERTIFIED_GRAPHS = {
    "cayley-one_orientation": lambda rng: _random_cayley(rng, False, False),
    "cayley-both_orientations": lambda rng: _random_cayley(rng, True, False),
    "cayley-one_orientation-edge_dropped": lambda rng: _random_cayley(rng, False, True),
    "cayley-both_orientations-pair_dropped": lambda rng: _random_cayley(rng, True, True),
    "folded_cube-swapped_endpoints": _swapped_folded_cube,
    "circulant": _circulant,
    "random": _random_graph,
    "edgeless": lambda rng: Graph(int(rng.integers(1, 257)), np.empty(0, int), np.empty(0, int)),
}


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("family", sorted(_CERTIFIED_GRAPHS))
def test_pair_certificate_equals_the_dense_oracle(family, seed):
    """The same S, or None from both, on each family of graphs."""
    g = _CERTIFIED_GRAPHS[family](np.random.default_rng(seed))
    got = qsym.spectral._connection_set(g)
    want = spectral_oracle.connection_set(g.adjacency)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.intp and got.tolist() == want.tolist()


def test_spectrum_report_json_shape():
    js = verify_spectrum(5).to_json()
    assert set(js) >= {"n", "levels", "numeric_match", "max_residual", "pass"}
    assert {lvl["lambda"]: lvl["multiplicity"] for lvl in js["levels"]} == {5: 1, 1: 10, -3: 5}


def test_psi_images_are_eigenvectors():
    n = 5
    a = folded_cube(n).adjacency.astype(float)
    # column w of the transformed identity is psi(T_w)
    h = walsh_transform(np.eye(1 << (n - 1)))
    for w in range(1 << (n - 1)):
        vec = h[:, w]
        lam = eigenvalue_of_bits(w, n)
        assert np.max(np.abs(a @ vec - lam * vec)) <= 1e-9


def test_psi_images_orthogonal_within_levels():
    n = 5
    h = walsh_transform(np.eye(1 << (n - 1)))
    for lvl in eigen_data(n).levels:
        vecs = h[:, list(lvl.basis)].T
        g = vecs @ vecs.T
        assert np.allclose(g, np.eye(len(vecs)) * (1 << (n - 1)))


# ---------------------------------------------------------------------------
# eigenprojections
# ---------------------------------------------------------------------------


def test_projection_k0_is_rank_one_all_ones():
    p = dict(eigenprojections(5))[0]
    assert np.allclose(p, np.full((16, 16), 1 / 16))


def test_projections_resolve_identity():
    total = sum(p for _, p in eigenprojections(5))
    assert np.allclose(total, np.eye(16), atol=1e-10)


@pytest.mark.parametrize("n", [5, 7])
def test_projection_identities(n):
    a = folded_cube(n).adjacency.astype(float)
    for k, p in eigenprojections(n):
        lam = n - 2 * k
        assert np.max(np.abs(p - p.T)) <= 1e-10
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert abs(np.trace(p) - comb(n, k)) <= 1e-10
        assert np.max(np.abs(p @ a - lam * p)) <= 1e-10
        assert np.max(np.abs(a @ p - lam * p)) <= 1e-10


def test_invalid_level_rejected():
    # levels are the even k only
    assert [k for k, _ in eigenprojections(5)] == [0, 2, 4]
    assert 1 not in dict(eigenprojections(5))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_projection_stack_equals_the_per_word_oracle(n):
    levels = eigenprojections(n)
    assert not any(proj.flags.writeable for _, proj in levels)
    assert np.array_equal(np.stack([proj for _, proj in levels]), spectral_oracle.projection_stack(n))
    assert [k for k, _ in levels] == [lvl.k for lvl in eigen_data(n).levels]


@pytest.mark.parametrize("n", [2, 4])
def test_eigenprojections_reject_even_n(n):
    with pytest.raises(UsageError):
        eigenprojections(n)
    with pytest.raises(UsageError):
        preserves_eigenspaces(n, Permutation(tuple(range(1 << (n - 1)))))


def test_eigenprojections_reject_n_over_the_vertex_bound():
    with pytest.raises(CapacityError):
        eigenprojections(15)


# ---------------------------------------------------------------------------
# eigenspace preservation
# ---------------------------------------------------------------------------


def test_every_clebsch_automorphism_preserves_eigenspaces(clebsch_autos):
    assert all(preserves_eigenspaces(5, p) for p in clebsch_autos)


def test_identity_preserves():
    assert preserves_eigenspaces(5, Permutation(tuple(range(16))))


def test_non_automorphism_fails_with_visible_commutator():
    bad = oracle.from_cycles(16, [(0, 1)])
    assert not preserves_eigenspaces(5, bad)
    assert not preserves_eigenspaces(5, bad, tol=0)
    assert max(oracle.eigenspace_defects(5, bad)) > 0.1


def test_the_swap_defect_is_the_dense_oracles():
    """tol = d passes and the float just below fails, so the defect read
    from the integer tables is the oracle's value, not only nonzero."""
    bad = oracle.from_cycles(16, [(0, 1)])
    d = max(oracle.eigenspace_defects(5, bad))
    assert preserves_eigenspaces(5, bad, tol=d)
    assert not preserves_eigenspaces(5, bad, tol=np.nextafter(d, 0))


def test_preserves_size_mismatch():
    with pytest.raises(DimensionError):
        preserves_eigenspaces(5, Permutation(tuple(range(8))))


def test_a_size_mismatch_at_n13_is_refused_before_any_table():
    def check():
        with pytest.raises(DimensionError, match="8 points vs 4096 vertices"):
            preserves_eigenspaces(13, Permutation(tuple(range(8))))

    assert _traced_peak_mib(check) < 1


def test_eigenspace_check_memory_at_n11():
    """One call gathers the class table in blocks of 2^17 intp indices,
    about 2.3 MiB at its peak, and keeps only the level and class tables,
    no (levels, N, N) stack: neither the float one (48 MiB) nor the int16
    expansion F[:, x ^ y] with its axis takes (36 MiB)."""
    p = Permutation(tuple(np.random.default_rng(11).permutation(1024).tolist()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not preserves_eigenspaces(11, p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 10
    assert (kept - before) / 2**20 < 1


@pytest.mark.parametrize("shift, preserved", [(0b101_0110_0011, True), (None, False)])
def test_eigenspace_check_memory_at_n13(shift, preserved):
    """At the 4096-vertex cap one permutation is gathered in blocks of 32
    d-rows: an XOR shift (an automorphism of the Cayley graph) passes and
    a seeded random permutation fails, each under 10 MiB of tracemalloc,
    where a (7, 4096, 4096) int16 expansion would take 672 MiB."""
    words = np.arange(4096)
    images = words ^ shift if shift is not None else np.random.default_rng(13).permutation(4096)
    p = Permutation(tuple(images.tolist()))

    def check():
        assert preserves_eigenspaces(13, p) is preserved

    assert _traced_peak_mib(check) <= 10
