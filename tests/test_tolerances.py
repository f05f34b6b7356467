"""Every public pass/fail threshold is checked by ``config.check_tolerance``:
NaN, infinite, negative, bool and non-numeric tolerances are usage errors,
never a silent PASS or a mathematical FAIL.  The tests' own ``is_projection``
helper goes through the same check, and is kept in the table.  Likewise
every size, sample count and seed of the relation checks goes through
``config.check_integer``: bools, non-integers and negatives are usage
errors before any work starts, and folded-cube sizes over the vertex
bound are capacity errors before 2^(n-1) is formed."""

import math
import reprlib

import numpy as np
import pytest

from graph_oracle import from_cycles
from qsym import (
    CapacityError,
    Permutation,
    UsageError,
    abelian_points,
    bicharacter,
    build_witness,
    certify_witness,
    eigenprojections,
    folded_cube,
    lemma_P_check,
    lemma_SO_mismatches,
    lemma_sumzero_check,
    preserves_eigenspaces,
    recovery_products,
    rep_free_product,
    tau_generators,
    twisted_relation_check,
    verify_spectrum,
)
from qsym import so_twist
from qsym.config import check_integer, check_tolerance
from witness_helpers import classical_witness, is_projection

BAD = [math.nan, math.inf, 10**400, -1, -1e-300, True, False, "1e-9", None, 1j]
GOOD = [0, 0.0, 1e-10, 1, np.float64(1e-9), np.float32(1e-6)]

#: a transposition of two vertices of FQ_5: not an automorphism
SWAP = Permutation((1, 0) + tuple(range(2, 16)))


def _k4_witness(k4):
    sigma = from_cycles(4, [(0, 1)])
    tau = from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    return build_witness(k4, sigma, tau, p, q), sigma, tau, p, q


CHECKS = {
    "verify_spectrum": lambda k4, tol: verify_spectrum(3, tol=tol),
    "preserves_eigenspaces": lambda k4, tol: preserves_eigenspaces(5, SWAP, tol=tol),
    "is_projection": lambda k4, tol: is_projection(np.eye(2), tol=tol),
    "certify_witness": lambda k4, tol: certify_witness(k4, classical_witness(k4, Permutation((0, 1, 2, 3))), tol=tol),
    "recovery_products": lambda k4, tol: recovery_products(*_k4_witness(k4), tol=tol),
    "twisted_relation_check": lambda k4, tol: twisted_relation_check(1, n_samples=2, tol=tol),
    "lemma_sumzero_check": lambda k4, tol: lemma_sumzero_check(3, tol=tol),
    "lemma_P_check": lambda k4, tol: lemma_P_check(3, 1, tol=tol),
}


@pytest.mark.parametrize("tol", BAD, ids=reprlib.repr)
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_tolerances_are_usage_errors(k4, name, tol):
    with pytest.raises(UsageError, match="non-negative number"):
        CHECKS[name](k4, tol)


@pytest.mark.parametrize("tol", GOOD, ids=repr)
def test_good_tolerances_pass_through_unchanged(tol):
    assert check_tolerance(tol) is tol


@pytest.mark.parametrize("tol", [-0.0, np.float64(-0.0), np.float32(-0.0)], ids=repr)
def test_a_negative_zero_tolerance_comes_back_as_zero(k4, tol):
    """Every check reports the threshold it was given as 0.0, not -0.0."""
    assert math.copysign(1, check_tolerance(tol)) == 1.0 and check_tolerance(tol) == 0
    assert math.copysign(1, verify_spectrum(3, tol=tol).tol) == 1.0
    assert math.copysign(1, twisted_relation_check(1, n_samples=2, tol=tol)[0].tol) == 1.0


@pytest.mark.parametrize("tol", [1e-10, 0])
def test_good_tolerances_are_accepted_by_every_check(k4, tol):
    for check in CHECKS.values():
        check(k4, tol)


def test_nan_no_longer_passes_a_non_automorphism():
    """A NaN threshold passed every permutation when the check was
    ``defect > tol`` and would fail every one as ``defect <= tol``: it is
    refused before either."""
    with pytest.raises(UsageError):
        preserves_eigenspaces(5, SWAP, tol=math.nan)
    assert not preserves_eigenspaces(5, SWAP)
    assert preserves_eigenspaces(5, Permutation(tuple(range(16))), tol=0)


#: calls of the relation checks with one bad integer parameter each
BAD_INTEGERS = {
    "lemma_P l=True": lambda: lemma_P_check(3, True, "twisted"),
    "lemma_P l=2.0": lambda: lemma_P_check(3, 2.0),
    "lemma_P n=3.0": lambda: lemma_P_check(3.0, 1),
    "lemma_P samples=0": lambda: lemma_P_check(3, 1, "twisted", samples=0),
    "lemma_P seed=-1": lambda: lemma_P_check(3, 1, "twisted", seed=-1),
    "lemma_P seed=True": lambda: lemma_P_check(3, 1, "twisted", seed=True),
    "twisted m=True": lambda: twisted_relation_check(True),
    "twisted m=1.5": lambda: twisted_relation_check(1.5),
    "twisted n_samples=True": lambda: twisted_relation_check(1, n_samples=True),
    "twisted n_samples=2.0": lambda: twisted_relation_check(1, n_samples=2.0),
    "twisted seed=True": lambda: twisted_relation_check(1, seed=True),
    "twisted seed=-1": lambda: twisted_relation_check(1, seed=-1),
    "sumzero n=True": lambda: lemma_sumzero_check(True),
    "sumzero samples='5'": lambda: lemma_sumzero_check(3, "twisted", samples="5"),
    "sumzero seed=None": lambda: lemma_sumzero_check(3, "twisted", seed=None),
    "abelian_points n=True": lambda: abelian_points(True),
    "abelian_points n=0": lambda: abelian_points(0),
    "lemma_SO n=True": lambda: lemma_SO_mismatches(True),
    "bicharacter m=True": lambda: bicharacter(True),
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGERS))
def test_bad_integer_parameters_are_usage_errors(name):
    with pytest.raises(UsageError, match="must be an integer"):
        BAD_INTEGERS[name]()


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(7)], ids=repr)
def test_good_integers_come_back_as_int(value):
    out = check_integer(value, "n")
    assert out == value and type(out) is int


def test_numpy_integer_parameters_give_the_same_reports():
    numpy_args = lemma_P_check(np.int64(3), np.int64(2), "twisted", samples=np.int32(5), seed=np.int64(1))
    assert numpy_args == lemma_P_check(3, 2, "twisted", samples=5, seed=1)


def test_numpy_integer_n_gives_the_same_folded_cube_objects():
    n = np.int64(5)
    assert np.array_equal(folded_cube(n).adjacency, folded_cube(5).adjacency)
    assert tau_generators(n) == tau_generators(5)
    report = verify_spectrum(n)
    assert report == verify_spectrum(5) and type(report.n) is int
    assert [k for k, _ in eigenprojections(n)] == [0, 2, 4]
    assert preserves_eigenspaces(n, Permutation(tuple(range(16))))


#: folded-cube sizes that are checked before they are used
BAD_N = {
    "folded_cube n=2.5": lambda: folded_cube(2.5),
    "folded_cube n=True": lambda: folded_cube(True),
    "tau_generators n=5.0": lambda: tau_generators(5.0),
    "tau_generators n=4": lambda: tau_generators(4),
    "verify_spectrum n=5.0": lambda: verify_spectrum(5.0),
    "eigenprojections n=2.5": lambda: eigenprojections(2.5),
    "eigenprojections n=np.int64(4)": lambda: eigenprojections(np.int64(4)),
    "preserves_eigenspaces n=0": lambda: preserves_eigenspaces(0, Permutation((0,))),
    "preserves_eigenspaces n=-3": lambda: preserves_eigenspaces(-3, Permutation((0,))),
    # the cached functions check n before the cache hashes it
    "eigenprojections n=[3]": lambda: eigenprojections([3]),
    "preserves_eigenspaces n=[3]": lambda: preserves_eigenspaces([3], Permutation((0, 1, 2, 3))),
}


@pytest.mark.parametrize("name", sorted(BAD_N))
def test_bad_folded_cube_sizes_are_usage_errors(name):
    with pytest.raises(UsageError):
        BAD_N[name]()


#: n = 10^11 + 1 is odd, so no parity check stops it: 2^(n-1) would be a
#: 12.5 GB integer, so each call must compare n with the vertex bound first
HUGE_N = 10**11 + 1
OVER_THE_BOUND = {
    "folded_cube": lambda n: folded_cube(n),
    "tau_generators": lambda n: tau_generators(n),
    "verify_spectrum": lambda n: verify_spectrum(n),
    "eigenprojections": lambda n: eigenprojections(n),
    "preserves_eigenspaces": lambda n: preserves_eigenspaces(n, Permutation((0,))),
}


@pytest.mark.parametrize("name", sorted(OVER_THE_BOUND))
@pytest.mark.parametrize("n", [15, HUGE_N])
def test_folded_cube_sizes_over_the_bound_are_capacity_errors(name, n):
    with pytest.raises(CapacityError, match=f"folded {n}-cube has 2\\^{n - 1} > 4096 vertices"):
        OVER_THE_BOUND[name](n)


#: sample counts past SAMPLE_BOUND: each check refuses them before it draws
#: a sample, so 10^8 raises at once instead of allocating gigabytes
OVER_THE_SAMPLE_BOUND = {
    "twisted_relation_check": lambda s: twisted_relation_check(2, n_samples=s),
    "lemma_sumzero_check abelian": lambda s: lemma_sumzero_check(5, "abelian", samples=s),
    "lemma_sumzero_check twisted": lambda s: lemma_sumzero_check(5, "twisted", samples=s),
    "lemma_P_check abelian": lambda s: lemma_P_check(3, 2, "abelian", samples=s),
    "lemma_P_check twisted": lambda s: lemma_P_check(5, 3, "twisted", samples=s),
}


@pytest.mark.parametrize("name", sorted(OVER_THE_SAMPLE_BOUND))
@pytest.mark.parametrize("samples", [so_twist.SAMPLE_BOUND + 1, 10**8, 10**11])
def test_sample_counts_over_the_bound_are_capacity_errors(name, samples):
    with pytest.raises(CapacityError, match=f"samples={samples} exceeds the sample bound {so_twist.SAMPLE_BOUND}"):
        OVER_THE_SAMPLE_BOUND[name](samples)


@pytest.mark.parametrize("name", sorted(OVER_THE_SAMPLE_BOUND))
def test_the_sample_bound_itself_is_accepted(name, monkeypatch):
    monkeypatch.setattr(so_twist, "SAMPLE_BOUND", 3)
    assert OVER_THE_SAMPLE_BOUND[name](3)
    with pytest.raises(CapacityError):
        OVER_THE_SAMPLE_BOUND[name](4)


class _Drawn(Exception):
    """Raised in place of a sample draw, with the bytes the stack would take."""


def test_the_sample_stack_at_the_bound_stays_under_256_mib(monkeypatch):
    # the lemma checks run at n <= SO_BRUTEFORCE_BOUND = 5, twist-check at n = 2m + 1 <= 7
    n = so_twist.SO_BRUTEFORCE_BOUND
    assert so_twist.SAMPLE_BOUND * n * n * np.dtype(np.float64).itemsize <= 256 * 2**20

    # at n = 7 the largest count within 256 MiB reaches the draw, and one more is refused before it
    def draw(n, count, rng, negative):
        raise _Drawn(count * n * n * np.dtype(np.float64).itemsize)

    monkeypatch.setattr(so_twist, "_stack_samples", draw)
    bound = 256 * 2**20 // (7 * 7 * 8)
    with pytest.raises(_Drawn) as drawn:
        twisted_relation_check(3, n_samples=bound)
    assert drawn.value.args[0] <= 256 * 2**20
    with pytest.raises(CapacityError, match=f"n_samples={bound + 1} exceeds the sample bound {bound} at n=7"):
        twisted_relation_check(3, n_samples=bound + 1)
