"""Every public pass/fail threshold is checked by ``config.check_tolerance``:
NaN, negative, bool and non-numeric tolerances are usage errors, never a
silent PASS or a mathematical FAIL.  The tests' own ``is_projection``
helper goes through the same check, and is kept in the table."""

import math

import numpy as np
import pytest

from qsym import (
    Permutation,
    UsageError,
    build_witness,
    certify_witness,
    lemma_P_check,
    lemma_sumzero_check,
    preserves_eigenspaces,
    recovery_products,
    rep_free_product,
    twisted_relation_check,
    verify_spectrum,
)
from qsym.config import check_tolerance
from witness_helpers import classical_witness, is_projection

BAD = [math.nan, -1, -1e-300, True, False, "1e-9", None, 1j]
GOOD = [0, 0.0, 1e-10, 1, np.float64(1e-9), np.float32(1e-6), math.inf]

#: a transposition of two vertices of FQ_5: not an automorphism
SWAP = Permutation((1, 0) + tuple(range(2, 16)))


def _k4_witness(k4):
    sigma = Permutation.from_cycles(4, [(0, 1)])
    tau = Permutation.from_cycles(4, [(2, 3)])
    p, q = rep_free_product(2, 2, seed=42)
    return build_witness(k4, sigma, tau, p, q), sigma, tau, p, q


CHECKS = {
    "verify_spectrum": lambda k4, tol: verify_spectrum(3, tol=tol),
    "preserves_eigenspaces": lambda k4, tol: preserves_eigenspaces(5, SWAP, tol=tol),
    "is_projection": lambda k4, tol: is_projection(np.eye(2), tol=tol),
    "certify_witness": lambda k4, tol: certify_witness(k4, classical_witness(k4, Permutation.identity(4)), tol=tol),
    "recovery_products": lambda k4, tol: recovery_products(*_k4_witness(k4), tol=tol),
    "twisted_relation_check": lambda k4, tol: twisted_relation_check(1, n_samples=2, tol=tol),
    "lemma_sumzero_check": lambda k4, tol: lemma_sumzero_check(3, tol=tol),
    "lemma_P_check": lambda k4, tol: lemma_P_check(3, 1, tol=tol),
}


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_tolerances_are_usage_errors(k4, name, tol):
    with pytest.raises(UsageError, match="non-negative number"):
        CHECKS[name](k4, tol)


@pytest.mark.parametrize("tol", GOOD, ids=repr)
def test_good_tolerances_pass_through_unchanged(tol):
    assert check_tolerance(tol) is tol


@pytest.mark.parametrize("tol", [1e-10, 0, math.inf])
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
    assert preserves_eigenspaces(5, Permutation.identity(16), tol=0)
