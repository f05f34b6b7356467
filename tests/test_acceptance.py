"""Acceptance suite: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are fixed here, not configurable: spectra and
sampled twisted checks at 1e-9, witness algebra at 1e-10, Fourier round
trips at 1e-12, noncommutativity certificates above 1e-2.
"""

import json
import time
from math import comb, factorial

import numpy as np

import qsym
import twist_oracle
from walsh_oracle import walsh_transform
from qsym import fixtures
from qsym.cli import main

SPECTRA_TOL = 1e-9
ALGEBRA_TOL = 1e-10
ROUNDTRIP_TOL = 1e-12
CERTIFICATE_FLOOR = 1e-2


def report(number, text):
    print(f"ACCEPTANCE {number}: {text}: PASS")


def test_01_spectra_match_eigensolver_for_odd_n_up_to_11():
    for n in (3, 5, 7, 9, 11):
        rep = qsym.verify_spectrum(n, tol=SPECTRA_TOL)
        assert rep.max_residual <= SPECTRA_TOL
        assert rep.numeric_match
        table = {lvl["lambda"]: lvl["multiplicity"] for lvl in rep.levels}
        expected = {n - 2 * k: comb(n, k) for k in range(0, n + 1, 2)}
        assert table == expected
        # independent multiset comparison against the dense solver
        numeric = np.sort(np.linalg.eigvalsh(qsym.folded_cube(n).adjacency.astype(float)))
        closed = np.sort(
            [lam for lam, mult in expected.items() for _ in range(mult)]
        ).astype(float)
        assert np.max(np.abs(numeric - closed)) <= SPECTRA_TOL
    report(1, "closed-form spectra with C(n,k) multiplicities, odd n in 3..11, tol 1e-9")


def test_02_fourier_round_trips_on_full_bases_up_to_width_12():
    # Column g of H = walsh_transform(identity) is psi(T_g), and 2^w
    # phi(e_g): one batched transform takes a whole basis.  Point -> group
    # -> point and group -> point -> group are then both H H / 2^w.
    for width in range(1, 13):
        size = 1 << width
        h = walsh_transform(np.eye(size), axis=0)
        assert np.array_equal(h, qsym.walsh_matrix(width))
        rt = walsh_transform(h, axis=0)
        rt /= size
        rt[np.diag_indices(size)] -= 1.0
        assert np.abs(rt, out=rt).max() <= ROUNDTRIP_TOL
    report(2, "Fourier round trips on full bases, widths 1..12, tol 1e-12")


def test_03_clebsch_witness_certifies_with_positive_certificate():
    clebsch = fixtures.load_graph("clebsch")
    pair = qsym.find_disjoint_pair(clebsch)
    assert pair is not None
    sigma, tau = pair
    p, q = qsym.rep_free_product(sigma.order(), tau.order(), seed=42)
    u = qsym.build_witness(clebsch, sigma, tau, p, q, seed=42)
    rep = qsym.certify_witness(clebsch, u, tol=ALGEBRA_TOL)
    assert rep.projection_defect <= ALGEBRA_TOL
    assert rep.rowsum_defect <= ALGEBRA_TOL
    assert rep.colsum_defect <= ALGEBRA_TOL
    assert rep.commutation_defect <= ALGEBRA_TOL
    assert rep.noncomm_certificate > CERTIFICATE_FLOOR
    assert rep.passed
    report(3, f"Clebsch witness certified, c = {rep.noncomm_certificate:.4f} > 0.01, seed 42")


def test_04_recovery_products_on_clebsch_and_k4():
    for name in ("clebsch", "k4"):
        g = fixtures.load_graph(name)
        sigma, tau = qsym.find_disjoint_pair(g)
        p, q = qsym.rep_free_product(sigma.order(), tau.order(), seed=42)
        u = qsym.build_witness(g, sigma, tau, p, q, seed=42)
        rec = qsym.recovery_products(u, sigma, tau, p, q, tol=ALGEBRA_TOL)
        assert rec.passed and rec.max_residual <= ALGEBRA_TOL
    report(4, "entry products recover every p_k and q_l on Clebsch and K4, tol 1e-10")


def test_05_no_disjoint_pair_on_the_5_cycle():
    c5 = fixtures.load_graph("c5")
    assert len(qsym.automorphisms(c5)) == 10
    assert qsym.find_disjoint_pair(c5) is None
    report(5, "5-cycle negative control: no disjoint pair among its 10 automorphisms")


def test_06_determinant_expansion_equivalence_n3():
    assert qsym.lemma_SO_bruteforce(3) is True
    assert len(twist_oracle.loop_signed_perm_matrices(3)) == 48
    assert len(qsym.abelian_points(3)) == 24
    report(6, "determinant/expansion equivalence over all 48 signed 3x3 matrices; 24 with d=1")


def test_07_vanishing_sums_abelian_exact_and_twisted_sampled():
    rep = qsym.lemma_sumzero_check(3, "abelian")
    assert rep.max_defect == 0.0 and rep.control_defect == 0.0
    rep = qsym.lemma_sumzero_check(3, "twisted", samples=50, seed=42, tol=SPECTRA_TOL)
    assert rep.passed and rep.max_defect <= SPECTRA_TOL
    for l in (1, 2, 3):
        rep = qsym.lemma_P_check(3, l, "abelian")
        assert rep.max_defect == 0.0
        rep = qsym.lemma_P_check(3, l, "twisted", samples=50, seed=42, tol=SPECTRA_TOL)
        assert rep.passed and rep.max_defect <= SPECTRA_TOL
    report(7, "vanishing sums: exact in the abelian model (n=3), <= 1e-9 twisted (50 samples, seed 42)")


def test_08_twisted_relations_for_m_1_and_2():
    for m in (1, 2):
        reports = qsym.twisted_relation_check(m, n_samples=50, seed=42, tol=SPECTRA_TOL)
        assert [r.relation for r in reports] == ["7.1", "7.2", "7.3", "7.4", "7.5"]
        for r in reports:
            assert r.passed and r.max_defect <= SPECTRA_TOL
        assert reports[-1].control_det_negative_defect <= SPECTRA_TOL
    report(8, "relations 7.1-7.5 hold twisted for m=1,2; det=-1 control yields -1")


def test_09_classical_points_act_as_the_full_automorphism_groups():
    t0 = time.time()
    # n = 3: bijection onto Aut(K4) = S4
    pts3 = qsym.abelian_points(3)
    actions3 = {qsym.classical_point_action(sp).images for sp in pts3}
    autos3 = {a.images for a in qsym.automorphisms(qsym.folded_cube(3))}
    assert len(pts3) == 24 and len(actions3) == 24
    assert actions3 == autos3
    # n = 5: all 2^4 * 5! = 1920 points act on the Clebsch graph
    pts5 = qsym.abelian_points(5)
    assert len(pts5) == 2 ** 4 * factorial(5) == 1920
    clebsch = qsym.folded_cube(5)
    images5 = set()
    for sp in pts5:
        perm = qsym.classical_point_action(sp)
        assert qsym.is_automorphism(clebsch, perm)
        assert qsym.preserves_eigenspaces(5, perm)
        images5.add(perm.images)
    assert len(images5) == 1920  # injective
    autos5 = {a.images for a in qsym.automorphisms(clebsch)}
    assert images5 == autos5  # bijective onto the automorphism group
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(9, f"classical points biject onto Aut: 24 (n=3), 1920 (n=5), {elapsed:.1f}s < 60s")


def test_10_cli_outputs_are_byte_reproducible(capsys):
    commands = [
        ["spectra", "--n", "5"],
        ["autos", "--graph", "clebsch.json"],
        ["disjoint", "--graph", "clebsch.json"],
        ["witness", "--graph", "clebsch.json", "--seed", "42"],
        ["so-points", "--n", "3"],
        ["so-check", "--n", "3", "--samples", "20", "--seed", "42"],
        ["twist-check", "--m", "1", "--samples", "50", "--seed", "42"],
    ]
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # stays valid JSON
    report(10, "identical config and seed give byte-identical CLI reports")
