"""Show that the benchmark's checks are live: each must accept a correct
result and reject a corrupted one.

    python3 qbench/selftest.py

The cases are built here from the mathematics, not from qsym.  Most live on
the 4-cycle C4: its dihedral automorphism group of order 8, its disjoint
reflections sigma = (1 3) and tau = (0 2), and the magic unitary they give
with the noncommuting projections P = diag(1, 0) and Q = (1/2)[[1, 1], [1, 1]].
The others are the folded 3-cube (which is K4), the closed-form spectrum of
the folded 5-cube, the 24 signed permutations of SO_3^{-1}'s classical
points and relation reports.  ``run.py`` runs them before every measurement
and refuses to measure if one fails.
"""

from __future__ import annotations

import sys
from itertools import permutations, product

import numpy as np

import checks

SIGMA, TAU = [0, 3, 2, 1], [2, 1, 0, 3]
I2 = np.eye(2)
P = np.diag([1.0, 0.0])
Q = np.full((2, 2), 0.5)


def _c4() -> np.ndarray:
    c4 = np.zeros((4, 4), dtype=np.uint8)
    for i in range(4):
        c4[i, (i + 1) % 4] = c4[(i + 1) % 4, i] = 1
    return c4


def _witness(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u[i, perm(i)] = p and u[i, i] = 1 - p on the support of each
    reflection, with p for sigma and q for tau."""
    u = np.zeros((4, 4, 2, 2))
    for perm, proj in ((SIGMA, p), (TAU, q)):
        for i in range(4):
            if perm[i] != i:
                u[i, perm[i]] = proj
                u[i, i] = I2 - proj
    return u


def _cases():
    c4 = _c4()
    yield ("disjoint pair", checks.check_disjoint_pair(c4, SIGMA, TAU, "C4"),
           {"sigma not an automorphism": checks.check_disjoint_pair(c4, [1, 0, 2, 3], TAU, "C4"),
            "overlapping supports": checks.check_disjoint_pair(c4, SIGMA, [2, 3, 0, 1], "C4")})

    dihedral = [[(r + s * i) % 4 for i in range(4)] for r in range(4) for s in (1, -1)]
    yield ("automorphisms", checks.check_automorphisms(c4, dihedral, 8, "C4"),
           {"duplicated automorphism": checks.check_automorphisms(c4, dihedral[:-1] + dihedral[:1], 8, "C4"),
            "not an automorphism": checks.check_automorphisms(c4, dihedral[:-1] + [[1, 0, 2, 3]], 8, "C4"),
            "one missing": checks.check_automorphisms(c4, dihedral[:-1], 8, "C4")})

    yield ("folded cube", checks.check_cube(3, np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)),
           {"FQ_3 given as C4": checks.check_cube(3, c4)})

    def fq5(levels, max_residual=0.0):
        return {"levels": [{"k": k, "lambda": 5 - 2 * k, "multiplicity": m, "max_residual": max_residual}
                           for k, m in levels],
                "max_residual": max_residual, "numeric_match": True, "pass": True}

    good = [(0, 1), (2, 10), (4, 5)]
    yield ("spectrum", checks.check_spectrum(5, fq5(good)),
           {"wrong multiplicity": checks.check_spectrum(5, fq5([(0, 1), (2, 11), (4, 4)])),
            "residual above tol": checks.check_spectrum(5, fq5(good, 1e-6))})

    yield ("projection families", checks.check_projection_families([[P, I2 - P], [Q, I2 - Q]], "C4"),
           {"family not summing to 1": checks.check_projection_families([[P, P], [Q, I2 - Q]], "C4"),
            "element not idempotent": checks.check_projection_families([[2 * P, I2 - 2 * P]], "C4")})

    witness = _witness(P, Q)
    perturbed = witness.copy()
    perturbed[1, 3, 0, 0] += 1e-3
    yield ("witness", checks.check_witness(c4, witness, "C4"),
           {"entry perturbed by 1e-3": checks.check_witness(c4, perturbed, "C4"),
            "commuting projections": checks.check_witness(c4, _witness(P, P), "C4")})

    yield ("recovery", checks.check_recovery(witness, SIGMA, [P, I2 - P], "C4")
           + checks.check_recovery(witness, TAU, [Q, I2 - Q], "C4"),
           {"entry perturbed by 1e-3": checks.check_recovery(perturbed, SIGMA, [P, I2 - P], "C4"),
            "projections swapped": checks.check_recovery(witness, SIGMA, [I2 - P, P], "C4")})

    report = {"projection_defect": 1e-16, "rowsum_defect": 0.0, "colsum_defect": 0.0,
              "commutation_defect": 2e-16, "noncomm_certificate": 0.5, "pass": True}
    yield ("witness report", checks.check_witness_report(report, "C4"),
           {"defect above 1e-10": checks.check_witness_report(dict(report, rowsum_defect=1e-6), "C4"),
            "no certificate": checks.check_witness_report(dict(report, noncomm_certificate=0.0), "C4")})
    yield ("recovery report", checks.check_recovery_report({"max_residual": 1e-16, "pass": True}, "C4"),
           {"residual above 1e-10": checks.check_recovery_report({"max_residual": 1e-6, "pass": True}, "C4")})

    points = [(list(pm), list(sg)) for pm in permutations(range(3)) for sg in product((1, -1), repeat=3)
              if np.prod(sg) == 1]
    flipped = points[:-1] + [(points[-1][0], [-1, 1, 1])]
    yield ("abelian points", checks.check_abelian_points(3, points),
           {"one point with determinant -1": checks.check_abelian_points(3, flipped),
            "one point missing": checks.check_abelian_points(3, points[:-1])})

    def relation(name, defect, control=0.0):
        rep = {"relation": name, "max_defect": defect, "tol": 1e-9, "pass": True, "m": 2, "n": 5, "samples": 50}
        return dict(rep, control_det_negative_defect=control) if name == "7.5" else rep

    yield ("twisted relation", checks.check_relation(relation("7.5", 3e-16)),
           {"defect above tol": checks.check_relation(relation("7.5", 1e-6)),
            "determinant -1 control off": checks.check_relation(relation("7.5", 3e-16, control=2.0))})
    yield ("abelian relation", checks.check_relation(dict(relation("7.5", 0.0), model="abelian"), exact=True),
           {"abelian defect not exactly 0": checks.check_relation(dict(relation("7.5", 1e-300), model="abelian"),
                                                                 exact=True)})

    system = [relation(f"7.{i}", 1e-16) for i in range(1, 6)]
    uncontrolled = {k: v for k, v in system[4].items() if k != "control_det_negative_defect"}
    yield ("twist relations", checks.check_twist_relations(system, 2, 50),
           {"7.5 without its control": checks.check_twist_relations(system[:4] + [uncontrolled], 2, 50),
            "7.3 missing": checks.check_twist_relations(system[:2] + system[3:], 2, 50)})


def run() -> list[str]:
    """Problems found: a correct case rejected or a corrupted case accepted."""
    problems = []
    for name, accepted, corrupted in _cases():
        if accepted:
            problems.append(f"{name}: correct result rejected: {accepted}")
        for what, errors in corrupted.items():
            if not errors:
                problems.append(f"{name}: corrupted result accepted ({what})")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "all checks live")
    sys.exit(1 if found else 0)
