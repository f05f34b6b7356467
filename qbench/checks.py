"""Correctness checks for the benchmark, computed apart from qsym.

Every check returns a list of error strings (empty means the output is
correct).  None of them compares against a stored copy of a qsym report:
each one either rebuilds the object with numpy (the folded cube as an
XOR-Cayley graph, automorphism tests by fancy indexing, witness relations in
the Frobenius norm) or tests a property the mathematics requires (closed-form
multiplicities, traces of A and A^2, group orders, exact zeros).
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

#: pass/fail threshold of spectral residuals and sampled twisted defects
RESIDUAL_TOL = 1e-9
#: witness defects recomputed here in the Frobenius norm.  The program
#: certifies them at 1e-10 in the operator norm, and the Frobenius norm of a
#: D x D matrix is at most sqrt(D) times that; all of them are exactly zero
#: in exact arithmetic, so round-off sits near 1e-15.
FROBENIUS_TOL = 1e-9
#: the program's own certification threshold, which its witness and recovery
#: reports must meet
REPORT_TOL = 1e-10
#: smallest commutator norm that counts as a noncommutativity certificate
CERTIFICATE_FLOOR = 1e-2


def xor_cayley_cube(n: int) -> np.ndarray:
    """Adjacency of FQ_n as the Cayley graph of Z_2^(n-1) for the n-1
    single-bit flips and the all-ones word."""
    size = 1 << (n - 1)
    shifts = [1 << b for b in range(n - 1)] + [size - 1]
    a = np.zeros((size, size), dtype=np.uint8)
    idx = np.arange(size)
    for s in shifts:
        a[idx, idx ^ s] = 1
    return a


def check_cube(n: int, adjacency) -> list[str]:
    if not np.array_equal(np.asarray(adjacency), xor_cayley_cube(n)):
        return [f"folded_cube({n}) differs from the XOR-Cayley graph"]
    return []


def check_spectrum(n: int, report: dict) -> list[str]:
    """Closed-form levels of FQ_n for odd n, plus the trace identities."""
    errors = []
    want = {(k, n - 2 * k, comb(n, k)) for k in range(0, n + 1, 2)}
    got = {(lvl["k"], lvl["lambda"], lvl["multiplicity"]) for lvl in report["levels"]}
    if got != want or len(report["levels"]) != len(want):
        errors.append(f"spectrum({n}): levels {sorted(got)} != {sorted(want)}")
    mults = [lvl["multiplicity"] for lvl in report["levels"]]
    lams = [lvl["lambda"] for lvl in report["levels"]]
    if sum(mults) != 1 << (n - 1):
        errors.append(f"spectrum({n}): multiplicities sum to {sum(mults)}")
    if sum(m * x for m, x in zip(mults, lams)) != 0:
        errors.append(f"spectrum({n}): sum mult*lambda != trace A = 0")
    if sum(m * x * x for m, x in zip(mults, lams)) != n * (1 << (n - 1)):
        errors.append(f"spectrum({n}): sum mult*lambda^2 != trace A^2 = n 2^(n-1)")
    residuals = [lvl["max_residual"] for lvl in report["levels"]] + [report["max_residual"]]
    if not all(0 <= r <= RESIDUAL_TOL for r in residuals):
        errors.append(f"spectrum({n}): residual {max(residuals)!r} above {RESIDUAL_TOL}")
    if report["numeric_match"] is not True or report["pass"] is not True:
        errors.append(f"spectrum({n}): eigensolver mismatch or FAIL")
    return errors


def _automorphism_mask(adjacency: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """For each row p of perms, whether A[p][:, p] == A."""
    a = np.asarray(adjacency)
    permuted = a[perms[:, :, None], perms[:, None, :]]
    return (permuted == a[None]).all(axis=(1, 2))


def check_automorphisms(adjacency, perms, order: int, label: str) -> list[str]:
    """perms are `order` distinct automorphisms, i.e. the whole group."""
    p = np.asarray(perms, dtype=np.intp).reshape(len(perms), -1)
    n = np.asarray(adjacency).shape[0]
    if p.shape != (order, n):
        return [f"{label}: {p.shape[0]} automorphisms, expected {order}"]
    if not (np.sort(p, axis=1) == np.arange(n)).all():
        return [f"{label}: an image tuple is not a permutation"]
    if not _automorphism_mask(adjacency, p).all():
        return [f"{label}: a returned permutation is not an automorphism"]
    if len({row.tobytes() for row in p}) != order:
        return [f"{label}: automorphisms are not distinct"]
    return []


def check_disjoint_pair(adjacency, sigma, tau, label: str) -> list[str]:
    p = np.array([sigma, tau], dtype=np.intp)
    ident = np.arange(p.shape[1])
    if not (np.sort(p, axis=1) == ident).all():
        return [f"{label}: sigma or tau is not a permutation"]
    if not _automorphism_mask(adjacency, p).all():
        return [f"{label}: sigma or tau is not an automorphism"]
    moved = p != ident
    if not moved.any(axis=1).all():
        return [f"{label}: sigma or tau is the identity"]
    if (moved[0] & moved[1]).any():
        return [f"{label}: supports of sigma and tau overlap"]
    return []


def _frobenius(x: np.ndarray) -> np.ndarray:
    return np.sqrt((np.abs(x) ** 2).sum(axis=(-2, -1)))


def check_witness(adjacency, entries, label: str) -> list[str]:
    """Magic-unitary relations of the witness and its noncommutativity
    certificate, recomputed in the Frobenius norm."""
    e = np.asarray(entries)
    r, d = e.shape[0], e.shape[2]
    eye = np.eye(d)
    errors = []
    adj_e = e.conj().swapaxes(-1, -2)
    proj = max(_frobenius(e - adj_e).max(), _frobenius(e @ e - e).max())
    rows = _frobenius(e.sum(axis=1) - eye).max()
    cols = _frobenius(e.sum(axis=0) - eye).max()
    flat = e.transpose(0, 2, 1, 3).reshape(r * d, r * d)
    big = np.kron(np.asarray(adjacency, dtype=float), eye)
    comm = _frobenius(flat @ big - big @ flat)
    for name, value in (("projection", proj), ("row sum", rows), ("column sum", cols), ("A (x) 1 commutation", comm)):
        if not value <= FROBENIUS_TOL:
            errors.append(f"{label}: witness {name} defect {value:.3g} above {FROBENIUS_TOL}")
    distinct = {np.round(x, 9).tobytes(): x for x in e.reshape(r * r, d, d)}
    xs = np.array(list(distinct.values()))
    commutators = np.einsum("aij,bjk->abik", xs, xs)
    certificate = _frobenius(commutators - commutators.swapaxes(0, 1)).max()
    if not certificate > CERTIFICATE_FLOOR:
        errors.append(f"{label}: noncommutativity certificate {certificate:.3g} not above {CERTIFICATE_FLOOR}")
    return errors


def check_recovery(entries, sigma, p, label: str) -> list[str]:
    """prod over cycle minima s of u[s, sigma^k(s)] equals p_k for each k."""
    sigma = np.asarray(sigma, dtype=np.intp)
    moved = np.flatnonzero(sigma != np.arange(sigma.size))
    reps, seen = [], set()
    for v in moved:
        if v in seen:
            continue
        reps.append(v)
        w = v
        while w not in seen:
            seen.add(w)
            w = sigma[w]
    errors = []
    power = sigma.copy()
    for k in range(1, len(p) + 1):
        prod = np.eye(entries.shape[2], dtype=complex)
        for s in reps:
            prod = prod @ entries[s, power[s]]
        if not _frobenius(prod - p[k - 1]) <= FROBENIUS_TOL:
            errors.append(f"{label}: recovery product {k} is not the k-th projection")
        power = sigma[power]
    return errors


def check_projection_families(families, label: str) -> list[str]:
    """Each family is self-adjoint idempotents summing to 1."""
    errors = []
    for family in families:
        stack = np.array(family)
        if not np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max() <= FROBENIUS_TOL:
            errors.append(f"{label}: projections do not sum to 1")
        if not np.abs(stack - stack.conj().swapaxes(-1, -2)).max() <= FROBENIUS_TOL:
            errors.append(f"{label}: an element is not self-adjoint")
        if not np.abs(stack @ stack - stack).max() <= FROBENIUS_TOL:
            errors.append(f"{label}: an element is not idempotent")
    return errors


def check_witness_report(rep: dict, label: str) -> list[str]:
    """A WitnessReport: defects within REPORT_TOL, certificate above the floor."""
    defects = [rep[k] for k in ("projection_defect", "rowsum_defect", "colsum_defect", "commutation_defect")]
    certificate = rep["noncomm_certificate"]
    if max(defects) <= REPORT_TOL and certificate > CERTIFICATE_FLOOR and rep["pass"] is True:
        return []
    return [f"{label}: defects {defects}, certificate {certificate}, pass {rep['pass']}"]


def check_recovery_report(rep: dict, label: str) -> list[str]:
    if rep["max_residual"] <= REPORT_TOL and rep["pass"] is True:
        return []
    return [f"{label}: recovery residual {rep['max_residual']}, pass {rep['pass']}"]


def check_abelian_points(n: int, points: list[tuple[list[int], list[int]]]) -> list[str]:
    """Signed permutation matrices with entry product +1, all 2^(n-1) n! of them."""
    want = (1 << (n - 1)) * factorial(n)
    if len({(tuple(pm), tuple(sg)) for pm, sg in points}) != want or len(points) != want:
        return [f"abelian_points({n}): {len(points)} points, expected {want} distinct"]
    perm = np.array([pm for pm, _ in points], dtype=np.intp)
    signs = np.array([sg for _, sg in points], dtype=np.int64)
    if not (np.sort(perm, axis=1) == np.arange(n)).all() or not np.isin(signs, (-1, 1)).all():
        return [f"abelian_points({n}): a point is not a signed permutation"]
    if not (signs.prod(axis=1) == 1).all():
        return [f"abelian_points({n}): a point has quantum determinant -1"]
    return []


def check_relation(report: dict, exact: bool = False) -> list[str]:
    """A CheckReport from so_twist: exact zero in the abelian model, within
    RESIDUAL_TOL on sampled special orthogonal matrices in the twisted model."""
    label = f"{report['relation']} {report.get('model', '')} n={report.get('n')} l={report.get('l', '-')}"
    limit = 0.0 if exact else RESIDUAL_TOL
    values = [report["max_defect"]] + [report[k] for k in report if k.startswith("control")]
    if not all(0 <= v <= limit for v in values):
        return [f"{label}: defect {max(values)!r} above {limit}"]
    if report["pass"] is not True:
        return [f"{label}: reports FAIL"]
    return []


def check_twist_relations(reports: list[dict], m: int, samples: int) -> list[str]:
    """Relations 7.1-7.5 all present, within RESIDUAL_TOL, and the
    determinant -1 control reading -1 (its defect from -1 within
    RESIDUAL_TOL)."""
    errors = []
    if [r["relation"] for r in reports] != ["7.1", "7.2", "7.3", "7.4", "7.5"]:
        errors.append(f"twist m={m}: relations {[r['relation'] for r in reports]}")
    for r in reports:
        errors += check_relation(r)
        if r["m"] != m or r["samples"] != samples:
            errors.append(f"twist m={m}: report is for m={r['m']}, samples={r['samples']}")
    if reports and "control_det_negative_defect" not in reports[-1]:
        errors.append(f"twist m={m}: 7.5 has no determinant -1 control")
    return errors
