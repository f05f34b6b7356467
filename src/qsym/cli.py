"""Command-line surface: every pipeline, JSON reports, stable exit codes.

Reports go to stdout as JSON (sorted keys, so identical runs are
byte-identical); a one-line human summary goes to stderr.  Exit codes:

* 0 -- every mathematical check in the run passed
* 1 -- a check ran and failed (the report says which)
* 2 -- usage or input error (bad flags, malformed graph, exceeded bounds)
* 3 -- internal error: an unexpected exception, its traceback on stderr

The seed, a non-negative integer, defaults to the ``QSYM_SEED`` environment
variable, then 42.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from math import factorial
from pathlib import Path

from . import fixtures
from .config import DEFAULT_TOLERANCES, Report, check_tolerance
from .errors import QsymError, UsageError
from .graphs import Graph, _adjacency_defects, _automorphism_images, automorphisms, find_disjoint_pair
from .so_twist import (
    _abelian_point_rows,
    _point_action_images,
    lemma_P_check,
    lemma_SO_mismatches,
    lemma_sumzero_check,
    twisted_relation_check,
)
from .spectral import _eigenspace_defects, verify_spectrum
from .star_algebra import build_witness, certify_witness, recovery_products, rep_free_product
from .boolean_group import folded_cube

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env, source = os.environ.get("QSYM_SEED", "42"), "QSYM_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"QSYM_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _resolve_tol(args, default: float) -> float:
    return default if args.tol is None else check_tolerance(args.tol, "--tol")


def _load_subject(args) -> Graph:
    """Graph from --graph (path or bundled fixture name) xor --n."""
    has_n = getattr(args, "n", None) is not None
    has_graph = getattr(args, "graph", None) is not None
    if has_n == has_graph:
        raise UsageError("supply exactly one of --n and --graph")
    if has_n:
        return folded_cube(args.n)
    path = Path(args.graph)
    if path.exists():
        return Graph.load(path)
    name = path.name.removesuffix(".json")
    if name in fixtures.fixture_names():
        return fixtures.load_graph(name)
    raise UsageError(f"graph file {args.graph!r} not found (and not a bundled fixture)")


def _run_spectra(args) -> tuple[dict, bool]:
    if args.n is None:
        raise UsageError("spectra needs --n")
    tol = _resolve_tol(args, DEFAULT_TOLERANCES.residual)
    report = verify_spectrum(args.n, tol=tol)
    return report.to_json(), report.passed


def _run_autos(args) -> tuple[dict, bool]:
    g = _load_subject(args)
    autos = automorphisms(g)
    report = {
        "n_vertices": g.n_vertices,
        "count": len(autos),
        "automorphisms": [p.to_json() for p in autos],
    }
    return report, True


def _run_disjoint(args) -> tuple[dict, bool]:
    g = _load_subject(args)
    pair = find_disjoint_pair(g)
    if pair is None:
        return {"n_vertices": g.n_vertices, "found": False, "sigma": None, "tau": None}, True
    sigma, tau = pair
    report = {
        "n_vertices": g.n_vertices,
        "found": True,
        "sigma": sigma.to_json(),
        "tau": tau.to_json(),
        "orders": [sigma.order(), tau.order()],
    }
    return report, True


def _run_witness(args) -> tuple[dict, bool]:
    g = _load_subject(args)
    seed = _resolve_seed(args)
    tol = _resolve_tol(args, DEFAULT_TOLERANCES.projector)
    pair = find_disjoint_pair(g)
    if pair is None:
        raise UsageError("graph has no pair of non-trivial disjoint automorphisms")
    sigma, tau = pair
    p, q = rep_free_product(sigma.order(), tau.order(), seed=seed)
    u = build_witness(g, sigma, tau, p, q, seed=seed)
    cert = certify_witness(g, u, tol=tol)
    rec = recovery_products(u, sigma, tau, p, q, tol=tol)
    report = {
        "sigma": sigma.to_json(),
        "tau": tau.to_json(),
        "orders": [sigma.order(), tau.order()],
        "witness": cert.to_json(),
        "recovery": rec.to_json(),
        "seed": seed,
    }
    return report, cert.passed and rec.passed


def _run_so_points(args) -> tuple[dict, bool]:
    n = args.n
    if n is None:
        raise UsageError("so-points needs --n")
    if n % 2 == 0 or n < 3:
        raise UsageError("so-points needs odd n >= 3 (tau generators)")
    tol = _resolve_tol(args, DEFAULT_TOLERANCES.projector)
    perms, signs = _abelian_point_rows(n)
    # every action checked in one gather each: adjacency and eigenprojections
    actions = _point_action_images(perms, signs)
    cube = folded_cube(n)
    distinct = set(map(tuple, actions.tolist()))
    auto_set = set(map(tuple, _automorphism_images(cube).tolist()))
    all_autos = bool((_adjacency_defects(cube, actions) == 0).all())
    preserved = bool((_eigenspace_defects(n, actions) <= tol).all())
    ok = all_autos and preserved and distinct == auto_set
    report = {
        "n": n,
        "count": len(perms),
        "candidates": 2 ** n * factorial(n),
        "actions_are_automorphisms": all_autos,
        "eigenspaces_preserved": preserved,
        "distinct_actions": len(distinct),
        "automorphism_group_order": len(auto_set),
        "bijective_onto_automorphism_group": distinct == auto_set,
        "points": [{"n": n, "perm": p, "signs": s} for p, s in zip(perms.tolist(), signs.tolist())] if n <= 3 else None,
        "pass": ok,
    }
    return report, ok


def _run_so_check(args) -> tuple[dict, bool]:
    n = args.n
    if n is None:
        raise UsageError("so-check needs --n")
    if n % 2 == 0:
        raise UsageError("so-check needs odd n")
    seed = _resolve_seed(args)
    tol = _resolve_tol(args, DEFAULT_TOLERANCES.residual)
    mismatches = lemma_SO_mismatches(n)
    reports = [Report(relation="lemma_SO", max_defect=float(mismatches), tol=tol, passed=mismatches == 0, n=n,
                      matrices=2 ** n * factorial(n))]
    options = {"samples": args.samples, "seed": seed, "tol": tol}  # the abelian checks ignore samples and seed
    reports += [lemma_sumzero_check(n, model, **options) for model in ("abelian", "twisted")]
    for model in ("abelian", "twisted"):
        reports += [lemma_P_check(n, l, model, **options) for l in range(1, n + 1)]
    checks = [r.to_json() for r in reports]
    ok = all(r.passed for r in reports)
    return {"n": n, "seed": seed, "samples": args.samples, "checks": checks}, ok


def _run_twist_check(args) -> tuple[dict, bool]:
    seed = _resolve_seed(args)
    tol = _resolve_tol(args, DEFAULT_TOLERANCES.residual)
    reports = twisted_relation_check(args.m, n_samples=args.samples, seed=seed, tol=tol)
    ok = all(r.passed for r in reports)
    return {
        "m": args.m,
        "seed": seed,
        "samples": args.samples,
        "relations": [r.to_json() for r in reports],
    }, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="certify quantum-symmetry constructions on folded cube graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, graph=False, n=False, m=False, samples=False, tol=False):
        p = sub.add_parser(name, help=help_text)
        if n:
            p.add_argument("--n", type=int, default=None, help="folded cube parameter")
        if graph:
            p.add_argument("--graph", type=str, default=None, help="graph JSON path or bundled fixture name")
        if m:
            p.add_argument("--m", type=int, required=True, help="half-rank: the relation system has n = 2m+1")
        if samples:
            p.add_argument("--samples", type=int, default=50, help="sample count for the twisted checks")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: QSYM_SEED or 42)")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="override the pass/fail threshold")
        p.set_defaults(runner=fn)
        return p

    # autos and disjoint search exactly: they have no threshold, so no --tol
    add("spectra", _run_spectra, "closed-form vs numeric folded cube spectrum", n=True, tol=True)
    add("autos", _run_autos, "enumerate the automorphism group", graph=True, n=True)
    add("disjoint", _run_disjoint, "find a non-trivial disjoint automorphism pair", graph=True, n=True)
    add("witness", _run_witness, "build and certify a magic-unitary witness", graph=True, n=True, tol=True)
    add("so-points", _run_so_points, "abelian points and their folded-cube action", n=True, tol=True)
    add("so-check", _run_so_check, "vanishing-lemma checks, abelian and twisted", n=True, samples=True, tol=True)
    add("twist-check", _run_twist_check, "certify relations 7.1-7.5 in the twisted model", m=True, samples=True,
        tol=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, passed = args.runner(args)
    except QsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a defect in qsym, not in the input: no report, and never exit 1
        traceback.print_exc()
        print(f"qsym {args.command}: internal error", file=sys.stderr)
        return EXIT_INTERNAL
    report["command"] = args.command
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except OSError as exc:  # BrokenPipeError too: a report that is not written is no verdict
        print(f"qsym {args.command}: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    status = "PASS" if passed else "FAIL"
    print(f"qsym {args.command}: {status}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
