"""The three benchmark workloads: library steps, CLI commands and checks.

A workload is a list of library steps and a list of CLI commands.  A step is
``(label, run, check)``: ``run(results)`` calls qsym (looking every function
up on its module at call time, so the tracer sees it) and may read the
results of earlier steps; ``check(value, results)`` validates the value
afterwards with the independent checks of ``checks``.  A command is
``(argv, check)`` where ``check`` validates the parsed JSON report.

qsym's modules are imported inside ``build`` so that the caller controls
``sys.path`` and the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

#: folded-cube sizes of `spectra`; 13 is the 4096-vertex cap
SPECTRA_NS = (9, 11, 13)
#: seeded random relabelings of the Clebsch graph in `symmetries`
RELABELINGS = 4
#: samples of the twisted relation check (7.1-7.5), per sign of determinant
TWIST_SAMPLES = 2000
#: samples of the twisted vanishing-lemma checks (the `so-check` default)
LEMMA_SAMPLES = 50
#: the CLI's default sample count
CLI_SAMPLES = 50
#: l ranges of lemma_P per (n, model); so-check --n 5 and abelian l >= 3 at
#: n = 5 are left out for time (see README)
LEMMA_P = {(3, "abelian"): (1, 2, 3), (5, "abelian"): (1, 2),
           (3, "twisted"): (1, 2, 3), (5, "twisted"): (1, 2, 3, 4)}

NAMES = ("spectra", "symmetries", "relations")


@dataclass
class Workload:
    steps: list[tuple[str, Callable, Callable]]
    commands: list[tuple[list[str], Callable]]


def build(name: str, seed: int, fixture_dir: Path, scratch: Path) -> Workload:
    """The workload `name` for `seed`; input files go under `scratch`."""
    if name == "spectra":
        return _spectra()
    if name == "symmetries":
        return _symmetries(seed, fixture_dir, scratch)
    if name == "relations":
        return _relations(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _spectra() -> Workload:
    """No random input: the folded cubes are fixed by n.  Only
    verify_spectrum is timed; it builds its own folded cube and does not
    return it, so the XOR-Cayley check builds FQ_n once more, after the
    clock has stopped."""
    from qsym import boolean_group, spectral

    steps = [(f"verify_spectrum({n})", lambda r, n=n: spectral.verify_spectrum(n),
              lambda v, r, n=n: checks.check_spectrum(n, v.to_json())
              + checks.check_cube(n, boolean_group.folded_cube(n).adjacency))
             for n in SPECTRA_NS]
    commands = [(["spectra", "--n", str(n)], lambda rep, n=n: checks.check_spectrum(n, rep))
                for n in (11, 13)]
    return Workload(steps, commands)


def _adjacency(graph_json: dict) -> np.ndarray:
    a = np.zeros((graph_json["n"], graph_json["n"]), dtype=np.uint8)
    for i, j in graph_json["edges"]:
        a[i, j] = a[j, i] = 1
    return a


def _relabel(graph_json: dict, rng: np.random.Generator) -> dict:
    perm = rng.permutation(graph_json["n"])
    edges = sorted(sorted((int(perm[i]), int(perm[j]))) for i, j in graph_json["edges"])
    return {"n": graph_json["n"], "edges": edges}


def _witness_steps(name, g, adj, seed):
    from qsym import star_algebra

    pair = f"find_disjoint_pair({name})"
    model = f"rep_free_product({name})"
    witness = f"build_witness({name})"

    def free_product(r):
        sigma, tau = r[pair]
        return star_algebra.rep_free_product(sigma.order(), tau.order(), seed=seed)

    def certified(v, r):
        return checks.check_witness_report(v.to_json(), f"certify_witness({name})")

    def recovered(v, r):
        (sigma, tau), (p, q), entries = r[pair], r[model], r[witness].entries
        errors = checks.check_recovery(entries, sigma.images, p, name)
        errors += checks.check_recovery(entries, tau.images, q, name)
        return errors + checks.check_recovery_report(v.to_json(), f"recovery_products({name})")

    return [
        (model, free_product, lambda v, r: checks.check_projection_families(v, model)),
        (witness, lambda r: star_algebra.build_witness(g, *r[pair], *r[model], seed=seed),
         lambda v, r: checks.check_witness(adj, v.entries, name)),
        (f"certify_witness({name})", lambda r: star_algebra.certify_witness(g, r[witness]), certified),
        (f"recovery_products({name})",
         lambda r: star_algebra.recovery_products(r[witness], *r[pair], *r[model]), recovered),
    ]


def _cli_witness_check(adj, label):
    def check(rep):
        errors = checks.check_disjoint_pair(adj, rep["sigma"], rep["tau"], label)
        errors += checks.check_witness_report(rep["witness"], f"witness {label}")
        return errors + checks.check_recovery_report(rep["recovery"], f"witness {label}")
    return check


def _symmetries(seed: int, fixture_dir: Path, scratch: Path) -> Workload:
    """Fixtures, the 5-cycle control and seeded Clebsch relabelings, plus
    the so-points --n 5 sequence."""
    from qsym import boolean_group, graphs, so_twist, spectral

    rng = np.random.default_rng(seed)
    # (name, path, |Aut|, has a disjoint pair); the orders are those of S_4,
    # of the Clebsch group 2^4 . S_5 and of the dihedral group D_5
    subjects = [(name, fixture_dir / f"{name}.json", order, pair)
                for name, order, pair in (("k4", 24, True), ("clebsch", 1920, True),
                                          ("clebsch_pentagonal", 1920, True), ("c5", 10, False))]
    adjacency = {name: _adjacency(json.loads(path.read_text())) for name, path, *_ in subjects}
    clebsch = json.loads(subjects[1][1].read_text())
    for i in range(RELABELINGS):
        name, relabeled = f"clebsch_relabel{i}", _relabel(clebsch, rng)
        path = scratch / f"{name}.json"
        path.write_text(json.dumps(relabeled))
        subjects.append((name, path, 1920, True))
        adjacency[name] = _adjacency(relabeled)
    witness_seed = int(rng.integers(0, 2**31))

    steps = []
    for name, path, order, has_pair in subjects:
        g = graphs.Graph.load(path)
        adj = adjacency[name]
        steps.append((f"automorphisms({name})", lambda r, g=g: graphs.automorphisms(g),
                      lambda v, r, adj=adj, order=order, name=name:
                      checks.check_automorphisms(adj, [p.images for p in v], order, name)))
        if has_pair:
            pair_check = (lambda v, r, adj=adj, name=name:
                          checks.check_disjoint_pair(adj, v[0].images, v[1].images, name)
                          if v is not None else [f"{name}: no disjoint pair found"])
        else:
            pair_check = lambda v, r, name=name: [] if v is None else [f"{name}: unexpected disjoint pair"]
        steps.append((f"find_disjoint_pair({name})", lambda r, g=g: graphs.find_disjoint_pair(g), pair_check))
        if has_pair:
            steps += _witness_steps(name, g, adj, witness_seed)

    fq5 = checks.xor_cayley_cube(5)

    def same_group(v, r):
        errors = checks.check_automorphisms(fq5, [p.images for p in v], 1920, "Aut(FQ_5)")
        actions = r.get("classical_point_action(x1920)")
        if actions is not None and {a.images for a in actions} != {p.images for p in v}:
            errors.append("so-points: actions differ from Aut(FQ_5)")
        return errors

    def all_true(label):
        return lambda v, r: [] if len(v) == 1920 and all(x is True for x in v) else [f"{label}: not all True"]

    steps += [
        ("abelian_points(5)", lambda r: so_twist.abelian_points(5),
         lambda v, r: checks.check_abelian_points(5, [(sp.perm.images, sp.signs) for sp in v])),
        ("classical_point_action(x1920)",
         lambda r: [so_twist.classical_point_action(sp) for sp in r["abelian_points(5)"]],
         lambda v, r: checks.check_automorphisms(fq5, [a.images for a in v], 1920, "so-points actions")),
        ("folded_cube(5)", lambda r: boolean_group.folded_cube(5),
         lambda v, r: checks.check_cube(5, v.adjacency)),
        ("automorphisms(FQ_5)", lambda r: graphs.automorphisms(r["folded_cube(5)"]), same_group),
        ("is_automorphism(x1920)",
         lambda r: [graphs.is_automorphism(r["folded_cube(5)"], a) for a in r["classical_point_action(x1920)"]],
         all_true("is_automorphism")),
        ("preserves_eigenspaces(x1920)",
         lambda r: [spectral.preserves_eigenspaces(5, a) for a in r["classical_point_action(x1920)"]],
         all_true("preserves_eigenspaces")),
    ]

    relabeled = str(subjects[4][1])

    def autos(rep):
        return checks.check_automorphisms(adjacency["clebsch"], rep["automorphisms"], 1920, "autos clebsch")

    def disjoint(rep):
        return [] if rep["found"] is False and rep["sigma"] is None else ["disjoint c5: found a pair"]

    def so_points(rep):
        keys = ("count", "candidates", "distinct_actions", "automorphism_group_order")
        want = (1920, 3840, 1920, 1920)
        flags = ("actions_are_automorphisms", "eigenspaces_preserved", "bijective_onto_automorphism_group")
        if tuple(rep[k] for k in keys) != want or not all(rep[f] is True for f in flags):
            return [f"so-points 5: {[rep[k] for k in keys + flags]}"]
        return []

    s = str(witness_seed)
    commands = [
        (["autos", "--graph", "clebsch"], autos),
        (["witness", "--graph", "clebsch", "--seed", s], _cli_witness_check(adjacency["clebsch"], "clebsch")),
        (["witness", "--graph", "clebsch_pentagonal", "--seed", s],
         _cli_witness_check(adjacency["clebsch_pentagonal"], "clebsch_pentagonal")),
        (["disjoint", "--graph", "c5"], disjoint),
        (["so-points", "--n", "5"], so_points),
        (["witness", "--graph", relabeled, "--seed", s],
         _cli_witness_check(adjacency["clebsch_relabel0"], "clebsch_relabel0")),
    ]
    return Workload(steps, commands)


def _relations(seed: int) -> Workload:
    """The q = -1 relation system; the seed drives the SO_n samples."""
    from qsym import so_twist

    def relation(exact):
        return lambda v, r: checks.check_relation(v.to_json(), exact=exact)

    steps = []
    for m in (1, 2):
        steps.append((f"twisted_relation_check(m={m})",
                      lambda r, m=m: so_twist.twisted_relation_check(m, n_samples=TWIST_SAMPLES, seed=seed),
                      lambda v, r, m=m: checks.check_twist_relations([x.to_json() for x in v], m, TWIST_SAMPLES)))
    for n in (3, 5):
        steps.append((f"lemma_sumzero_check({n}, twisted)",
                      lambda r, n=n: so_twist.lemma_sumzero_check(n, "twisted", samples=LEMMA_SAMPLES, seed=seed),
                      relation(False)))
    for n in (3, 5):
        steps.append((f"lemma_SO_bruteforce({n})", lambda r, n=n: so_twist.lemma_SO_bruteforce(n),
                      lambda v, r, n=n: [] if v is True else [f"lemma_SO({n}) is False"]))
        steps.append((f"lemma_sumzero_check({n}, abelian)",
                      lambda r, n=n: so_twist.lemma_sumzero_check(n, "abelian"), relation(True)))
    for (n, model), ls in LEMMA_P.items():
        for l in ls:
            if model == "abelian":
                run = lambda r, n=n, l=l: so_twist.lemma_P_check(n, l, "abelian")
            else:
                run = lambda r, n=n, l=l: so_twist.lemma_P_check(n, l, "twisted", samples=LEMMA_SAMPLES, seed=seed)
            steps.append((f"lemma_P_check({n}, {l}, {model})", run, relation(model == "abelian")))
    for n in (3, 5):
        steps.append((f"abelian_points({n})", lambda r, n=n: so_twist.abelian_points(n),
                      lambda v, r, n=n: checks.check_abelian_points(n, [(sp.perm.images, sp.signs) for sp in v])))

    def so_check(rep):
        errors = []
        for c in rep["checks"]:
            errors += checks.check_relation(c, exact=c.get("model", "abelian") == "abelian")
        return errors if len(rep["checks"]) == 9 else errors + [f"so-check 3: {len(rep['checks'])} checks"]

    commands = [(["twist-check", "--m", str(m), "--seed", str(seed)],
                 lambda rep, m=m: checks.check_twist_relations(rep["relations"], m, CLI_SAMPLES))
                for m in (1, 2)]
    commands.append((["so-check", "--n", "3", "--seed", str(seed)], so_check))
    return Workload(steps, commands)
