"""The public surface of qsym, pinned.

``qsym`` exports what the CLI, the benchmark and the library's own code
paths call.  The benchmark's tracer (``qbench/spans.py``) wraps functions by
module and name, and its workloads read a few attributes of the results;
a deletion that breaks either fails here, not in a benchmark run.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import qsym
from qsym import Graph, abelian_points, fixtures, verify_spectrum

#: every public non-module name of ``qsym``; ``__version__`` makes 38
PUBLIC_NAMES = {
    # config and errors
    "DEFAULT_TOLERANCES", "Report", "Tolerances",
    "CapacityError", "DimensionError", "GraphFormatError", "QsymError", "UsageError",
    # graphs
    "Graph", "Permutation", "are_disjoint", "automorphisms", "find_disjoint_pair", "is_automorphism",
    # boolean_group
    "folded_cube", "tau_generators", "walsh_matrix",
    # spectral
    "eigenprojections", "preserves_eigenspaces", "verify_spectrum",
    # star_algebra
    "MagicUnitary", "build_witness", "certify_witness", "op_norm", "recovery_products", "rep_free_product",
    # so_twist
    "SignedPermMatrix", "abelian_points", "bicharacter", "chain_sign", "chain_signs",
    "classical_point_action", "lemma_P_check", "lemma_SO_bruteforce", "lemma_SO_mismatches",
    "lemma_sumzero_check", "twisted_relation_check",
}

SPANS = Path(__file__).resolve().parents[1] / "qbench" / "spans.py"


def test_qsym_exports_exactly_the_listed_names():
    names = {name for name, value in vars(qsym).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES and len(names) == 37


def _spans():
    spec = importlib.util.spec_from_file_location("qbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_its_module():
    spans = _spans()
    for name in spans.MODULES:
        importlib.import_module(name)
    assert spans.TARGETS
    for home, func, *_ in spans.TARGETS:
        target = getattr(importlib.import_module("qsym." + home), func, None)
        assert callable(target), f"qsym.{home}.{func}"


def test_the_attributes_the_benchmark_reads():
    point = abelian_points(3)[0]
    assert point.perm.images == (0, 1, 2) and point.signs == (1, 1, 1)
    g = Graph.load(fixtures.fixture_path("k4"))
    assert g.adjacency.shape == (4, 4)
    report = verify_spectrum(3)
    assert report.passed and report.levels and report.to_json()["pass"] is True
