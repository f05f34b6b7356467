"""Golden reports: CLI stdout compared with files kept in ``tests/golden``.

A rerun of the same code only shows that a report is deterministic; these
files show that it did not change.  Commands in exact arithmetic are
pinned byte for byte.  Commands whose floats come from LAPACK, which may
round differently on another machine, are pinned by the sorted key paths
of their JSON.

To rewrite the files after an intended report change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from graph_oracle import automorphisms as oracle_automorphisms
from qsym.cli import main
from qsym.fixtures import load_graph

GOLDEN = Path(__file__).with_name("golden")

#: exact reports, pinned byte for byte
STDOUT = {
    "spectra_n3": ("spectra", "--n", "3"),
    "spectra_n4": ("spectra", "--n", "4"),
    "spectra_n5": ("spectra", "--n", "5"),
    "spectra_n6": ("spectra", "--n", "6"),
    "spectra_n7": ("spectra", "--n", "7"),
    "spectra_n8": ("spectra", "--n", "8"),
    "spectra_n9": ("spectra", "--n", "9"),
    "spectra_n10": ("spectra", "--n", "10"),
    "spectra_n11": ("spectra", "--n", "11"),
    "spectra_n12": ("spectra", "--n", "12"),
    "spectra_n13": ("spectra", "--n", "13"),
    "autos_k4": ("autos", "--graph", "k4"),
    "autos_c5": ("autos", "--graph", "c5"),
    "disjoint_clebsch": ("disjoint", "--graph", "clebsch"),
    "disjoint_c5": ("disjoint", "--graph", "c5"),
    "disjoint_clebsch_pentagonal": ("disjoint", "--graph", "clebsch_pentagonal"),
    "disjoint_k4": ("disjoint", "--graph", "k4"),
    "disjoint_n5": ("disjoint", "--n", "5"),
    "so_points_n3": ("so-points", "--n", "3"),
    "so_points_n5": ("so-points", "--n", "5"),
}

#: other argv whose report must be a golden file's bytes: so-points has no
#: tol key, and its defects are exactly 0, so any tolerance prints the same
SAME_BYTES = [
    (name, ("so-points", "--n", n, "--tol", tol))
    for name, n in (("so_points_n3", "3"), ("so_points_n5", "5")) for tol in ("0", "1")
]

#: reports with LAPACK floats, pinned by their key paths
KEYS = {
    "witness_clebsch": ("witness", "--graph", "clebsch"),
    "so_check_n3": ("so-check", "--n", "3"),
    "twist_check_m1": ("twist-check", "--m", "1"),
    "twist_check_m3": ("twist-check", "--m", "3"),
}


@pytest.mark.parametrize("name", ["clebsch", "clebsch_pentagonal"])
def test_autos_report_is_the_oracle_group(capsys, name):
    """The 1920-row report is too large for a golden file, so it is built
    from the oracle search, in the CLI's layout."""
    group = oracle_automorphisms(load_graph(name))
    report = {"n_vertices": 16, "count": len(group), "automorphisms": [p.to_json() for p in group],
              "command": "autos"}
    assert main(["autos", "--graph", name]) == 0
    assert len(group) == 1920
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def key_paths(value, prefix=""):
    """Every dict key of a JSON value as a path such as ``checks[2].tol``."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            yield path
            yield from key_paths(item, path)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from key_paths(item, f"{prefix}[{i}]")


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_exact_reports_match_their_golden_bytes(capsys, name):
    assert main(list(STDOUT[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name, argv", SAME_BYTES, ids=[" ".join(argv) for _, argv in SAME_BYTES])
def test_other_argv_match_their_golden_bytes(capsys, name, argv):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(KEYS))
def test_float_reports_match_their_golden_key_paths(capsys, name):
    assert main(list(KEYS[name])) == 0
    got = sorted(key_paths(json.loads(capsys.readouterr().out)))
    assert got == json.loads((GOLDEN / f"{name}.keys.json").read_text())


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**STDOUT, **KEYS}.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if main(list(argv)) != 0:
                sys.exit(f"{' '.join(argv)} did not exit 0")
        if name in STDOUT:
            (GOLDEN / f"{name}.json").write_text(buffer.getvalue())
        else:
            paths = sorted(key_paths(json.loads(buffer.getvalue())))
            (GOLDEN / f"{name}.keys.json").write_text(json.dumps(paths, indent=1) + "\n")
