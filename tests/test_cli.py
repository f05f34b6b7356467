import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qsym.cli
from qsym import so_twist
from qsym.cli import main
from qsym.fixtures import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_spectra(capsys):
    code, report, err = run_json(capsys, "spectra", "--n", "5")
    assert code == 0
    assert report["pass"] is True
    assert {lvl["lambda"]: lvl["multiplicity"] for lvl in report["levels"]} == {
        5: 1, 1: 10, -3: 5,
    }
    assert "PASS" in err


def test_autos_by_fixture_name(capsys):
    code, report, _ = run_json(capsys, "autos", "--graph", "k4.json")
    assert code == 0
    assert report["count"] == 24


def test_autos_by_n(capsys):
    code, report, _ = run_json(capsys, "autos", "--n", "3")
    assert code == 0
    assert report["count"] == 24


def test_autos_by_path(capsys, tmp_path):
    target = tmp_path / "graph.json"
    target.write_text(fixture_path("c5").read_text())
    code, report, _ = run_json(capsys, "autos", "--graph", str(target))
    assert code == 0
    assert report["count"] == 10


def test_disjoint_found(capsys):
    code, report, _ = run_json(capsys, "disjoint", "--graph", "clebsch.json")
    assert code == 0
    assert report["found"] is True
    assert sorted(report["orders"]) == [2, 2]


def test_disjoint_none_on_c5(capsys):
    code, report, _ = run_json(capsys, "disjoint", "--graph", "c5.json")
    assert code == 0
    assert report["found"] is False and report["sigma"] is None


def test_witness(capsys):
    code, report, _ = run_json(capsys, "witness", "--graph", "clebsch.json", "--seed", "42")
    assert code == 0
    assert report["witness"]["pass"] is True
    assert report["witness"]["noncomm_certificate"] > 0.01
    assert report["recovery"]["pass"] is True
    assert report["seed"] == 42


def test_so_points(capsys):
    code, report, _ = run_json(capsys, "so-points", "--n", "3")
    assert code == 0 and report["pass"] is True
    assert report["count"] == 24
    assert report["bijective_onto_automorphism_group"] is True
    assert len(report["points"]) == 24


def test_so_check(capsys):
    code, report, _ = run_json(capsys, "so-check", "--n", "3", "--samples", "20")
    assert code == 0
    relations = [c["relation"] for c in report["checks"]]
    assert "lemma_SO" in relations and "lemma_sumzero" in relations and "lemma_P" in relations
    assert all(c["pass"] for c in report["checks"])


def test_so_check_n5_runs_every_l_on_both_models(capsys):
    code, report, _ = run_json(capsys, "so-check", "--n", "5", "--samples", "5")
    assert code == 0
    assert len(report["checks"]) == 13
    for model in ("abelian", "twisted"):
        ls = [c["l"] for c in report["checks"] if c["relation"] == "lemma_P" and c["model"] == model]
        assert ls == [1, 2, 3, 4, 5]
    assert all(c["pass"] for c in report["checks"])


def test_twist_check(capsys):
    code, report, _ = run_json(capsys, "twist-check", "--m", "1", "--samples", "50", "--seed", "42")
    assert code == 0
    assert [r["relation"] for r in report["relations"]] == ["7.1", "7.2", "7.3", "7.4", "7.5"]
    assert all(r["pass"] for r in report["relations"])


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_exit_1_on_failed_check(capsys):
    code, report, err = run_json(capsys, "spectra", "--n", "5", "--tol", "1e-30")
    assert code == 1
    assert report["pass"] is False
    assert "FAIL" in err


def test_exit_1_on_witness_with_impossible_tol(capsys):
    code, report, _ = run_json(capsys, "witness", "--graph", "k4.json", "--tol", "1e-18")
    assert code == 1
    assert report["witness"]["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("autos", "--graph", "no_such_file.json"),
        ("autos",),  # neither subject
        ("autos", "--n", "3", "--graph", "k4.json"),  # both subjects
        ("witness", "--graph", "c5.json"),  # no disjoint pair
        ("spectra", "--n", "1"),  # invalid n
        ("so-points", "--n", "4"),  # even n
        ("so-check", "--n", "7"),  # capacity
        ("twist-check", "--m", "4"),  # unsupported m
    ],
)
def test_exit_2_on_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectra", "--n", "2"),  # below the closed form's range
        ("spectra", "--n", "5", "--tol", "nan"),
        ("spectra", "--n", "5", "--tol", "-1"),
        ("so-points", "--n", "5", "--tol", "nan"),
        ("so-points", "--n", "3", "--tol", "-1"),
        ("witness", "--graph", "k4", "--tol", "nan"),
        ("so-check", "--n", "3", "--tol", "-1"),
        ("twist-check", "--m", "1", "--tol", "nan"),
        ("witness", "--n", "3", "--seed", "-1"),
        ("twist-check", "--m", "1", "--seed", "-1"),
        ("so-check", "--n", "3", "--seed", "-1"),
        # n is held to the bound before 2^(n-1) is formed: no MemoryError
        ("spectra", "--n", "99999999999"),
        ("autos", "--n", "99999999999"),
        ("disjoint", "--n", "100000000000"),
        ("witness", "--n", "100000000001"),
        ("so-points", "--n", "100000000001"),
        # samples are held to the sample bound before any is drawn: no MemoryError
        ("so-check", "--n", "5", "--samples", "100000000"),
        ("so-check", "--n", "3", "--samples", "100000000"),
        ("twist-check", "--m", "2", "--samples", "100000000"),
        # at n = 7 a stack of 2^20 samples would take 392 MiB
        ("twist-check", "--m", "3", "--samples", "1048576"),
    ],
)
def test_exit_2_on_bad_values(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and out == ""


def _refuse(*args):
    raise AssertionError("this run must not get here")


@pytest.mark.parametrize("n, message", [
    ("1", "needs odd n >= 3"),
    ("4", "needs odd n >= 3"),
    ("7", "signed-permutation bound 6"),
    ("100000000001", "signed-permutation bound 6"),
])
def test_so_points_checks_n_before_any_stack_is_built(capsys, monkeypatch, n, message):
    monkeypatch.setattr(so_twist, "_signed_perm_stack", _refuse)
    code, out, err = run(capsys, "so-points", "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_so_points_n5_reads_its_points_as_arrays(capsys, monkeypatch):
    """No SignedPermMatrix is built, and the abelian self-check and the
    bijection check of the actions run once each."""
    monkeypatch.setattr(so_twist, "_stack_points", _refuse)
    calls = Counter()
    for name in ("_relation_defects", "_bijections"):
        real = getattr(so_twist, name)
        monkeypatch.setattr(so_twist, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    code, report, _ = run_json(capsys, "so-points", "--n", "5")
    assert code == 0 and report["pass"] is True and report["count"] == 1920
    assert calls == {"_relation_defects": 1, "_bijections": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("autos", "--graph", "k4", "--tol", "-1"),
        ("autos", "--n", "3", "--tol", "1e-9"),
        ("disjoint", "--graph", "k4", "--tol", "nan"),
    ],
)
def test_exit_2_on_tol_for_commands_without_a_threshold(capsys, argv):
    """autos and disjoint search exactly: --tol is not one of their flags."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in captured.err and captured.out == ""


def test_so_points_reads_its_tolerance(capsys, monkeypatch):
    """The eigenspace check compares the gathered defects with --tol."""
    monkeypatch.setattr(qsym.cli, "_eigenspace_defects", lambda n, images: np.full(len(images), 1e-12))
    code, report, _ = run_json(capsys, "so-points", "--n", "3")
    assert code == 0 and report["eigenspaces_preserved"] is True
    code, report, _ = run_json(capsys, "so-points", "--n", "3", "--tol", "1e-13")
    assert code == 1 and report["eigenspaces_preserved"] is False and report["pass"] is False
    assert report["actions_are_automorphisms"] is True


@pytest.mark.parametrize(
    "argv", [("spectra", "--n", "5"), ("witness", "--graph", "k4"), ("twist-check", "--m", "1")]
)
def test_a_negative_zero_tolerance_reports_like_zero(capsys, argv):
    """--tol -0.0 is the threshold 0: the same exit code and the same
    report bytes, with "tol": 0.0 and never -0.0."""
    negative = run(capsys, *argv, "--tol", "-0.0")
    zero = run(capsys, *argv, "--tol", "0")
    assert negative == zero
    assert '"tol": 0.0' in zero[1] and "-0.0" not in zero[1]


@pytest.mark.parametrize(
    "content", ['{"n": true, "edges": []}', '{"n": 3, "edges": [[0, true]]}']
)
def test_exit_2_on_bool_integers_in_graph_file(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, _, err = run(capsys, "autos", "--graph", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", ['{"n": 3, "edges": 5}', '{"n": 3, "edges": null}'])
def test_exit_2_on_edges_that_are_not_an_array(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, out, err = run(capsys, "autos", "--graph", str(bad))
    assert code == 2
    assert "error:" in err and '"edges"' in err and out == ""


@pytest.mark.parametrize("n", [4097, 100000])
def test_exit_2_on_graph_file_over_the_vertex_bound(capsys, tmp_path, n):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": n, "edges": []}))
    code, out, err = run(capsys, "autos", "--graph", str(big))
    assert code == 2
    assert f"graph has {n} > 4096 vertices" in err and out == ""


def test_exit_2_on_a_graph_file_nested_too_deeply(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code, out, err = run(capsys, "autos", "--graph", str(nested))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "nested too deeply" in err


def test_exit_2_on_an_edge_nested_980_deep_with_one_short_error_line(capsys, tmp_path):
    """The nesting bound is read from the file, not from the caller's
    stack: a cold process and an in-process call give the same line."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": 3, "edges": [' + "[" * 980 + "0" + "]" * 980 + "]}")
    env = {**os.environ, "PYTHONPATH": str(Path(qsym.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qsym.cli", "autos", "--graph", str(deep)],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, err = run(capsys, "autos", "--graph", str(deep))
    assert proc.returncode == code == 2 and proc.stdout == out == ""
    assert proc.stderr == err == f"error: {deep}: JSON nested too deeply to be a graph\n"


def test_exit_3_on_an_unexpected_exception(capsys, monkeypatch):
    from qsym import cli

    def broken(args):
        raise RuntimeError("planted defect")

    monkeypatch.setattr(cli, "_run_spectra", broken)
    code, out, err = run(capsys, "spectra", "--n", "3")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: planted defect" in err


class _FailingStdout:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")])
def test_exit_3_when_the_report_cannot_be_written(capsys, monkeypatch, error):
    monkeypatch.setattr("sys.stdout", _FailingStdout(error))
    code = main(["so-check", "--n", "3", "--samples", "5"])
    err = capsys.readouterr().err
    assert code == qsym.cli.EXIT_INTERNAL == 3
    assert "cannot write the report" in err and error.strerror in err


def test_exit_2_on_directory_as_graph(capsys, tmp_path):
    code, _, err = run(capsys, "autos", "--graph", str(tmp_path))
    assert code == 2
    assert "error:" in err


def test_so_check_reports_the_lemma_SO_mismatch_count(capsys, monkeypatch):
    import twist_oracle

    twist_oracle.negate_support_terms(monkeypatch)
    code, report, _ = run_json(capsys, "so-check", "--n", "3", "--samples", "5")
    assert code == 1
    lemma_so = report["checks"][0]
    assert lemma_so["relation"] == "lemma_SO"
    assert lemma_so["max_defect"] == 48.0 and lemma_so["pass"] is False


def test_exit_2_on_malformed_graph_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 0]]}')
    code, _, err = run(capsys, "autos", "--graph", str(bad))
    assert code == 2
    assert "loop" in err


def test_exit_2_on_unparseable_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "autos", "--graph", str(bad))
    assert code == 2


def test_capacity_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "autos", "--n", "7")  # 64 vertices > bound
    assert code == 2


@pytest.mark.parametrize("command", ["autos", "disjoint", "witness"])
def test_search_commands_exit_2_over_the_search_bound(capsys, command):
    code, out, err = run(capsys, command, "--n", "7")  # 64 vertices > 32
    assert code == 2
    assert out == ""
    assert "64 > 32 vertices" in err


# ---------------------------------------------------------------------------
# determinism and seeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("spectra", "--n", "5"),
        ("autos", "--graph", "clebsch.json"),
        ("disjoint", "--graph", "clebsch.json"),
        ("witness", "--graph", "clebsch.json", "--seed", "42"),
        ("so-points", "--n", "3"),
        ("so-check", "--n", "3", "--samples", "20", "--seed", "42"),
        ("twist-check", "--m", "1", "--samples", "50", "--seed", "42"),
    ],
)
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_SEED", "7")
    _, report, _ = run_json(capsys, "witness", "--graph", "k4.json")
    assert report["seed"] == 7
    # explicit flag wins over the environment
    _, report, _ = run_json(capsys, "witness", "--graph", "k4.json", "--seed", "3")
    assert report["seed"] == 3


def test_exit_2_on_negative_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_SEED", "-5")
    code, out, err = run(capsys, "twist-check", "--m", "1")
    assert code == 2
    assert "QSYM_SEED" in err and out == ""


def test_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_SEED", "many")
    code, _, err = run(capsys, "witness", "--graph", "k4.json")
    assert code == 2
    assert "QSYM_SEED" in err
