"""The cold-CLI harness ``tools/bench_cli.py`` on one small command."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_cli.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_cli", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cold_run_of_spectra_n3_is_recorded(tmp_path):
    bench_cli = _load()
    out = tmp_path / "BENCH_cli.json"
    row = ("spectra --n 3", ("-m", "qsym.cli", "spectra", "--n", "3"))
    record = bench_cli.bench_cli([row], runs=1, out=out)
    assert json.loads(out.read_text()) == record
    assert record["python"] == sys.version.split()[0] and record["runs"] == 1
    assert set(record) == {"commit", "python", "numpy", "platform", "cpus", "blas_threads", "runs", "commands"}
    assert set(record["blas_threads"]) == set(bench_cli.THREAD_VARIABLES)
    (command,) = record["commands"]
    assert command["command"] == "spectra --n 3" and command["exit_code"] == 0
    assert len(command["wall_s_runs"]) == 1 and command["wall_s"] == command["wall_s_runs"][0] > 0
    # the child's own peak: a Python interpreter with numpy loaded
    assert 10 < command["peak_rss_mb"] < 1024


def test_the_rows_are_the_floor_the_baseline_and_the_frontier():
    bench_cli = _load()
    names = [name for name, _ in bench_cli.commands()]
    assert names[0] == "import numpy" and len(names) == len(set(names)) == 16
    assert {"witness --n 7", "disjoint --n 7", "so-points --n 7", "so-check --n 7", "twist-check --m 4",
            "spectra --n 15"} <= set(names)
