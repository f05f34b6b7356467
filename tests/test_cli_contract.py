"""The CLI's exit-code contract as a property of ``cli.main``, run in-process.

Every subcommand is drawn with each of its flags present or absent.
Flag values are small valid ones (n in {3, 5}, at most 5 samples), except
for at most one flag, whose value is 0, a negative, 10**11, float text or
other text; a bad graph is also a fixture file with one corruption.  A
sweep then runs every bad value of every flag with the others valid, so
no value is left to the draw.  Whatever runs:

* the exit code is 0, 1 or 2 (argparse's own usage errors raise
  ``SystemExit(2)``), never 3;
* exit 2 leaves stdout empty and writes exactly one stderr line with
  ``error:``;
* exit 0 and exit 1 write one JSON report; exit 1's report holds a
  verdict that is false ("pass"), exit 0's holds none.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qsym.cli import main
from qsym.fixtures import fixture_path

FLAGS = {
    "spectra": ("--n", "--tol", "--seed"),
    "autos": ("--graph", "--n", "--seed"),
    "disjoint": ("--graph", "--n", "--seed"),
    "witness": ("--graph", "--n", "--tol", "--seed"),
    "so-points": ("--n", "--tol", "--seed"),
    "so-check": ("--n", "--samples", "--tol", "--seed"),
    "twist-check": ("--m", "--samples", "--tol", "--seed"),
}

VALID = {
    "--n": ("3", "5"),
    "--m": ("1", "2", "3"),
    "--samples": ("1", "5"),
    "--seed": ("0", "7"),
    "--tol": ("1e-9", "0.5", "1e-30", "0"),
    "--graph": ("k4", "c5", "clebsch.json", "clebsch_pentagonal"),
}

#: values outside every flag's range, or not numbers at all
INVALID = ("0", "1", "2", "-1", "-7", "100000000000", "-100000000000", "2.5", "1e-3", "nan", "inf",
           "-inf", "abc", "", "3x", "0x10")

#: the k4 fixture with one corruption each: JSON text, or an object to dump
K4 = json.loads(fixture_path("k4").read_text())
CORRUPTIONS = {
    "no n": {"edges": K4["edges"]},
    "extra key": {**K4, "name": "k4"},
    "n text": {**K4, "n": "4"},
    "n float": {**K4, "n": 4.0},
    "n bool": {**K4, "n": True},
    "n zero": {**K4, "n": 0},
    "n negative": {**K4, "n": -4},
    "n huge": {**K4, "n": 10**11},
    "n too small": {**K4, "n": 3},
    "n nested": {**K4, "n": [[4]]},
    "edges null": {**K4, "edges": None},
    "edges number": {**K4, "edges": 5},
    "edges object": {**K4, "edges": {"0": [1]}},
    "edges text": {**K4, "edges": "0-1"},
    "loop": {**K4, "edges": K4["edges"] + [[2, 2]]},
    "short edge": {**K4, "edges": K4["edges"] + [[0]]},
    "long edge": {**K4, "edges": K4["edges"] + [[0, 1, 2]]},
    "edge out of range": {**K4, "edges": K4["edges"] + [[0, 9]]},
    "negative endpoint": {**K4, "edges": K4["edges"] + [[-1, 2]]},
    "bool endpoint": {**K4, "edges": K4["edges"][:-1] + [[2, True]]},
    "float endpoint": {**K4, "edges": K4["edges"][:-1] + [[2.0, 3]]},
    "text endpoint": {**K4, "edges": K4["edges"][:-1] + [["2", 3]]},
    "duplicate edge": {**K4, "edges": K4["edges"] + [[1, 0]]},
    "edge nested 980 deep": '{"n": 4, "edges": [[0, 1], ' + "[" * 980 + "0" + "]" * 980 + "]}",
    "edge removed": {**K4, "edges": K4["edges"][:-1]},
    "top-level list": K4["edges"],
    "truncated": fixture_path("k4").read_text()[:-2],
    "empty file": "",
    "nested too deeply": "[" * 100_000,
    "not utf-8": b"\xff\xfe{",
}


@pytest.fixture(scope="module")
def corrupted(tmp_path_factory):
    """Path of each corrupted file, by corruption name."""
    root = tmp_path_factory.mktemp("corrupted")
    paths = {}
    for index, (name, content) in enumerate(sorted(CORRUPTIONS.items())):
        path = root / f"graph{index}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(path)
    return paths


def _argv(data, graphs):
    """A command with each flag present or absent.  Every value is valid but
    that of the one flag drawn as bad, if any, which is forced present."""
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    bad = data.draw(st.sampled_from((None,) + FLAGS[command]), label="bad flag")
    argv = [command]
    for flag in FLAGS[command]:
        if flag != bad and not data.draw(st.booleans(), label=f"{flag} present"):
            continue
        values = VALID[flag] if flag != bad else INVALID + (tuple(graphs) if flag == "--graph" else ())
        argv += [flag, data.draw(st.sampled_from(values), label=flag)]
    return argv


VERDICTS = {"pass"}


def _verdicts(report):
    """Every verdict value in a report, at any depth."""
    if isinstance(report, dict):
        for key, value in report.items():
            if key in VERDICTS:
                yield value
            yield from _verdicts(value)
    elif isinstance(report, list):
        for value in report:
            yield from _verdicts(value)


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse's SystemExit
    gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: bad flag values and missing flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err[-2000:])
    if code == 2:
        assert out == "", argv
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        verdicts = list(_verdicts(json.loads(out)))
        assert (False in verdicts) == (code == 1), (argv, verdicts)
    return code


@settings(max_examples=300, derandomize=True)
@given(data=st.data())
def test_every_drawn_command_keeps_the_exit_code_contract(corrupted, data):
    event(f"exit {_check_contract(_argv(data, sorted(corrupted.values())))}")


#: the smallest valid call of each command
BASE = {
    "spectra": ["--n", "3"],
    "autos": ["--n", "3"],
    "disjoint": ["--n", "3"],
    "witness": ["--n", "3"],
    "so-points": ["--n", "3"],
    "so-check": ["--n", "3", "--samples", "1"],
    "twist-check": ["--m", "1", "--samples", "1"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_bad_value_of_each_flag_keeps_the_exit_code_contract(command, corrupted):
    """Every out-of-range value of every flag, the other flags valid: the
    sweep that the drawn examples sample."""
    for flag in FLAGS[command]:
        values = INVALID + (tuple(corrupted.values()) if flag == "--graph" else ())
        for value in values:
            argv = [command] + BASE[command]
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
            if flag == "--graph":
                argv = argv[:1] + argv[3:]  # --graph replaces --n
            _check_contract(argv)


def test_the_corruptions_give_exit_2_with_one_short_error_line(corrupted):
    """Every corruption but a removed edge is refused by the loader."""
    for name, path in corrupted.items():
        code, out, err = _run(["autos", "--graph", path])
        if name == "edge removed":
            assert code == 0
            continue
        assert code == 2 and out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (name, err)
