"""Benchmark of qsym on three certification workloads.

    python3 qbench/run.py --workload spectra|symmetries|relations \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: qsym is imported from the
checkout's ``src/`` without installing it.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``     median of the cold interpreter starts, three per round,
                  that import qsym and load every bundled fixture, each in a
                  subprocess
* ``wall_s``      median time of one in-process pass of the workload's
                  library calls, after a warm-up pass, tracing off
* ``cli_s``       median time of the workload's CLI commands, each run cold
                  as ``python -m qsym.cli`` in a subprocess
* ``peak_rss_mb`` peak resident set of this process, which runs the passes

With ``--trace 1`` they are the per-layer ones, from traced passes that
alternate with untraced ones (see README.md).  Each round runs the library
pass and then the CLI commands; rounds repeat until ``--seconds`` have
passed, so every run attempts whole rounds.  Every output is checked by
``checks``; a step that raises, or a set-up or command that exits non-zero
or runs past its timeout, counts as failed.  Details of the run go to
``.qbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qbench_out"
#: cold set-ups at the start of every round; setup_s is the median of all of
#: them, so it is sampled across the whole run rather than in one burst
SETUP_PER_ROUND = 3
SETUP_CODE = ("import qsym\nfrom qsym import fixtures\n"
              "for name in fixtures.fixture_names():\n    fixtures.load_graph(name)\n"
              "print(qsym.__file__)")
SUBPROCESS_TIMEOUT_S = 150


def _environment() -> None:
    """Point imports and subprocesses at the checkout's src/ and cap BLAS
    threads at the CPUs this process may use (at most two)."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    os.environ.pop("QSYM_SEED", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


class Tally:
    """Operations attempted and failed, and the errors the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []


def _run(argv: list[str], tally: Tally) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run argv from the checkout root as one attempted operation; return
    its time and the finished process, or None if it timed out."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - start, proc


def _setup_times(tally: Tally) -> list[float]:
    times = []
    for _ in range(SETUP_PER_ROUND):
        elapsed, proc = _run([sys.executable, "-c", SETUP_CODE], tally)
        times.append(elapsed)
        if proc is None:
            tally.failed.append(f"set-up: timed out after {SUBPROCESS_TIMEOUT_S} s")
        elif proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parent != SRC / "qsym":
            tally.failed.append(f"set-up: {proc.stderr.strip() or proc.stdout.strip()}")
    return times


def library_pass(workload, tally: Tally) -> tuple[float, dict]:
    """Run every step once; return the pass time and the results."""
    results = {}
    gc.collect()
    start = time.perf_counter()
    for label, run, _ in workload.steps:
        try:
            results[label] = run(results)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.failed.append(f"{label}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    tally.attempted += len(workload.steps)
    return elapsed, results


def check_pass(workload, results: dict, tally: Tally) -> None:
    """Check the results of a pass, after its clock (and its tracing) stopped."""
    for label, _, check in workload.steps:
        if label in results:
            tally.wrong += check(results[label], results)


def checked_pass(workload, tally: Tally) -> float:
    elapsed, results = library_pass(workload, tally)
    check_pass(workload, results, tally)
    return elapsed


def _check_report(argv, check, code: int, stdout: str, tally: Tally) -> None:
    if code != 0:
        tally.failed.append(f"qsym {' '.join(argv)}: exit {code}")
        return
    try:
        tally.wrong += check(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        tally.wrong.append(f"qsym {' '.join(argv)}: unreadable report ({exc!r})")


def cli_cold(workload, tally: Tally) -> float:
    """Run every CLI command as a fresh interpreter; return their total time."""
    total = 0.0
    for argv, check in workload.commands:
        elapsed, proc = _run([sys.executable, "-m", "qsym.cli", *argv], tally)
        total += elapsed
        if proc is None:
            tally.failed.append(f"qsym {' '.join(argv)}: timed out after {SUBPROCESS_TIMEOUT_S} s")
        else:
            _check_report(argv, check, proc.returncode, proc.stdout, tally)
    return total


def cli_in_process(workload, tally: Tally) -> tuple[float, int]:
    """Run every CLI command through qsym.cli.main in this process with its
    output captured; return the total time and the report bytes."""
    import qsym.cli

    total, size = 0.0, 0
    for argv, check in workload.commands:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = qsym.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        total += time.perf_counter() - start
        tally.attempted += 1
        size += len(out.getvalue().encode())
        _check_report(argv, check, code, out.getvalue(), tally)
    return total, size


def measure(workload, seconds: float, tally: Tally) -> dict:
    checked_pass(workload, tally)  # warm-up: BLAS start-up, lazy imports, qsym's caches
    setup, walls, clis = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        setup += _setup_times(tally)
        walls.append(checked_pass(workload, tally))
        clis.append(cli_cold(workload, tally))
        if time.perf_counter() >= deadline:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": setup, "wall_s": walls, "cli_s": clis, "peak_rss_mb": [peak_mb]}
    units = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    return {"metrics": metrics, "samples": samples}


def measure_traced(workload, seconds: float, tally: Tally, spans_path: Path) -> dict:
    import spans

    tracer = spans.Tracer()
    checked_pass(workload, tally)  # warm-up, untraced
    untraced, traced, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(checked_pass(workload, tally))
        tracer.install()
        try:
            first = len(tracer.spans)
            wall, results = library_pass(workload, tally)
            layers = tracer.layer_metrics(first, len(tracer.spans))
            cli_time, report_bytes = cli_in_process(workload, tally)
        finally:
            tracer.uninstall()
        check_pass(workload, results, tally)
        traced.append(wall)
        rounds.append({**layers, "cli.main_s": cli_time, "cli.report_bytes": report_bytes})
        if time.perf_counter() >= deadline:
            break
    tracer.dump(spans_path)
    metrics = {}
    for name in rounds[0]:
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = {"value": statistics.median(r[name] for r in rounds), "unit": unit}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"metrics": metrics, "samples": {"untraced_wall_s": untraced, "traced_wall_s": traced,
                                            "rounds": rounds}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsym" / "__init__.py").is_file():
        print(f"error: no qsym sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    _environment()

    import qsym  # after _environment: numpy must see the thread cap
    import selftest
    import workloads

    if Path(qsym.__file__).resolve().parent != SRC / "qsym":
        print(f"error: imported qsym from {qsym.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("error: the benchmark's checks are not live: " + "; ".join(problems), file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = workloads.build(args.workload, args.seed, SRC / "qsym" / "fixtures", Path(scratch))
        if args.trace:
            run = measure_traced(workload, args.seconds, tally, OUT / f"spans-{args.workload}.json")
        else:
            run = measure(workload, args.seconds, tally)
    result = {"correct": not tally.wrong, "attempted": tally.attempted, "failed": len(tally.failed),
              "metrics": run["metrics"]}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "result": result, "samples": run["samples"], "failures": tally.failed, "errors": tally.wrong}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    for line in tally.failed + tally.wrong:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
