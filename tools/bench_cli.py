"""Cold wall time, exit code and peak RSS of every ``qsym`` CLI command.

Each command runs K times as a fresh interpreter (``python -m qsym.cli ...``
with the checkout's ``src`` first on ``PYTHONPATH``, stdout and stderr sent
to /dev/null).  Per command the file records the median wall time, the exit
code and the largest peak RSS of the K runs.  The peak RSS is the child's
own, read from ``os.wait4`` on that one child; ``RUSAGE_CHILDREN`` would
keep only the largest child the harness has waited for so far.  A cold
``python -c "import numpy"`` is measured first, as the floor every command
pays.  The file also records the commit, the Python and numpy versions and
the BLAS thread variables, which are passed to the children as they are.

    python3 tools/bench_cli.py [--runs K] [--out BENCH_cli.json]

Standard library only: numpy is never imported here, so its version is
read from the installed package metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the floor: a cold interpreter that imports numpy and nothing of qsym
FLOOR = ("import numpy", ("-c", "import numpy"))

#: the in-range commands of the ROADMAP baseline table
BASELINE = (
    "spectra --n 13",
    "autos --graph clebsch",
    "witness --graph clebsch",
    "witness --n 5",
    "so-points --n 5",
    "so-check --n 5",
    "so-check --n 5 --samples 2000",
    "twist-check --m 2",
    "twist-check --m 3",
)

#: commands past a bound today (exit 2): a change that moves a frontier
#: shows as its exit code turning to 0
FRONTIER = (
    "witness --n 7",
    "disjoint --n 7",
    "so-points --n 7",
    "so-check --n 7",
    "twist-check --m 4",
    "spectra --n 15",
)

#: environment variables that set the BLAS and OpenMP thread pools
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def commands() -> list[tuple[str, tuple[str, ...]]]:
    """(name, interpreter arguments) of the floor, the baseline and the frontier rows."""
    return [FLOOR] + [(name, ("-m", "qsym.cli", *name.split())) for name in BASELINE + FRONTIER]


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _peak_rss_mb(usage) -> float:
    """ru_maxrss in MB: kilobytes on Linux, bytes on macOS."""
    scale = 1 if sys.platform == "darwin" else 1024
    return usage.ru_maxrss * scale / 2**20


def run_once(args: tuple[str, ...], env: dict[str, str]) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MB) of one cold child run."""
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    argv = [sys.executable, *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), _peak_rss_mb(usage)


def measure(name: str, args: tuple[str, ...], runs: int, env: dict[str, str]) -> dict:
    """One row: the median wall time of ``runs`` cold runs, their exit
    code (a list if the runs disagree) and their largest peak RSS."""
    walls, codes, peaks = zip(*(run_once(args, env) for _ in range(runs)))
    distinct = sorted(set(codes))
    return {
        "command": name,
        "wall_s": round(statistics.median(walls), 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        "exit_code": distinct[0] if len(distinct) == 1 else distinct,
        "peak_rss_mb": round(max(peaks), 1),
    }


def _commit() -> str | None:
    """HEAD's hash, with "-dirty" when tracked files differ from it; None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def _numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def bench_cli(rows: list[tuple[str, tuple[str, ...]]], runs: int, out: Path) -> dict:
    """Measure ``rows`` (name, interpreter arguments) ``runs`` times each,
    write the record to ``out`` as sorted, indented JSON and return it."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    env = _environment()
    record = {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
        "runs": runs,
        "commands": [measure(name, args, runs, env) for name, args in rows],
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="cold runs per command (default 5)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json", help="output file")
    args = parser.parse_args(argv)
    record = bench_cli(commands(), args.runs, args.out)
    for row in record["commands"]:
        print(f"{row['command']:32} {row['wall_s']:8.3f} s  exit {row['exit_code']}  {row['peak_rss_mb']:7.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
