"""Shared helpers of the benchmark: paths, statistics, environment stamp.

Everything here is import-safe: no process, thread, file or socket is
opened at import time.
"""

from __future__ import annotations

import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: the program's source tree; the benchmark imports and runs it from here.
SRC = ROOT / "src"
#: scratch space for traces, data dirs and worker results (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"


def source_present() -> bool:
    """True when the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def now() -> float:
    """The one clock every timing in the benchmark uses (monotonic)."""
    return time.perf_counter()


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _calibration_loop(iterations: int) -> int:
    """The fixed pure-Python workload behind every calibration number.

    Integer arithmetic, dict updates and a few branches per iteration —
    the instruction mix of the algorithm core.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= table[key] + (i % 7)
    return acc


#: the calibration speed (kilo-iterations per second) that calibrated
#: times are scaled to: a calibrated time is the wall the same work would
#: take on a box running the calibration loop at this speed.
REFERENCE_KITER_PER_S = 2500.0


def seconds_per_kiter(iterations: int = 4000) -> float:
    """This thread's current cost of 1000 calibration iterations (~2 ms)."""
    t0 = now()
    _calibration_loop(iterations)
    return (now() - t0) * 1000.0 / iterations


def calibration_score(rounds: int = 5) -> float:
    """The box's calibration speed in kilo-iterations per second.

    Best of ``rounds`` repetitions of 200k iterations, so a momentary
    stall does not pass for the box's speed.
    """
    return max(1.0 / seconds_per_kiter(200_000) for _ in range(rounds))


def env_stamp() -> dict:
    """The record every result carries: box size, interpreter, speed."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_kiter_per_s": round(calibration_score(), 1),
    }


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of ``proc``'s stdout, or '' after ``timeout`` or at EOF."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return ""
    return proc.stdout.readline()


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


def read_json(path: Path) -> object:
    return json.loads(path.read_text())
