"""Measurement helpers shared by the workloads: percentiles, operation
accounting, and child processes timed with their peak memory.

Times are :func:`time.perf_counter` readings, the system-wide monotonic
clock on Linux, so they line up with span times recorded in children.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: tail percentiles tried, highest first, by :func:`tail_percentile`;
#: the metric is named for p99, so nothing above it is tried
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) and the number of
    samples strictly above its rank."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def _beyond(count: int, q: float) -> int:
    return count - min(count, max(1, math.ceil(q / 100.0 * count)))


def tail_percentile(samples: Sequence[float], min_beyond: int = 10,
                    basis: Optional[int] = None) -> Dict[str, float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    ``min_beyond`` samples beyond it.

    The percentile is chosen for ``basis`` samples when given (the count
    a run always collects, so that runs of different length report the
    same percentile), else for ``len(samples)``. When none qualifies the
    median (:func:`statistics.median`, the same value as a p50 metric)
    is returned, marked ``qualified: False``.
    """
    count = len(samples) if basis is None else min(basis, len(samples))
    for q in TAIL_LADDER:
        if _beyond(count, q) >= min_beyond:
            value, beyond = nearest_rank(samples, q)
            return {"percentile": q, "value": value, "beyond": beyond,
                    "samples": len(samples), "qualified": True}
    value = statistics.median(samples)
    return {"percentile": 50.0, "value": value,
            "beyond": sum(1 for x in samples if x > value),
            "samples": len(samples), "qualified": False}


@dataclass
class Ops:
    """Operations attempted and how each one that went wrong went wrong."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    mismatched: int = 0
    notes: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, note: str) -> None:
        """Count one attempted operation that ``failed``, was ``refused``
        or produced a ``mismatched`` output."""
        if kind not in ("failed", "refused", "mismatched"):
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.notes) < 10:
            self.notes.append(f"{kind}: {note}")

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.mismatched

    @property
    def failed_ratio(self) -> float:
        return self.bad / self.attempted if self.attempted else 1.0


@dataclass
class Finished:
    """A child process that ran to completion."""

    returncode: int
    stdout: str
    stderr: str
    started: float
    ended: float
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def finish(proc: subprocess.Popen, timeout: float = 170.0) -> Tuple[str, float]:
    """Read the rest of ``proc``'s standard output, wait for it to exit,
    and return (that output, the child's peak RSS in MB).

    ``os.wait4`` reaps the child and returns that child's own resource
    usage; the exit status is stored on ``proc`` as ``wait`` would. The
    child is killed if it has not exited after ``timeout`` seconds.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            rest = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return rest, usage.ru_maxrss / 1024.0


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: Path,
              scratch: Path) -> Finished:
    """Run ``argv`` to completion: output, wall time and peak RSS.

    Standard error goes to a file in the ``scratch`` directory, so that
    reading standard output to its end cannot block on the other pipe.
    """
    started = time.perf_counter()
    with tempfile.TemporaryFile(mode="w+", dir=scratch) as err:
        proc = subprocess.Popen(
            list(argv), env=env, cwd=str(cwd), stdout=subprocess.PIPE,
            stderr=err, text=True,
        )
        stdout, peak = finish(proc)
        ended = time.perf_counter()
        err.seek(0)
        stderr = err.read()
    return Finished(proc.returncode, stdout, stderr, started, ended, peak)


def time_to_line(argv: Sequence[str], env: Dict[str, str], cwd: Path,
                 marker: str) -> Tuple[float, subprocess.Popen, str]:
    """Spawn ``argv`` and read its output until a line holding ``marker``.

    Returns (seconds from spawn to that line, the running process, the
    line). Raises RuntimeError when the process ends first.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), env=env, cwd=str(cwd), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    seen = []
    try:
        for line in proc.stdout:
            if marker in line:
                return time.perf_counter() - started, proc, line
            seen.append(line)
    except BaseException:
        proc.kill()
        finish(proc, timeout=30)
        raise
    finish(proc, timeout=30)
    raise RuntimeError(
        f"{' '.join(argv[1:4])} ended before {marker!r}: {''.join(seen)[-500:]}"
    )


def cli_setup_seconds(python: str, env: Dict[str, str], cwd: Path) -> float:
    """Spawn-to-ready time of a fresh interpreter doing ``import repro.cli``."""
    code = "import repro.cli; print('perfbench-ready', flush=True)"
    seconds, proc, _line = time_to_line([python, "-c", code], env, cwd,
                                        "perfbench-ready")
    finish(proc, timeout=30)
    return seconds
