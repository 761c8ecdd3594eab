"""Run one cold ``python`` subprocess and read what it cost.

Every measured operation of the benchmark is a fresh interpreter in a
fresh scratch directory (cwd, ``HOME`` and ``TMPDIR``), one at a time:
a closed loop with one client, so nothing the benchmark starts competes
with what it measures.  Harness and invocations share one CPU.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: An invocation still running after this long is killed and counts as
#: failed, so a hung program cannot outlive the benchmark.
INVOCATION_LIMIT_S = 120.0


def pin_to_one_cpu() -> set[int]:
    """Pin this process, and so every child it starts, to one CPU.

    The host's speed moves per virtual CPU (probes on the two CPUs of
    the builder box correlate 0.4), so a probe only tells the speed an
    invocation saw if both ran on the same one; left to the scheduler
    they often do not (one run read the probes 15 % slower and the
    invocations 19 % faster than the run before).  Every workload is one
    single-threaded process, so it loses nothing.  Returns the CPUs the
    process could use before.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    return before


@dataclass(frozen=True)
class Invocation:
    """What one subprocess cost and printed."""

    wall_s: float  # spawn -> exit
    cpu_s: float  # user + sys of the process tree
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str

    def problems(self) -> list[str]:
        """Why this invocation counts as failed (empty when it did not)."""
        found = []
        if self.code != 0:
            found.append(f"exit code {self.code}")
        if "Traceback" in self.stderr:
            found.append("Traceback on stderr")
        return found


def run_python(words: list[str], scratch_root: Path) -> Invocation:
    """Run ``python <words>`` cold; rusage comes from ``os.wait4``.

    Output goes to files, not pipes, so the child never waits on the
    harness; the scratch directory is removed afterwards.
    """
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC), HOME=str(scratch), TMPDIR=str(scratch),
    )
    try:
        with open(scratch / ".stdout", "wb") as out, open(
            scratch / ".stderr", "wb"
        ) as err:
            started = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *words],
                cwd=scratch, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err,
            )
            watchdog = threading.Timer(INVOCATION_LIMIT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
            # Reaped above; tell Popen so it does not wait again.
            child.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            code=child.returncode,
            stdout=(scratch / ".stdout").read_text(),
            stderr=(scratch / ".stderr").read_text(),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_cli(words: list[str], scratch_root: Path) -> Invocation:
    """Run ``slimstart <words>`` the way the console script does."""
    return run_python(["-m", "repro.cli", *words], scratch_root)
