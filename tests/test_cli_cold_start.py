"""``slimstart replay``'s own cold start: what one replay loads.

The sibling of ``tests/test_cli.py::TestOwnColdStart`` (which pins
``table2``): SLIMSTART's subject is libraries a function initializes and
never uses, and the replay CLI must not be such a function — nothing
under ``src/repro`` needs numpy, the process pool belongs to ``--workers``
alone, and most of ``repro.core`` / ``repro.obs.query`` belongs to other
subcommands.  Each case runs the CLI in a fresh interpreter and reports
what it loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = (
    "import contextlib, io, sys\n"
    "bare = len(sys.modules)\n"
    "import repro.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = repro.cli.main(sys.argv[1:])\n"
    "arrivals = next(\n"
    "    line.split(':')[1] for line in out.getvalue().splitlines()\n"
    "    if line.startswith('arrivals')\n"
    ")\n"
    "print(code, int(arrivals), 'numpy' in sys.modules, len(sys.modules) - bare)\n"
    # The process pool is imported where a sharded replay creates it.
    "assert 'multiprocessing' not in sys.modules\n"
)

#: The benchmark's replay workloads (``bench/workloads.py``), seed 42.
WARM = ["replay", "--apps", "32", "--duration-hours", "12", "--window-hours", "1",
        "--requests-per-window", "1340", "--shift-hours", "6", "--seed", "42"]
FEDERATED = ["replay", "--apps", "16", "--duration-hours", "8", "--window-hours", "1",
             "--requests-per-window", "400", "--shift-hours", "4",
             "--regions", "us,eu", "--seed", "42"]
DIURNAL = ["replay", "--apps", "16", "--duration-hours", "12", "--window-hours", "1",
           "--requests-per-window", "600", "--arrival-model", "diurnal"]


def cold_run(argv, script=SCRIPT):
    """``(arrivals, numpy loaded, modules beyond a bare interpreter's)``."""
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code, arrivals, numpy_loaded, added = result.stdout.split()
    assert code == "0"
    return int(arrivals), numpy_loaded == "True", int(added)


class TestReplayColdStart:
    #: Modules a replay loads beyond a bare interpreter's: 118 today,
    #: nearly all of it ``import repro.workloads.replayplan``'s closure.
    #: The headroom absorbs stdlib drift, not another subcommand's
    #: machinery (the pipeline, the report renderer, the journal reader,
    #: the process pool).
    MODULE_BUDGET = 130

    @pytest.mark.parametrize("words", [WARM, FEDERATED], ids=["warm", "federated"])
    def test_set_up_command_stays_numpy_free_and_within_budget(self, words):
        # The benchmark's set-up command: every import, trace generation,
        # deployment and rendering a replay pays, ~no event loop.
        arrivals, numpy_loaded, added = cold_run(words + ["--scale", "0.001"])
        assert 0 < arrivals < 1000
        assert not numpy_loaded
        assert added <= self.MODULE_BUDGET

    def test_large_diurnal_replay_is_stdlib_only(self):
        # 115 k diurnal draws and a full event loop: what a real run
        # loads, not only what its set-up does.
        arrivals, numpy_loaded, added = cold_run(DIURNAL)
        assert arrivals > 100_000
        assert not numpy_loaded
        assert added <= self.MODULE_BUDGET

    def test_sharded_replay_imports_the_pool_it_needs(self):
        arrivals, _, _ = cold_run(
            WARM + ["--scale", "0.01", "--workers", "2"],
            script=SCRIPT.replace("' not in sys.modules", "' in sys.modules"),
        )
        assert arrivals > 1000
