"""The commands make no cyclic garbage that grows with their input.

``repro.cli.main`` runs every command with the automatic cyclic collector
off, which is only sound while nothing the commands do builds reference
cycles: each one would wait in memory until the caller's collector next
runs.  Each case runs ``main(argv)`` under ``gc.DEBUG_SAVEALL`` and lists
what ``gc.collect()`` then finds.  None of it may be a function (or a
closure cell) of ``repro`` code — the recursive closures that used to
walk import closures, call graphs and calling-context trees each held
their visited sets in a cycle — and a replay at four times the volume
must leave exactly as much garbage as the smaller one (argparse's own
parser cycles are the constant rest).

All cases share one fresh interpreter: the memo caches (``build_library``,
``compiled_app``, ``_entry_walk``, ``Ecosystem._closures``) start cold
there, so every walk really runs, whatever other tests ran before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, gc, io, json, os, sys
import repro, repro.cli

root = os.path.dirname(repro.__file__) + os.sep
cases = json.loads(sys.argv[1])
results = {}
for name, argv in cases:
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    gc.collect()
    gc.set_debug(0)
    garbage = gc.garbage[:]
    gc.garbage.clear()
    functions = [
        obj for obj in garbage
        if type(obj).__name__ == "function"
        and obj.__code__.co_filename.startswith(root)
    ]
    closed = {id(cell) for function in functions for cell in function.__closure__ or ()}
    cells = 0
    for obj in garbage:
        if type(obj).__name__ == "cell":
            try:
                contents = obj.cell_contents
            except ValueError:  # an empty cell
                contents = None
            code_of = getattr(contents, "__code__", None)
            cells += id(obj) in closed or bool(
                code_of and code_of.co_filename.startswith(root)
            )
    results[name] = {
        "code": code,
        "garbage": len(garbage),
        "functions": sorted({function.__qualname__ for function in functions}),
        "cells": cells,
    }
    del garbage, functions
print(json.dumps(results))
"""

REPLAY = ["replay", "--apps", "4", "--duration-hours", "6", "--window-hours", "1",
          "--requests-per-window", "200", "--seed", "3"]
#: The ``replay_durable`` benchmark workload's shape (``bench/workloads.py``)
#: at a small volume.
DURABLE = ["replay", "--apps", "16", "--duration-hours", "12", "--window-hours", "1",
           "--requests-per-window", "600", "--shift-hours", "6", "--keep-alive", "1",
           "--policy", "panic-window", "--arrival-model", "diurnal",
           "--qos-mix", "critical=1,standard=5,batch=4", "--checkpoint", "C",
           "--journal", "J", "--trace-sample", "0.01", "--seed", "42"]

CASES = [
    # Builds every catalog library: the import-cycle check, each app's
    # cold import closure and each entry's library self-time.
    ("apps", ["apps"]),
    # Profiles, analyzes and redeploys: entry call-graph walks and the
    # calling-context tree walk.
    ("cycle", ["--cold-starts", "20", "--runs", "1", "cycle", "--app", "R-DV"]),
    ("replay", REPLAY + ["--scale", "0.25"]),
    ("replay-4x", REPLAY + ["--scale", "1"]),
    ("durable", DURABLE + ["--scale", "0.02"]),
    ("regions", REPLAY + ["--scale", "0.25", "--regions", "us,eu"]),
    ("workers", REPLAY + ["--scale", "0.25", "--workers", "2", "--checkpoint", "W"]),
    ("cluster", ["cluster", "--app", "R-SA"]),
]


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CASES)],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path_factory.mktemp("gc-contract"),
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_no_repro_function_or_cell_is_cyclic_garbage(census, name):
    run = census[name]
    assert run["code"] == 0
    assert run["functions"] == []
    assert run["cells"] == 0


def test_replay_garbage_does_not_grow_with_volume(census):
    assert census["replay-4x"]["garbage"] == census["replay"]["garbage"]
