"""What the frozen benchmark uses of the library, as a tier-1 contract.

``bench/`` may not be edited by perf or simplicity PRs, and
``bench/test_bench_smoke.py`` sits outside ``testpaths`` — so a deletion
that breaks ``bench/traced.py`` would otherwise only be found when the
PR driver runs the benchmark.  This walks ``bench/*.py`` with ``ast``
(no subprocess, no benchmark run): every ``from repro.… import name``,
function-local ones included, must resolve, and the methods and keyword
arguments the traced stages use on the objects they build must exist.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def library_imports():
    """``(file:line, module, name)`` for every ``from repro… import name``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "repro"
            ):
                found += [
                    (f"{path.name}:{node.lineno}", node.module, alias.name)
                    for alias in node.names
                ]
    return found


IMPORTS = library_imports()

#: ``bench/traced.py``'s calls on library objects: ``owner -> {method:
#: keyword arguments passed}``.  Short and explicit on purpose — extend
#: it when a benchmark PR makes a traced stage call something new.
CALLS = {
    "repro.metrics.WindowAccumulator": {
        "__init__": {"window_s", "pricing"},
        "finalize": set(),
        "to_wire": set(),
    },
    "repro.metrics.merge_wire": {"__call__": set()},
    "repro.faas.cluster.ClusterPlatform": {
        "__init__": {"config", "fleet", "seed", "qos"},
        "run_stream": {"finalize"},
    },
    "repro.faas.gateway.Gateway": {"submit_stream": set()},
    "repro.faas.region.FederatedGateway": {
        "__init__": {"platform"},
        "submit_stream": set(),
    },
    "repro.faas.snapshot.run_stream_checkpointed": {
        "__call__": {"journal", "profiler"}
    },
    "repro.obs.JournalWriter": {"__init__": {"window_s", "trace_sample"}},
    "repro.workloads.shard.replay_sharded": {"__call__": {"workers"}},
    "repro.workloads.shard.ShardReplaySpec": {
        "__init__": {
            "platform", "fleet", "seed", "replay_seed", "model", "scale",
            "window_s", "pricing", "exec_ms", "qos", "qos_seed",
        }
    },
}


def test_the_walk_finds_the_benchmarks_imports():
    names = {name for _, _, name in IMPORTS}
    assert len(IMPORTS) >= 40
    assert {"merge_wire", "ShardReplaySpec", "run_stream_checkpointed",
            "build_parser", "as_paths", "expose_trace"} <= names


@pytest.mark.parametrize(
    "where, module, name", IMPORTS, ids=[f"{m}.{n}@{w}" for w, m, n in IMPORTS]
)
def test_every_library_name_the_benchmark_imports_exists(where, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"bench/{where} imports {name} from {module}, which no longer has it; "
        "bench/ is frozen — keep the name working"
    )


@pytest.mark.parametrize("owner", sorted(CALLS))
def test_the_calls_the_traced_stages_make_are_still_accepted(owner):
    module, _, name = owner.rpartition(".")
    target = getattr(importlib.import_module(module), name)
    for method, keywords in CALLS[owner].items():
        callee = target if method == "__call__" else getattr(target, method, None)
        assert callee is not None, f"{owner} lost {method}()"
        accepted = set(inspect.signature(callee).parameters)
        assert keywords <= accepted, (
            f"{owner}.{method} no longer takes {sorted(keywords - accepted)}"
        )


def test_the_library_is_stdlib_only():
    # Every replay the benchmark times runs without numpy; an import of
    # it under src/ (or an install extra that brings it) would put a
    # second code path behind those numbers.
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "numpy" not in roots, f"{path}:{node.lineno} imports numpy"
    # tomllib is 3.11+; on 3.10 the import walk above still runs.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not project.get("optional-dependencies")


def test_only_the_clock_module_touches_the_clocks_field():
    # Virtual time reaches handlers and drains as an argument; a driver
    # that needs the clock moved says so through advance_to.  A store to
    # ``clock._now`` from another module is how that rule last eroded.
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.relative_to(ROOT / "src" / "repro").as_posix() == "common/clock.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr == "_now"), (
                f"{path}:{node.lineno} reaches into a clock's _now"
            )
