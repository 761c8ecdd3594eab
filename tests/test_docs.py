"""Documentation stays honest: snippets run, names resolve, CLI docs don't drift.

The docs CI job runs exactly this module, so a new subcommand that
isn't documented (or a documented one that no longer exists) fails the
build, as does any doctest in README or ``docs/`` whose output drifted,
a back-ticked name that no longer exists in ``src/``, or an engine rule
in ``docs/semantics.md`` that cites a test which is gone.
"""

import ast
import doctest
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DOCS = ROOT / "docs"
ARCHITECTURE = DOCS / "architecture.md"
SEMANTICS = DOCS / "semantics.md"
LEDGER = DOCS / "ledger.md"
SRC = ROOT / "src" / "repro"
DOC_FILES = [README, *sorted(DOCS.glob("*.md"))]


def cli_subcommands() -> set[str]:
    for action in build_parser()._actions:
        if action.dest == "command" and action.choices:
            return set(action.choices)
    raise AssertionError("slimstart parser has no subcommands")


def doc_id(path: Path) -> str:
    return "readme" if path == README else path.stem


class TestDocsExist:
    def test_readme_exists(self):
        assert README.is_file()

    def test_architecture_doc_exists(self):
        assert ARCHITECTURE.is_file()

    def test_semantics_and_ledger_exist(self):
        assert SEMANTICS.is_file() and LEDGER.is_file()


class TestLedgerIndex:
    def test_every_row_heading_has_a_summary_row(self):
        text = LEDGER.read_text()
        table = text[text.index("| row | subject |"):]
        table = table[: table.index("\n\n")]
        indexed = re.findall(r"(?m)^\| (\d+) \|", table)
        headed = re.findall(r"(?m)^## Row (\d+)$", text)
        assert headed and indexed == headed


class TestReadmeSnippetsRun:
    @pytest.mark.parametrize("path", DOC_FILES, ids=doc_id)
    def test_doctests_pass(self, path):
        result = doctest.testfile(str(path), module_relative=False)
        assert result.failed == 0

    def test_readme_actually_has_doctests(self):
        result = doctest.testfile(str(README), module_relative=False)
        assert result.attempted >= 2  # the snippets the README promises


#: Inline code that is a dotted name, optionally called: ``a.b``,
#: ``A.b()``, ``A.b(until=)``.
_DOTTED_SPAN = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)


def _src_classes() -> dict[str, list[str]]:
    """Top-level class name -> the ``repro`` modules that define it."""
    classes: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(module)
    return classes


def _exempt_names() -> set[str]:
    """The metric names ``BENCHMARK.json`` declares (they are dotted too)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]
        for key in ("end_to_end", "per_layer")
        for metric in spec.get(key, ())
    }


def _walk(obj, module: str, attrs: list[str]) -> bool:
    """getattr along ``attrs``, importing submodules of ``module`` on the way."""
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            try:
                obj = importlib.import_module(f"{module}.{attr}")
            except ImportError:
                return False
        module = f"{module}.{attr}"
    return True


def unresolved_names(text: str) -> list[str]:
    """Back-ticked dotted names rooted at ``repro``, one of its packages,
    or a class defined under ``src/`` that do not resolve."""
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").is_file()}
    classes = _src_classes()
    exempt = _exempt_names()
    missing = []
    for name in _DOTTED_SPAN.findall(_FENCE.sub("", text)):
        root, *attrs = name.split(".")
        if name in exempt or root in sys.stdlib_module_names:
            continue
        if root == "repro" or root in packages:
            module = "repro" if root == "repro" else f"repro.{root}"
            ok = _walk(importlib.import_module(module), module, attrs)
        elif root in classes:
            ok = any(
                _walk(getattr(importlib.import_module(module), root), module, attrs)
                for module in classes[root]
            )
        else:
            continue
        if not ok:
            missing.append(name)
    return missing


class TestNamesResolve:
    """Every ``repro`` name the docs put in back-ticks exists.

    ``docs/ledger.md`` is exempt: its rows are history and name the code
    their verdicts deleted.
    """

    @pytest.mark.parametrize("path", [p for p in DOC_FILES if p != LEDGER], ids=doc_id)
    def test_back_ticked_names_resolve(self, path):
        assert unresolved_names(path.read_text()) == []

    def test_a_deleted_name_is_caught(self):
        text = (
            "`RegionFederation.submit()`, `ClusterPlatform.run(until=)`, "
            "`faas.cluster.ClusterPlatform.invoke`, `repro.faas.nope`, "
            "`ClusterPlatform.run_stream`, `faas.cluster.run_stream_s`, "
            "`random.gauss`, `fleet.in_flight`"
        )
        assert unresolved_names(text) == [
            "RegionFederation.submit",
            "ClusterPlatform.run",
            "faas.cluster.ClusterPlatform.invoke",
            "repro.faas.nope",
        ]


#: A cited test: ``tests/<path>.py::Class::test`` or ``tests/<path>.py::test``.
_TEST_ID = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+)+)`")
_RULE = re.compile(r"^\d+\. .*?(?=^\d+\. |^#|\Z)", re.M | re.S)


class TestSemanticsCitations:
    def test_every_cited_test_exists(self):
        cited = _TEST_ID.findall(SEMANTICS.read_text())
        assert cited
        for path, names in cited:
            scope = ast.parse((ROOT / path).read_text()).body
            for name in names.split("::")[1:]:
                node = next(
                    (
                        node
                        for node in scope
                        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                        and node.name == name
                    ),
                    None,
                )
                assert node is not None, f"{path}{names}: no {name!r}"
                scope = node.body
            assert name.startswith("test_"), f"{path}{names} is not a test"

    def test_every_rule_is_pinned_or_says_so(self):
        rules = _RULE.findall(SEMANTICS.read_text())
        assert len(rules) >= 13
        for rule in rules:
            assert "`tests/" in rule or "*unpinned*" in rule, rule

    def test_the_spec_stays_small(self):
        assert len(SEMANTICS.read_text().splitlines()) <= 250


#: A subcommand reference is either inline code (`` `slimstart cmd` ``)
#: or a command line inside a fenced block (``slimstart cmd ...``).
_DOC_PATTERN = r"(?m)(?:^|`)slimstart ([a-z][a-z0-9-]*)"


class TestCliDocsDrift:
    def test_every_subcommand_is_documented_in_readme(self):
        documented = set(re.findall(_DOC_PATTERN, README.read_text()))
        assert cli_subcommands() - documented == set()

    def test_readme_mentions_no_ghost_subcommands(self):
        documented = set(re.findall(_DOC_PATTERN, README.read_text()))
        assert documented - cli_subcommands() == set()

    def test_help_output_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in cli_subcommands():
            assert command in out, f"slimstart --help lost {command!r}"

    def test_readme_documents_tier1_command(self):
        assert "python -m pytest -x -q" in README.read_text()

    def test_module_docstring_covers_every_subcommand(self):
        import repro.cli

        for command in cli_subcommands():
            assert f"slimstart {command}" in repro.cli.__doc__, (
                f"repro.cli docstring lost ``slimstart {command}``"
            )
