"""What a command loads before it works.

Every `cmtwist` command is a fresh process that compiles and runs the
modules `cmtwist.cli` imports.  That import loads no `dataclasses` (its
decorators exec generated code), and neither the torsion sums
(`eisenstein`), the modular symbols (`modsym`) nor the scenarios of
`verify`, which only the commands that use them import.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
UNUSED_AT_IMPORT = ("dataclasses", "cmtwist.eisenstein", "cmtwist.modsym",
                    "cmtwist.verify")


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_dataclasses_and_no_optional_module():
    loaded = _loaded_after("import cmtwist.cli")
    assert "cmtwist.cli" in loaded
    assert loaded.isdisjoint(UNUSED_AT_IMPORT), loaded & set(UNUSED_AT_IMPORT)


def test_a_table_loads_neither_eisenstein_nor_verify():
    loaded = _loaded_after(
        "import contextlib, io\nfrom cmtwist.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table', '1', '50']) == 0")
    assert "cmtwist.modsym" in loaded            # the rows' symbols
    assert loaded.isdisjoint({"cmtwist.eisenstein", "cmtwist.verify"})


def dataclasses_import_lines(tree: ast.AST) -> list[int]:
    """Lines of the statements in tree that import dataclasses."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses"]


@pytest.mark.parametrize("source, lines", [
    ("import dataclasses\n", [1]),
    ("import os, dataclasses as dc\n", [1]),
    ("x = 1\nfrom dataclasses import dataclass\n", [2]),
    ("def f():\n    from dataclasses import replace\n", [2]),
    ("from typing import NamedTuple\nimport dataclass_wizard\n", []),
], ids=["import", "alias", "from", "nested", "other"])
def test_detector(source, lines):
    assert dataclasses_import_lines(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted((SRC / "cmtwist").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = dataclasses_import_lines(tree)
    assert lines == [], f"{path}: dataclasses imported at lines {lines}"
