"""What a command loads before it works.

Every `cmtwist` command is a fresh process that compiles and runs the
modules `cmtwist.cli` imports.  That import loads no `dataclasses` (its
decorators exec generated code), and neither the torsion sums
(`eisenstein`), the modular symbols (`modsym`) nor the scenarios of
`verify`, which only the commands that use them import.  No module imports
`cmtwist.cli`, so `python -m cmtwist.cli` compiles it once, as `__main__`.
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


def cli_import_lines(tree: ast.AST) -> list[int]:
    """Lines of the statements in tree, a module of the flat package
    cmtwist, that import cmtwist.cli in any form."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import names a module of cmtwist itself
            base = ".".join(filter(None, ["cmtwist" if node.level else "",
                                          node.module]))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "cmtwist.cli" or n.startswith("cmtwist.cli.") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("from .cli import main\n", [1]),
    ("from . import bsd, cli\n", [1]),
    ("import cmtwist.cli\n", [1]),
    ("import cmtwist.cli as c\n", [1]),
    ("from cmtwist.cli import RunConfig\n", [1]),
    ("from cmtwist import cli\n", [1]),
    ("def f():\n    from .cli import main\n", [2]),
    ("from . import census\nfrom .census import fork_map\n", []),
    ("import cmtwist.census\nfrom cmtwist import client\nimport cli\n", []),
    ("from .clinic import x\nfrom ..cli import y\n", [2]),
], ids=["relative-from", "relative-name", "absolute", "alias", "absolute-from",
        "package-name", "nested", "census", "look-alikes", "parent-package"])
def test_cli_detector(source, lines):
    assert cli_import_lines(ast.parse(source)) == lines


@pytest.mark.parametrize("path", sorted((SRC / "cmtwist").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_the_cli(path):
    # cli parses and prints: nothing else depends on it, so running it as
    # `python -m cmtwist.cli` never compiles it a second time
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = cli_import_lines(tree)
    assert lines == [], f"{path}: cmtwist.cli imported at lines {lines}"


def test_verify_run_as_main_compiles_the_cli_once():
    # -X importtime lists every module imported; cli itself runs as
    # __main__, so a cmtwist.cli row would be its second compilation
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cmtwist.cli", "verify",
         "lemma-div"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.startswith("PASS  lemma-div")
    modules = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")]
    assert "cmtwist.verify" in modules and "cmtwist.census" in modules
    assert "cmtwist.cli" not in modules
