"""No cache outlives one command.

The benchmark runs each command in-process, so a functools cache on a
module-level function would carry results from one command to the next:
the benchmark would get faster while a real `cmtwist` run, a fresh
process, would not.
"""

import ast
import importlib
import pkgutil

import pytest

import cmtwist

MODULES = [cmtwist] + [importlib.import_module(f"cmtwist.{info.name}")
                       for info in pkgutil.iter_modules(cmtwist.__path__)]

CACHES = ("lru_cache", "cache")


def cache_decorator_lines(tree: ast.AST) -> list[int]:
    """Lines of the functools.lru_cache / functools.cache decorators in tree,
    under any import alias."""
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names
                      if a.name in CACHES}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id in names:
                lines.append(dec.lineno)
            elif (isinstance(target, ast.Attribute) and target.attr in CACHES
                  and isinstance(target.value, ast.Name)
                  and target.value.id in modules):
                lines.append(dec.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass\n", [2]),
    ("import functools as ft\n@ft.cache\ndef f(): pass\n", [2]),
    ("from functools import lru_cache\n@lru_cache\ndef f(): pass\n", [2]),
    ("from functools import cache as memo\nclass C:\n"
     "    @memo\n    def f(self): pass\n", [3]),
    ("def cache(f): return f\n@cache\ndef f(): pass\n", []),
], ids=["attribute-call", "module-alias", "name", "name-alias", "own-cache"])
def test_detector(source, lines):
    assert cache_decorator_lines(ast.parse(source)) == lines


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_functools_cache(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module.__file__)
    lines = cache_decorator_lines(tree)
    assert lines == [], f"{module.__file__}: functools cache at lines {lines}"
