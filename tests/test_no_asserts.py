"""Correctness checks raise errors: `python -O` strips assert statements."""

import ast
import importlib
import pkgutil

import pytest

import cmtwist

MODULES = [cmtwist] + [importlib.import_module(f"cmtwist.{info.name}")
                       for info in pkgutil.iter_modules(cmtwist.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_assert_statements(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module.__file__)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.__file__}: assert at lines {lines}"
