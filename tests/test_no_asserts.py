"""Correctness checks raise errors: `python -O` strips assert statements."""

import ast

import pytest

from cmtwist import bsd, coeffs, eisenstein, lseries, registry


@pytest.mark.parametrize("module", [bsd, coeffs, eisenstein, lseries, registry],
                         ids=lambda m: m.__name__)
def test_no_assert_statements(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), module.__file__)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.__file__}: assert at lines {lines}"
