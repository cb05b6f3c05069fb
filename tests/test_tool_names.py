"""The scripts under ``tools/`` use only names that the package has.

They reach the package, and private kernels such as ``calculus._expm1``
and ``algebra._product``, through ``jn.``, ``calculus.`` and ``algebra.``
attributes, and no other test runs them (``tools/exp_accuracy.py`` takes
minutes). This walks each script's AST and looks every such attribute up
in its module, so a kernel removed or renamed in ``src/`` shows up here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))
MODULES = {"jn": "jordannum", "calculus": "jordannum.calculus",
           "algebra": "jordannum.algebra"}


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.name)
def test_every_attribute_resolves(path):
    missing = sorted(
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in MODULES
        and not hasattr(importlib.import_module(MODULES[node.value.id]),
                        node.attr))
    assert missing == []
