"""Every name a raidlab module imports is used by that module.

A static check with the stdlib `ast`: a module's imported names must appear
as a name somewhere else in it, or in its `__all__`; the package's
`__init__.py` re-exports what it imports, so all of its imports count.
"""

import ast
from pathlib import Path

import pytest

import raidlab

PACKAGE = Path(raidlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source, reexports=False):
    """(line, name) of each name that `source` imports and never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    if reexports:
        return []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(),
                          reexports=path.name == "__init__.py") == []


def test_checker_reports_unused_names():
    source = ("import os, sys as system\n"
              "import numpy.linalg\n"
              "from math import pi, tau as turn\n"
              "from . import gf\n"
              "__all__ = ['pi']\n"
              "def f():\n"
              "    from json import dumps\n"
              "    return system.argv, numpy.linalg\n")
    assert unused_imports(source) == [(1, "os"), (3, "turn"), (4, "gf"),
                                      (7, "dumps")]
    assert unused_imports(source, reexports=True) == []
