"""Every name a raidlab module imports is used by that module, and every
function, method or property raidlab defines is named somewhere.

Static checks with the stdlib `ast`:
- a module's imported names must appear as a name somewhere else in it, or
  in its `__all__`; the package's `__init__.py` re-exports what it imports,
  so all of its imports count;
- a function, method or property defined in a raidlab module must be named
  (called, read, imported, or spelled in a string that is not a docstring)
  in some Python file under src, tests, demos or perfbench.  Dunder methods
  are exempt: Python calls them;
- a field of a raidlab dataclass must be read in one of those files, as an
  attribute load or a `getattr` with a constant name: a field that is only
  set is data that nothing reads.
"""

import ast
import re
from pathlib import Path

import pytest

import raidlab

PACKAGE = Path(raidlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# this file's own checker fixtures name nothing in raidlab
CORPUS = sorted(p for d in ("src", "tests", "demos", "perfbench")
                for p in (ROOT / d).rglob("*.py")
                if p != Path(__file__).resolve())


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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source):
    """(line, name) of each function, method or property in `source`,
    dunder methods aside."""
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, DEFS) and not (
                      node.name.startswith("__") and node.name.endswith("__")))


def named(source):
    """Every identifier that `source` names: as a name, an attribute, an
    import, or a word of a string constant that is not a docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef) + DEFS)
                  and node.body and isinstance(node.body[0], ast.Expr)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def test_every_definition_is_named():
    used = set().union(*(named(p.read_text()) for p in CORPUS))
    unnamed = ["%s:%d %s" % (path.name, line, name) for path in MODULES
               for line, name in definitions(path.read_text())
               if name not in used]
    assert unnamed == []


def test_definition_checker_skips_docstrings():
    source = ('import a.helper\n'
              'class C:\n'
              '    """spelled: f g k"""\n'
              '    def __init__(self): pass\n'
              '    @property\n'
              '    def f(self): return 1\n'
              '    def g(self): return self.f\n'
              'def h(): return "trace h"\n'
              'def helper(): pass\n'
              'def k(): pass\n')
    assert definitions(source) == [(6, "f"), (7, "g"), (8, "h"),
                                   (9, "helper"), (10, "k")]
    names = named(source)
    assert {"f", "h", "helper"} <= names
    assert not {"g", "k"} & names


def dataclass_fields(source):
    """(line, class, field) of each field of each `@dataclass` class in
    `source`: its annotated class-level names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        # @dataclass, @dataclass(...) or @dataclasses.dataclass
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            out += [(item.lineno, node.name, item.target.id)
                    for item in node.body if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    return sorted(out)


def read(source):
    """Every attribute name that `source` loads: `x.name` read, or
    `getattr(x, "name")` with a constant name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            out.add(node.args[1].value)
    return out


def test_every_dataclass_field_is_read():
    loaded = set().union(*(read(p.read_text()) for p in CORPUS))
    unread = ["%s:%d %s.%s" % (path.name, line, cls, name)
              for path in MODULES
              for line, cls, name in dataclass_fields(path.read_text())
              if name not in loaded]
    assert unread == []


def test_field_checker_counts_loads_only():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class P:\n"
              "    a: int\n"
              "    b: int = 0\n"
              "    c: list = field(default_factory=list)\n"
              "    d = 4\n"
              "class Q:\n"
              "    e: int\n"
              "def f(p):\n"
              "    p.b = 1\n"
              "    return p.a, getattr(p, 'c')\n")
    assert dataclass_fields(source) == [(4, "P", "a"), (5, "P", "b"),
                                        (6, "P", "c")]
    assert {"a", "c"} <= read(source)
    assert "b" not in read(source)
