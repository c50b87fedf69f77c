"""Every name a raidlab module imports is used by that module, every
function, method or property raidlab defines is named somewhere, and every
option it offers is set somewhere.

Static checks with the stdlib `ast`:
- a module's imported names must appear as a name somewhere else in it, or
  in its `__all__`; the package's `__init__.py` re-exports what it imports,
  so all of its imports count;
- a function defined in a raidlab module must be named (called, read,
  imported, or spelled in a string that is not a docstring) in some Python
  file under src, tests, demos or perfbench; a method or property must be
  read there as an attribute or spelled in such a string.  Dunder methods
  are exempt: Python calls them;
- a field of a raidlab dataclass must be read in one of those files, as an
  attribute load or a `getattr` with a constant name: a field that is only
  set is data that nothing reads;
- a parameter with a default must be passed, by keyword or by position, by
  some call in those files: a default that no call overrides is an option
  that nothing sets.
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


def methods(source):
    """(line, name) of each method or property in `source`: a definition
    directly in a class body."""
    return sorted((item.lineno, item.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, DEFS))


def spelled(source):
    """Every word of a string constant in `source` that is not a
    docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef) + DEFS)
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            for word in re.findall(r"[A-Za-z_]\w*", node.value)}


def named(source):
    """Every identifier that `source` names: as a name, an attribute, an
    import, or a word of a string constant that is not a docstring."""
    out = spelled(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def test_every_definition_is_named():
    sources = [p.read_text() for p in CORPUS]
    used = set().union(*map(named, sources))
    # a method is reached through an attribute, not a bare name
    attributes = set().union(*map(read, sources), *map(spelled, sources))
    unnamed = []
    for path in MODULES:
        source = path.read_text()
        inside = methods(source)
        unnamed += ["%s:%d %s" % (path.name, line, name)
                    for line, name in definitions(source)
                    if name not in (attributes if (line, name) in inside
                                    else used)]
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
    assert spelled(source) == {"trace", "h"}


def test_method_must_be_read_as_attribute():
    # a local variable that shares a method's name does not use the method
    source = ("class D:\n"
              "    @property\n"
              "    def support(self): return ()\n"
              "    def mean(self): return 0\n"
              "support = [1]\n"
              "print(support, D().mean())\n")
    assert methods(source) == [(3, "support"), (4, "mean")]
    assert "support" in named(source)
    assert "support" not in read(source) | spelled(source)
    assert "mean" in read(source)


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


def defaulted(source):
    """(line, function, parameter, position) of each parameter with a
    default in `source`.  position is the parameter's index among the
    positional parameters, not counting a leading `self` or `cls`, or None
    for a keyword-only parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, DEFS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        offset = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first = len(positional) - len(args.defaults)
        out += [(p.lineno, node.name, p.arg, i - offset)
                for i, p in enumerate(positional) if i >= first]
        out += [(p.lineno, node.name, p.arg, None)
                for p, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return sorted(out)


def callee(node):
    """The name a call expression calls, matched as `named()` matches it."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls(source):
    """(name, positional count, keywords, unpacked) of each call in
    `source`; unpacked is True for a call with `*` or `**` arguments.  A
    block function handed to `montecarlo.run` counts as called with
    unpacking: the engine calls it as block(rng, size, *args)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        unpacked = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        out.append((callee(node.func), len(node.args),
                    {k.arg for k in node.keywords}, unpacked))
        if ast.unparse(node.func) == "montecarlo.run" and node.args:
            out.append((callee(node.args[0]), 0, set(), True))
    return out


def unset(source, seen, exempt=()):
    """(line, function, parameter) of each defaulted parameter in `source`
    that no call in `seen` (the output of `calls`) passes, by keyword or by
    position.  Functions named in `exempt`, or called anywhere with
    unpacking, are skipped."""
    out = []
    for line, fn, param, position in defaulted(source):
        mine = [c for c in seen if c[0] == fn]
        if fn in exempt or any(unpacked for _, _, _, unpacked in mine):
            continue
        if not any(param in keywords or (position is not None and n > position)
                   for _, n, keywords, _ in mine):
            out.append((line, fn, param))
    return out


def test_every_default_is_set():
    from raidlab.builders import BUILDERS
    seen = [c for p in CORPUS for c in calls(p.read_text())]
    # the CLI reaches every builder through build_code(**params)
    exempt = {fn.__name__ for fn in BUILDERS.values()}
    never = ["%s:%d %s(%s)" % (path.name, line, fn, param)
             for path in MODULES
             for line, fn, param in unset(path.read_text(), seen, exempt)]
    assert never == []


def test_default_checker_matches_calls():
    source = ("import montecarlo\n"
              "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "class C:\n"
              "    def m(self, x=0, y=1): pass\n"
              "    @classmethod\n"
              "    def k(cls, z=0): pass\n"
              "def g(u=0): pass\n"
              "def h(v=0): pass\n"
              "def block(rng, size, w=0): pass\n"
              "def built(t=0): pass\n"
              "f(0, 1, d=5)\n"
              "C().m(7)\n"
              "C.k()\n"
              "g(**{})\n"
              "h(*[])\n"
              "montecarlo.run(block, (), 0, 10)\n")
    assert defaulted(source) == [
        (2, "f", "b", 1), (2, "f", "c", 2), (2, "f", "d", None),
        (2, "f", "e", None), (4, "m", "x", 0), (4, "m", "y", 1),
        (6, "k", "z", 0), (7, "g", "u", 0), (8, "h", "v", 0),
        (9, "block", "w", 2), (10, "built", "t", 0)]
    seen = calls(source)
    assert ("block", 0, set(), True) in seen
    assert unset(source, seen, exempt={"built"}) == [
        (2, "f", "c"), (2, "f", "e"), (4, "m", "y"), (6, "k", "z")]
