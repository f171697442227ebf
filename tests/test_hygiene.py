"""Static checks on the package source: no module imports a name it never
uses, no module imports a private (underscore) name of a sibling, and no
module reads a private attribute of another module's objects."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "monoidtopos"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package."""
    tree = ast.parse(source)
    return sorted(a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "monoidtopos")
                  for a in node.names if a.name.startswith("_"))


def foreign_private_reads(source: str) -> list[str]:
    """Private attributes (``obj._name``, not dunder) read off an object
    other than ``self`` or ``cls`` that the module never defines: no
    function, class, name or attribute of that name is bound in it."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))}
    return sorted(read - defined)


def test_detector_finds_unused_imports():
    source = ("import os\nimport numpy as np\nfrom typing import Iterator, Sequence\n"
              "def f(x: Sequence) -> int:\n    return np.size(x)\n")
    assert unused_imports(source) == ["Iterator", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_finds_private_sibling_imports():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .dsl import _lex, parse_spec\nfrom . import _private\n"
              "from monoidtopos.linalg import _helper\nfrom ..x import _up\n")
    assert private_sibling_imports(source) == ["_helper", "_lex", "_private", "_up"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_no_private_name_of_a_sibling(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_detector_finds_foreign_private_reads():
    source = ("class A:\n    def _own(self):\n        return self._hidden, cls._meta\n"
              "def f(a, b):\n    b._slot = 1\n"
              "    return a._own(), a._slot, a.__dict__, a._theirs, b.c._deep\n")
    assert foreign_private_reads(source) == ["_deep", "_theirs"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_no_private_attribute_it_does_not_define(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []
