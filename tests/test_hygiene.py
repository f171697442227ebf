"""Static checks on the package source: no module imports a name it never
uses, and no module imports a private (underscore) name of a sibling."""

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
