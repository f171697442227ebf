"""Static checks on the package source: no module imports a name it never uses."""

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


def test_detector_finds_unused_imports():
    source = ("import os\nimport numpy as np\nfrom typing import Iterator, Sequence\n"
              "def f(x: Sequence) -> int:\n    return np.size(x)\n")
    assert unused_imports(source) == ["Iterator", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
