"""Static checks on the package source: no module imports a name it never
uses, no module imports a private (underscore) name of a sibling, no
module reads a private attribute of another module's objects, no module
but ``linalg`` takes a matrix 2-norm or an SVD, and the valuation modules
(``reduction``, ``context``) build no level of strings as tuples."""

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


SVD_CALLS = {"svd", "svdvals", "matrix_rank", "pinv", "cond"}
NORM_CALLS = {"norm", "matrix_norm"}


def svd_calls(source: str) -> list[str]:
    """Calls that take an SVD: an SVD-based routine by name, or a ``norm`` of
    order 2, -2 or "nuc" (positional or ``ord=``), as ``name:line``."""
    def order(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = order(node.operand)
            return -value if isinstance(value, int) else None
        return node.value if isinstance(node, ast.Constant) else None

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        orders = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        if name in SVD_CALLS or (name in NORM_CALLS
                                 and any(order(o) in (2, -2, "nuc") for o in orders)):
            found.append(f"{name}:{node.lineno}")
    return found


def test_detector_finds_svd_calls():
    source = ("import numpy as np\nfrom numpy.linalg import svd, norm\n"
              "a = np.linalg.norm(x, 2, axis=(1, 2))\nb = norm(x, ord=-2)\n"
              "c = np.linalg.svd(x, compute_uv=False)\nd = svd(x)\n"
              "e = np.linalg.matrix_norm(x, ord='nuc')\nf = np.linalg.matrix_rank(x)\n"
              "g = np.linalg.norm(x)\nh = np.linalg.norm(x, axis=1)\n"
              "i = np.linalg.norm(x, 'fro')\nj = np.linalg.norm(x, ord=1)\n")
    assert svd_calls(source) == ["norm:3", "norm:4", "svd:5", "svd:6", "matrix_norm:7",
                                 "matrix_rank:8"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linalg"],
                         ids=[p.stem for p in MODULES if p.stem != "linalg"])
def test_only_linalg_takes_a_matrix_two_norm_or_an_svd(path):
    assert svd_calls(path.read_text(encoding="utf-8")) == []


def tuple_level_calls(source: str) -> list[str]:
    """Calls that build strings as tuples, level by level: ``itertools.product``
    (under any name it is imported as) and the ``levels`` or
    ``enumerate_strings`` of a monoid (a receiver whose name ends in
    "monoid"), as ``name:line``."""
    tree = ast.parse(source)
    modules, products = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "itertools")
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            products.update(a.asname or a.name for a in node.names if a.name == "product")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in products:
            found.append(f"product:{node.lineno}")
        elif isinstance(f, ast.Attribute):
            owner = (f.value.attr if isinstance(f.value, ast.Attribute)
                     else getattr(f.value, "id", ""))
            if (f.attr == "product" and owner in modules) or (
                    f.attr in ("levels", "enumerate_strings") and owner.lower().endswith("monoid")):
                found.append(f"{f.attr}:{node.lineno}")
    return found


def test_detector_finds_tuple_level_calls():
    source = ("import itertools\nimport itertools as it\nfrom itertools import product as p\n"
              "a = itertools.product('PQ', repeat=2)\nb = it.product('PQ')\nc = p('PQ')\n"
              "d = alphabet.monoid.levels(3)\ne = monoid.enumerate_strings(3)\n"
              "f = ProjStringMonoid.levels(m, 3)\ng = alphabet.levels(3)\n"
              "h = np.product(x)\ni = itertools.chain(x)\nj = self.monoid.decode(c, k)\n")
    assert tuple_level_calls(source) == ["product:4", "product:5", "product:6", "levels:7",
                                         "enumerate_strings:8", "levels:9"]


@pytest.mark.parametrize("module", ["reduction", "context"])
def test_valuation_modules_build_no_tuple_levels(module):
    assert tuple_level_calls((SRC / f"{module}.py").read_text(encoding="utf-8")) == []
