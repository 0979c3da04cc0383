"""Every top-level import of a library module is used in that module, and no
module imports an underscore name from a sibling."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "senlab"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == [(1, "os"), (2, "comb")]


def _private_sibling_imports(source):
    """(line, name) of every underscore name imported from a sibling module."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("senlab"))
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_sibling_import(path):
    # a module's underscore names are its own: siblings use its public API
    assert _private_sibling_imports(path.read_text()) == []


def test_detects_a_private_sibling_import():
    source = ("from __future__ import annotations\nfrom . import linalg, _cache\n"
              "from .field import _scalar, qp_field\nfrom senlab.padic import _PRIMES\n"
              "from os import _exit\n")
    assert _private_sibling_imports(source) == [(2, "_cache"), (3, "_scalar"), (4, "_PRIMES")]
