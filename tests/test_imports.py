"""Every imported name is used.

Each ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed, and
every name an import binds must be read somewhere in its module.  A
package ``__init__`` re-exports what it imports, and ``from __future__``
imports bind no name, so both are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos")
               for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name an import binds that the module never
    reads, in source order."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import dumps, loads as load\n"
              "print(os.sep, load)\n")
    assert unused_imports(source) == [(3, "np"), (4, "dumps")]


def test_every_top_directory_is_scanned():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} \
        == {"src", "tests", "demos"}
