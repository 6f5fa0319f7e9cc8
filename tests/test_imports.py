"""Every imported name is used, and ``src/`` imports only what it may.

Each ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed, and
every name an import binds must be read somewhere in its module.  A
package ``__init__`` re-exports what it imports, and ``from __future__``
imports bind no name, so both are exempt.  Every absolute import under
``src/`` is of a standard-library module or of a dependency that
``pyproject.toml`` lists, so the package never needs a test extra such as
scipy.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos")
               for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")
SRC_FILES = sorted((ROOT / "src").rglob("*.py"))


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


def dependencies() -> set:
    """The import names of ``pyproject.toml``'s dependencies, such as
    numpy of ``numpy>=1.24``."""
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
            for dep in project["dependencies"]}


def foreign_imports(source: str) -> list:
    """``(line, top-level module)`` of each absolute import of a module
    neither in the standard library nor in :func:`dependencies`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    allowed = sys.stdlib_module_names | dependencies()
    return [(line, top) for line, top in found if top not in allowed]


@pytest.mark.parametrize("path", SRC_FILES,
                         ids=[str(p.relative_to(ROOT)) for p in SRC_FILES])
def test_src_imports_stdlib_or_dependencies(path):
    assert foreign_imports(path.read_text()) == []


def test_scan_finds_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nimport scipy\n"
              "from scipy.optimize import linear_sum_assignment\n"
              "from . import geometry\nfrom .coco import worker_count\n"
              "def f():\n    import scipy.optimize\n")
    assert dependencies() == {"numpy"}
    assert foreign_imports(source) == [(4, "scipy"), (5, "scipy"),
                                       (9, "scipy")]
