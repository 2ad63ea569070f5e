"""The helper pool stands alone behind its public names.

``src/ppcplab/pool.py`` imports only the standard library, so no
``ppcplab`` module; and no other package module imports a ``_``-prefixed
name from it or reads one off it.  Stdlib ``ast`` only.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ppcplab"


def outside_stdlib(source: str) -> list[str]:
    """Every module that ``source`` imports from outside the standard
    library, a relative one with its dots."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def private_pool_names(source: str) -> list[str]:
    """The ``_``-prefixed names of the pool that a package module's
    ``source`` imports, or reads as an attribute of a name it binds to the
    pool module."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module in (".pool", "ppcplab.pool") and alias.name.startswith("_"):
                    found.append(alias.name)
                if module in (".", "ppcplab") and alias.name == "pool":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names if alias.name == "ppcplab.pool" and alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
        ):
            found.append(node.attr)
    return found


def test_the_pool_imports_the_standard_library_only():
    assert outside_stdlib((SRC / "pool.py").read_text()) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "pool.py"), ids=lambda p: p.name)
def test_no_module_reaches_a_private_name_of_the_pool(path):
    assert private_pool_names(path.read_text()) == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("from . import pool\npool.run_beside([], f)\npool.ranges(3)\n", []),
        ("from .pool import _helpers, ranges\n", ["_helpers"]),
        ("from ppcplab.pool import _serve\n", ["_serve"]),
        ("from . import pool\npool._busy\n", ["_busy"]),
        ("from . import pool as helpers\nhelpers._Helper.drop\n", ["_Helper"]),
        ("import ppcplab.pool as p\np._split_parts(2)\n", ["_split_parts"]),
        ("from . import formula\nformula._private\n", []),
    ],
)
def test_the_check_sees_each_way_in(source, names):
    assert private_pool_names(source) == names


def test_the_stdlib_check_sees_a_package_import():
    source = "from __future__ import annotations\nimport os\nfrom .formula import GuardError\nimport ppcplab.awsat\n"
    assert outside_stdlib(source) == [".formula", "ppcplab.awsat"]
