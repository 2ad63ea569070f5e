"""Every definition in ``src/ppcplab`` has a user.

The package modules are parsed with ``ast``.  A top-level function or class
must be named somewhere besides its own definition, in ``src``, ``tests``,
``bench`` or ``pyproject.toml``.  A method other than a dunder must be
referenced as ``.name`` (an attribute access) or as ``"name"`` (the string
tables that ``bench/tracer.py`` wraps by name) somewhere in those files.
Stdlib only, and no allow-list: a definition nothing reaches is deleted.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ppcplab").glob("*.py"))


def corpus() -> str:
    """The text of every Python file of src, tests and bench, this one
    excepted, and of pyproject.toml."""
    files = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    files = [p for p in files if p.resolve() != Path(__file__).resolve()]
    return "\n".join(p.read_text() for p in [*files, ROOT / "pyproject.toml"])


def definitions():
    """(module, top-level function and class names, (class, method) pairs)."""
    for path in MODULES:
        tree = ast.parse(path.read_text())
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        top = [node for node in tree.body if isinstance(node, defs)]
        methods = [
            (cls.name, node.name)
            for cls in top
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        yield path.name, [node.name for node in top], methods


def test_every_top_level_definition_is_named_elsewhere():
    # a whole word of the corpus is one occurrence of the name it spells
    words = Counter(re.findall(r"\w+", corpus()))
    unused = [
        f"{module}:{name}"
        for module, names, _ in definitions()
        for name in names
        # the definition itself is one occurrence
        if words[name] < 2
    ]
    assert unused == []


def test_every_method_is_referenced():
    text = corpus()
    unused = [
        f"{module}:{cls}.{name}"
        for module, _, methods in definitions()
        for cls, name in methods
        if not (name.startswith("__") and name.endswith("__"))
        and not re.search(rf'\.{re.escape(name)}(?!\w)|"{re.escape(name)}"', text)
    ]
    assert unused == []
