"""Source lint: every imported name is used where it is imported.

A name that a module imports and never reads is dead code, and it hides
what the module depends on.  This check walks the syntax tree of every
module under src/valforge and tests and fails on any name bound by an
`import` or `from ... import` (at any depth of the module) that the module
neither loads anywhere nor lists in its `__all__`, which is how the package
root and a module's public names re-export what they import.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "valforge").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _exported(tree):
    """The names in a module-level `__all__ = [...]` or `(...)`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def _unused(tree):
    """(line, name) for each imported name that the module never loads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for line, name in imported if name not in used)


def test_lint_sees_every_module():
    names = {m.name for m in MODULES}
    assert {"scenario.py", "__init__.py", "inputs.py",
            "test_imports_used.py"} <= names


def test_lint_catches_unused_imports():
    tree = ast.parse("import os, os.path as osp\nimport a.b\n"
                     "from m import x, y as z\nfrom __future__ import annotations\n"
                     "__all__ = ['x']\n"
                     "def f():\n    import json\n    return a.b, z\n")
    assert _unused(tree) == [(1, "os"), (1, "osp"), (7, "json")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_every_import_is_used(path):
    found = _unused(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, ["%s:%d: %s imported and unused" % (path.name, line, name)
                       for line, name in found]
