"""Source lint: the library never writes a float and never imports sympy.

Values, residues and field elements are exact (ints, Fractions, and tuples
or dicts of them).  `Value` holds integer numerators over one positive
integer denominator and is built from ints and Fractions only (a float has
no `numerator`), so a float would have to come from a literal or a call of
`float` elsewhere, and nothing at run time would turn it back into a
Fraction.  Factoring and every other piece of algebra run on valforge's own code, so no run imports sympy.  This
check walks the syntax tree of every module under src/valforge and fails on
any float literal, any call of `float`, and any import of sympy or of one of
its submodules.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "valforge"
MODULES = sorted(SRC.glob("*.py"))


def _is_sympy(module):
    return module is not None and module.split(".")[0] == "sympy"


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "call of float()"
        elif ((isinstance(node, ast.Import)
               and any(_is_sympy(a.name) for a in node.names))
              or (isinstance(node, ast.ImportFrom) and not node.level
                  and _is_sympy(node.module))):
            yield node.lineno, "import of sympy"


def test_lint_sees_every_module():
    assert {"values.py", "keypoly.py", "fields.py"} <= {m.name for m in MODULES}


def test_lint_catches_floats():
    tree = ast.parse("a = 0.5\nb = float(a)\nc = 1\nd = '0.5'\n")
    assert [line for line, _ in _violations(tree)] == [1, 2]


def test_lint_catches_sympy_imports():
    tree = ast.parse("import os, sympy\nfrom sympy.polys import Poly\n"
                     "import sympyish\nfrom .sympy import x\n"
                     "def f():\n    import sympy as sp\n")
    assert [line for line, _ in _violations(tree)] == [1, 2, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    found = list(_violations(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, ["%s:%d: %s" % (path.name, line, what)
                       for line, what in found]
