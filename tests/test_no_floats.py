"""Source lint: the library never writes a float.

Values, residues and field elements are exact (ints, Fractions, and tuples
or dicts of them), and `Value` stores its coordinates as given, so nothing at
run time turns a stray float back into a Fraction.  This check walks the
syntax tree of every module under src/valforge and fails on any float
literal and any call of `float`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "valforge"
MODULES = sorted(SRC.glob("*.py"))


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "call of float()"


def test_lint_sees_every_module():
    assert {"values.py", "keypoly.py", "fields.py"} <= {m.name for m in MODULES}


def test_lint_catches_floats():
    tree = ast.parse("a = 0.5\nb = float(a)\nc = 1\nd = '0.5'\n")
    assert [line for line, _ in _floats(tree)] == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    found = list(_floats(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, ["%s:%d: %s" % (path.name, line, what)
                       for line, what in found]
