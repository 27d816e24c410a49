"""Source lint: a refusal's place is written by a locator, never by its raiser.

Two functions put a place before a refusal's reason: `keypoly.located`
(`branch P: stage S, key Q = K: `) for chains, and `scenario._located`
(`line N: key: ` or `--option: `) for input.  This check walks the syntax
tree of every module under src/valforge and fails on a `raise` that builds
a `Refusal` subclass from a message whose leading string constant starts
with a place (`line `, `branch ` or `--`).
"""

import ast
import importlib
import pathlib

import pytest

from valforge.fields import Refusal

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "valforge").glob("*.py"))
PLACES = ("line ", "branch ", "--")


def _refusal_types():
    """The names of the `Refusal` classes the package's modules define or
    import."""
    names = set()
    for path in MODULES:
        if not path.stem.startswith("__"):
            module = importlib.import_module("valforge." + path.stem)
            names |= {name for name, obj in vars(module).items()
                      if isinstance(obj, type) and issubclass(obj, Refusal)}
    return names


def _leading_text(node):
    """The string constant a message expression starts with, if any: the
    left operand of `%` or `+`, or the first part of an f-string."""
    while isinstance(node, ast.BinOp):
        node = node.left
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _placed(tree, types):
    """(line, message start) for each refusal built inside a `raise` whose
    message starts with a place."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            continue
        for call in ast.walk(node.exc):
            if not (isinstance(call, ast.Call) and call.args):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            text = _leading_text(call.args[0])
            if name in types and text is not None and text.startswith(PLACES):
                found.append((call.lineno, text))
    return found


def test_lint_knows_every_refusal_type():
    assert {"Refusal", "ScenarioError", "ChainError", "ReportError",
            "InsufficientPrecision", "UnsupportedStructure"} <= _refusal_types()


def test_lint_catches_a_raiser_that_writes_its_place():
    tree = ast.parse(
        "raise ScenarioError('line %d: bad' % n)\n"
        "raise located(ChainError('branch ' + p + ': x'), ch)\n"
        "raise fields.Refusal(f'--depth: {d}')\n"
        "raise ScenarioError('no branch %d' % n)\n"
        "raise _located(ScenarioError('bad'), row, 'depth')\n"
        "raise ValueError('line 1: not a refusal')\n"
        "raise type(exc)(where + str(exc))\n")
    assert _placed(tree, _refusal_types()) == [
        (1, "line %d: bad"), (2, "branch "), (3, "--depth: ")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_refusals_leave_their_place_to_a_locator(path):
    found = _placed(ast.parse(path.read_text(encoding="utf-8")),
                    _refusal_types())
    assert not found, ["%s:%d: a refusal writes its own place: %r"
                       % (path.name, line, text) for line, text in found]
